"""Every library module lists exactly its public top-level names in __all__,
and every one of them has a caller in the library."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import schottkycalc

# cli is the command-line front end and exports no library API
MODULES = sorted(m.name for m in pkgutil.iter_modules(schottkycalc.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_names(name):
    mod = importlib.import_module(f"schottkycalc.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = [
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    ]
    unlisted = sorted(set(defined) - set(mod.__all__))
    assert not unlisted, f"{name} defines public names missing from __all__: {unlisted}"


# public names that no code of the library loads, each kept for a reason
UNCALLED = {
    "from_classical": "handle data from fixed points and multiplier, the classical parametrization",
    "moment_identity": "one (cocycle, point) pair of moment_identities, the contour identity",
    "nabla_punctured_apply": "the variation operator with moving punctures, a paper result",
    "period_gradient": "Cauchy-moment cross-check of exact_period_gradient",
    "sl2_apply": "the coboundary (sl2) directions of the variation field, a paper result",
    "to_classical": "fixed points and multiplier of a handle, the inverse of from_classical",
    "transport": "conjugation of a surface, the Moebius covariance tests rest on",
}


def _loaded_names() -> set[str]:
    """Every name the library's code loads: a bare name, an attribute or an
    imported name."""
    names = set()
    for path in Path(schottkycalc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_in_the_library():
    loaded = _loaded_names()
    uncalled = sorted(
        name
        for module in MODULES
        for name in importlib.import_module(f"schottkycalc.{module}").__all__
        if name not in loaded
    )
    assert uncalled == sorted(UNCALLED), "move a name only tests call into the tests"
