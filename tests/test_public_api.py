"""Every library module lists exactly its public top-level names in __all__."""
import importlib
import inspect
import pkgutil

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
