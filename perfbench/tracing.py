"""Per-layer spans for the schottkycalc modules, installed from outside the library.

Tracer.install() wraps every public function and every public method of the
traced layers (the modules in LAYERS) in a span recorder. A function is
replaced wherever the package holds it by value: as a module attribute
(`cli.canonical_gem`, `cli.period_matrix`, `poincare.build_shells`, ...) and
as a value of a module-level dict (`cli._COMMANDS`). Methods are patched once,
on their class. Tracer.uninstall() puts every original back, so untraced
operations run the unmodified library. `contour` and `moebius` are too cheap
to time on their own and are not wrapped; their time counts as self time of
the layer that calls them.

A span records its name, start, end, parent span and operation id. Spans stay
in memory and dump() writes them out. The counters behind the per-layer
metrics come from each call's arguments and return value and from evaluator
attributes the library exposes (`shells` and the last shell magnitudes).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "schottkycalc"
LAYERS = ("schottky", "poincare", "gem", "variation", "eichler", "cli")

# spans that the metrics refer to by a short name
ALIASES = {
    "poincare.BersEvaluator.value_grid": "poincare.bers",
    "poincare.NuFamily.values": "poincare.nu",
    "poincare.ThirdKindEvaluator.value_grid": "poincare.third_kind",
    "gem.SpanningTheta.table": "gem.spanning_table",
    "gem.DualBasis.values": "gem.dual_values",
    "gem.CanonicalGEM.value_grid": "gem.canonical_value_grid",
    "variation.nu_normalization_error": "variation.nu_normalization",
}

SERIES = ("poincare.bers", "poincare.nu", "poincare.third_kind")
SUITES = ("cocycle", "residue", "quasiperiod", "coboundary", "canonical", "gemcont", "nu-norm", "rauch")

# float64 resolution: a shell whose magnitude is below this share of the
# largest total cannot change any output digit
USEFUL_REL = 2.0**-52

# (name, unit, better): every per-layer metric a traced run reports
PER_LAYER = (
    [
        (f"{s}.{q}", unit, "lower")
        for s in ("poincare.bers", "poincare.nu")
        for q, unit in (("calls", "count"), ("s", "s"), ("terms", "count"))
    ]
    + [
        ("poincare.bers.terms_per_s", "1/s", "higher"),
        ("poincare.nu.terms_per_s", "1/s", "higher"),
        ("poincare.third_kind.calls", "count", "lower"),
        ("poincare.third_kind.s", "s", "lower"),
        ("poincare.shells_used_ratio", "ratio", "higher"),
        ("poincare.useful_word_frac", "ratio", "higher"),
        ("poincare.truncation_warnings", "count", "lower"),
        ("poincare.limit_points.s", "s", "lower"),
        ("schottky.build_shells.calls", "count", "lower"),
        ("schottky.build_shells.s", "s", "lower"),
        ("schottky.words_built", "count", "lower"),
        ("gem.canonical_gem.calls", "count", "lower"),
        ("gem.canonical_gem.s", "s", "lower"),
        ("gem.select_basis.s", "s", "lower"),
        ("gem.canonical_correction.s", "s", "lower"),
        ("gem.spanning_table.calls", "count", "lower"),
        ("gem.spanning_table.s", "s", "lower"),
        ("gem.spanning_table.points", "count", "lower"),
        ("gem.dual_values.calls", "count", "lower"),
        ("gem.dual_values.s", "s", "lower"),
        ("gem.canonical_over_raw", "ratio", "lower"),
        ("variation.period_matrix.calls", "count", "lower"),
        ("variation.period_matrix.s", "s", "lower"),
        ("variation.period_matrix.self_s", "s", "lower"),
        ("variation.nu_normalization.s", "s", "lower"),
        ("variation.period_gradient.s", "s", "lower"),
        ("variation.rauch_check.s", "s", "lower"),
        ("variation.theta2_table.s", "s", "lower"),
    ]
    + [(f"cli.suite.{name}.s", "s", "lower") for name in SUITES]
    + [
        ("cli.min_margin_dec", "dec", "higher"),
        ("eichler.s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio", "lower")]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# counters taken from call arguments, return values and evaluator attributes


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _shell_mags(ev) -> list[float]:
    mags = getattr(ev, "last_shell_magnitudes", None)
    if mags is None:
        mags = getattr(ev, "_last_shell_mags")
    return [float(m) for m in mags]


def _series_counters(ev, xs, targets: int, result) -> dict:
    mags = _shell_mags(ev)
    sizes = [ev.shells.shell_size(length) for length in range(len(mags))]
    words = sum(sizes)
    floor = USEFUL_REL * float(np.max(np.abs(result))) if np.size(result) else 0.0
    return {
        "terms": words * len(np.atleast_1d(xs)) * targets,
        "words": words,
        "useful_words": sum(n for n, m in zip(sizes, mags) if m > floor),
        "shells": len(mags),
        "shells_enumerated": ev.shells.max_len + 1,
    }


def _grid_hook(args, kwargs, result):
    ys = _arg(args, kwargs, 2, "ys")
    return _series_counters(args[0], _arg(args, kwargs, 1, "xs"), len(np.atleast_1d(ys)), result)


def _nu_hook(args, kwargs, result):
    ev = args[0]
    return _series_counters(ev, _arg(args, kwargs, 1, "xs"), len(ev.images), result)


HOOKS = {
    "poincare.bers": _grid_hook,
    "poincare.third_kind": _grid_hook,
    "poincare.nu": _nu_hook,
    "schottky.build_shells": lambda args, kwargs, shells: {"words": shells.total_words()},
    "gem.spanning_table": lambda args, kwargs, out: {
        "points": len(np.atleast_1d(_arg(args, kwargs, 1, "xs")))
    },
}


def _suite_span_name(args, kwargs) -> str:
    return f"cli.suite.{_arg(args, kwargs, 1, 'name')}"


NAMERS = {"cli.run_suite": _suite_span_name}


# ---------------------------------------------------------------------------
# the recorder


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        # (owner, attribute or dict key, original, owner is a dict)
        self._restore: list[tuple[object, object, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        namer = NAMERS.get(name)
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                namer(args, kwargs) if namer else name,
                time.perf_counter(),
                0.0,
                stack[-1] if stack else -1,
                tracer.op,
            )
            # only the thread running an operation enters wrapped code; the
            # library's worker threads run unwrapped chunk functions
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span.info = hook(args, kwargs, result)
                except Exception as exc:  # a counter lost to an API change must not fail the op
                    span.info = {"hook_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def _targets(self):
        """(owner, attribute, original, qualified name) of every public function and method."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, obj, f"{layer}.{attr}"
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mname, meth in sorted(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            yield obj, mname, meth, f"{layer}.{obj.__name__}.{mname}"

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions = {}
        for owner, attr, fn, qualified in self._targets():
            wrapper = self.wrap(fn, ALIASES.get(qualified, qualified))
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, fn, False))
            else:
                functions[id(fn)] = (fn, wrapper)
        # every module of the package that holds a function by value gets the wrapper
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in functions and functions[id(obj)][0] is obj:
                    setattr(mod, attr, functions[id(obj)][1])
                    self._restore.append((mod, attr, obj, False))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in functions and functions[id(val)][0] is val:
                            obj[key] = functions[id(val)][1]
                            self._restore.append((obj, key, val, True))

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._restore):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path, meta: dict) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.info] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op", "info"], "spans": rows}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans


def summarize(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation layer metrics over `ops` traced operations.

    The span-derived entries of PER_LAYER; poincare.truncation_warnings,
    cli.min_margin_dec and trace.overhead_frac come from the run itself.
    """
    ops = max(ops, 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counters: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        own = s.duration - child_time[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_time[s.name] = self_time.get(s.name, 0.0) + own
        if s.layer in layer_self:
            layer_self[s.layer] += own
        if s.info and "hook_error" not in s.info:
            acc = counters.setdefault(s.name, {})
            for k, v in s.info.items():
                acc[k] = acc.get(k, 0) + v

    def count(name, key):
        return counters.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name in ("poincare.bers", "poincare.nu", "poincare.third_kind", "schottky.build_shells",
                 "gem.canonical_gem", "gem.spanning_table", "gem.dual_values",
                 "variation.period_matrix"):
        m[f"{name}.calls"] = calls.get(name, 0) / ops
    for name in ("poincare.bers", "poincare.nu", "poincare.third_kind", "poincare.limit_points",
                 "schottky.build_shells", "gem.canonical_gem", "gem.select_basis",
                 "gem.canonical_correction", "gem.spanning_table", "gem.dual_values",
                 "variation.period_matrix", "variation.nu_normalization",
                 "variation.period_gradient", "variation.rauch_check", "variation.theta2_table"):
        m[f"{name}.s"] = total.get(name, 0.0) / ops
    for name in ("poincare.bers", "poincare.nu"):
        terms = count(name, "terms")
        m[f"{name}.terms"] = terms / ops
        m[f"{name}.terms_per_s"] = terms / total[name] if total.get(name) else 0.0
    shells = sum(count(n, "shells") for n in SERIES)
    enumerated = sum(count(n, "shells_enumerated") for n in SERIES)
    words = sum(count(n, "words") for n in SERIES)
    m["poincare.shells_used_ratio"] = shells / enumerated if enumerated else 0.0
    m["poincare.useful_word_frac"] = (
        sum(count(n, "useful_words") for n in SERIES) / words if words else 0.0
    )
    m["schottky.words_built"] = count("schottky.build_shells", "words") / ops
    m["gem.spanning_table.points"] = count("gem.spanning_table", "points") / ops

    # canonical value_grid against its raw pass: the direct Bers child on the same grid
    canonical = raw = 0.0
    for s in spans:
        if s.name == "poincare.bers" and s.parent >= 0:
            parent = spans[s.parent]
            if parent.name == "gem.canonical_value_grid":
                canonical += parent.duration
                raw += s.duration
    m["gem.canonical_over_raw"] = canonical / raw if raw else 0.0

    m["variation.period_matrix.self_s"] = self_time.get("variation.period_matrix", 0.0) / ops
    for name in SUITES:
        m[f"cli.suite.{name}.s"] = total.get(f"cli.suite.{name}", 0.0) / ops
    m["eichler.s"] = sum(
        s.duration
        for s in spans
        if s.layer == "eichler" and (s.parent < 0 or spans[s.parent].layer != "eichler")
    ) / ops
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / ops
    return m
