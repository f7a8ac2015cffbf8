"""Command-line front end: config loading, computation orchestration,
invariant suites with machine-readable reports, and grid sampling.

Config files are JSON. Either a bare surface

    {"handles": [{"w_plus": [-6, 0], "w_minus": [-2, 0], "rho": 0.09}, ...]}

or a full run configuration

    {"surface": {...}, "N": 2, "max_len": 10, "shell_tol": 1e-8,
     "stop_tol": null, "nodes": 256,
     "tolerances": {"rauch": 1e-4, "symmetry": 1e-7},
     "J": [[1, 0], [1, 1], [2, 0]]}

Complex values are written as a number, an [re, im] pair or a string like
"1+2j"; a missing or null key keeps its default, an unknown key is an
error. "h", once the finite-difference step of the moduli derivatives, is
read (a JSON number) and has no effect: they are gated Cauchy moments of
functions holomorphic in the handle parameters, 16 evaluations per
direction, and the rauch check takes the exact period gradient. Likewise "workers" and --workers are accepted
(>= 1) and have no effect: every series runs in the calling thread. One
base point y0 anchors the nu family, and period-matrix, rauch and report
certify one period matrix at the config's "normalization" and "symmetry"
tolerances. Reports are JSON with sorted keys; every residual is
paired with the tolerance it was judged against, and wall_time fields are
the only run-to-run variation.
Exit codes: 0 all requested work passed, 1 a suite or computation failed
(or validate found overlapping discs), 2 the configuration was unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .contour import contour_nodes, fail_max, handle_moments
from .eichler import PolyForm, canonical_cocycle, cocycle_eval, decompose_coboundary, poly_pullback
from .gem import (
    _checked_J,
    _flat_index,
    CanonicalGEM,
    SpanningTheta,
    canonical_gem,
    canonical_moment_residuals,
    expected_moment_identity,
    moment_identities,
)
from .moebius import apply as mob_apply, deriv as mob_deriv
from .poincare import (
    _words_held,
    BersEvaluator,
    NuFamily,
    SeriesConfig,
    ThirdKindEvaluator,
    default_probe_points,
)
from .schottky import (
    _c_from_json,
    _is_number,
    CapacityError,
    InvalidSurfaceError,
    ReductionError,
    SchottkyParams,
    build_shells,
    clearance,
    disc_center,
    disc_gaps,
    disc_radius,
    expected_word_count,
    generator,
    require_valid,
    surface_from_dict,
    surface_to_dict,
    validate as surface_validate,
    word_map,
)
from .variation import (
    PathBlockedError,
    PeriodMatrix,
    exact_period_gradient,
    nu_normalization_error,
    period_matrix,
    rauch_check,
)

DEFAULT_TOLERANCES: dict[str, float] = {
    "cocycle": 1e-10,
    "coboundary": 1e-10,
    "residue": 1e-8,
    "quasiperiod": 1e-7,
    "duality": 1e-8,
    "canonical": 1e-8,
    "quasiperiod_match": 1e-7,
    "gemcont": 1e-7,
    "nu-norm": 1e-8,
    "rauch": 1e-4,
    "symmetry": 1e-7,
    "normalization": 1e-8,
}


class ConfigError(ValueError):
    """The run configuration cannot be used."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: the surface plus numerical policy."""

    surface: SchottkyParams
    N: int = 2
    max_len: int = 10
    shell_tol: float = 1e-8
    stop_tol: float | None = None
    nodes: int = 256
    workers: int = 1
    seed: int = 0
    tolerances: Mapping[str, float] = field(default_factory=dict)
    J: tuple[int, ...] | None = None

    def __post_init__(self):
        for name, least in (("N", 2), ("max_len", 1), ("nodes", 8), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        try:  # SeriesConfig checks shell_tol, stop_tol and workers, _words_held the cap
            _words_held(self.surface.genus, self.series())
        except (ValueError, CapacityError) as exc:
            raise ConfigError(str(exc)) from exc
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance override {name!r}")
            if not (tol > 0):
                raise ConfigError(f"tolerance {name!r} must be positive, got {tol}")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def series(self) -> SeriesConfig:
        return SeriesConfig(
            max_len=self.max_len,
            shell_tol=self.shell_tol,
            workers=self.workers,
            stop_tol=self.stop_tol,
        )

    def echo(self) -> dict:
        return {
            **{key: getattr(self, key) for key in _CONFIG_KEYS},
            "surface": surface_to_dict(self.surface),
            "tolerances": {k: self.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
            "J": list(self.J) if self.J is not None else None,
        }


class RunContext:
    """One command's artifacts, each built at most once, on first use.

    The nu family and the period matrix share the base point y0, the first
    default probe point; the period matrix is certified at the config's
    "normalization" and "symmetry" tolerances. A failed build is not
    retried: asking again re-raises its error. Its evaluators share one word
    tree with every other live evaluator of the surface and depth (poincare).
    """

    def __init__(self, rc: RunConfig):
        self.rc = rc
        self.y0 = default_probe_points(rc.surface, 1)[0]
        self._built: dict[str, object] = {}

    def _once(self, name: str, build, *args, **kwargs):
        if name not in self._built:
            try:
                self._built[name] = build(*args, **kwargs)
            except Exception as exc:
                self._built[name] = exc
        if isinstance(self._built[name], Exception):
            raise self._built[name]
        return self._built[name]

    def bers(self) -> BersEvaluator:
        rc = self.rc
        return self._once("bers", BersEvaluator, rc.surface, rc.N, config=rc.series())

    def nu(self) -> NuFamily:
        return self._once("nu", NuFamily, self.rc.surface, config=self.rc.series(), y0=self.y0)

    def canonical(self) -> CanonicalGEM:
        rc = self.rc
        return self._once(
            "canonical",
            canonical_gem,
            rc.surface,
            rc.N,
            config=rc.series(),
            n_nodes=rc.nodes,
            J=rc.J,
        )

    def period_matrix(self) -> PeriodMatrix:
        rc = self.rc
        return self._once(
            "period_matrix",
            period_matrix,
            rc.surface,
            normalization_tol=rc.tol("normalization"),
            symmetry_tol=rc.tol("symmetry"),
            nu=self.nu(),
        )


def _parse_J(raw, N: int, genus: int) -> tuple[int, ...]:
    """J as flat indices or [handle, power] pairs, checked by gem's column-set rule."""
    flats = []
    for item in raw:
        if isinstance(item, (list, tuple)):
            if len(item) != 2:
                raise ConfigError(f"J entries are flat indices or [handle, power]: {item!r}")
            a, k = _integer(item[0]), _integer(item[1])
            if not (1 <= a <= genus and 0 <= k < 2 * N - 1):
                raise ConfigError(f"J entry {item!r} out of range for g={genus}, N={N}")
            flats.append(_flat_index(a, k, N))
        else:
            flats.append(_integer(item))
    return _checked_J(flats, genus, N)


def _integer(value) -> int:
    """A JSON integer; int() would truncate 7.9 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """A JSON number; float() would read "1e-5" and true as numbers."""
    if not _is_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _tolerances(raw) -> dict[str, float]:
    if not isinstance(raw, dict):
        raise TypeError(f"expected an object of tolerances, got {raw!r}")
    return {name: _real(tol) for name, tol in raw.items()}


# how load_config reads each key besides "surface" and "J"; the defaults
# are RunConfig's
_CONFIG_KEYS = {
    **dict.fromkeys(("N", "max_len", "nodes", "workers", "seed"), _integer),
    **dict.fromkeys(("shell_tol", "stop_tol"), _real),
    "tolerances": _tolerances,
}
# read and checked like the keys above, with no effect (the module docstring)
_INERT_KEYS = {"h": _real}


def _read(key: str, read, value):
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read {key} = {value!r}: {exc}") from exc


def load_config(
    path: str,
    max_len: int | None = None,
    workers: int | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Read a config file, applying any command-line overrides (main checks the disc gaps)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"surface", "handles", "genus", "J", *_CONFIG_KEYS, *_INERT_KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    surface_raw = raw.get("surface", raw if "handles" in raw else None)
    if surface_raw is None:
        raise ConfigError("config needs a 'surface' object or top-level 'handles'")
    beside = sorted({"genus", "handles"} & set(raw)) if "surface" in raw else []
    if beside:
        raise ConfigError(f"top-level {beside} beside a 'surface' object")
    try:
        surface = surface_from_dict(surface_raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad surface: {exc}") from exc

    for key, read in _INERT_KEYS.items():
        if raw.get(key) is not None:
            _read(key, read, raw[key])
    overrides = {"max_len": max_len, "workers": workers, "seed": seed}
    fields = {}
    for key, read in _CONFIG_KEYS.items():
        value = raw.get(key) if overrides.get(key) is None else overrides[key]
        if value is not None:
            fields[key] = _read(key, read, value)
    rc = RunConfig(surface=surface, **fields)
    if raw.get("J") is None:
        return rc
    return replace(rc, J=_read("J", lambda v: _parse_J(v, rc.N, surface.genus), raw["J"]))


# ---------------------------------------------------------------------------
# report plumbing


def _encode(obj):
    """Make a payload JSON-serializable; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_encode(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def emit(payload: dict, json_path: str | None, quiet: bool = False) -> None:
    text = json.dumps(_encode(payload), sort_keys=True, indent=2)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    if not quiet:
        print(text)


# ---------------------------------------------------------------------------
# invariant suites


def _random_reduced_word(rng: np.random.Generator, g: int, length: int) -> tuple[int, ...]:
    letters = [l for a in range(1, g + 1) for l in (a, -a)]
    word: list[int] = []
    while len(word) < length:
        l = letters[int(rng.integers(len(letters)))]
        if word and word[-1] == -l:
            continue
        word.append(l)
    return tuple(word)


def _random_word_pair(rng: np.random.Generator, g: int):
    """Two reduced words whose concatenation is itself reduced.

    Joint reducedness keeps the composition check well-conditioned: a
    cancelling boundary forces the identity through intermediates far
    larger than the result, which no double-precision route survives.
    """
    while True:
        w1 = _random_reduced_word(rng, g, int(rng.integers(1, 5)))
        w2 = _random_reduced_word(rng, g, int(rng.integers(1, 5)))
        if w1[-1] != -w2[0]:
            return w1, w2


def _canonical_cocycles(rc: RunConfig) -> dict:
    """The g(2N-1) canonical cocycles of the run, keyed (handle, power)."""
    p, N = rc.surface, rc.N
    return {
        (a, k): canonical_cocycle(p, N, a, k)
        for a in range(1, p.genus + 1)
        for k in range(2 * N - 1)
    }


def _suite_cocycle(rc: RunConfig, ctx: RunContext) -> dict:
    """Composition law of the generator-seeded polynomial cocycles."""
    p = rc.surface
    rng = np.random.default_rng(rc.seed)
    m = 2 * rc.N - 1
    cocycles = _canonical_cocycles(rc)
    worst = 0.0
    for _ in range(100):
        w1, w2 = _random_word_pair(rng, p.genus)
        a = int(rng.integers(1, p.genus + 1))
        k = int(rng.integers(m))
        X = cocycles[a, k]
        combined = cocycle_eval(X, tuple(w1) + tuple(w2))
        head = cocycle_eval(X, w1)
        for letter in w2:
            head = poly_pullback(head, X.letter_map(letter))
        rhs = head + cocycle_eval(X, w2)
        diff = (combined - rhs).norm() / max(1.0, combined.norm(), rhs.norm())
        worst = fail_max(worst, diff)
    return {"composition": worst}


def _suite_coboundary(rc: RunConfig, ctx: RunContext) -> dict:
    """Reconstruction of single-polynomial cocycles from their coefficients."""
    p = rc.surface
    m = 2 * rc.N - 1
    zs = np.array(default_probe_points(p, 3), dtype=np.complex128)
    # each cocycle's value on each letter at the probes, evaluated once and
    # point by point: numpy's array Horner step rounds unlike its scalar one
    letter_vals = {
        (a, b, l): np.array([cocycle_eval(X, (a,))(z) for z in zs])
        for (b, l), X in _canonical_cocycles(rc).items()
        for a in range(1, p.genus + 1)
    }
    worst = 0.0
    for k in range(m):
        mono = [0.0] * m
        mono[k] = 1.0
        P = PolyForm(rc.N, tuple(mono))
        coeffs = decompose_coboundary(p, P)
        for a in range(1, p.genus + 1):
            delta = poly_pullback(P, word_map(p, (a,)))
            rebuilt_vals = np.zeros(len(zs), dtype=np.complex128)
            for b in range(1, p.genus + 1):
                for l in range(m):
                    rebuilt_vals += coeffs[b - 1, l] * letter_vals[a, b, l]
            direct = np.array([delta(z) - P(z) for z in zs])
            scale = max(1.0, np.max(np.abs(direct)))  # judged on the values' own scale
            worst = fail_max(worst, np.max(np.abs(rebuilt_vals - direct)) / scale)
    return {"reconstruction": worst}


def _suite_residue(rc: RunConfig, ctx: RunContext) -> dict:
    """Unit residue of the weight-N kernel at coinciding points."""
    psi, y = ctx.bers(), ctx.y0
    z, dz = contour_nodes(y, 0.3 * clearance(rc.surface, y), rc.nodes)
    res = handle_moments(psi.value_grid(z, np.array([y])), z, dz, y, [0], 1e-9)[0, 0]
    return {"residue": abs(res - 1.0)}


def _suite_quasiperiod(rc: RunConfig, ctx: RunContext) -> dict:
    """Polynomial jump structure of the kernel across every handle."""
    p = rc.surface
    psi = ctx.bers()
    theta = SpanningTheta(psi)
    xs = np.array(default_probe_points(p, 2))
    tab = theta.table(xs)  # every handle's jump at every probe point in one pass
    # independent check at a fresh point y_a on each probe circle, the kernel
    # at every g_a y_a and y_a in one more pass
    handles = range(1, p.genus + 1)
    centres = [disc_center(p, a) for a in handles]
    ys = [w + 1.31 * disc_radius(p, a) * np.exp(0.37j) for a, w in zip(handles, centres)]
    gs = [word_map(p, (a,)) for a in handles]
    values = psi.value_grid(xs, np.array([mob_apply(g, y) for g, y in zip(gs, ys)] + ys))
    worst_jump = 0.0
    for a, w, y, g in zip(handles, centres, ys, gs):
        jump = values[a - 1] * mob_deriv(g, y) ** (1 - rc.N) - values[p.genus + a - 1]
        poly = sum(c * (y - w) ** k for k, c in enumerate(tab[a - 1]))
        scale = np.maximum(1.0, np.abs(jump))
        worst_jump = fail_max(worst_jump, np.max(np.abs(jump - poly) / scale))
    return {"fit": theta.last_residual, "offgrid_jump": worst_jump}


def _suite_canonical(rc: RunConfig, ctx: RunContext) -> dict:
    """Duality, annihilated moments, and prescribed jumps of the canonical kernel."""
    p = rc.surface
    can = ctx.canonical()
    probe = default_probe_points(p, 5)
    moments = canonical_moment_residuals(can, probe, n_nodes=rc.nodes)

    xs = np.array(default_probe_points(p, 3), dtype=np.complex128)
    # jump rows in the flat order the selection indexes, as DualBasis reads
    # them: row J[i] must be minus dual differential i, every other row zero
    resid = SpanningTheta(can).table(xs).reshape(-1, len(xs))
    dual_vals = can.dual.values(xs)
    resid[list(can.selection.J)] += dual_vals
    scale = max(1.0, float(np.max(np.abs(dual_vals))))
    return {
        "duality": can.selection.duality_error,
        "moments": moments,
        "quasiperiod_match": float(np.max(np.abs(resid))) / scale,
    }


def _suite_gemcont(rc: RunConfig, ctx: RunContext) -> dict:
    """Summed handle moments of the canonical kernel against basis cocycles."""
    p = rc.surface
    can = ctx.canonical()
    y0 = ctx.y0
    ys = [y0, mob_apply(generator(p, 1), y0)]
    if p.genus > 1:
        ys.append(mob_apply(word_map(p, (-2, 1)), y0))
    Xs = [canonical_cocycle(p, rc.N, *can.selection.label(j)) for j in can.selection.J[:2]]
    got = moment_identities(can, Xs, ys, n_nodes=rc.nodes)
    want = np.array([[expected_moment_identity(can, X, y) for y in ys] for X in Xs])
    return {"fold": float(np.max(np.abs(got - want)))}


def _suite_nu_norm(rc: RunConfig, ctx: RunContext) -> dict:
    """Third-kind residues, delta-normalization and base-point independence."""
    p = rc.surface
    cfg = rc.series()
    probes = default_probe_points(p, 5)  # probes[0] is ctx.y0
    nu = ctx.nu()
    norm = nu_normalization_error(p, nu, n_nodes=rc.nodes)

    nu2 = NuFamily(p, config=cfg, y0=probes[1])
    xs = np.array(probes[2:], dtype=np.complex128)
    base_independence = float(np.max(np.abs(nu.values(xs) - nu2.values(xs))))

    tk = ThirdKindEvaluator(p, config=cfg)
    y = probes[1]
    resids = []
    for pole, want in ((y, 1.0), (0j, -1.0)):
        z, dz = contour_nodes(pole, 0.3 * min(clearance(p, pole), abs(y - 0j) / 2), rc.nodes)
        res = handle_moments(tk.value_grid(z, np.array([y])), z, dz, pole, [0], 1e-9)[0, 0]
        resids.append(abs(res - want))
    return {
        "normalization": norm,
        "base_point": base_independence,
        "residues": fail_max(*resids),
    }


def _rauch(ctx: RunContext, xs) -> dict:
    """rauch_check at xs with the context's kernel, its certified base and
    that base's exact gradient, so the run builds no other period matrix."""
    if ctx.rc.N != 2:
        raise ConfigError("the rauch suite needs N = 2")
    psi, base = ctx.canonical(), ctx.period_matrix()
    return rauch_check(psi, xs, exact_period_gradient(base), base)


def _suite_rauch(rc: RunConfig, ctx: RunContext) -> dict:
    """Exact period variation against the product of 1-forms."""
    rep = _rauch(ctx, default_probe_points(rc.surface, 4)[1:])
    return {
        "rauch": rep["max_rel_error"],
        "symmetry": rep["symmetry_error"],
        "normalization": rep["normalization_error"],
    }


_SUITE_RUNNERS = {
    "cocycle": _suite_cocycle,
    "residue": _suite_residue,
    "quasiperiod": _suite_quasiperiod,
    "coboundary": _suite_coboundary,
    "canonical": _suite_canonical,
    "gemcont": _suite_gemcont,
    "nu-norm": _suite_nu_norm,
    "rauch": _suite_rauch,
}

# which tolerance key judges each residual name
_RESIDUAL_TOL_KEY = {
    "composition": "cocycle",
    "reconstruction": "coboundary",
    "residue": "residue",
    "fit": "quasiperiod",
    "offgrid_jump": "quasiperiod",
    "duality": "duality",
    "moments": "canonical",
    "quasiperiod_match": "quasiperiod_match",
    "fold": "gemcont",
    "normalization": "normalization",
    "base_point": "nu-norm",
    "residues": "nu-norm",
    "rauch": "rauch",
    "symmetry": "symmetry",
}


def run_suite(rc: RunConfig, name: str, ctx: RunContext | None = None) -> dict:
    """Execute one named suite and assemble its report.

    Suites run with the same ctx share its artifacts. A suite that raises
    reports the error, and an exception outside _FAILURES also its traceback.
    """
    t0 = time.perf_counter()
    failure = {}
    try:
        residuals = _SUITE_RUNNERS[name](rc, ctx or RunContext(rc))
    except Exception as exc:  # surfaced as diagnostics, not a crash
        residuals = {}
        failure["error"] = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, _FAILURES):  # a programming error: keep where it was raised
            failure["traceback"] = traceback.format_exc()
    checks = {}
    passed = not failure
    for rname, value in residuals.items():
        tol = rc.tol(_RESIDUAL_TOL_KEY[rname])
        ok = bool(value < tol)
        passed = passed and ok
        checks[rname] = {"residual": float(value), "tolerance": tol, "passed": ok}
    return {
        "suite": name,
        "passed": passed,
        "checks": checks,
        "wall_time": time.perf_counter() - t0,
        "seed": rc.seed,
        "workers": rc.workers,
        **failure,
    }


def _run_suites(ctx: RunContext, names: Sequence[str]) -> dict:
    """Run the named suites on one context, printing each verdict."""
    reports = {}
    for name in names:
        reports[name] = run_suite(ctx.rc, name, ctx)
        _print_suite(reports[name])
    return reports


def _print_suite(report: dict) -> None:
    for rname in sorted(report["checks"]):
        c = report["checks"][rname]
        status = "PASS" if c["passed"] else "FAIL"
        print(
            f"{report['suite']}/{rname}: residual={c['residual']:.3e} "
            f"tol={c['tolerance']:.1e} {status}"
        )
    if report.get("error"):
        print(f"{report['suite']}: ERROR {report['error']}")
    print(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(rc: RunConfig, args) -> int:
    p = rc.surface
    violations = surface_validate(p)
    payload = {
        "valid": not violations,
        "genus": p.genus,
        "min_gap": min((gap for _, gap in disc_gaps(p)), default=None),
        "violations": violations,
        "surface": surface_to_dict(p),
    }
    emit(payload, args.json)
    return 0 if not violations else 1


def cmd_enumerate(rc: RunConfig, args) -> int:
    p = rc.surface
    L = rc.max_len
    shells = build_shells(p, L)
    counts = [
        {"length": length, "count": int(len(shells.a[length]))}
        for length in range(L + 1)
    ]
    payload = {
        "max_len": L,
        "counts": counts,
        "total": sum(c["count"] for c in counts),
        "expected_total": expected_word_count(p.genus, L),
    }
    emit(payload, args.json)
    return 0


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("--grid needs x0,x1,nx,y0,y1,ny")
    try:
        x0, x1 = complex(parts[0]), complex(parts[1])
        nx = int(parts[2])
        y0, y1 = complex(parts[3]), complex(parts[4])
        ny = int(parts[5])
    except ValueError as exc:
        raise ConfigError(f"bad --grid: {exc}") from exc
    if nx < 1 or ny < 1:
        raise ConfigError("--grid sample counts must be >= 1")
    return np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)


def cmd_eval(rc: RunConfig, args) -> int:
    p = rc.surface
    xs, ys = _parse_grid(args.grid)
    ctx = RunContext(rc)
    # compute every row first, so a failed evaluation leaves no --out file
    if args.what == "nu":
        header = ["x_re", "x_im"]
        header += [f"nu{a}_{c}" for a in range(1, p.genus + 1) for c in ("re", "im")]
        vals = ctx.nu().values(xs)  # (g, nx)
        rows = [
            [x.real, x.imag, *(c for v in vals[:, i] for c in (v.real, v.imag))]
            for i, x in enumerate(xs)
        ]
    else:
        if args.what == "bers":
            kernel = ctx.bers()
        elif args.what == "gem":
            kernel = ctx.canonical()
        else:  # third-kind
            kernel = ThirdKindEvaluator(p, config=rc.series())
        header = ["x_re", "x_im", "y_re", "y_im", "value_re", "value_im"]
        grid = kernel.value_grid(xs, ys)  # (ny, nx)
        rows = [
            [x.real, x.imag, y.real, y.imag, grid[j, i].real, grid[j, i].imag]
            for j, y in enumerate(ys)
            for i, x in enumerate(xs)
        ]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_basis(rc: RunConfig, args) -> int:
    sel = RunContext(rc).canonical().selection
    svals = [float(s) for s in sel.singular_values]
    d = sel.dim
    payload = {
        "N": rc.N,
        "genus": rc.surface.genus,
        "rank": d,
        "family_dimension": sel.family_dimension,
        "singular_values": svals,
        "gap": svals[d - 1] / svals[d] if d < len(svals) and svals[d] > 0 else None,
        "J": [sel.label(f) for f in sel.J],
        "rows": [sel.label(f) for f in sel.rows],
        "duality_error": sel.duality_error,
    }
    emit(payload, args.json)
    return 0


def cmd_check(rc: RunConfig, args) -> int:
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    reports = _run_suites(RunContext(rc), names)
    if args.json:
        emit({"config": rc.echo(), "suites": reports}, args.json, quiet=True)
    return 0 if all(r["passed"] for r in reports.values()) else 1


def _period_payload(pm: PeriodMatrix) -> dict:
    return {
        "omega": pm.omega,
        "symmetry_error": pm.symmetry_error,
        "normalization_error": pm.normalization_error,
    }


def cmd_period_matrix(rc: RunConfig, args) -> int:
    pm = RunContext(rc).period_matrix()
    payload = {
        **_period_payload(pm),
        "genus": pm.genus,
        "max_len": rc.max_len,
        "paths": [[leg[0] for leg in legs] for legs in pm.paths],
    }
    emit(payload, args.json)
    return 0


def cmd_rauch(rc: RunConfig, args) -> int:
    ctx = RunContext(rc)
    xs = args.x or default_probe_points(rc.surface, 4)[1:]
    rep = _rauch(ctx, xs)
    payload = {
        "omega": ctx.period_matrix().omega,
        "symmetry_error": rep["symmetry_error"],
        "rauch_max_rel_error": rep["max_rel_error"],
        "per_sample": rep["per_sample"],
        "samples": xs,
        "max_len": rc.max_len,
    }
    emit(payload, args.json)
    return 0 if rep["max_rel_error"] < rc.tol("rauch") else 1


def cmd_report(rc: RunConfig, args) -> int:
    t0 = time.perf_counter()
    ctx = RunContext(rc)
    names = list(_SUITE_RUNNERS) if args.all else ["cocycle", "residue", "quasiperiod"]
    suites = _run_suites(ctx, names)
    payload: dict = {"config": rc.echo(), "suites": suites}
    try:
        payload["period_matrix"] = _period_payload(ctx.period_matrix())
    except _FAILURES as exc:
        payload["period_matrix"] = {"error": f"{type(exc).__name__}: {exc}"}
    payload["wall_time"] = time.perf_counter() - t0
    emit(payload, args.json, quiet=True)
    ok = all(r["passed"] for r in suites.values()) and "error" not in payload["period_matrix"]
    print(f"report: {'PASS' if ok else 'FAIL'} ({len(suites)} suites)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schottkycalc",
        description="Schottky-uniformized surfaces: kernels, bases, periods.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--json", default=None, help="also write the report to this path")
        sp.add_argument("--max-len", type=int, default=None, help="override truncation depth")
        sp.add_argument("--workers", type=int, default=None, help="accepted, no effect")
        sp.add_argument("--seed", type=int, default=None, help="seed for random-word checks")

    common(sub.add_parser("validate", help="check the surface constraints"))

    sp = sub.add_parser("enumerate", help="count reduced group words by length")
    common(sp)

    sp = sub.add_parser("eval", help="sample a kernel on a grid, CSV out")
    common(sp)
    sp.add_argument("--what", required=True, choices=["bers", "third-kind", "nu", "gem"])
    sp.add_argument("--grid", required=True, help="x0,x1,nx,y0,y1,ny (complex endpoints)")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")

    common(sub.add_parser("basis", help="rank, pivots and duality of the moment matrix"))

    sp = sub.add_parser("check", help="run one invariant suite (or all)")
    common(sp)
    sp.add_argument("--suite", required=True, choices=list(_SUITE_RUNNERS) + ["all"])

    common(sub.add_parser("period-matrix", help="certified beta-period matrix"))

    sp = sub.add_parser("rauch", help="exact period variation check")
    common(sp)
    sp.add_argument(
        "--x",
        action="append",
        type=_c_from_json,
        default=None,
        help="sample point such as 0.5+0.3j or -0.2-0.8j (repeatable)",
    )

    sp = sub.add_parser("report", help="aggregate machine-readable report")
    common(sp)
    sp.add_argument("--all", action="store_true", help="run every suite")

    return ap


_COMMANDS = {
    "validate": cmd_validate,
    "enumerate": cmd_enumerate,
    "eval": cmd_eval,
    "basis": cmd_basis,
    "check": cmd_check,
    "period-matrix": cmd_period_matrix,
    "rauch": cmd_rauch,
    "report": cmd_report,
}


# runtime failures: exit 1 or a report's "error" entry; main exits 2 on a CapacityError
_FAILURES = (ValueError, ArithmeticError, CapacityError, PathBlockedError, ReductionError, OSError)


# options whose value may be a complex literal that starts with "-"
_COMPLEX_VALUED = ("--x", "--grid")


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Write "--x -0.2-0.8j" as "--x=-0.2-0.8j" (likewise --grid): argparse
    takes a value that starts with "-" and is not a plain real number for an
    option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _COMPLEX_VALUED and re.match(r"-\.?\d", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        rc = load_config(
            args.config, max_len=args.max_len, workers=args.workers, seed=args.seed
        )
        if args.command != "validate":  # validate reports overlapping discs itself
            try:
                require_valid(rc.surface)
            except InvalidSurfaceError as exc:
                raise ConfigError(f"bad surface: {exc}") from exc
        return _COMMANDS[args.command](rc, args)
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _FAILURES as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
