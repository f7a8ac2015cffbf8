"""Command-line front end: config loading, computation orchestration,
invariant suites with machine-readable reports, and grid sampling.

Config files are JSON. Either a bare surface

    {"handles": [{"w_plus": [-6, 0], "w_minus": [-2, 0], "rho": 0.09}, ...]}

or a full run configuration

    {"surface": {...}, "N": 2, "max_len": 10, "shell_tol": 1e-8,
     "stop_tol": null, "nodes": 256, "h": 1e-5,
     "tolerances": {"rauch": 1e-4},
     "J": [[1, 0], [1, 1], [2, 0]], "punctures": [[0.4, -0.6]]}

Complex values are written as a number or an [re, im] pair. Reports are
JSON with sorted keys; every residual is paired with the tolerance it was
judged against, and wall_time fields are the only run-to-run variation.
Exit codes: 0 all requested work passed, 1 a suite or computation failed,
2 the configuration was unusable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .contour import TWO_PI_I, CircleContour, QuadratureError, contour_nodes, fail_max, gated_sum
from .eichler import PolyForm, canonical_cocycle, cocycle_eval, decompose_coboundary, poly_pullback
from .gem import (
    CanonicalGEM,
    SpanningTheta,
    canonical_gem,
    canonical_moment_residuals,
    expected_moment_identity,
    moment_identities,
)
from .moebius import apply as mob_apply, deriv as mob_deriv
from .poincare import (
    BersEvaluator,
    NuFamily,
    SeriesConfig,
    ThirdKindEvaluator,
    default_probe_points,
)
from .schottky import (
    CapacityError,
    ReductionError,
    SchottkyParams,
    build_shells,
    disc_center,
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
    nu_normalization_error,
    period_matrix,
    rauch_check,
)

SUITES = (
    "cocycle",
    "residue",
    "quasiperiod",
    "coboundary",
    "canonical",
    "gemcont",
    "nu-norm",
    "rauch",
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
    h: float = 1e-5
    tolerances: Mapping[str, float] = field(default_factory=dict)
    J: tuple[int, ...] | None = None
    punctures: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.N < 2:
            raise ConfigError(f"N must be >= 2, got {self.N}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.nodes < 8:
            raise ConfigError(f"nodes must be >= 8, got {self.nodes}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not (self.h > 0):
            raise ConfigError(f"h must be positive, got {self.h}")
        if not (self.shell_tol > 0):
            raise ConfigError(f"shell_tol must be positive, got {self.shell_tol}")
        if self.stop_tol is not None and not (self.stop_tol > 0):
            raise ConfigError(f"stop_tol must be positive when set, got {self.stop_tol}")
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
            "surface": surface_to_dict(self.surface),
            "N": self.N,
            "max_len": self.max_len,
            "shell_tol": self.shell_tol,
            "stop_tol": self.stop_tol,
            "nodes": self.nodes,
            "workers": self.workers,
            "seed": self.seed,
            "h": self.h,
            "tolerances": {k: self.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
            "J": list(self.J) if self.J is not None else None,
            "punctures": [[y.real, y.imag] for y in self.punctures],
        }


class RunContext:
    """One command's expensive artifacts, each built at most once."""

    def __init__(self, rc: RunConfig):
        self.rc = rc
        self.period_matrix: PeriodMatrix | None = None  # the rauch suite's certified base
        self._canonical: CanonicalGEM | None = None

    def canonical(self) -> CanonicalGEM:
        if self._canonical is None:
            rc = self.rc
            self._canonical = canonical_gem(
                rc.surface, rc.N, config=rc.series(), n_nodes=rc.nodes, J=rc.J
            )
        return self._canonical


def _parse_complex(v) -> complex:
    if isinstance(v, str):
        try:
            return complex(v.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex value {v!r}") from exc
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"cannot parse complex value {v!r}")


def _parse_J(raw, N: int, genus: int) -> tuple[int, ...]:
    m = 2 * N - 1
    flats = []
    for item in raw:
        if isinstance(item, (list, tuple)):
            if len(item) != 2:
                raise ConfigError(f"J entries are flat indices or [handle, power]: {item!r}")
            a, k = int(item[0]), int(item[1])
            if not (1 <= a <= genus and 0 <= k < m):
                raise ConfigError(f"J entry {item!r} out of range for g={genus}, N={N}")
            flats.append((a - 1) * m + k)
        else:
            flats.append(int(item))
    return tuple(sorted(flats))


def load_config(
    path: str,
    max_len: int | None = None,
    workers: int | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Read a config file, applying any command-line overrides."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    surface_raw = raw.get("surface", raw if "handles" in raw else None)
    if surface_raw is None:
        raise ConfigError("config needs a 'surface' object or top-level 'handles'")
    try:
        surface = surface_from_dict(surface_raw)
        require_valid(surface)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad surface: {exc}") from exc

    N = int(raw.get("N", 2))
    rc = RunConfig(
        surface=surface,
        N=N,
        max_len=int(max_len if max_len is not None else raw.get("max_len", raw.get("L", 10))),
        shell_tol=float(raw.get("shell_tol", 1e-8)),
        stop_tol=float(raw["stop_tol"]) if raw.get("stop_tol") is not None else None,
        nodes=int(raw.get("nodes", 256)),
        workers=int(workers if workers is not None else raw.get("workers", 1)),
        seed=int(seed if seed is not None else raw.get("seed", 0)),
        h=float(raw.get("h", 1e-5)),
        tolerances=dict(raw.get("tolerances", {})),
        J=_parse_J(raw["J"], N, surface.genus) if raw.get("J") is not None else None,
        punctures=tuple(_parse_complex(v) for v in raw.get("punctures", [])),
    )
    return rc


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


def _clearance(p: SchottkyParams, z: complex) -> float:
    return min(abs(z - disc_center(p, l)) - disc_radius(p, l) for l in p.letters)


def _gated_circle_sum(kernel_vals: np.ndarray, dz: np.ndarray, gate: float = 1e-9) -> complex:
    return gated_sum(kernel_vals, dz, gate) / TWO_PI_I


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


def _suite_cocycle(rc: RunConfig, ctx: RunContext) -> dict:
    """Composition law of the generator-seeded polynomial cocycles."""
    p = rc.surface
    rng = np.random.default_rng(rc.seed)
    m = 2 * rc.N - 1
    worst = 0.0
    for _ in range(100):
        w1, w2 = _random_word_pair(rng, p.genus)
        a = int(rng.integers(1, p.genus + 1))
        k = int(rng.integers(m))
        X = canonical_cocycle(p, rc.N, a, k)
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
                    X = canonical_cocycle(p, rc.N, b, l)
                    rebuilt_vals += coeffs[b - 1, l] * np.array(
                        [cocycle_eval(X, (a,))(z) for z in zs]
                    )
            direct = np.array([delta(z) - P(z) for z in zs])
            worst = fail_max(worst, np.max(np.abs(rebuilt_vals - direct)))
    return {"reconstruction": worst}


def _suite_residue(rc: RunConfig, ctx: RunContext) -> dict:
    """Unit residue of the weight-N kernel at coinciding points."""
    p = rc.surface
    psi = BersEvaluator(p, rc.N, config=rc.series())
    y = default_probe_points(p, 1)[0]
    r = 0.3 * _clearance(p, y)
    z, dz = contour_nodes(CircleContour(y, r, n_nodes=rc.nodes), doubled=True)
    vals = psi.value_grid(z, np.array([y]))[0]
    res = _gated_circle_sum(vals, dz)
    return {"residue": abs(res - 1.0)}


def _suite_quasiperiod(rc: RunConfig, ctx: RunContext) -> dict:
    """Polynomial jump structure of the kernel across every handle."""
    p = rc.surface
    psi = BersEvaluator(p, rc.N, config=rc.series())
    theta = SpanningTheta(psi)
    xs = default_probe_points(p, 2)
    worst_fit = 0.0
    worst_jump = 0.0
    for x in xs:
        tab = theta.table(np.array([x]))  # every handle's jump at x in one pass
        worst_fit = fail_max(worst_fit, theta.last_residual)
        for a in range(1, p.genus + 1):
            coeffs = tab[a - 1, :, 0]
            # independent check at a fresh point on the probe circle
            w = disc_center(p, a)
            y = w + 1.31 * disc_radius(p, a) * np.exp(0.37j)
            gy = word_map(p, (a,))
            moved = psi.value(x, mob_apply(gy, y)) * mob_deriv(gy, y) ** (1 - rc.N)
            jump = moved - psi.value(x, y)
            poly = sum(c * (y - w) ** k for k, c in enumerate(coeffs))
            scale = max(1.0, abs(jump))
            worst_jump = fail_max(worst_jump, abs(jump - poly) / scale)
    return {"fit": worst_fit, "offgrid_jump": worst_jump}


def _suite_canonical(rc: RunConfig, ctx: RunContext) -> dict:
    """Duality, annihilated moments, and prescribed jumps of the canonical kernel."""
    p = rc.surface
    can = ctx.canonical()
    probe = default_probe_points(p, 5)
    moments = canonical_moment_residuals(can, probe, n_nodes=rc.nodes)

    xs = np.array(default_probe_points(p, 3), dtype=np.complex128)
    tab = SpanningTheta(can).table(xs)
    dual_vals = can.dual.values(xs)
    scale = max(1.0, float(np.max(np.abs(dual_vals))))
    m = 2 * rc.N - 1
    match = 0.0
    J = set(int(j) for j in can.selection.J)
    for flat in range(p.genus * m):
        a, l = flat // m + 1, flat % m
        if flat in J:
            pos = sorted(J).index(flat)
            diff = tab[a - 1, l] + dual_vals[pos]
            match = fail_max(match, float(np.max(np.abs(diff))) / scale)
        else:
            match = fail_max(match, float(np.max(np.abs(tab[a - 1, l]))) / scale)
    return {
        "duality": can.selection.duality_error,
        "moments": moments,
        "quasiperiod_match": match,
    }


def _suite_gemcont(rc: RunConfig, ctx: RunContext) -> dict:
    """Summed handle moments of the canonical kernel against basis cocycles."""
    p = rc.surface
    can = ctx.canonical()
    y0 = default_probe_points(p, 1)[0]
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
    probes = default_probe_points(p, 5)
    nu = NuFamily(p, config=cfg, y0=probes[0])
    norm = nu_normalization_error(p, nu, n_nodes=rc.nodes)

    nu2 = NuFamily(p, config=cfg, y0=probes[1])
    xs = np.array(probes[2:], dtype=np.complex128)
    base_independence = float(np.max(np.abs(nu.values(xs) - nu2.values(xs))))

    tk = ThirdKindEvaluator(p, config=cfg)
    y = probes[1]
    resids = []
    for pole, want in ((y, 1.0), (0j, -1.0)):
        r = 0.3 * min(_clearance(p, pole), abs(y - 0j) / 2)
        z, dz = contour_nodes(CircleContour(pole, r, n_nodes=rc.nodes), doubled=True)
        vals = tk.value_grid(z, np.array([y]))[0]
        resids.append(abs(_gated_circle_sum(vals, dz) - want))
    return {
        "normalization": norm,
        "base_point": base_independence,
        "residues": fail_max(*resids),
    }


def _suite_rauch(rc: RunConfig, ctx: RunContext) -> dict:
    """Finite-difference period variation against the product of 1-forms."""
    p = rc.surface
    if rc.N != 2:
        raise ConfigError("the rauch suite needs N = 2")
    probes = default_probe_points(p, 4)
    can = ctx.canonical()
    rep = rauch_check(p, probes[1:], h=rc.h, config=rc.series(), psi=can, y0=probes[0])
    ctx.period_matrix = rep["period_matrix"]
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

    Suites run with the same ctx share its artifacts.
    """
    t0 = time.perf_counter()
    try:
        residuals = _SUITE_RUNNERS[name](rc, ctx or RunContext(rc))
        error = None
    except Exception as exc:  # surfaced as diagnostics, not a crash
        residuals = {}
        error = f"{type(exc).__name__}: {exc}"
    checks = {}
    passed = error is None
    for rname, value in residuals.items():
        tol = rc.tol(_RESIDUAL_TOL_KEY[rname])
        ok = bool(value < tol)
        passed = passed and ok
        checks[rname] = {"residual": float(value), "tolerance": tol, "passed": ok}
    report = {
        "suite": name,
        "passed": passed,
        "checks": checks,
        "wall_time": time.perf_counter() - t0,
        "seed": rc.seed,
        "workers": rc.workers,
    }
    if error is not None:
        report["error"] = error
    return report


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
    gaps = []
    letters = p.letters
    for i, u in enumerate(letters):
        for v in letters[i + 1 :]:
            gaps.append(
                abs(disc_center(p, u) - disc_center(p, v))
                - disc_radius(p, u)
                - disc_radius(p, v)
            )
    payload = {
        "valid": not violations,
        "genus": p.genus,
        "min_gap": min(gaps) if gaps else None,
        "violations": violations,
        "surface": surface_to_dict(p),
    }
    emit(payload, args.json)
    return 0 if not violations else 2


def cmd_enumerate(rc: RunConfig, args) -> int:
    p = rc.surface
    L = args.max_len if args.max_len is not None else rc.max_len
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
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    try:
        if args.what == "nu":
            nu = NuFamily(p, config=rc.series(), y0=default_probe_points(p, 1)[0])
            header = ["x_re", "x_im"]
            for a in range(1, p.genus + 1):
                header += [f"nu{a}_re", f"nu{a}_im"]
            writer.writerow(header)
            vals = nu.values(xs)
            for i, x in enumerate(xs):
                row = [x.real, x.imag]
                for a in range(p.genus):
                    row += [vals[a, i].real, vals[a, i].imag]
                writer.writerow(row)
        else:
            if args.what == "bers":
                kernel = BersEvaluator(p, rc.N, config=rc.series())
            elif args.what == "gem":
                kernel = RunContext(rc).canonical()
            else:  # third-kind
                kernel = ThirdKindEvaluator(p, config=rc.series())
            writer.writerow(["x_re", "x_im", "y_re", "y_im", "value_re", "value_im"])
            grid = kernel.value_grid(xs, ys)  # (ny, nx)
            for j, y in enumerate(ys):
                for i, x in enumerate(xs):
                    v = grid[j, i]
                    writer.writerow([x.real, x.imag, y.real, y.imag, v.real, v.imag])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_basis(rc: RunConfig, args) -> int:
    sel = RunContext(rc).canonical().selection
    m = 2 * rc.N - 1
    svals = [float(s) for s in sel.singular_values]
    d = sel.dim
    payload = {
        "N": rc.N,
        "genus": rc.surface.genus,
        "rank": d,
        "family_dimension": sel.family_dimension,
        "singular_values": svals,
        "gap": svals[d - 1] / svals[d] if d < len(svals) and svals[d] > 0 else None,
        "J": [[f // m + 1, f % m] for f in sel.J],
        "rows": [[f // m + 1, f % m] for f in sel.rows],
        "duality_error": sel.duality_error,
    }
    emit(payload, args.json)
    return 0


def cmd_check(rc: RunConfig, args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = {}
    ctx = RunContext(rc)
    for name in names:
        rep = run_suite(rc, name, ctx)
        _print_suite(rep)
        reports[name] = rep
    if args.json:
        emit({"config": rc.echo(), "suites": reports}, args.json, quiet=True)
    return 0 if all(r["passed"] for r in reports.values()) else 1


def cmd_period_matrix(rc: RunConfig, args) -> int:
    p = rc.surface
    try:
        pm = period_matrix(
            p,
            config=rc.series(),
            gate=rc.tol("normalization"),
            symmetry_tol=rc.tol("symmetry"),
            y0=default_probe_points(p, 1)[0],
        )
    except (ArithmeticError, QuadratureError) as exc:
        print(f"period matrix failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    payload = {
        "genus": pm.genus,
        "omega": pm.omega,
        "symmetry_error": pm.symmetry_error,
        "normalization_error": pm.normalization_error,
        "max_len": rc.max_len,
        "paths": [[leg[0] for leg in legs] for legs in pm.paths],
    }
    emit(payload, args.json)
    return 0


def cmd_rauch(rc: RunConfig, args) -> int:
    p = rc.surface
    probes = default_probe_points(p, 4)
    xs = [_parse_complex(s) for s in args.x] if args.x else probes[1:]
    if rc.N != 2:
        raise ConfigError("the rauch suite needs N = 2")
    try:
        # the same kernel (nodes, J) that `check --suite rauch` judges
        psi = RunContext(rc).canonical()
        rep = rauch_check(p, xs, h=rc.h, config=rc.series(), psi=psi, y0=probes[0])
    except Exception as exc:
        print(f"rauch check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    pm = rep["period_matrix"]
    payload = {
        "omega": pm.omega,
        "symmetry_error": pm.symmetry_error,
        "rauch_max_rel_error": rep["max_rel_error"],
        "per_sample": rep["per_sample"],
        "samples": list(xs),
        "h": rc.h,
        "max_len": rc.max_len,
    }
    emit(payload, args.json)
    return 0 if rep["max_rel_error"] < rc.tol("rauch") else 1


def cmd_report(rc: RunConfig, args) -> int:
    t0 = time.perf_counter()
    p = rc.surface
    suites = {}
    names = list(SUITES) if args.all else ["cocycle", "residue", "quasiperiod"]
    ctx = RunContext(rc)
    for name in names:
        suites[name] = run_suite(rc, name, ctx)
        _print_suite(suites[name])

    payload: dict = {"config": rc.echo(), "suites": suites}
    try:
        # the rauch suite's base matrix has the same surface, series and y0
        pm = ctx.period_matrix or period_matrix(
            p, config=rc.series(), y0=default_probe_points(p, 1)[0]
        )
        payload["period_matrix"] = {
            "omega": pm.omega,
            "symmetry_error": pm.symmetry_error,
            "normalization_error": pm.normalization_error,
        }
    except (ArithmeticError, QuadratureError, ValueError) as exc:
        payload["period_matrix"] = {"error": f"{type(exc).__name__}: {exc}"}

    payload["wall_time"] = time.perf_counter() - t0
    emit(payload, args.json, quiet=True)
    ok = all(r["passed"] for r in suites.values())
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
        sp.add_argument("--workers", type=int, default=None, help="worker threads")
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
    sp.add_argument("--suite", required=True, choices=list(SUITES) + ["all"])

    common(sub.add_parser("period-matrix", help="certified beta-period matrix"))

    sp = sub.add_parser("rauch", help="finite-difference period variation check")
    common(sp)
    sp.add_argument("--x", action="append", default=None, help="sample point (repeatable)")

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


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rc = load_config(
            args.config, max_len=args.max_len, workers=args.workers, seed=args.seed
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](rc, args)
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, PathBlockedError, ReductionError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
