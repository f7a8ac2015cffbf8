"""Poincare-series evaluation over Schottky groups.

Series are summed shell-by-shell over reduced words of bounded length, with
vectorized matrix action, deterministic chunked accumulation (fixed chunk
boundaries, in-order Kahan combination, so results are bit-identical at any
worker count), and a truncation warning when the last shell is still above
the configured tolerance.

Kernels:
  * the weight-N two-point series with 2N-1 limit-point correction factors,
  * third-kind differentials (pole pair y, 0),
  * the normalized differentials nu_a attached to the handles.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import moebius
from .moebius import INF, Infinity
from .schottky import (
    SchottkyParams,
    WordShells,
    build_shells,
    disc_center,
    disc_radius,
    enumerate_group,
    generator,
    in_domain,
)

__all__ = [
    "BersEvaluator",
    "EvaluationError",
    "NuFamily",
    "PoleProximityError",
    "SeriesConfig",
    "ThirdKindEvaluator",
    "TruncationWarning",
    "default_probe_points",
    "limit_points",
    "shell_report",
]

_CHUNK_ELEMENTS = 1 << 18  # per-chunk work-array budget (words x eval points)


class TruncationWarning(UserWarning):
    """Last enumerated shell still contributes above shell_tol."""


class PoleProximityError(ArithmeticError):
    """An evaluation point collided with a pole of the series."""


class EvaluationError(ArithmeticError):
    """Non-finite values appeared while summing the series."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and execution policy for all series evaluations.

    stop_tol, when set, skips the remaining shells once two consecutive
    shells each contribute less than stop_tol (a deterministic cutoff: the
    decision depends only on the sequentially reduced shell magnitudes, so
    results stay worker-independent). Leave it None to always sum every
    enumerated shell.
    """

    max_len: int = 10
    shell_tol: float = 1e-8
    cap: int = 2_000_000
    workers: int = 1
    stop_tol: float | None = None

    def __post_init__(self):
        if self.max_len < 0:
            raise ValueError("max_len must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.stop_tol is not None and not (self.stop_tol > 0):
            raise ValueError("stop_tol must be positive when set")


def _chunk_size(m: int) -> int:
    # keep the (chunk x m) scratch blocks cache-friendly; depends only on the
    # evaluation-point count so results never depend on the worker count
    return max(64, _CHUNK_ELEMENTS // max(1, m))


def _sum_shells(
    shells: WordShells,
    xs: np.ndarray,
    chunk_fn,
    t: int,
    workers: int,
    stop_tol: float | None = None,
):
    """Accumulate chunk_fn over word shells in a fixed order.

    chunk_fn(a, b, c, d, xs) -> (t, m) partial sums for those words. Chunk
    partials are combined sequentially (Kahan) in shell/chunk order; threads
    only compute partials, never reduce, so any worker count gives identical
    bits. With stop_tol set, the loop exits once two consecutive shells each
    contribute less than stop_tol (also a worker-independent decision).
    """
    m = len(xs)
    totals = np.zeros((t, m), dtype=np.complex128)
    comp = np.zeros_like(totals)
    shell_mags: list[float] = []
    chunk = _chunk_size(m)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for length in range(shells.max_len + 1):
            a, b = shells.a[length], shells.b[length]
            c, d = shells.c[length], shells.d[length]
            n = len(a)
            bounds = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
            if pool is None:
                parts = [chunk_fn(a[i:j], b[i:j], c[i:j], d[i:j], xs) for i, j in bounds]
            else:
                futs = [
                    pool.submit(chunk_fn, a[i:j], b[i:j], c[i:j], d[i:j], xs)
                    for i, j in bounds
                ]
                parts = [f.result() for f in futs]
            shell_total = parts[0].copy()
            for part in parts[1:]:
                shell_total += part
            if not np.all(np.isfinite(shell_total)):
                raise EvaluationError(
                    "non-finite series terms (evaluation point at a pole of a group element?)"
                )
            # Kahan step keeps deep-shell tails from drowning in rounding
            y = shell_total - comp
            s = totals + y
            comp = (s - totals) - y
            totals = s
            shell_mags.append(float(np.max(np.abs(shell_total))))
            if (
                stop_tol is not None
                and length >= 2
                and shell_mags[-1] < stop_tol
                and shell_mags[-2] < stop_tol
            ):
                break
    except BaseException:
        if pool is not None:  # leave no chunk running: drop queued ones, wait for the rest
            pool.shutdown(wait=True, cancel_futures=True)
        raise
    finally:
        if pool is not None:  # idle workers exit by themselves; joining each call costs time
            pool.shutdown(wait=False)
    return totals, shell_mags


def _warn_if_unconverged(shell_mags: Sequence[float], tol: float, label: str):
    if len(shell_mags) >= 2 and shell_mags[-1] > tol:
        warnings.warn(
            f"{label}: last shell still contributes {shell_mags[-1]:.3e} "
            f"(> shell_tol {tol:.1e}); deepen max_len",
            TruncationWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# limit points


def limit_points(p: SchottkyParams, n: int, dedup_tol: float = 1e-6) -> np.ndarray:
    """First n distinct attracting fixed points, in word-enumeration order.

    Scans reduced words with positive leading letter in length-lex order and
    collects attracting fixed points, merging any that repeat (powers of a
    word share fixed points with the word itself).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    found: list[complex] = []
    max_len = 1
    while max_len <= 8:
        found.clear()
        for elem in enumerate_group(p, max_len, cap=10_000_000):
            if not elem.word or elem.word[0] < 0:
                continue
            z_attr, _, _ = moebius.fixed_points(elem.map)
            if isinstance(z_attr, Infinity):
                continue
            if all(abs(z_attr - f) > dedup_tol for f in found):
                found.append(z_attr)
            if len(found) >= n:
                return np.array(found[:n], dtype=np.complex128)
        max_len += 1
    raise ValueError(f"could not find {n} distinct limit points (got {len(found)})")


# ---------------------------------------------------------------------------
# series evaluators


class BersEvaluator:
    """Weight-N two-point series with limit-point convergence factors.

    Values are coefficients: the x-slot transforms with weight N, the y-slot
    with weight 1-N. The identity term carries the residue-one pole at x = y;
    the A_j factors both tame convergence and plant the y-side zeros.
    """

    def __init__(
        self,
        p: SchottkyParams,
        N: int,
        points: Sequence[complex] | None = None,
        config: SeriesConfig = SeriesConfig(),
    ):
        if N < 2:
            raise ValueError("weight parameter N must be >= 2")
        self.params = p
        self.N = N
        self.config = config
        if points is None:
            points = limit_points(p, 2 * N - 1)
        self.points = np.asarray(points, dtype=np.complex128)
        if len(self.points) != 2 * N - 1:
            raise ValueError(f"need exactly {2 * N - 1} limit points, got {len(self.points)}")
        self.shells = build_shells(p, config.max_len, cap=config.cap)
        self._last_shell_mags: list[float] = []

    def value(self, x: complex, y: complex) -> complex:
        return complex(
            self.value_grid(np.array([x], dtype=np.complex128), np.array([y]))[0, 0]
        )

    def value_grid(self, xs, ys) -> np.ndarray:
        """Array of values, shape (len(ys), len(xs)); x-batches share orbits."""
        xs = np.asarray(xs, dtype=np.complex128)
        ys = np.asarray(ys, dtype=np.complex128)
        N, A = self.N, self.points
        y_weights = np.array([np.prod(yv - A) for yv in ys])  # product of (y - A_j)

        def chunk_fn(a, b, c, d, x):
            den = c[:, None] * x[None, :]
            den += d[:, None]
            gx = a[:, None] * x[None, :]
            gx += b[:, None]
            gx /= den
            base = den * den
            base **= -N  # (g'x)^N for det-1 matrices
            for A_j in A:
                q = gx - A_j
                # deep words collapse onto the limit points below float
                # resolution; those terms are O(|g'x|^{N-1}) ~ truncation
                # tail, so zero them instead of dividing by noise
                collapsed = np.abs(q) < 1e-16 * max(1.0, abs(A_j))
                if collapsed.any():
                    q[collapsed] = 1.0
                    base[collapsed] = 0.0
                base /= q
            out = np.empty((len(ys), len(x)), dtype=np.complex128)
            for i, yv in enumerate(ys):
                if y_weights[i] == 0:
                    # y sits exactly on a planted zero: every term vanishes
                    out[i] = 0.0
                    continue
                q = gx - yv
                if np.min(np.abs(q)) < 1e-12:
                    raise PoleProximityError(
                        f"y = {yv!r} is within 1e-12 of the orbit of an x point"
                    )
                out[i] = np.sum(base / q, axis=0)
            return out * y_weights[:, None]

        totals, mags = _sum_shells(
            self.shells,
            xs,
            chunk_fn,
            len(ys),
            self.config.workers,
            stop_tol=self.config.stop_tol,
        )
        self._last_shell_mags = mags
        _warn_if_unconverged(mags, self.config.shell_tol, f"weight-{N} series")
        return totals

    @property
    def last_shell_magnitudes(self) -> list[float]:
        return list(self._last_shell_mags)


class ThirdKindEvaluator:
    """Differential with simple poles at y (residue +1) and 0 (residue -1)."""

    def __init__(self, p: SchottkyParams, config: SeriesConfig = SeriesConfig()):
        self.params = p
        self.config = config
        self.shells = build_shells(p, config.max_len, cap=config.cap)
        self._last_shell_mags: list[float] = []

    def value(self, x: complex, y: complex) -> complex:
        return complex(self.value_grid(np.array([x]), np.array([y]))[0, 0])

    def value_grid(self, xs, ys) -> np.ndarray:
        """Shape (len(ys), len(xs)); pole pair (y_i, 0) per row."""
        xs = np.asarray(xs, dtype=np.complex128)
        ys = np.asarray(ys, dtype=np.complex128)
        pole_pairs = [(yv, 0j) for yv in ys]
        totals, mags = _sum_shells(
            self.shells,
            xs,
            _pole_pair_chunk_fn(pole_pairs),
            len(ys),
            self.config.workers,
            stop_tol=self.config.stop_tol,
        )
        self._last_shell_mags = mags
        _warn_if_unconverged(mags, self.config.shell_tol, "third-kind series")
        return totals


def _pole_pair_chunk_fn(pole_pairs: Sequence[tuple[complex, complex]]):
    """Chunk worker summing g'(x) * (1/(gx - u) - 1/(gx - v)) per pole pair."""

    def chunk_fn(a, b, c, d, x):
        den = c[:, None] * x[None, :]
        den += d[:, None]
        gx = a[:, None] * x[None, :]
        gx += b[:, None]
        gx /= den
        dg = den * den
        np.reciprocal(dg, out=dg)
        out = np.empty((len(pole_pairs), len(x)), dtype=np.complex128)
        for i, (u, v) in enumerate(pole_pairs):
            qu = gx - u
            qv = gx - v
            if min(np.min(np.abs(qu)), np.min(np.abs(qv))) < 1e-12:
                raise PoleProximityError(
                    f"pole pair ({u!r}, {v!r}) within 1e-12 of the orbit of an x point"
                )
            out[i] = np.sum(dg * (1.0 / qu - 1.0 / qv), axis=0)
        return out

    return chunk_fn


class NuFamily:
    """The g normalized handle differentials nu_a.

    nu_a is the third-kind difference with pole pair (y0, g_a y0); its
    counterclockwise integral over C_b is 2 pi i delta_ab exactly (up to
    quadrature) at any truncation depth, because each word's pole pair lands
    in a single disc and cancels except for the defining collapse.
    """

    def __init__(
        self,
        p: SchottkyParams,
        config: SeriesConfig = SeriesConfig(),
        y0: complex = 0j,
    ):
        if not in_domain(p, y0):
            raise ValueError(f"base point {y0!r} must lie in the fundamental domain")
        self.params = p
        self.config = config
        self.y0 = complex(y0)
        self.shells = build_shells(p, config.max_len, cap=config.cap)
        self.images = [
            moebius.apply(generator(p, a), self.y0) for a in range(1, p.genus + 1)
        ]
        if any(isinstance(t, Infinity) for t in self.images):
            raise ValueError("base point maps to infinity under a generator")
        self._last_shell_mags: list[float] = []

    def value(self, a: int, x: complex) -> complex:
        return complex(self.values(np.array([x]))[a - 1, 0])

    def values(self, xs) -> np.ndarray:
        """All nu_a at once, shape (g, len(xs)); one orbit pass."""
        xs = np.asarray(xs, dtype=np.complex128)
        pole_pairs = [(self.y0, complex(t)) for t in self.images]
        totals, mags = _sum_shells(
            self.shells,
            xs,
            _pole_pair_chunk_fn(pole_pairs),
            len(pole_pairs),
            self.config.workers,
            stop_tol=self.config.stop_tol,
        )
        self._last_shell_mags = mags
        _warn_if_unconverged(mags, self.config.shell_tol, "nu series")
        return totals


# ---------------------------------------------------------------------------
# diagnostics


def shell_report(
    p: SchottkyParams,
    N: int,
    x: complex,
    y: complex,
    config: SeriesConfig = SeriesConfig(),
    points: Sequence[complex] | None = None,
) -> list[dict]:
    """Largest single weight-N term per word length at a probe pair (x, y)."""
    if points is None:
        points = limit_points(p, 2 * N - 1)
    A = np.asarray(points, dtype=np.complex128)
    shells = build_shells(p, config.max_len, cap=config.cap)
    y_weight = complex(np.prod(y - A))
    rows = []
    for length in range(shells.max_len + 1):
        a, b = shells.a[length], shells.b[length]
        c, d = shells.c[length], shells.d[length]
        den = c * x + d
        gx = (a * x + b) / den
        term = den ** (-2 * N) / (gx - y)
        for A_j in A:
            q = gx - A_j
            # same collapse guard as the evaluator: deep words land on the
            # limit points below float resolution and contribute nothing
            collapsed = np.abs(q) < 1e-16 * max(1.0, abs(A_j))
            if collapsed.any():
                q = np.where(collapsed, 1.0, q)
                term = np.where(collapsed, 0.0, term)
            term = term / q
        term = term * y_weight
        rows.append(
            {
                "length": length,
                "count": int(len(a)),
                "max_term": float(np.max(np.abs(term))),
            }
        )
    return rows


def default_probe_points(p: SchottkyParams, count: int = 2) -> list[complex]:
    """Deterministic fundamental-domain probe points, well clear of all discs."""
    letters = p.letters
    centers = [disc_center(p, l) for l in letters]
    radii = [disc_radius(p, l) for l in letters]
    margin = 0.5 * min(radii)
    lo_re = min(c.real - r for c, r in zip(centers, radii)) - 1.0
    hi_re = max(c.real + r for c, r in zip(centers, radii)) + 1.0
    lo_im = min(c.imag - r for c, r in zip(centers, radii)) - 1.0
    hi_im = max(c.imag + r for c, r in zip(centers, radii)) + 1.0
    candidates = [0j]
    for im in np.linspace(lo_im, hi_im, 9):
        for re in np.linspace(lo_re, hi_re, 9):
            candidates.append(complex(re, im))
    out: list[complex] = []
    for z in candidates:
        if any(abs(z - c) <= r + margin for c, r in zip(centers, radii)):
            continue
        if any(abs(z - w) < 4.0 * margin for w in out):
            continue
        out.append(z)
        if len(out) >= count:
            return out
    raise ValueError("could not place probe points in the fundamental domain")
