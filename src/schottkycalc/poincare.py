"""Poincare-series evaluation over Schottky groups.

Series are summed shell-by-shell over reduced words of bounded length, with
vectorized matrix action, deterministic chunked accumulation (fixed chunk
boundaries, in-order Kahan combination, so results are bit-identical at any
worker count), and a truncation warning when the last shell is still above
the configured tolerance.

The chunk boundaries depend only on the number of evaluation points, since
they fix the order in which word terms are added. Each chunk's points are
split into column tiles of about _TILE_ELEMENTS words x points, so a kernel's
work arrays stay cache-sized; a tile's column sums are that chunk's sums, so
tiling never changes a bit, except that numpy sums a 1-column block in a
different order, which is why a trailing 1-column tile is folded into its
neighbour. The work arrays live in per-thread scratch owned by one evaluator
call, so no numpy op allocates one.

One engine sums three terms:
  * the weight-N two-point series with 2N-1 limit-point correction factors,
  * third-kind differentials (pole pair y, 0),
  * the normalized differentials nu_a attached to the handles.
"""
from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import moebius
from .moebius import Infinity, MoebiusMap
from .schottky import (
    SchottkyParams,
    WordShells,
    build_shells,
    disc_center,
    disc_radius,
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

_CHUNK_ELEMENTS = 1 << 18  # word-chunk size budget (words x eval points)
_TILE_ELEMENTS = 1 << 14  # column-tile work-array budget (words x eval points)


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
        if not (self.shell_tol > 0):  # NaN would silently disable TruncationWarning
            raise ValueError(f"shell_tol must be positive, got {self.shell_tol}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if self.stop_tol is not None and not (self.stop_tol > 0):
            raise ValueError("stop_tol must be positive when set")


def _chunk_size(m: int) -> int:
    # depends only on the evaluation-point count, so the chunk boundaries, and
    # with them the order in which word terms are added, never depend on the
    # worker count or the tile size
    return max(64, _CHUNK_ELEMENTS // max(1, m))


def _column_tiles(rows: int, m: int) -> list[tuple[int, int]]:
    """Column ranges splitting m points so each (rows x width) block stays
    near _TILE_ELEMENTS. A trailing 1-column tile is folded into its
    neighbour: numpy reduces a (rows, 1) block pairwise rather than row by
    row, which would change the bits of those sums."""
    cuts = list(range(0, m, max(2, _TILE_ELEMENTS // rows))) + [m]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return list(zip(cuts[:-1], cuts[1:]))


def _sum_shells(
    shells: WordShells,
    xs: np.ndarray,
    chunk_fn,
    t: int,
    workers: int,
    stop_tol: float | None = None,
):
    """Accumulate chunk_fn over word shells in a fixed order.

    chunk_fn(a, b, c, d, x) -> (t, len(x)) partial sums for those words at
    the points x. Each shell is cut into word chunks of _chunk_size(m) rows;
    the chunk boundaries fix the order of the row sums, and so the bits. Each
    chunk's points are cut into column tiles (_column_tiles), and every
    (chunk, tile) pair is one task: a tile's sums are exactly that chunk's
    sums at those columns, so the tile size changes speed and memory, never
    values. Tasks are submitted and collected in a fixed order and each
    column adds its chunk partials in chunk order, then shells combine
    sequentially (Kahan); threads only compute partials, never reduce, so any
    worker count gives identical bits. With stop_tol set, the loop exits once
    two consecutive shells each contribute less than stop_tol (also a
    worker-independent decision).
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
            tasks = [
                (i, min(i + chunk, n), lo, hi)
                for i in range(0, n, chunk)
                for lo, hi in _column_tiles(min(chunk, n - i), m)
            ]
            args = [(a[i:j], b[i:j], c[i:j], d[i:j], xs[lo:hi]) for i, j, lo, hi in tasks]
            if pool is None:
                parts = (chunk_fn(*arg) for arg in args)
            else:
                futs = [pool.submit(chunk_fn, *arg) for arg in args]
                parts = (f.result() for f in futs)
            shell_total = np.empty((t, m), dtype=np.complex128)
            for (i, _, lo, hi), part in zip(tasks, parts):
                if i == 0:  # each column adds its chunks' partials in chunk order
                    shell_total[:, lo:hi] = part
                else:
                    shell_total[:, lo:hi] += part
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
    finally:
        if pool is not None:  # leave no task running: drop queued ones, join the workers
            pool.shutdown(wait=True, cancel_futures=True)
    return totals, shell_mags


class _Workspace(threading.local):
    """Per-thread scratch for the chunk kernels, grown on demand.

    One instance belongs to one evaluator call: its buffers are freed with
    the call, and each pool thread sees its own, so no buffer is shared.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, int], dtype=np.complex128) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _moebius_block(ws: _Workspace, a, b, c, d, x):
    """den = c x + d and gx = (a x + b) / den for every (word, point) pair."""
    shape = (len(a), len(x))
    den = ws.take("den", shape)
    np.multiply(c[:, None], x[None, :], out=den)
    den += d[:, None]
    gx = ws.take("gx", shape)
    np.multiply(a[:, None], x[None, :], out=gx)
    gx += b[:, None]
    gx /= den
    return den, gx


def _bers_factor(ws: _Workspace, den, gx, A: np.ndarray, N: int) -> np.ndarray:
    """The y-independent part of a weight-N term, (g'x)^N / prod_j (gx - A_j),
    for every (word, point) pair; shared by the series and shell_report so
    the collapse guard lives in one place."""
    shape = den.shape
    base = np.multiply(den, den, out=ws.take("base", shape))
    base **= -N  # (g'x)^N for det-1 matrices
    q = ws.take("q", shape)
    absq = ws.take("absq", shape, np.float64)
    collapsed = ws.take("collapsed", shape, np.bool_)
    for A_j in A:
        np.subtract(gx, A_j, out=q)
        # deep words collapse onto the limit points below float resolution;
        # those terms are O(|g'x|^{N-1}) ~ truncation tail, so zero them
        # instead of dividing by noise
        np.less(np.abs(q, out=absq), 1e-16 * max(1.0, abs(A_j)), out=collapsed)
        if collapsed.any():
            q[collapsed] = 1.0
            base[collapsed] = 0.0
        base /= q
    return base


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
    for length in range(1, 9):
        shells = build_shells(p, length, cap=10_000_000)
        idx = np.arange(shells.shell_size(length))
        for back in range(length, 1, -1):  # follow the parents back to each leading letter
            idx = shells.parent[back][idx]
        a, b = shells.a[length], shells.b[length]
        c, d = shells.c[length], shells.d[length]
        for i in np.flatnonzero(shells.last_letter[1][idx] > 0):
            g = MoebiusMap(complex(a[i]), complex(b[i]), complex(c[i]), complex(d[i]))
            z_attr, _, _ = moebius.fixed_points(g)
            if isinstance(z_attr, Infinity):
                continue
            if all(abs(z_attr - f) > dedup_tol for f in found):
                found.append(z_attr)
            if len(found) >= n:
                return np.array(found[:n], dtype=np.complex128)
    raise ValueError(f"could not find {n} distinct limit points (got {len(found)})")


# ---------------------------------------------------------------------------
# series evaluators


class _ShellSeries:
    """State and summation step shared by the series evaluators.

    Each evaluator is one term summed over the same word shells; a subclass
    supplies the term as a chunk function and passes it to _sum.
    """

    def __init__(self, p: SchottkyParams, config: SeriesConfig = SeriesConfig()):
        self.params = p
        self.config = config
        self.shells = build_shells(p, config.max_len, cap=config.cap)
        self._last_shell_mags: list[float] = []

    def _sum(self, xs: np.ndarray, chunk_fn, t: int, label: str) -> np.ndarray:
        """Sum chunk_fn over the shells, keep the shell magnitudes, and warn
        (at the caller of the public method) if the last shell is above
        shell_tol."""
        totals, mags = _sum_shells(
            self.shells, xs, chunk_fn, t, self.config.workers, stop_tol=self.config.stop_tol
        )
        self._last_shell_mags = mags
        tol = self.config.shell_tol
        if len(mags) >= 2 and mags[-1] > tol:
            warnings.warn(
                f"{label}: last shell still contributes {mags[-1]:.3e} "
                f"(> shell_tol {tol:.1e}); deepen max_len",
                TruncationWarning,
                stacklevel=3,
            )
        return totals

    @property
    def last_shell_magnitudes(self) -> list[float]:
        return list(self._last_shell_mags)


class BersEvaluator(_ShellSeries):
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
        self.N = N
        if points is None:
            points = limit_points(p, 2 * N - 1)
        self.points = np.asarray(points, dtype=np.complex128)
        if len(self.points) != 2 * N - 1:
            raise ValueError(f"need exactly {2 * N - 1} limit points, got {len(self.points)}")
        super().__init__(p, config)

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
        ws = _Workspace()

        def chunk_fn(a, b, c, d, x):
            den, gx = _moebius_block(ws, a, b, c, d, x)
            base = _bers_factor(ws, den, gx, A, N)
            q = ws.take("q", den.shape)
            absq = ws.take("absq", den.shape, np.float64)
            out = np.empty((len(ys), len(x)), dtype=np.complex128)
            for i, yv in enumerate(ys):
                if y_weights[i] == 0:
                    # y sits exactly on a planted zero: every term vanishes
                    out[i] = 0.0
                    continue
                np.subtract(gx, yv, out=q)
                if np.abs(q, out=absq).min() < 1e-12:
                    raise PoleProximityError(
                        f"y = {yv!r} is within 1e-12 of the orbit of an x point"
                    )
                np.divide(base, q, out=q)
                np.sum(q, axis=0, out=out[i])
            # not `out *=`: numpy's in-place complex multiply of a 1-element
            # array rounds differently from the out-of-place one
            return out * y_weights[:, None]

        return self._sum(xs, chunk_fn, len(ys), f"weight-{N} series")


class ThirdKindEvaluator(_ShellSeries):
    """Differential with simple poles at y (residue +1) and 0 (residue -1)."""

    def value(self, x: complex, y: complex) -> complex:
        return complex(self.value_grid(np.array([x]), np.array([y]))[0, 0])

    def value_grid(self, xs, ys) -> np.ndarray:
        """Shape (len(ys), len(xs)); pole pair (y_i, 0) per row."""
        xs = np.asarray(xs, dtype=np.complex128)
        ys = np.asarray(ys, dtype=np.complex128)
        pole_pairs = [(yv, 0j) for yv in ys]
        return self._sum(xs, _pole_pair_chunk_fn(pole_pairs), len(ys), "third-kind series")


def _pole_pair_chunk_fn(pole_pairs: Sequence[tuple[complex, complex]]):
    """Chunk worker summing g'(x) * (1/(gx - u) - 1/(gx - v)) per pole pair.

    The product is always formed out of place as (1/(gx - u) - 1/(gx - v)) *
    g'(x): numpy's complex multiply is neither bit-commutative nor, on
    1-element arrays, bit-identical in place and out of place, so one fixed
    form keeps the bits independent of the block size.
    """
    ws = _Workspace()

    def chunk_fn(a, b, c, d, x):
        den, gx = _moebius_block(ws, a, b, c, d, x)
        shape = den.shape
        dg = np.multiply(den, den, out=ws.take("dg", shape))
        np.reciprocal(dg, out=dg)
        qu = ws.take("q", shape)
        qv = ws.take("qv", shape)
        absq = ws.take("absq", shape, np.float64)
        out = np.empty((len(pole_pairs), len(x)), dtype=np.complex128)
        for i, (u, v) in enumerate(pole_pairs):
            np.subtract(gx, u, out=qu)
            np.subtract(gx, v, out=qv)
            if min(np.abs(qu, out=absq).min(), np.abs(qv, out=absq).min()) < 1e-12:
                raise PoleProximityError(
                    f"pole pair ({u!r}, {v!r}) within 1e-12 of the orbit of an x point"
                )
            np.divide(1.0, qu, out=qu)
            qu -= np.divide(1.0, qv, out=qv)
            np.sum(np.multiply(qu, dg, out=qv), axis=0, out=out[i])
        return out

    return chunk_fn


class NuFamily(_ShellSeries):
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
        super().__init__(p, config)
        self.y0 = complex(y0)
        self.images = [
            moebius.apply(generator(p, a), self.y0) for a in range(1, p.genus + 1)
        ]
        if any(isinstance(t, Infinity) for t in self.images):
            raise ValueError("base point maps to infinity under a generator")

    def value(self, a: int, x: complex) -> complex:
        return complex(self.values(np.array([x]))[a - 1, 0])

    def values(self, xs) -> np.ndarray:
        """All nu_a at once, shape (g, len(xs)); one orbit pass."""
        xs = np.asarray(xs, dtype=np.complex128)
        pole_pairs = [(self.y0, complex(t)) for t in self.images]
        return self._sum(xs, _pole_pair_chunk_fn(pole_pairs), len(pole_pairs), "nu series")


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
    ws = _Workspace()
    rows = []
    for length in range(shells.max_len + 1):
        a, b = shells.a[length], shells.b[length]
        c, d = shells.c[length], shells.d[length]
        den, gx = _moebius_block(ws, a, b, c, d, np.array([x], dtype=np.complex128))
        term = _bers_factor(ws, den, gx, A, N) / (gx - y) * y_weight
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
