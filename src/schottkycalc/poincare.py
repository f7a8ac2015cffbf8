"""Poincare-series evaluation over Schottky groups.

Series are summed shell-by-shell over reduced words of bounded length, in
the calling thread, by one loop (_ShellSeries._sum) with vectorized matrix
action, in-order Kahan combination of the shells and a truncation warning
when the last shell is still above the configured tolerance.

One engine sums three terms:
  * the weight-N two-point series with 2N-1 limit-point correction factors,
  * third-kind differentials (pole pair y, 0),
  * the normalized differentials nu_a attached to the handles; their moduli
    derivatives need no series of their own (variation.exact_period_gradient
    takes them from nu on the handle circles).

They are one term, numerator_r (cx + d)^-2N / ((gx - t_r) prod_k (gx - s_k)):
each row has a target t_r and a numerator, and all rows share 2N - 1
points s_k (N = 1 for a pole pair). Shells 0..3 are summed by one direct
kernel (_DirectKernel) in (points, words) work arrays, cut into tiles of
points only, so a point's terms sum along one row of their own and its
direct sums do not depend on the other points in its batch.

Direct and far shells. Every series sums shells 0..3 in the gx form as
above, and every deeper shell as grouped multipole expansions. For a det-1
word (a b; c d) and a point w, gx - w = (a - cw)(x - p_w)/(cx + d) with
p_w = g^-1 w, so a word's term is weight / prod_k (x - p_k) over its m
pulled-back poles: the dipole delta / ((x - p_u)(x - p_v)),
delta = (u - v)/((a - cu)(a - cv)), of a pole pair, and the 2N-pole
coef / ((x - p_y) prod_j (x - p_{A_j})),
coef = prod_j (y - A_j) / ((a - cy) prod_j (a - cA_j)), of the weight-N
term, whose (cx + d) powers cancel. The limit points' factors a - cA_j and
poles are carried down the word tree, exact along the powers of each A_j's
own word, where the matrix entries cancel (_limit_factors). A deep shell's
words are grouped by their last three letters (pole pairs) or two
(weight N), whose nested disc holds the group's poles; every deep shell
has the same keys, and centres each group on its key's mean pole, in
shell 4, of the points all rows share (the A_j, or a pole pair's shared y0
or 0). A group far from x (its radius over all rows below half the
distance; one test per group and point) adds a truncated Laurent expansion
in 1/(x - c), contracted with every row's moments in one product per point,
whose dropped tail is bounded a priori for any m. The distances and powers
of 1/(x - c) are built once per call, as every deep shell shares the
centres (_FarField), and dropped when it returns.
A near group, and each of the (2N - 1)(2g - 1) weight-N words per shell
whose A_j pole leaves its group's disc, is summed term by term, pulled
back. A shell's groups and centres are planned once per live set of
shared points (_GroupPlan, in _Shared.plans); the rows' targets, radii and
moments are bound to it (_PoleGroups) and kept while the targets stay, so
nu, whose rows never change, binds them once. Every term-by-term sum,
direct or near, runs behind one pulled-back pole guard (_pole_guard).
"""
from __future__ import annotations

import functools
import math
import warnings
import weakref
from dataclasses import dataclass, field

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
]

_TILE_ELEMENTS = 1 << 14  # work-array budget of a tile (points x words, or rows)


class TruncationWarning(UserWarning):
    """Last enumerated shell still contributes above shell_tol."""


class PoleProximityError(ArithmeticError):
    """An evaluation point collided with a pole of the series."""


class EvaluationError(ArithmeticError):
    """Non-finite values appeared while summing the series."""


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for all series evaluations.

    stop_tol, when set, skips the remaining shells once two consecutive
    shells each contribute less than stop_tol (a deterministic cutoff: the
    decision depends only on the sequentially reduced shell magnitudes).
    Leave it None to always sum every enumerated shell. workers is accepted
    (>= 1) and has no effect: every series runs in the calling thread.
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


class _Workspace:
    """Scratch for the direct kernel's (points, words) tiles, owned by one
    evaluator (unlike the tree, the shared points and the plans, which _live
    shares) and grown on demand."""

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype=np.complex128)
        return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# limit points and the shared points' pulled-back poles

_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _live(key, build):
    """The word tree (key (p, max_len, cap)) or shared points (key
    (p, max_len, cap, "N", N) for the limit points of weight N, or
    (p, max_len, cap, "u", u) for a pole pair's shared member u; the tag
    keeps N = 3 and u = 3 + 0j apart, which compare and hash alike) for key
    while any evaluator holds them, else build()'s, its arrays made
    read-only so no evaluator's write changes another's sums."""
    value = _LIVE.get(key)
    if value is None:
        value = _LIVE[key] = build()
        for field in vars(value).values():
            for array in field if isinstance(field, list) else [field]:
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
    return value


@functools.lru_cache(maxsize=16)
def _limit_words(p: SchottkyParams, n: int) -> tuple[tuple, tuple]:
    """limit_points' scan, kept per (surface, n): the points, and the word
    each was found with."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 1 and p.genus < 2:
        raise ValueError(
            f"a genus-1 group has one limit point, not {n}: the weight-N series needs genus >= 2"
        )
    found: list[complex] = []
    words: list[tuple[int, ...]] = []
    for length in range(1, 9):
        shells = build_shells(p, length, cap=10_000_000)
        idx = np.arange(shells.shell_size(length))
        for back in range(length, 1, -1):  # follow the parents back to each leading letter
            idx = shells.parent[back][idx]
        a, b = shells.a[length], shells.b[length]
        c, d = shells.c[length], shells.d[length]
        first, last = shells.last_letter[1][idx], shells.last_letter[length]
        for i in np.flatnonzero((first > 0) & (first != -last)):  # cyclically reduced
            g = MoebiusMap(complex(a[i]), complex(b[i]), complex(c[i]), complex(d[i]))
            z_attr, _, _ = moebius.fixed_points(g)
            if isinstance(z_attr, Infinity):
                continue
            if all(abs(z_attr - f) > 1e-6 for f in found):
                found.append(z_attr)
                words.append(shells.word(length, i))
            if len(found) >= n:
                return tuple(found), tuple(words)
    raise ValueError(f"could not find {n} distinct limit points (got {len(found)})")


def limit_points(p: SchottkyParams, n: int) -> np.ndarray:
    """First n distinct attracting fixed points, in word-enumeration order.

    Scans cyclically reduced words (first letter not the inverse of the
    last, so a word's powers are reduced words) with positive leading letter
    in length-lex order and collects attracting fixed points, merging any
    that repeat (powers of a word share fixed points with the word itself).
    """
    return np.array(_limit_words(p, n)[0], dtype=np.complex128)


def _letter_code(letter: np.ndarray) -> np.ndarray:
    """Letter l's index 2(|l| - 1) + (l < 0) in letter_order, so in shell 1."""
    return 2 * (np.abs(letter) - 1) + (letter < 0)


def _pull_back(a, b, c, d, w):
    """(a - cw, p_w = g^-1 w) for words g = (a b; c d): gx - w = (a - cw)(x - p_w)/(cx + d)."""
    lam = a - c * w
    return lam, (d * w - b) / lam


@dataclass(frozen=True)
class _Shared:
    """Points u_k that every row of a series shares, with lam[L][k] = a - c u_k
    and pole[L][k] = g^-1 u_k over the words of shell L; guard, the points
    _pole_guard covers after the rows' targets: all u_k if they may be orbit
    points of x (a pole pair's shared member), none if limit points; plans,
    each deep shell's _GroupPlan, built on first use by any evaluator that
    holds these points (_live) and kept while one does."""

    points: np.ndarray
    lam: list[np.ndarray]
    pole: list[np.ndarray]
    guard: np.ndarray
    plans: dict = field(default_factory=dict)


def _limit_factors(shells: WordShells, p: SchottkyParams, n: int) -> _Shared:
    """The first n limit points A_j (limit_points) with their factors and
    poles, carried down the parent links with no deep word's matrix entry:
    for g = P s, a - c u = (a_P - c_P u)(a_s - c_s p)
    and g^-1 u = s^-1 p, p = P^-1 u. A_j repels under W_j^-1, W_j the word
    the scan found it with, so along W_j^k the carried pole would drift off
    A_j (and a - c A_j from g's entries cancels): each W_j^k is snapped to
    pole A_j and factor lambda_j^k, lambda_j = 1/(c A_j + d) from W_j's
    entries. The W_j^k are reduced words only when W_j is cyclically reduced."""
    A, words = limit_points(p, n), _limit_words(p, n)[1]
    if any(w[0] == -w[-1] for w in words):
        raise ValueError(f"limit-point words {words} are not cyclically reduced")
    mats = (shells.a, shells.b, shells.c, shells.d)
    lam, pole = [np.ones((len(A), 1), dtype=np.complex128)], [A[:, None].astype(np.complex128)]
    at, base = [0] * len(A), {}  # at[j]: the length-L prefix of W_j W_j ... in shell L
    for length in range(1, shells.max_len + 1):
        parent, last = shells.parent[length], shells.last_letter[length]
        step, p = _pull_back(*(m[1][_letter_code(last)] for m in mats), pole[-1][:, parent])
        lam.append(lam[-1][:, parent] * step)
        pole.append(p)
        for j, w in enumerate(words):
            i = at[j] = np.flatnonzero((parent == at[j]) & (last == w[(length - 1) % len(w)]))[0]
            if length == len(w):  # a - c A_j = 1/(c A_j + d) at W_j's fixed point, uncancelled
                base[j] = 1.0 / (shells.c[length][i] * A[j] + shells.d[length][i])
            if length % len(w) == 0:
                lam[-1][j, i], pole[-1][j, i] = base[j] ** (length // len(w)), A[j]
    return _Shared(A, lam, pole, guard=A[:0])


def _pulled_back(shells: WordShells, u: complex) -> _Shared:
    """A pole pair's shared member u, guarded, with its factor and pole over every word."""
    mats = zip(shells.a, shells.b, shells.c, shells.d)
    lam, pole = zip(*(_pull_back(*abcd, np.full((1, 1), u)) for abcd in mats))
    points = np.array([u], dtype=np.complex128)
    return _Shared(points, list(lam), list(pole), guard=points)


def _pole_guard(x, c, d, lam, pole, points, discs) -> None:
    """Raise PoleProximityError where |gx - w| < 1e-12, tested pulled back as
    |x - p_w| |lam| < 1e-12 |cx + d| at the points x, words (a b; c d) and
    guarded points w, lam = a - cw and p_w = g^-1 w as (w, words) arrays. A
    pair (w, g) is tested only if max_D (min_x |x - c_D| - |p_w - c_D|), a lower
    bound on |x - p_w| (c_D the disc centres; the min shrunk by 1e-9 so that
    rounding can only add pairs), times |lam| is below 1e-12 (|c| max |x| + |d|)."""
    reach = np.abs(discs[:, None] - x).min(axis=1) * (1 - 1e-9)
    apart = (reach[:, None, None] - np.abs(pole - discs[:, None, None])).max(axis=0)
    room = 1e-12 * (np.abs(c) * np.abs(x).max() + np.abs(d))
    k, j = np.nonzero(apart * np.abs(lam) < room)
    if len(k):
        xk = x[:, None]
        hit = np.abs(xk - pole[k, j]) * np.abs(lam[k, j]) < 1e-12 * np.abs(c[j] * xk + d[j])
        if hit.any():
            w = complex(points[k[hit.any(axis=0)][0]])
            raise PoleProximityError(f"pole {w!r} within 1e-12 of the orbit of an x point")


class _DirectKernel:
    """One series' term summed over the words (a b; c d) of a shell 0..3 at
    a tile of points x, as kernel(a, b, c, d, x) -> (t, len(x)): numerator_r
    (cx + d)^-2N / ((gx - t_r) prod_k (gx - s_k)) over the 2N - 1 shared
    points s_k, i.e. the weight-N term, or (N = 1) a pole pair's
    g'(x)(1/(gx - u) - 1/(gx - v)) with row target v, numerator u - v and
    shared u.

    The work arrays are (points, words), in the evaluator's scratch, so a
    point's terms sum along one contiguous row of their own, and no complex
    product is formed in place (numpy's in-place complex multiply of a
    1-element array rounds differently): a point's bits never depend on the
    other points. _pole_guard covers the targets and shared.guard.
    """

    def __init__(self, ws: _Workspace, targets, numerator, shared: _Shared, discs):
        self.ws, self.targets, self.numerator, self.shared = ws, targets, numerator[:, None], shared
        self.guarded, self.discs = np.concatenate([targets, shared.guard]), discs

    def __call__(self, a, b, c, d, x) -> np.ndarray:
        lam, pole = _pull_back(a, b, c, d, self.guarded[:, None])
        _pole_guard(x, c, d, lam, pole, self.guarded, self.discs)
        m, n = len(x), len(a)
        den, gx, prod, spare, q = self.ws.take("direct", (5, m, n))
        np.multiply(x[:, None], c, out=den)
        den += d
        np.multiply(x[:, None], a, out=gx)
        gx += b
        gx /= den
        with np.errstate(divide="ignore", invalid="ignore"):  # x on a limit point: inf
            # (cx + d)^2N prod_k (gx - s_k) as (cx + d) prod_k (cx + d)(gx - s_k)
            np.copyto(prod, den)
            for s in self.shared.points:
                for factor in (den, np.subtract(gx, s, out=q)):
                    np.multiply(prod, factor, out=spare)
                    prod, spare = spare, prod
            base = np.divide(1.0, prod, out=prod)
            out = np.empty((len(self.targets), m), dtype=np.complex128)
            for r, t in enumerate(self.targets):
                np.divide(base, np.subtract(gx, t, out=q), out=q)
                np.add.reduce(q, axis=1, out=out[r])
            return out * self.numerator


# ---------------------------------------------------------------------------
# series evaluators


def _points(name: str, values) -> np.ndarray:
    """values as a 1-D complex array, else ValueError naming the argument."""
    out = np.asarray(values, dtype=np.complex128)
    if out.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of points, got shape {out.shape}")
    return out


class _ShellSeries:
    """State and shell loop shared by the series evaluators.

    Each evaluator is one term summed over the same word shells; a subclass
    names the points every row shares by their _live tag and build(shells),
    and passes _sum its rows' targets and numerators. The rows stay bound,
    to the evaluator's own copies of both, while successive calls bring
    equal targets, and are bound anew when the targets change.

    Evaluators of one surface, max_len and cap share one read-only word
    tree, and those of one tag its shared points and the deep shells'
    plans, while any of them lives (_live); once none does, the next one
    builds them anew.
    """

    _depth = 3  # deep words are grouped by their last _depth letters

    def __init__(self, p: SchottkyParams, config: SeriesConfig, tag: tuple, build):
        self.params = p
        self.config = config
        key = (p, config.max_len, config.cap)
        self.shells = _live(key, lambda: build_shells(p, config.max_len, cap=config.cap))
        self._shared = _live(key + tag, lambda: build(self.shells))
        self._last_shell_mags: list[float] = []
        self._targets = None  # the bound rows' targets
        self._ws = _Workspace()
        self._discs = np.array([disc_center(p, l) for l in p.letters])

    def _sum(self, xs, label: str, targets, numerator) -> np.ndarray:
        """Sum the term over the shells in order (Kahan), stop once two
        consecutive shells are below stop_tol, keep the shell magnitudes,
        and warn (at the caller of the public method, which reaches _sum
        through the evaluator's _grid on every path) if the last shell is
        above shell_tol. Shells 0..3 go to _DirectKernel in tiles of points
        of half the budget (it keeps five such arrays): a point's terms sum
        along its own row, so tiles change speed and memory, never values.
        Each deeper shell is its plan bound to the rows (_PoleGroups),
        summed on one _FarField, built at the first deep shell the call
        reaches and dropped when it returns."""
        if not np.array_equal(targets, self._targets):
            self._targets, self._numerator = np.array(targets), np.array(numerator)
            self._rows: dict[int, _PoleGroups] = {}
        kernel = _DirectKernel(self._ws, self._targets, self._numerator, self._shared, self._discs)
        shells, plans, m = self.shells, self._shared.plans, len(xs)
        totals = np.zeros((len(self._targets), m), dtype=np.complex128)
        comp = np.zeros_like(totals)
        mags: list[float] = []
        stop, tol = self.config.stop_tol, self.config.shell_tol
        field = None
        for length in range(shells.max_len + 1):
            if length < _DIRECT_SHELLS:
                words = [w[length] for w in (shells.a, shells.b, shells.c, shells.d)]
                step = max(1, _TILE_ELEMENTS // (2 * len(words[0])))
                shell_total = np.zeros_like(totals)
                for lo in range(0, m, step):
                    shell_total[:, lo : lo + step] += kernel(*words, xs[lo : lo + step])
            else:
                if length not in plans:  # shell 4's plan lends the deeper ones its centres
                    plans[length] = _GroupPlan(self, length, plans.get(_DIRECT_SHELLS))
                if length not in self._rows:
                    self._rows[length] = _PoleGroups(plans[length], self._targets, self._numerator)
                if field is None:
                    field = _FarField(xs, plans[length].centre)
                shell_total = self._rows[length].total(field)
            if not np.all(np.isfinite(shell_total)):
                raise EvaluationError(
                    "non-finite series terms (evaluation point at a pole of a group element?)"
                )
            # Kahan step keeps deep-shell tails from drowning in rounding
            y = shell_total - comp
            s = totals + y
            comp = (s - totals) - y
            totals = s
            mags.append(float(np.max(np.abs(shell_total), initial=0.0)))
            if stop is not None and length >= 2 and mags[-1] < stop and mags[-2] < stop:
                break
        self._last_shell_mags = mags
        if len(mags) >= 2 and mags[-1] > tol:
            warnings.warn(
                f"{label}: last shell still contributes {mags[-1]:.3e} "
                f"(> shell_tol {tol:.1e}); deepen max_len",
                TruncationWarning,
                stacklevel=4,
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

    _depth = 2

    def __init__(self, p: SchottkyParams, N: int, config: SeriesConfig = SeriesConfig()):
        if N < 2:
            raise ValueError("weight parameter N must be >= 2")
        self.N = N
        super().__init__(p, config, ("N", N), lambda shells: _limit_factors(shells, p, 2 * N - 1))
        self.points = self._shared.points

    def value(self, x: complex, y: complex) -> complex:
        return complex(self._grid(np.array([x]), np.array([y]))[0, 0])

    def value_grid(self, xs, ys) -> np.ndarray:
        """Array of values, shape (len(ys), len(xs)); x-batches share orbits."""
        return self._grid(xs, ys)

    def _grid(self, xs, ys) -> np.ndarray:
        xs, ys = _points("xs", xs), _points("ys", ys)
        y_weights = np.array([np.prod(yv - self.points) for yv in ys])  # product of (y - A_j)
        # a y on a planted zero (some A_j) zeroes every term: its row is 0
        live = y_weights != 0
        ys, y_weights = ys[live], y_weights[live]
        out = np.zeros((len(live), len(xs)), dtype=np.complex128)
        out[live] = self._sum(xs, f"weight-{self.N} series", ys, y_weights)
        return out


class ThirdKindEvaluator(_ShellSeries):
    """Differential with simple poles at y (residue +1) and 0 (residue -1)."""

    def __init__(self, p: SchottkyParams, config: SeriesConfig = SeriesConfig()):
        super().__init__(p, config, ("u", 0j), lambda shells: _pulled_back(shells, 0j))

    def value(self, x: complex, y: complex) -> complex:
        return complex(self._grid(np.array([x]), np.array([y]))[0, 0])

    def value_grid(self, xs, ys) -> np.ndarray:
        """Shape (len(ys), len(xs)); pole pair (y_i, 0) per row."""
        return self._grid(xs, ys)

    def _grid(self, xs, ys) -> np.ndarray:
        xs, ys = _points("xs", xs), _points("ys", ys)
        return self._sum(xs, "third-kind series", ys, ys - 0j)


# ---------------------------------------------------------------------------
# deep shells as grouped multipole expansions

_DIRECT_SHELLS = 4  # shells 0..3 are summed by _DirectKernel, in _ShellSeries._sum
_FAR_RATIO = 0.5  # a group is far from x when its radius is below _FAR_RATIO |x - c|
_TAIL_TOL = 1e-17  # dropped expansion tail, relative to sum |weight| / |x - c|^m


def _expansion_order(rho: float, m: int) -> int:
    """The first K >= 1 with C(K + m - 1, m - 1) rho^K / (1 - rho)^m <= _TAIL_TOL."""
    K = 1
    while math.comb(K + m - 1, m - 1) * rho**K > _TAIL_TOL * (1.0 - rho) ** m:
        K += 1
    return K


def _suffixes(shells: WordShells, length: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Each length-`length` word's last `depth` letters as one integer, and
    the index of its ancestor of length `length - depth + 1`, the word that
    ends in the first of those letters."""
    letters = 2 * shells.genus
    idx = np.arange(shells.shell_size(length))
    key = np.zeros(len(idx), dtype=np.int64)
    for back in range(length, length - depth, -1):
        ancestor = idx
        key = key * letters + _letter_code(shells.last_letter[back][idx])
        idx = shells.parent[back][idx]
    return key, ancestor


class _GroupPlan:
    """A deep shell's words in groups, as every series that shares its points
    uses them (kept in _Shared.plans; it holds no reference back to them).

    A word's term is weight / prod_k (x - p_k), p_k = g^-1 u_k, weight =
    numerator / prod_k (a - c u_k): u_0 a row's target, pulled back from the
    word's matrix (_PoleGroups), then the points every row shares, from
    `shared` (a limit point's carried and snapped by _limit_factors).

    The words are grouped by their last `_depth` letters, whose nested disc,
    the image of the last disc of their length-(length - _depth + 1)
    ancestor, holds their poles unless a point sits in the wrong disc. A
    limit point A_j does for the 2g - 1 words per shell whose first
    length - _depth + 1 letters run along W_j W_j ...; such an outside word,
    found by testing the ancestors' poles against their last disc, is
    summed term by term at every point.

    A group's centre c is the mean pole, over the shared points, of its key's
    words in the series' first deep shell: that shell's plan (base None)
    computes it, and every deeper one takes base's centre array itself,
    raising if its group keys differ, so one _FarField serves every deep
    shell of a call.
    """

    def __init__(self, series: _ShellSeries, length: int, base: _GroupPlan | None = None):
        p, shells, depth, shared = series.params, series.shells, series._depth, series._shared
        key, ancestor = _suffixes(shells, length, depth)
        self.guard, self.m = shared.guard, 1 + len(shared.points)
        back = length - depth + 1
        code = _letter_code(shells.last_letter[back][ancestor])
        self.discs = series._discs
        disc_c = self.discs[code]
        disc_r = np.array([disc_radius(p, l) for l in p.letters])[code]
        inside = np.all(np.abs(shared.pole[back][:, ancestor] - disc_c) <= disc_r, axis=0)
        kept = np.flatnonzero(inside)
        order = kept[np.argsort(key[kept], kind="stable")]
        self.keys, self.starts, sizes = np.unique(key[order], return_index=True, return_counts=True)
        self.stops = self.starts + sizes
        self.group_of_word = np.repeat(np.arange(len(sizes)), sizes)
        # the kept words in group order, then the outside words
        order = np.r_[order, np.flatnonzero(~inside)]
        self.outside = slice(len(kept), len(order))
        self.abcd = tuple(m[length][order] for m in (shells.a, shells.b, shells.c, shells.d))
        self.lam, self.pole = (s[length][:, None, order] for s in (shared.lam, shared.pole))
        if base is None:
            poles = functools.reduce(np.add, self.pole[:, :, : len(kept)])
            sums = np.add.reduceat(poles, self.starts, axis=1)[0]
            self.centre = sums / (len(shared.points) * sizes)
        elif np.array_equal(self.keys, base.keys):
            self.centre = base.centre
        else:
            raise ValueError(f"shell {length} groups other suffixes than its centres' plan")
        for array in [*self.abcd, *vars(self).values()]:  # shared, so read-only as in _live
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


class _FarField:
    """The point side of one _sum call's expansions, shared by all its deep
    shells, whose plans share the centres c: the points x, the distances
    |x - c|, shape (points, groups), and the inverse powers (x - c)^-(k+1),
    shape (points, k, groups), grown to the most orders any shell needs.

    Each power is the one before it times the first, over a point's groups
    as one strided row, and never written over an input (numpy's in-place
    complex multiply of a 1-element block rounds differently), so a point's
    bits are its own, whatever the other points and however far it grew.
    Both arrays are read-only, as every deep shell of the call reads them.
    """

    def __init__(self, xs: np.ndarray, centre: np.ndarray):
        self.xs, self.centre = xs, centre
        self.dist = np.abs(xs[:, None] - centre)
        self.dist.flags.writeable = False
        self._pw = np.empty((len(xs), 0, len(centre)), dtype=np.complex128)

    def powers(self, count: int) -> np.ndarray:
        """(x - c)^-(k+1) for k < count or more, shape (points, >= count, groups)."""
        have = self._pw.shape[1]
        if have < count:
            pw = np.empty((len(self.xs), count, len(self.centre)), dtype=np.complex128)
            pw[:, :have] = self._pw
            with np.errstate(all="ignore"):  # a point at a centre: inf
                if not have:
                    np.divide(1.0, self.xs[:, None] - self.centre, out=pw[:, 0])
                for k in range(max(1, have), count):
                    np.multiply(pw[:, k - 1], pw[:, 0], out=pw[:, k])
            pw.flags.writeable = False
            self._pw = pw
        return self._pw


class _PoleGroups:
    """A deep shell's plan bound to its series' rows, one target and one
    numerator per row: each group's radius r, the largest distance of any
    row's pole from its centre c, and the expansions' moments.

    A group is far from x when r < _FAR_RATIO |x - c|, one test per
    (group, point) on the call's _FarField, and there it adds
    sum_{n>=0} mu_n (x - c)^-(m+n),
    mu_n = sum_w weight_w h_n(p_w - c), h_n the complete homogeneous
    polynomial of degree n in the m poles. As |h_n| <= C(n + m - 1, m - 1)
    r^n, stopping at K = _expansion_order(rho, m), rho the worst far
    r / |x - c| of the call, drops at most _TAIL_TOL sum |weight| / |x - c|^m.
    Near (group, point) pairs and the outside words are summed term by term
    (_near_sum) behind _pole_guard. The row targets are points of F or their
    images (y, g_a y0); one elsewhere only widens its groups.

    Bits: a point's powers of 1/(x - c) come from that point alone (the
    field's) and meet all rows' moments in its own (1, K groups) @
    (K groups, t) product, and each near point's terms sum as one contiguous
    row, so a point's value depends on the other points only through K, and
    never on tiles.
    """

    def __init__(self, plan: _GroupPlan, targets: np.ndarray, numerator: np.ndarray):
        self.plan, self.targets, self.numerator = plan, targets[:, None], numerator[:, None]
        # words per (t, words) work array: a quarter tile
        self._batch = max(1, _TILE_ELEMENTS // (4 * max(1, len(numerator))))
        self.radius = np.zeros(len(plan.starts))
        for g0, g1, sl in self._group_batches():
            _, poles, _ = self._terms(sl)
            cw = plan.centre[plan.group_of_word[sl]]
            spread = [np.abs(p - cw).max(axis=0, initial=0.0) for p in poles]
            starts = plan.starts[g0:g1] - sl.start
            self.radius[g0:g1] = np.maximum.reduceat(functools.reduce(np.maximum, spread), starts)
        self._mu = np.empty((0, len(plan.starts), len(numerator)), dtype=np.complex128)

    def _group_batches(self):
        """Runs [g0, g1) of whole groups holding at most self._batch words
        (or one group), with their words' slice of the group order."""
        starts, stops = self.plan.starts, self.plan.stops
        g0 = 0
        for g1 in range(1, len(starts) + 1):
            if g1 == len(starts) or stops[g1] - starts[g0] > self._batch:
                yield g0, g1, slice(starts[g0], stops[g1 - 1])
                g0 = g1

    def _terms(self, sl: slice):
        """(factors a - c u_k, poles, weights) of a slice of the words: per
        point, the target's as (t, words) arrays, then each shared point's
        as a (1, words) array; the weights (t, words). Recomputed when
        needed, to the same bits, rather than kept."""
        plan = self.plan
        lam, pole = _pull_back(*(m[sl] for m in plan.abcd), self.targets)
        lams, poles = (lam, *plan.lam[:, :, sl]), (pole, *plan.pole[:, :, sl])
        return lams, poles, self.numerator / functools.reduce(np.multiply, lams)

    def _moments(self, K: int) -> np.ndarray:
        """mu_0 .. mu_{K-1} of every group and row, shape (K groups, t),
        row n groups + g holding mu_n of group g, by the recurrence
        H_{m-1} = q_{m-1}^n, H_k <- q_k H_k + H_{k+1}, h_n = H_0 (so the
        shared points' H_k are shared by the rows). A call needing more
        orders recomputes them all, to the same bits."""
        if len(self._mu) < K:
            mu, plan = np.empty((K,) + self._mu.shape[1:], dtype=np.complex128), self.plan
            for g0, g1, sl in self._group_batches():
                _, poles, weight = self._terms(sl)
                starts = plan.starts[g0:g1] - sl.start
                cw = plan.centre[plan.group_of_word[sl]]
                q = [p - cw for p in poles]
                del poles
                H = [np.ones_like(q_k) for q_k in q]
                term = np.empty_like(weight)
                for n in range(K):
                    if n:
                        H[-1] *= q[-1]
                        for k in range(len(q) - 2, -1, -1):
                            H[k] *= q[k]
                            H[k] += H[k + 1]
                    np.multiply(weight, H[0], out=term)
                    mu[n, g0:g1] = np.add.reduceat(term, starts, axis=1).T
            self._mu = mu
        return self._mu[:K].reshape(-1, len(self.numerator))

    def total(self, field: _FarField) -> np.ndarray:
        """The shell's (t, points) sum at the field's points."""
        plan, xs = self.plan, field.xs
        if field.centre is not plan.centre:
            raise ValueError("the far field is centred on another plan's groups")
        out = np.zeros((len(self.numerator), len(xs)), dtype=np.complex128)
        if not out.size:
            return out
        # a far point lies more than r from every pole of its group
        # (|x - c| > 2r), so the expansion needs no pole guard
        far = self.radius < _FAR_RATIO * field.dist
        near = ~far
        if far.any():
            with np.errstate(divide="ignore", invalid="ignore"):  # x at a centre: near
                ratio = self.radius / field.dist
            ratio[near] = 0.0
            K = _expansion_order(float(ratio.max()), plan.m)
            mu = self._moments(K)
            pw = field.powers(plan.m + K - 1)[:, plan.m - 1 : plan.m + K - 1]
            width = max(1, _TILE_ELEMENTS // (K * len(self.radius)))
            for lo in range(0, len(xs), width):
                P, tile_near = pw[lo : lo + width], near[lo : lo + width]
                if tile_near.any():  # a copy with the near pairs (which may overflow) zeroed
                    P = np.where(tile_near[:, None], 0.0, P)
                out[:, lo : lo + width] = np.matmul(P.reshape(len(P), 1, -1), mu)[:, 0].T
        for j in np.flatnonzero(near.any(axis=0)):
            cols = np.flatnonzero(near[:, j])
            out[:, cols] += self._near_sum(slice(plan.starts[j], plan.stops[j]), xs[cols])
        if plan.outside.stop > plan.outside.start:
            out += self._near_sum(plan.outside, xs)
        return out

    def _near_sum(self, sl: slice, x: np.ndarray) -> np.ndarray:
        """The words sl's terms, pulled back, summed for every row at the
        points x, shape (t, len(x)), behind _pole_guard once per tile. The
        shared points' factor is formed once per (point, word) and met by
        each row in turn, whose terms at a point sum as one contiguous run."""
        _, _, c, d = (m[sl] for m in self.plan.abcd)
        lams, poles, weight = self._terms(sl)
        guarded = np.concatenate([self.targets[:, 0], self.plan.guard])
        lam, pole = (np.concatenate(f)[: len(guarded)] for f in (lams, poles))
        out = np.empty((len(weight), len(x)), dtype=np.complex128)
        step = max(1, _TILE_ELEMENTS // weight.shape[1])
        for lo in range(0, len(x), step):
            xk = x[lo : lo + step, None]
            _pole_guard(xk[:, 0], c, d, lam, pole, guarded, self.plan.discs)
            shared = functools.reduce(np.multiply, [xk - p for p in poles[1:]])  # (points, words)
            for r in range(len(weight)):
                out[r, lo : lo + step] = np.sum(weight[r] / ((xk - poles[0][r]) * shared), axis=1)
        return out


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
        self.y0 = complex(y0)
        self.images = [
            moebius.apply(generator(p, a), self.y0) for a in range(1, p.genus + 1)
        ]
        if any(isinstance(t, Infinity) for t in self.images):
            raise ValueError("base point maps to infinity under a generator")
        super().__init__(p, config, ("u", self.y0), lambda shells: _pulled_back(shells, self.y0))

    def value(self, a: int, x: complex) -> complex:
        return complex(self._grid(np.array([x]))[a - 1, 0])

    def values(self, xs) -> np.ndarray:
        """All nu_a at once, shape (g, len(xs)); one orbit pass."""
        return self._grid(xs)

    def _grid(self, xs) -> np.ndarray:
        xs = _points("xs", xs)
        images = np.array(self.images, complex)
        return self._sum(xs, "nu series", images, self.y0 - images)


# ---------------------------------------------------------------------------
# probe points


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
