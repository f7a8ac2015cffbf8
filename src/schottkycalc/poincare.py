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

Direct and deep shells. Every series sums shells 0..3 in the gx form as
above, and every deeper shell as grouped multipole expansions. For a det-1
word (a b; c d) and a point w, gx - w = (a - cw)(x - p_w)/(cx + d) with
p_w = g^-1 w, so a word's term is weight / prod_k (x - p_k) over its m
pulled-back poles: the dipole delta / ((x - p_u)(x - p_v)),
delta = (u - v)/((a - cu)(a - cv)), of a pole pair, and the 2N-pole
coef / ((x - p_y) prod_j (x - p_{A_j})),
coef = prod_j (y - A_j) / ((a - cy) prod_j (a - cA_j)), of the weight-N
term, whose (cx + d) powers cancel. Every word takes its matrix entries,
the shared points' factors a - cu_k and poles (carried down the link for
limit points, exact along the powers of each A_j's own word, where the
matrix entries cancel; from its own matrix for a pole pair), its group key
and its place on a limit point's chain from its parent by one step
(_Shared.child), in the word tree and past it alike.

The word tree stops at shell 4. A deep word is grouped by its last three
letters (pole pairs) or two (weight N) when the points all rows share (the
A_j, or a pole pair's shared y0 or 0) pull back into that key's nested
disc; each group is centred on its mean shared pole in shell 4. Shell 4's
groups take moments from their words; shell L + 1's come from shell L's
by one map per plan (_GroupPlan.transfer, the multipole translation of
Greengard & Rokhlin): each of a group's 2g - 1 parent groups' expansions
pulled back exactly by the group's last letter and shifted to its centre.
Only the words whose shared pole leaves their group's disc (the
(2N - 1)(2g - 1) weight-N words per shell along a limit point's word) are
carried as words, with their exact factors, and their children that fall
in a group add their own moments to it. A group's radius is an upper
bound on its poles' distance from its centre over every deep shell and
row (the parents' discs pulled back), and a group far from x (its radius
below half the distance) adds a truncated Laurent expansion whose dropped
tail, and that of the map, is bounded a priori. One pass per call
contracts every deep shell's moments with each point's powers in one
product per point, in tiles of points. A near (group, point) pair sums the
group's words, built for it alone (_GroupPlan.group_words), and the
outside words are summed at every point, term by term and pulled back.
The plan is built once per live set of shared points (_GroupPlan, kept by
_live); the rows' radii and moments are bound to it (_PoleGroups)
and kept while the targets stay, so nu, whose rows never change, binds
them once. The tree and one word per group of every deep shell count
against SeriesConfig.cap before anything is built. Every term-by-term
sum, direct or near, runs behind one pulled-back pole guard (_pole_guard).
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from . import moebius
from .moebius import Infinity, MoebiusMap
from .schottky import (
    CapacityError,
    SchottkyParams,
    WordShells,
    build_shells,
    disc_center,
    disc_radius,
    expected_word_count,
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

    max_len bounds the shells summed. cap bounds the words held: shells
    0..4 and one word per group of each deep shell 4..max_len (its radius,
    count and moments), counted before anything is built (_words_held), so
    a max_len they cannot afford raises CapacityError at once, whatever
    stop_tol; then the outside words, and the words of one deep group that
    a call rebuilds for the points near it, inside or close to a disc.
    stop_tol, when set, skips the remaining shells once two consecutive
    shells each contribute less than stop_tol (a deterministic cutoff: the
    decision depends only on the sequentially reduced shell magnitudes).
    Leave it None to always sum every shell. workers is accepted (>= 1) and
    has no effect: every series runs in the calling thread.
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


# ---------------------------------------------------------------------------
# limit points and the shared points' pulled-back poles

_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _live(key, build):
    """The word tree (key (p, max_len, cap)), shared points (key
    (p, max_len, cap, "N", N) for the limit points of weight N, or
    (p, max_len, cap, "u", u) for a pole pair's shared member u; the tag
    keeps N = 3 and u = 3 + 0j apart, which compare and hash alike) or
    their deep shells' plan (the shared points' key + ("plan",)) for key
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
class _Words:
    """Reduced words of one length as their matrix entries abcd, each shape
    (n,), with what each takes from its parent (_Shared.child): the shared
    points' factors lam = a - c u_k and poles g^-1 u_k, shape (points, n);
    key, the letter codes of its last _Shared.depth letters in base 2g, its
    group's once it has that many; chain[j], whether it is the prefix of
    W_j W_j ... of its length, shape (limit points, n); and base[j],
    lambda_j once that prefix has passed W_j. Read-only."""

    length: int
    abcd: tuple
    lam: np.ndarray
    pole: np.ndarray
    key: np.ndarray
    chain: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        for array in (*self.abcd, self.lam, self.pole, self.key, self.chain, self.base):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.key)

    def take(self, index) -> _Words:
        abcd = tuple(m[index] for m in self.abcd)
        return _Words(self.length, abcd, self.lam[:, index], self.pole[:, index],
                      self.key[index], self.chain[:, index], self.base)

    @staticmethod
    def join(parts: list[_Words]) -> _Words:
        abcd = tuple(np.concatenate(m) for m in zip(*(w.abcd for w in parts)))
        lam, pole, chain = (np.concatenate(f, axis=1)
                            for f in zip(*((w.lam, w.pole, w.chain) for w in parts)))
        key = np.concatenate([w.key for w in parts])
        return _Words(parts[0].length, abcd, lam, pole, key, chain, parts[0].base)


class _Shared:
    """Points u_k that every row of a series shares, and how a word takes
    their factors and poles from its parent (child): down the link for the
    limit points, each A_j with the word W_j the scan found it with
    (chains), or from its own matrix for a pole pair's shared member.
    guard, the points _pole_guard covers after the rows' targets: the
    shared member, which may be an orbit point of x, and no limit point;
    depth, the letters of a group key (_GroupPlan); gen, the generators'
    entries a, b, c, d by letter code, shape (4, 2g); tree, the word tree's
    shells, each word taken from its parent by child."""

    def __init__(self, p: SchottkyParams, shells: WordShells, depth: int, points, chains=()):
        if any(w[0] == -w[-1] for w in chains):
            raise ValueError(f"limit-point words {chains} are not cyclically reduced")
        self.points = np.array(points, dtype=np.complex128)
        self.chains, self.depth = chains, depth
        self.guard = self.points[:0] if chains else self.points
        self.gen = np.array([[getattr(generator(p, l), e) for l in p.letters] for e in "abcd"])
        one, zero = np.ones(1, dtype=np.complex128), np.zeros(1, dtype=np.complex128)
        self.tree = [_Words(0, (one, zero, zero, one), np.ones_like(self.points[:, None]),
                            self.points[:, None], np.zeros(1, dtype=np.int64),
                            np.ones((len(chains), 1), dtype=bool), zero.repeat(len(chains)))]
        for parent, letter in zip(shells.parent[1:], shells.last_letter[1:]):
            self.tree.append(self.child(self.tree[-1], parent, letter))

    def child(self, words: _Words, parent: np.ndarray, letter: np.ndarray) -> _Words:
        """The words parent[i] times letter[i] (parent an index into words,
        or a slice), as build_shells forms their entries. For g = P s, the
        limit points' a - c u = (a_P - c_P u)(a_s - c_s p) and g^-1 u =
        s^-1 p, p = P^-1 u, with no deep word's matrix entry; a pole pair's
        come from g's own entries. A_j repels under W_j^-1, so along W_j^k
        the carried pole would drift off A_j (and a - c A_j from g's entries
        cancels): each W_j^k is snapped to pole A_j and factor lambda_j^k,
        lambda_j = 1/(c A_j + d) from W_j's own entries. The W_j^k are
        reduced words only when W_j is cyclically reduced."""
        length, code = words.length + 1, _letter_code(letter)
        ga, gb, gc, gd = self.gen[:, code]
        a, b, c, d = (m[parent] for m in words.abcd)
        abcd = (a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd)
        if self.chains:
            step, pole = _pull_back(ga, gb, gc, gd, words.pole[:, parent])
            lam = words.lam[:, parent] * step
        else:
            lam, pole = _pull_back(*abcd, self.points[:, None])
        along = np.array([w[(length - 1) % len(w)] for w in self.chains], dtype=np.int64)
        chain = words.chain[:, parent] & (letter == along[:, None])
        base = words.base.copy()
        for j, i in zip(*np.nonzero(chain)):
            w = self.chains[j]
            if length == len(w):
                base[j] = 1.0 / (abcd[2][i] * self.points[j] + abcd[3][i])
            if length % len(w) == 0:
                lam[j, i], pole[j, i] = base[j] ** (length // len(w)), self.points[j]
        letters = self.gen.shape[1]
        key = (words.key[parent] * letters + code) % letters**self.depth
        return _Words(length, abcd, lam, pole, key, chain, base)


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

    The work arrays are (points, words), fresh for each tile, so a
    point's terms sum along one contiguous row of their own, and no complex
    product is formed in place (numpy's in-place complex multiply of a
    1-element array rounds differently): a point's bits never depend on the
    other points. _pole_guard covers the targets and shared.guard.
    """

    def __init__(self, targets, numerator, shared: _Shared, discs):
        self.targets, self.numerator, self.shared = targets, numerator[:, None], shared
        self.guarded, self.discs = np.concatenate([targets, shared.guard]), discs

    def __call__(self, a, b, c, d, x) -> np.ndarray:
        lam, pole = _pull_back(a, b, c, d, self.guarded[:, None])
        _pole_guard(x, c, d, lam, pole, self.guarded, self.discs)
        m, n = len(x), len(a)
        den, gx, prod, spare, q = np.empty((5, m, n), dtype=np.complex128)
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
    names the points every row shares by their _live tag and shared(), the
    points and, for limit points, their words (_Shared), and passes _sum
    its rows' targets and numerators. The rows stay bound, to the
    evaluator's own copies of both, while successive calls bring equal
    targets, and are bound anew when the targets change.

    Evaluators of one surface, max_len and cap share one read-only word
    tree (to shell 4), and those of one tag its shared points, while any of
    them lives, and the deep shells' plan while any of them holds it
    (_live); once none does, the next one builds them anew.
    """

    _depth = 3  # deep words are grouped by their last _depth letters

    def __init__(self, p: SchottkyParams, config: SeriesConfig, tag: tuple, shared):
        self.params = p
        self.config = config
        self._held = _words_held(p.genus, config, self._depth)
        key = (p, config.max_len, config.cap)
        depth = min(config.max_len, _DIRECT_SHELLS)
        self.shells = _live(key, lambda: build_shells(p, depth, cap=config.cap))
        self._key = key + tag
        self._shared = _live(self._key, lambda: _Shared(p, self.shells, self._depth, *shared()))
        self._plan: _GroupPlan | None = None
        self._last_shell_mags: list[float] = []
        self._targets = None  # the bound rows' targets
        self._discs = np.array([disc_center(p, l) for l in p.letters])

    def _sum(self, xs, label: str, targets, numerator) -> np.ndarray:
        """Sum the term over the shells in order (Kahan), stop once two
        consecutive shells are below stop_tol, keep the shell magnitudes,
        and warn (at the caller of the public method, which reaches _sum
        through the evaluator's _grid on every path) if the last shell is
        above shell_tol. Shells 0..3 go to _DirectKernel in tiles of points
        of half the budget (it keeps five such arrays): a point's terms sum
        along its own row, so tiles change speed and memory, never values.
        The deep shells are the shared plan bound to the rows (_PoleGroups):
        the first one the call reaches takes every deep shell's far sums in
        one pass, and each shell then adds its near and outside words."""
        if not np.array_equal(targets, self._targets):
            self._targets, self._numerator = np.array(targets), np.array(numerator)
            self._rows: _PoleGroups | None = None
        kernel = _DirectKernel(self._targets, self._numerator, self._shared, self._discs)
        shells, m = self.shells, len(xs)
        totals = np.zeros((len(self._targets), m), dtype=np.complex128)
        comp = np.zeros_like(totals)
        mags: list[float] = []
        stop, tol = self.config.stop_tol, self.config.shell_tol
        far = None
        for length in range(self.config.max_len + 1):
            if length < _DIRECT_SHELLS:
                words = [w[length] for w in (shells.a, shells.b, shells.c, shells.d)]
                step = max(1, _TILE_ELEMENTS // (2 * len(words[0])))
                shell_total = np.zeros_like(totals)
                for lo in range(0, m, step):
                    shell_total[:, lo : lo + step] += kernel(*words, xs[lo : lo + step])
            else:
                if far is None:
                    if self._rows is None:
                        self._plan = _live(self._key + ("plan",), lambda: _GroupPlan(self))
                        self._rows = _PoleGroups(self._plan, self._targets, self._numerator)
                    far = self._rows.far(xs)
                shell_total = self._rows.total(length, xs, *far)
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
        n = 2 * N - 1
        super().__init__(p, config, ("N", N), lambda: (limit_points(p, n), _limit_words(p, n)[1]))
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
        super().__init__(p, config, ("u", 0j), lambda: ([0j],))

    def value(self, x: complex, y: complex) -> complex:
        return complex(self._grid(np.array([x]), np.array([y]))[0, 0])

    def value_grid(self, xs, ys) -> np.ndarray:
        """Shape (len(ys), len(xs)); pole pair (y_i, 0) per row."""
        return self._grid(xs, ys)

    def _grid(self, xs, ys) -> np.ndarray:
        xs, ys = _points("xs", xs), _points("ys", ys)
        return self._sum(xs, "third-kind series", ys, ys - 0j)


# ---------------------------------------------------------------------------
# deep shells: grouped multipole expansions carried from shell 4

_DIRECT_SHELLS = 4  # shells 0..3 are summed by _DirectKernel; the word tree stops at shell 4
_FAR_RATIO = 0.5  # a group is far from x when its radius is below _FAR_RATIO |x - c|
_TAIL_TOL = 1e-17  # dropped expansion tail, relative to sum |weight| / |x - c|^m


def _words_held(genus: int, config: SeriesConfig, depth: int = _ShellSeries._depth) -> int:
    """The words a series of depth-letter group keys holds (SeriesConfig), or
    CapacityError; the default depth, the pole pairs', holds the most."""
    deep = max(0, config.max_len + 1 - _DIRECT_SHELLS)  # shells 4..max_len
    groups = 2 * genus * (2 * genus - 1) ** (depth - 1)
    held = expected_word_count(genus, min(config.max_len, _DIRECT_SHELLS)) + deep * groups
    if held > config.cap:
        raise CapacityError(f"the word tree and the {groups} groups of {deep} deep shells would "
                            f"take {held} words (cap {config.cap}); lower max_len or raise the cap")
    return held


def _expansion_order(rho: float, m: int) -> int:
    """The first K >= 1 with C(K + m - 1, m - 1) rho^K / (1 - rho)^m <= _TAIL_TOL."""
    K = 1
    while math.comb(K + m - 1, m - 1) * rho**K > _TAIL_TOL * (1.0 - rho) ** m:
        K += 1
    return K


def _image_disc(a, b, c, d, centre, radius):
    """g(D) for the disc D = (centre, radius) and det-1 g = (a b; c d), c != 0,
    as (centre, radius); the radius is inf where D holds g's pole -d/c, as
    g = a/c - 1/(c^2 (z + d/c)) is an inversion there."""
    z = centre + d / c
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(z) ** 2 - radius**2
        image = a / c - np.conj(z) / (c * c * gap)
        reach = radius / (np.abs(c) ** 2 * gap)
    return image, np.where(gap > 0, reach, np.inf)


class _Shell:
    """The words a deep shell builds: words, each in its key's group where
    every shared point's pole lies in the group's nested disc (_GroupPlan),
    group j's at [bounds[j], bounds[j + 1]) in the order given; outside,
    every other one."""

    def __init__(self, plan: _GroupPlan, words: _Words):
        group = plan.key_group[words.key]
        inside = np.all(np.abs(words.pole - plan.nest[group]) <= plan.scale[group], axis=0)
        order = np.flatnonzero(inside)[np.argsort(group[inside], kind="stable")]
        self.words, self.outside = words.take(order), words.take(~inside)
        self.group = group[order]
        self.bounds = np.searchsorted(self.group, np.arange(len(plan.letter) + 1))


class _GroupPlan:
    """The deep shells' words, as every series that shares its points uses
    them (kept by _live while an evaluator holds it; the shared points it
    builds its words with hold no reference back to it).

    A word's term is weight / prod_k (x - p_k), p_k = g^-1 u_k, weight =
    numerator / prod_k (a - c u_k): u_0 a row's target, pulled back from the
    word's matrix (_PoleGroups), then the points every row shares.

    Groups. Every reduced word k_1 .. k_d of _Shared.depth letters keys a group,
    whose nested disc is D_{k_1} pulled back by k_2 .. k_d: a deep word whose
    shared points' poles all lie in its last d letters' nested disc is in
    that group, and every other one is an outside word (a limit point does
    that for the 2g - 1 words per shell whose first letters run along
    W_j W_j ...), summed term by term at every point. A group's centre c is
    the mean pole, over the shared points, of its shell-4 words (the nested
    disc's centre if it has none), and its scale R the nested disc's radius.

    Past shell 4. A child of an inside word is inside, so the words of group
    j at shell L + 1 are those of its 2g - 1 parent groups (keys
    (k_0, k_1 .. k_{d-1})) at shell L times its last letter s = k_d, and the
    children of shell L's outside words that fall in it. Only the outside
    words and their children are built (shells[L], L > 4), from shell 4's
    outside words with their exact factors (_Shared.child): every other deep word
    reaches the sums as its group's moments, carried by transfer(K), and is
    built (group_words) only for the points near its group.
    """

    def __init__(self, series: _ShellSeries):
        p, shared = series.params, series._shared
        self.m, self.guard, self.discs = 1 + len(shared.points), shared.guard, series._discs
        self._shared = shared
        keys = [k for k in itertools.product(p.letters, repeat=shared.depth)
                if all(b != -a for a, b in zip(k, k[1:]))]
        index = {k: j for j, k in enumerate(keys)}
        self.parent = np.array(
            [[index[(l,) + k[:-1]] for l in p.letters if l != -k[0]] for k in keys]
        )
        self.letter = [k[-1] for k in keys]
        self.nest, self.scale = map(np.array, zip(*(self._nested_disc(p, k) for k in keys)))
        # each word key's group: j for the letter codes of keys[j] in base 2g
        self.key_group = np.full(len(p.letters) ** shared.depth, -1)
        self.key_group[[functools.reduce(lambda n, l: n * len(p.letters) + _letter_code(l), k, 0)
                        for k in keys]] = np.arange(len(keys))
        first = _Shell(self, shared.tree[_DIRECT_SHELLS])
        self.shells = {_DIRECT_SHELLS: first}
        # each group's word count at each deep shell, the words group_words
        # builds for it (float, as a deep shell's count can pass int64)
        self.sizes = {_DIRECT_SHELLS: np.diff(first.bounds).astype(float)}
        full = np.flatnonzero(self.sizes[_DIRECT_SHELLS])
        poles = functools.reduce(np.add, first.words.pole)
        self.centre = self.nest.copy()
        sums = np.add.reduceat(poles, first.bounds[full])
        self.centre[full] = sums / (len(shared.points) * self.sizes[_DIRECT_SHELLS][full])
        # the outside words' children, shell by shell, each letter's in turn
        words, built = first.outside, series._held
        for length in range(_DIRECT_SHELLS + 1, series.config.max_len + 1):
            last = words.key % len(p.letters)
            parent = [np.flatnonzero(last != _letter_code(-l)) for l in p.letters]
            letter = np.repeat(p.letters, [len(i) for i in parent])
            words = shared.child(words, np.concatenate(parent), letter)
            built += len(words)
            if built > series.config.cap:
                raise CapacityError(f"the deep shells' outside words would take {built} words "
                                    f"(cap {series.config.cap}); lower max_len or raise the cap")
            shell = self.shells[length] = _Shell(self, words)
            own = np.diff(shell.bounds)
            self.sizes[length] = self.sizes[length - 1][self.parent].sum(axis=1) + own
            words = shell.outside
        self.cap, self.built = series.config.cap, built
        step = np.array(self.letter)
        self._step, self._inverse = (shared.gen[:, _letter_code(s), None] for s in (step, -step))
        self._letter_pole = self._step[0] / self._step[2]
        self._T = np.empty((len(keys), 0, len(p.letters) - 1, 0), dtype=np.complex128)

    def _nested_disc(self, p: SchottkyParams, key: tuple) -> tuple[complex, float]:
        """D_{k_1} pulled back by k_2 .. k_d, as (centre, radius)."""
        c, r = disc_center(p, key[0]), disc_radius(p, key[0])
        for letter in key[1:]:
            c, r = _image_disc(*self._shared.gen[:, _letter_code(-letter)], c, r)
        return complex(c), float(r)

    def group_words(self, j: int, length: int) -> _Words:
        """Every word of group j at a deep shell: its parent groups' words one
        shell up, each times the group's letter (_Shared.child), then its
        own words in the shell. CapacityError if they and the words the plan
        holds would pass the cap (a point inside or near a disc at a deep
        max_len)."""
        if self.built + self.sizes[length][j] > self.cap:
            raise CapacityError(
                f"a group near an evaluation point would rebuild {self.sizes[length][j]:.0f} "
                f"words of shell {length} ({self.built} words held, cap {self.cap}); "
                "lower max_len or raise the cap")
        nodes = [np.array([j])]  # the groups whose words reach j, from shell L down to 4
        for _ in range(length, _DIRECT_SHELLS, -1):
            nodes.append(self.parent[nodes[-1]].ravel())
        words, owner = self.shells[_DIRECT_SHELLS].words.take(slice(0, 0)), np.zeros(0, int)
        for shell, node in zip(self.shells.values(), nodes[::-1]):  # shells 4..L
            start, n = shell.bounds[node], np.diff(shell.bounds)[node]
            own = shell.words.take(np.repeat(start - np.cumsum(n) + n, n) + np.arange(n.sum()))
            mine = np.repeat(np.arange(len(node)), n)  # the node each own word is of
            owner = owner // self.parent.shape[1]  # each last-shell word's node in this shell
            kids = self._shared.child(words, slice(None), np.array(self.letter)[node][owner])
            order = np.argsort(np.r_[2 * mine + 1, 2 * owner], kind="stable")
            words, owner = _Words.join([own, kids]).take(order), np.r_[mine, owner][order]
        return words

    def carry_radius(self, radius: np.ndarray) -> tuple[np.ndarray, float]:
        """Each group's bound on the poles it takes from its parents one shell
        deeper, given their radii: the parents' discs pulled back by its last
        letter s, inf where a parent's radius reaches _FAR_RATIO of its
        centre's distance from s's pole s(inf); and the largest such ratio
        below it, the moments' transfer ratio (transfer)."""
        centre, reach = self.centre[self.parent], radius[self.parent]
        image, size = _image_disc(*self._inverse, centre, reach)
        with np.errstate(invalid="ignore"):
            ratio = reach / np.abs(centre - self._letter_pole)
            bound = np.abs(image - self.centre[:, None]) + size
        carried = ratio < _FAR_RATIO
        return np.where(carried, bound, np.inf).max(axis=1), float(ratio[carried].max(initial=0.0))

    def transfer(self, K: int) -> np.ndarray:
        """The map T from a shell's scaled moments to the next shell's, shape
        (groups, K, (2g - 1) K): group j's nu_n' = sum T[j, n', i K + n] nu_n
        of its parents i, for the moments nu_n = mu_n / R^(m + n) of the
        expansion sum_n nu_n (R / (x - c))^(m + n) (_PoleGroups).

        A parent term (sx - c_P)^-k s'(x)^(m/2), s = (a b; c d) the letter,
        is lam^-k (x - q)^-k (cx + d)^(k - m) with lam = a - c c_P,
        q = s^-1 c_P and cx + d = c (x - q) + 1/lam, a finite sum of
        (x - q)^-j, j >= m; each is then shifted from q to the group's centre.
        Built once for the most orders asked for and sliced: each entry is a
        sum in a fixed order of terms that do not depend on K, so its bits do
        not either. A parent moment past K is dropped, its share bounded like
        the expansion's tail with the transfer ratio (carry_radius)."""
        if self._T.shape[1] < K:
            a, b, c, d = self._step
            centre, scale = self.centre[self.parent], self.scale[self.parent]
            lam, q = _pull_back(a, b, c, d, centre)
            to = self.scale[:, None]
            e = np.arange(K)
            ratios = (c * scale / lam, scale / (lam * lam * to), (q - self.centre[:, None]) / to)
            alpha, beta, shift = (z[..., None] ** e for z in ratios)
            comb = np.array([[math.comb(i, k) for k in range(K)] for i in range(self.m + K)], float)
            T = np.zeros(self.parent.shape + (K, K), dtype=np.complex128)
            for j in range(K):  # the power (x - q)^-(m + j) between the two steps
                up = e[j:]
                shifted, pulled = np.zeros((2,) + T.shape[:-1], dtype=np.complex128)
                shifted[..., j:] = comb[self.m + up - 1, up - j] * shift[..., up - j]
                pulled[..., j:] = comb[up, j] * alpha[..., up - j] * beta[..., j : j + 1]
                T += shifted[..., :, None] * pulled[..., None, :]
            T *= ((scale / (lam * to)) ** self.m)[..., None, None]
            self._T = T.transpose(0, 2, 1, 3)
        return self._T[:, :K, :, :K].reshape(len(self.letter), K, -1)


class _PoleGroups:
    """The deep shells bound to a series' rows, one target and one numerator
    per row: each group's radius r, a bound on its poles' distance from its
    centre c over every deep shell and row, and the moment block.

    Radii: exact over shell 4's words and each shell's built words, and past
    shell 4 also the parents' discs pulled back (carry_radius). A group is
    far from x when r < _FAR_RATIO |x - c|, one test per (group, point) for
    all the deep shells, and there each shell adds
    sum_{n>=0} nu_n b^(m+n), b = R / (x - c),
    nu_n = sum_w weight_w h_n((p_w - c) / R) / R^m, h_n the complete
    homogeneous polynomial of degree n in the m poles, R the group's scale.
    As |h_n| <= C(n + m - 1, m - 1) (r/R)^n, stopping at
    K = _expansion_order(rho, m), rho the worst far r / |x - c| of the call
    or the transfer ratio, drops at most _TAIL_TOL sum |weight| / |x - c|^m.
    Shell 4's moments and each shell's built words' come from the words;
    the rest are carried from the shell before by the plan's transfer(K).
    Near (group, point) pairs sum the group's words (group_words), and the
    outside words every point, term by term (_near_sum) behind _pole_guard.
    A group whose radius reaches twice its scale (a target's poles outside
    its nested disc) is near every point, as its scaled moments could
    overflow.

    Bits: a point's powers of b come from that point alone and meet every
    shell's and row's moments in its own (1, K groups) @ (K groups, t shells)
    product, and each near point's terms sum as one contiguous row, so a
    point's value depends on the other points only through K, and never on
    tiles.
    """

    def __init__(self, plan: _GroupPlan, targets: np.ndarray, numerator: np.ndarray):
        self.plan, self.targets, self.numerator = plan, targets[:, None], numerator[:, None]
        radius, self.sigma = [], 0.0
        for length in sorted(plan.shells):
            r = self._spread(plan.shells[length])
            if radius:
                carried, sigma = plan.carry_radius(radius[-1])
                r, self.sigma = np.maximum(r, carried), max(self.sigma, sigma)
            radius.append(r)
        self.radius = np.max(radius, axis=0)
        self.radius[~(self.radius < 2 * plan.scale)] = np.inf
        self._block = (0, None)  # (K, block(K)) of the last K asked for

    def _terms(self, words: _Words):
        """(factors a - c u_k, poles, weights) of the words: per point, the
        target's as (t, words) arrays, then each shared point's as a
        (1, words) array; the weights (t, words). Recomputed when needed, to
        the same bits, rather than kept."""
        lam, pole = _pull_back(*words.abcd, self.targets)
        lams, poles = (lam, *words.lam[:, None]), (pole, *words.pole[:, None])
        return lams, poles, self.numerator / functools.reduce(np.multiply, lams)

    def _spread(self, shell: _Shell) -> np.ndarray:
        """Each group's largest distance of a pole of its words in the shell from its centre."""
        out = np.zeros(len(self.plan.centre))
        if len(shell.words):
            _, poles, _ = self._terms(shell.words)
            cw = self.plan.centre[shell.group]
            spread = [np.abs(p - cw).max(axis=0, initial=0.0) for p in poles]
            spread = functools.reduce(np.maximum, spread)
            full = np.flatnonzero(np.diff(shell.bounds))
            out[full] = np.maximum.reduceat(spread, shell.bounds[full])
        return out

    def _moments(self, shell: _Shell, K: int) -> np.ndarray:
        """nu_0 .. nu_{K-1} of the shell's own words, shape (K, groups, t),
        by the recurrence H_{m-1} = q_{m-1}^n, H_k <- q_k H_k + H_{k+1},
        h_n = H_0 in the scaled poles q_k = (p_k - c) / R (so the shared
        points' H_k are shared by the rows)."""
        plan = self.plan
        mu = np.zeros((K, len(plan.centre), len(self.numerator)), dtype=np.complex128)
        if not len(shell.words):
            return mu
        _, poles, weight = self._terms(shell.words)
        cw, scale = plan.centre[shell.group], plan.scale[shell.group]
        q = [(p - cw) / scale for p in poles]
        del poles
        weight = weight / scale**plan.m
        full = np.flatnonzero(np.diff(shell.bounds))
        H = [np.ones_like(q_k) for q_k in q]
        term = np.empty_like(weight)
        for k in range(K):
            if k:
                H[-1] *= q[-1]
                for i in range(len(q) - 2, -1, -1):
                    H[i] *= q[i]
                    H[i] += H[i + 1]
            np.multiply(weight, H[0], out=term)
            mu[k, full] = np.add.reduceat(term, shell.bounds[full], axis=1).T
        return mu

    def block(self, K: int) -> np.ndarray:
        """Every deep shell's moments, shape (K groups, t shells): row
        n groups + j holds nu_n of group j, column s t + r row r of deep
        shell s. Kept for the last K asked for, as a carried moment depends
        on K; a group near every point (radius inf) holds zeros."""
        if self._block[0] != K:
            plan, T = self.plan, self.plan.transfer(K)
            groups, t = len(plan.centre), len(self.numerator)
            columns, mu = [], None
            for length in sorted(plan.shells):
                own = self._moments(plan.shells[length], K)
                if mu is not None:  # the parents' moments, (groups, (2g - 1) K, t)
                    parents = mu[:, plan.parent].transpose(1, 2, 0, 3).reshape(groups, -1, t)
                    own += np.matmul(T, parents).transpose(1, 0, 2)
                mu = own
                columns.append(np.where(np.isinf(self.radius)[:, None], 0.0, mu).reshape(-1, t))
            self._block = (K, np.concatenate(columns, axis=1))
        return self._block[1]

    def far(self, xs: np.ndarray) -> tuple[np.ndarray, list]:
        """The far groups' sums of every deep shell at xs, shape
        (shells, t, points), and the near pairs as (group, point indices).

        One K for the call, from a first pass over tiles of points; then each
        tile's powers b^(m + n) meet the moment block point by point, as a
        (points, 1, K groups) @ (K groups, t shells) product, zeroed at the
        near pairs (which may overflow). A power is the one before it times
        b, never written over an input (numpy's in-place complex multiply of
        a 1-element block rounds differently), so a point's bits are its
        own, whatever the tile. Each tile takes fresh work arrays."""
        plan, m = self.plan, len(xs)
        shells, t, groups = len(plan.shells), len(self.numerator), len(plan.centre)
        out = np.zeros((shells, t, m), dtype=np.complex128)
        rho, near, step = 0.0, [], max(1, _TILE_ELEMENTS // groups)
        for lo in range(0, m, step):
            dist = np.abs(xs[lo : lo + step, None] - plan.centre)
            far = self.radius < _FAR_RATIO * dist
            with np.errstate(divide="ignore", invalid="ignore"):  # a point at a centre is near
                rho = max(rho, float(np.max(self.radius / dist, where=far, initial=0.0)))
            point, j = np.nonzero(~far)
            near.append((point + lo, j))
        point, j = (np.concatenate(a) for a in zip(*near)) if near else (np.zeros(0, int),) * 2
        if not t or len(j) == m * groups:
            return out, [(g, point[j == g]) for g in np.unique(j)]
        K = _expansion_order(max(rho, self.sigma), plan.m)
        mu, n = self.block(K), plan.m + K - 1
        width = max(1, _TILE_ELEMENTS // (n * groups))
        for lo in range(0, m, width):
            x = xs[lo : lo + width]
            pw = np.empty((n, len(x), groups), dtype=np.complex128)
            with np.errstate(all="ignore"):  # a point at a centre: inf
                np.divide(plan.scale, x[:, None] - plan.centre, out=pw[0])
                for k in range(1, n):
                    np.multiply(pw[k - 1], pw[0], out=pw[k])
            P = pw[plan.m - 1 :].transpose(1, 0, 2).copy()
            tile = (lo <= point) & (point < lo + len(x))
            P[point[tile] - lo, :, j[tile]] = 0.0
            sums = np.matmul(P.reshape(len(x), 1, -1), mu)[:, 0]
            out[:, :, lo : lo + len(x)] = sums.reshape(len(x), shells, t).transpose(1, 2, 0)
        return out, [(g, point[j == g]) for g in np.unique(j)]

    def total(self, length: int, xs: np.ndarray, far: np.ndarray, near: list) -> np.ndarray:
        """Deep shell `length`'s (t, points) sum: its far sums, its near
        groups' words and its outside words."""
        plan = self.plan
        shell = plan.shells[length]
        out = far[length - _DIRECT_SHELLS].copy()
        if not out.size:
            return out
        for j, cols in near:
            words = plan.group_words(j, length)
            if len(words):
                out[:, cols] += self._near_sum(words, xs[cols])
        if len(shell.outside):
            out += self._near_sum(shell.outside, xs)
        return out

    def _near_sum(self, words: _Words, x: np.ndarray) -> np.ndarray:
        """The words' terms, pulled back, summed for every row at the points
        x, shape (t, len(x)), behind _pole_guard once per tile. The shared
        points' factor is formed once per (point, word) and met by each row
        in turn, whose terms at a point sum as one contiguous run."""
        _, _, c, d = words.abcd
        lams, poles, weight = self._terms(words)
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
        super().__init__(p, config, ("u", self.y0), lambda: ([self.y0],))

    def value(self, a: int, x: complex) -> complex:
        if not 1 <= a <= self.params.genus:
            raise ValueError(f"handle index a must be in 1..{self.params.genus}, got {a}")
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
