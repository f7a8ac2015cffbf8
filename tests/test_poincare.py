import functools
import gc
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schottkycalc import gem, moebius, poincare
from schottkycalc.contour import contour_nodes, handle_moments, handle_nodes
from schottkycalc.poincare import (
    BersEvaluator,
    EvaluationError,
    NuFamily,
    PoleProximityError,
    SeriesConfig,
    ThirdKindEvaluator,
    TruncationWarning,
    default_probe_points,
    limit_points,
)
from schottkycalc.schottky import (
    CapacityError,
    HandleParams,
    SchottkyParams,
    build_shells,
    disc_center,
    generator,
    in_domain,
    word_map,
)


@pytest.fixture(scope="module")
def star():
    return SchottkyParams(
        [
            HandleParams(-6.0, -2.0, 0.09),
            HandleParams(2.0, 6.0, 0.09),
        ]
    )


# orbit points inside the discs keep a ~1e-7 tail at this depth
CFG = SeriesConfig(max_len=6, shell_tol=1e-6)


@pytest.fixture(scope="module")
def bers2(star):
    return BersEvaluator(star, 2, config=CFG)


@pytest.fixture(scope="module")
def nus(star):
    return NuFamily(star, config=CFG)


# ---------------------------------------------------------------------------
# limit points


def test_limit_points_first_three(star):
    pts = limit_points(star, 3)
    attr1 = moebius.fixed_points(generator(star, 1))[0]
    attr2 = moebius.fixed_points(generator(star, 2))[0]
    attr12 = moebius.fixed_points(word_map(star, (1, 2)))[0]
    assert abs(pts[0] - attr1) < 1e-12
    assert abs(pts[1] - attr2) < 1e-12
    assert abs(pts[2] - attr12) < 1e-12


def test_limit_points_dedup_and_extension(star):
    pts = limit_points(star, 5)
    # powers of a generator repeat its fixed point, so (1,1) adds nothing
    attr11 = moebius.fixed_points(word_map(star, (1, 1)))[0]
    assert abs(pts[0] - attr11) < 1e-9
    attr1m2 = moebius.fixed_points(word_map(star, (1, -2)))[0]
    attr21 = moebius.fixed_points(word_map(star, (2, 1)))[0]
    assert abs(pts[3] - attr1m2) < 1e-12
    assert abs(pts[4] - attr21) < 1e-12
    d = np.abs(pts[:, None] - pts[None, :]) + np.eye(5)
    assert d.min() > 1e-6


def test_limit_points_live_inside_discs(star):
    pts = limit_points(star, 5)
    for z in pts:
        assert not in_domain(star, complex(z))


@pytest.mark.parametrize("name", ["star", "asymmetric"])
def test_limit_point_words_are_cyclically_reduced(star, name):
    # their powers must be reduced words (_limit_factors); past the seventh
    # point the scan once took (1, 2, -1), and N >= 5 failed to build
    p = _surface(name, star)
    _, words = poincare._limit_words(p, 11)
    assert all(w[0] != -w[-1] for w in words)
    # the points N <= 4 uses keep their words
    assert words[:7] == ((1,), (2,), (1, 2), (1, -2), (2, 1), (2, -1), (1, 1, 2))
    BersEvaluator(p, 6, config=SeriesConfig(max_len=5))


# ---------------------------------------------------------------------------
# weight-N series


def test_bers_unit_residue_on_diagonal(bers2):
    x = 0.2 + 0.1j
    eps = 1e-4
    plus = bers2.value(x, x + eps)
    minus = bers2.value(x, x - eps)
    residue = (minus - plus) * eps / 2.0
    assert abs(residue - 1.0) < 1e-6


def test_bers_vanishes_at_limit_points(bers2):
    x = 0.4j
    for A_j in bers2.points:
        assert abs(bers2.value(x, complex(A_j))) == 0.0


def test_bers_at_a_limit_point_fails_closed(bers2):
    # the identity term's (x - A_j) is 0: no term is zeroed in its place
    for A_j in bers2.points:
        with pytest.raises(EvaluationError):
            bers2.value(complex(A_j), 0.9 - 0.3j)


def test_bers_x_periodicity_as_form(star, bers2):
    x, y = 0.25 + 0.4j, -0.6 - 0.2j
    g1 = generator(star, 1)
    gx = moebius.apply(g1, x)
    lhs = bers2.value(gx, y) * moebius.deriv(g1, x) ** bers2.N
    rhs = bers2.value(x, y)
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_bers_grid_matches_scalar(bers2):
    xs = np.array([0.1, 0.2 + 0.3j])
    ys = np.array([-0.5j, 0.8])
    grid = bers2.value_grid(xs, ys)
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            assert abs(grid[i, j] - bers2.value(complex(x), complex(y))) < 1e-12


def test_bers_pole_guard(bers2):
    with pytest.raises(PoleProximityError):
        bers2.value(0.3, 0.3)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("length", [2, 3])
def test_bers_pole_guard_in_direct_shells(star, length):
    """The direct kernel of every series guards its row targets (the
    weight-N y, the third kind's y, nu's g_a y0) and a pole pair's shared
    point (the third kind's 0) in pulled-back form: with the pole at g x,
    each series raises, and 1e-9 away it gives a finite value. The three
    evaluators are checked in turn, at a word g of the shell, and nu also
    at (-1, 2) or (-1, 2, 1), whose preimage of g_1 y0 a guard on g x formed
    from the word's matrix let through (nu_1 read 1.2e15 and 1.0e16)."""
    cfg = SeriesConfig(max_len=4)
    bers = BersEvaluator(star, 2, config=cfg)
    third = ThirdKindEvaluator(star, config=cfg)
    nu = NuFamily(star, config=cfg)
    shells = nu.shells
    xs = _probe_xs(5)

    def word(length, i):
        return tuple(m[length][i] for m in (shells.a, shells.b, shells.c, shells.d))

    def on_preimage(g, w):
        """xs with xs[2] moved to g^-1 w."""
        return np.r_[xs[:2], poincare._pull_back(*g, w)[1], xs[3:]]

    g = word(length, shells.shell_size(length) // 3)
    a, b, c, d = g
    y = (a * xs[2] + b) / (c * xs[2] + d)  # g x, formed as the direct kernel forms it
    letters = {2: (-1, 2), 3: (-1, 2, 1)}[length]
    [i] = [i for i in range(shells.shell_size(length)) if shells.word(length, i) == letters]
    found = word(length, i)
    cases = {
        "weight-N y": lambda eps: bers.value_grid(xs, [0.9, y + eps]),
        "third-kind y": lambda eps: third.value_grid(xs, [0.9, y + eps]),
        "third-kind 0": lambda eps: third.value_grid(on_preimage(g, 0j) + eps, [0.9]),
        "nu g_1 y0": lambda eps: nu.values(on_preimage(g, nu.images[0]) + eps),
        f"nu g_1 y0 at {letters}": lambda eps: nu.values(on_preimage(found, nu.images[0]) + eps),
    }
    for name, f in cases.items():
        try:
            f(0.0)
        except PoleProximityError:
            pass
        else:
            pytest.fail(f"{name}: no PoleProximityError")
        assert np.all(np.isfinite(f(1e-9))), name


TIGHT = SchottkyParams([HandleParams(-1.5, -0.5, 0.04), HandleParams(0.5, 1.5, 0.04)])
_finite = dict(allow_nan=False, allow_infinity=False)


@given(
    tight=st.booleans(),
    length=st.integers(0, 5),
    targets=st.lists(st.complex_numbers(max_magnitude=8.0, **_finite), min_size=1, max_size=3),
    at_poles=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from([0.0, 1e-15, 1e-13, 1e-11]),
            st.floats(0.0, 2 * np.pi),
        ),
        max_size=4,
    ),
    free=st.lists(st.complex_numbers(max_magnitude=8.0, **_finite), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_pole_guard_raises_exactly_where_the_exact_test_flags(
    star, tight, length, targets, at_poles, free
):
    """The pole guard's disc-centre prefilter drops no pair that matters: it
    raises exactly when the exact test, |x - p_w| |a - cw| < 1e-12 |cx + d|
    over every (point, word, guarded point), flags one, for the words of
    shells 0-5 and points at random or at a pole plus 0 to 1e-11."""
    p = TIGHT if tight else star
    shells = build_shells(p, 5)
    a, b, c, d = (m[length] for m in (shells.a, shells.b, shells.c, shells.d))
    w = np.array(targets, dtype=np.complex128)
    with np.errstate(all="ignore"):  # a target on some g(infinity)
        lam, pole = poincare._pull_back(a, b, c, d, w[:, None])
    assume(np.all(np.abs(pole) < 1e8))
    x = np.array(
        [pole.flat[i % pole.size] + eps * np.exp(1j * t) for i, eps, t in at_poles] + free,
        dtype=np.complex128,
    )
    assume(len(x))
    xk = x[:, None, None]
    flagged = np.any(np.abs(xk - pole) * np.abs(lam) < 1e-12 * np.abs(c * xk + d))
    discs = np.array([disc_center(p, l) for l in p.letters])
    try:
        poincare._pole_guard(x, c, d, lam, pole, w, discs)
    except PoleProximityError:
        assert flagged
    else:
        assert not flagged


def _all_evaluators(p, config):
    """Value functions of the three evaluators, each at two or three targets."""
    bers = BersEvaluator(p, 2, config=config)
    third = ThirdKindEvaluator(p, config=config)
    nu = NuFamily(p, config=config)
    ys = np.array([0.9, -1.0 + 0.2j])
    return {
        "bers": lambda xs: bers.value_grid(xs, ys),
        "third_kind": lambda xs: third.value_grid(xs, ys),
        "nu": nu.values,
    }


def _probe_xs(m):
    # deterministic points in the fundamental domain, clear of 0, 0.9, -1+0.2i
    k = np.arange(m)
    return 1.3 * np.exp(2j * np.pi * (k + 0.25) / max(m, 1)) * (0.6 + 0.3 * (k % 3) / 2)


# 1 and 2 points, an odd count, and several tiles
TILE_CASE_POINTS = (1, 2, 3, 65, 513)


def test_bers_deterministic_across_workers(star):
    # all three evaluators, not only the weight-N series
    one = _all_evaluators(star, SeriesConfig(max_len=5, workers=1))
    four = _all_evaluators(star, SeriesConfig(max_len=5, workers=4))
    for m in TILE_CASE_POINTS:
        xs = _probe_xs(m)
        for name in one:
            assert np.array_equal(one[name](xs), four[name](xs)), (name, m)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_far_pass_is_tiled_over_points(star, monkeypatch):
    """nu at full depth 8 on 20,000 points of F peaks below 10 MB, as the
    deep shells' far pass works in tiles of points, and gives the bits of
    the same call in one tile (K is chosen once per call, before the
    tiles)."""
    rng = np.random.default_rng(3)
    xs = rng.uniform(-9, 9, 60000) + 1j * rng.uniform(-3, 3, 60000)
    xs = xs[[in_domain(star, x) for x in xs]][:20000]
    assert len(xs) == 20000
    nu = NuFamily(star, config=SeriesConfig(max_len=8))
    nu.values(xs[:8])  # the plan, rows and workspace of a first call
    tracemalloc.start()
    try:
        tiled = nu.values(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 1 << 40)  # one tile per shell
    assert np.array_equal(NuFamily(star, config=SeriesConfig(max_len=8)).values(xs), tiled)


@pytest.mark.parametrize("m", TILE_CASE_POINTS)
def test_column_tiles_do_not_change_bits(star, monkeypatch, m):
    xs = _probe_xs(m)
    evals = _all_evaluators(star, SeriesConfig(max_len=5, workers=2))
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 1 << 40)  # one tile per shell
    whole = {name: f(xs) for name, f in evals.items()}
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 1)  # one point per tile
    for name, f in evals.items():
        assert np.array_equal(f(xs), whole[name]), name


def test_failing_chunk_stops_the_sum(star, monkeypatch):
    series = ThirdKindEvaluator(star, config=SeriesConfig(max_len=3))
    last = series.shells.a[series.shells.max_len]
    # the last direct shell's 36 words in 512 tiles of 8 points
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 2 * 8 * len(last))
    xs = np.zeros(4096, dtype=np.complex128)
    in_last = []

    def dry_run(kernel, a, b, c, d, x):
        in_last.append(np.shares_memory(a, last))
        return np.zeros((1, len(x)), dtype=np.complex128)

    monkeypatch.setattr(poincare._DirectKernel, "__call__", dry_run)
    series.value_grid(xs, THIRD_KIND_YS[:1])
    tasks = len(in_last)
    fail_at = in_last.index(True) + 2  # inside the last shell, many tiles still to go
    assert tasks - fail_at > 100
    calls = itertools.count()

    def chunk_fn(kernel, a, b, c, d, x):
        if next(calls) == fail_at:
            raise EvaluationError("chunk failed")
        return np.zeros((1, len(x)), dtype=np.complex128)

    monkeypatch.setattr(poincare._DirectKernel, "__call__", chunk_fn)
    with pytest.raises(EvaluationError):
        series.value_grid(xs, THIRD_KIND_YS[:1])
    assert next(calls) == fail_at + 1  # no tile after the failing one was called


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_series_start_no_thread(star, monkeypatch):
    def refuse(self):
        raise AssertionError("a series started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = SeriesConfig(max_len=5, workers=4)  # an accepted workers value has no effect
    xs = _probe_xs(513)
    BersEvaluator(star, 2, config=cfg).value_grid(xs, THIRD_KIND_YS)
    ThirdKindEvaluator(star, config=cfg).value_grid(xs, THIRD_KIND_YS)
    nu = NuFamily(star, config=cfg)
    nu.values(xs)


def test_truncation_warning_on_shallow_cutoff():
    tight = SchottkyParams(
        [HandleParams(-1.5, -0.5, 0.04), HandleParams(0.5, 1.5, 0.04)]
    )
    ev = BersEvaluator(tight, 2, config=SeriesConfig(max_len=2))
    with pytest.warns(TruncationWarning):
        ev.value(0.0, 2.5)


@pytest.mark.parametrize("kind", ["bers", "third_kind", "nu"])
def test_truncation_warning_names_the_caller(kind):
    # the shared summation step is one frame below each public method; the
    # warning must still point at the code that called that method
    tight = SchottkyParams(
        [HandleParams(-1.5, -0.5, 0.04), HandleParams(0.5, 1.5, 0.04)]
    )
    cfg = SeriesConfig(max_len=2)
    xs = np.array([2.5, 2.5j])
    ys = np.array([0.3j])
    if kind == "bers":
        ev = BersEvaluator(tight, 2, config=cfg)
    elif kind == "third_kind":
        ev = ThirdKindEvaluator(tight, config=cfg)
    else:
        ev = NuFamily(tight, config=cfg)
    with pytest.warns(TruncationWarning) as record:
        if kind == "nu":
            ev.values(xs)
        else:
            ev.value_grid(xs, ys)
    assert [w.filename for w in record if w.category is TruncationWarning] == [__file__]
    assert len(ev.last_shell_magnitudes) == cfg.max_len + 1  # one per summed shell


@pytest.mark.parametrize("kind", ["bers", "third_kind", "nu"])
def test_scalar_value_warning_names_the_caller(kind, star):
    # the scalar value reaches the shared summation step by the same number
    # of frames as the batch methods, so it blames its caller too
    cfg = SeriesConfig(max_len=3)
    with pytest.warns(TruncationWarning) as record:
        if kind == "bers":
            BersEvaluator(star, 2, config=cfg).value(0.3, 0.5j)
        elif kind == "third_kind":
            ThirdKindEvaluator(star, config=cfg).value(0.3, 0.5j)
        else:
            NuFamily(star, config=cfg).value(1, 0.3)
    assert [w.filename for w in record if w.category is TruncationWarning] == [__file__]


@pytest.mark.parametrize(
    "bad", [{"shell_tol": float("nan")}, {"shell_tol": 0.0}, {"shell_tol": -1.0}, {"cap": 0}]
)
def test_series_config_rejects_bad_values(bad):
    # a NaN shell_tol would make `mag > shell_tol` always False and so never warn
    with pytest.raises(ValueError):
        SeriesConfig(**bad)


# ---------------------------------------------------------------------------
# third kind and nu


def test_third_kind_residues(star):
    ev = ThirdKindEvaluator(star, config=CFG)
    y = 0.9 + 0.4j
    # +1 around the moving pole, -1 around the anchor, nothing elsewhere
    for center, radius, want in ((y, 0.15, 1.0), (0j, 0.15, -1.0), (-4.0 + 0j, 0.2, 0.0)):
        z, dz = contour_nodes(center, radius, 256)
        res = handle_moments(ev.value_grid(z, np.array([y])), z, dz, center, [0], 1e-9)[0, 0]
        assert abs(res - want) < 1e-11


def test_third_kind_is_invariant_one_form(star):
    ev = ThirdKindEvaluator(star, config=CFG)
    x, y = 0.3 + 0.2j, 1.1 - 0.4j
    g2 = generator(star, 2)
    gx = moebius.apply(g2, x)
    lhs = ev.value(gx, y) * moebius.deriv(g2, x)
    rhs = ev.value(x, y)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_nu_normalization(star, nus):
    for b in (1, 2):
        z, dz, w_b = handle_nodes(star, b, 256)
        vals = handle_moments(nus.values(z), z, dz, w_b, [0], 1e-8)[:, 0]
        assert np.max(np.abs(vals - np.eye(2)[b - 1])) < 1e-8


def test_nu_base_point_independence(star):
    alt = NuFamily(star, config=CFG, y0=0.8 + 0.3j)
    base = NuFamily(star, config=CFG)
    xs = np.array([0.2 - 0.1j, -0.7 + 0.4j])
    assert np.max(np.abs(alt.values(xs) - base.values(xs))) < 1e-8


def test_nu_holomorphic_in_domain(star, nus):
    c = 0.5 + 0.5j
    z, dz = contour_nodes(c, 0.3, 256)
    assert abs(2j * np.pi * handle_moments(nus.values(z)[:1], z, dz, c, [0], 1e-9)[0, 0]) < 1e-10


def test_nu_rejects_bad_base_point(star):
    with pytest.raises(ValueError):
        NuFamily(star, config=CFG, y0=-6.0 + 0.1j)  # inside C_1


@pytest.mark.parametrize("y0", [complex("nan"), complex("inf"), complex(0.3, float("nan"))])
def test_nu_rejects_a_non_finite_base_point(star, y0):
    """A NaN or infinite base point is no point of F: the family is refused
    by name, rather than built to fail at its first values call."""
    with pytest.raises(ValueError, match="base point .* must lie in the fundamental domain"):
        NuFamily(star, config=CFG, y0=y0)


@pytest.mark.parametrize("a", [0, -1, 3])
def test_nu_value_rejects_a_handle_index_out_of_range(nus, a):
    """a = 0 and a = -1 once indexed nu_g and nu_{g-1}, and a = g + 1 raised a
    bare IndexError: each is a ValueError naming the range 1..g."""
    with pytest.raises(ValueError, match=rf"handle index a must be in 1\.\.2, got {a}$"):
        nus.value(a, 0.3 + 0.2j)


def test_nu_and_third_kind_pole_guards(star):
    # the identity word puts x on the pole itself
    y0 = 0.3 + 0.2j
    nu = NuFamily(star, config=CFG, y0=y0)
    with pytest.raises(PoleProximityError):
        nu.values([y0])
    y = 1.1 - 0.4j
    with pytest.raises(PoleProximityError):
        ThirdKindEvaluator(star, config=CFG).value_grid([y], [y])


# ---------------------------------------------------------------------------
# deep shells: grouped dipole expansions


ASYMMETRIC = SchottkyParams([HandleParams(-6.0, -2.0, 0.01), HandleParams(2.0, 6.0, 0.36)])
WIDE = SchottkyParams(
    [HandleParams(-12.0, -8.0, 0.04), HandleParams(-4.0, 4.0, 0.04), HandleParams(8.0, 12.0, 0.04)]
)
FAR_CASES = [("star", 7), ("asymmetric", 7), ("genus3-wide", 5)]
THIRD_KIND_YS = np.array([0.9 - 0.3j, -1.1 + 0.4j])


def _bers_targets(p):
    """THIRD_KIND_YS and, inside two discs, the image of each under a generator."""
    letters = (1, -p.genus)
    inside = [moebius.apply(generator(p, l), complex(y)) for l, y in zip(letters, THIRD_KIND_YS)]
    return np.concatenate([THIRD_KIND_YS, inside])


def _surface(name, star):
    return {"star": star, "asymmetric": ASYMMETRIC, "genus3-wide": WIDE}[name]


def _far_case_points(p):
    """Points in F, on every handle circle, inside every disc and three discs
    deep, where deep shells' groups are near."""
    pts = list(default_probe_points(p, 4)[1:])  # the first one is y0 = 0
    for a in range(1, p.genus + 1):
        pts.extend(handle_nodes(p, a, 8)[0][::3])
    pts.extend(moebius.apply(generator(p, letter), pts[0]) for letter in p.letters)
    pts.extend(moebius.apply(word_map(p, (letter,) * 3), pts[0]) for letter in p.letters)
    return np.array(pts)


def _inside_discs(p, xs):
    """Which of _far_case_points(p) sit inside a disc: one or three discs
    deep, where a deep group is near and the word sums lose digits."""
    return np.arange(len(xs)) >= len(xs) - 2 * len(p.letters)


class _Dec:
    """Complex numbers, or arrays of them, as real and imaginary parts in
    Decimal (object arrays for arrays), at the precision of the current
    decimal context: the same formulas as in mpmath, summed word by word
    over whole shells at once many times faster."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def of(z):
        """A complex, mpc or mpf, exactly (mp numbers to their printed digits)."""
        if isinstance(z, (mp.mpc, mp.mpf)):
            digits = mp.mp.dps + 5
            z = mp.mpc(z)
            return _Dec(Decimal(mp.nstr(z.real, digits)), Decimal(mp.nstr(z.imag, digits)))
        z = complex(z)
        return _Dec(Decimal(z.real), Decimal(z.imag))

    @staticmethod
    def join(parts):
        """The parts, numbers or arrays, as one array."""
        re, im = (np.hstack([getattr(z, f) for z in parts]).astype(object) for f in ("re", "im"))
        return _Dec(re, im)

    def __getitem__(self, index):
        return _Dec(self.re[index], self.im[index])

    def __add__(self, w):
        return _Dec(self.re + w.re, self.im + w.im)

    def __sub__(self, w):
        return _Dec(self.re - w.re, self.im - w.im)

    def __mul__(self, w):
        return _Dec(self.re * w.re - self.im * w.im, self.re * w.im + self.im * w.re)

    def __truediv__(self, w):
        n = w.re * w.re + w.im * w.im
        return _Dec((self.re * w.re + self.im * w.im) / n, (self.im * w.re - self.re * w.im) / n)

    def sum(self) -> complex:
        return complex(float(np.sum(self.re)), float(np.sum(self.im)))


def _deep_40_digit_sums(p, max_len, xs, nu, ys):
    """Shells 4..max_len of nu, the third kind (pole pairs (y, 0), y in
    THIRD_KIND_YS) and the weight-2 and weight-3 series (targets ys) at xs,
    each term summed in 40-digit arithmetic from 40-digit generator
    matrices (products shell by shell, as build_shells forms them) and
    40-digit limit points: {kind: (rows, len(xs))}."""
    shells = build_shells(p, max_len)
    product = functools.partial(functools.reduce, _Dec.__mul__)
    with mp.workdps(40), localcontext(prec=40):
        gens = _mp_generators(p)
        A = [_Dec.of(a) for a in _mp_limit_points(p, gens, 5)]
        letters = list(p.letters)
        G = [_Dec.join([_Dec.of(gens[letter][e]) for letter in letters]) for e in range(4)]
        m, deep = [_Dec.join([_Dec.of(z)]) for z in (1, 0, 0, 1)], []
        for length in range(1, max_len + 1):
            k = np.array([letters.index(letter) for letter in shells.last_letter[length]])
            a, b, c, d = (e[shells.parent[length]] for e in m)
            ga, gb, gc, gd = (g[k] for g in G)
            m = [a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd]
            if length >= poincare._DIRECT_SHELLS:
                deep.append(m)
        a, b, c, d = (_Dec.join([w[e] for w in deep]) for e in range(4))
        pairs = {"nu": [(nu.y0, v) for v in nu.images],
                 "third_kind": [(y, 0) for y in THIRD_KIND_YS]}
        pairs = {kind: [tuple(map(_Dec.of, pair)) for pair in rows] for kind, rows in pairs.items()}
        Y, one = [_Dec.of(y) for y in ys], _Dec.of(1)
        weight = {N: [product(y - A_j for A_j in A[: 2 * N - 1]) for y in Y] for N in (2, 3)}
        out = {kind: np.zeros((len(rows), len(xs)), dtype=complex) for kind, rows in pairs.items()}
        out.update({f"bers{N}": np.zeros((len(ys), len(xs)), dtype=complex) for N in (2, 3)})
        for col, x in enumerate(xs):
            X = _Dec.of(x)
            den = c * X + d
            gx, d2 = (a * X + b) / den, den * den
            for kind, rows in pairs.items():
                for i, (u, v) in enumerate(rows):
                    out[kind][i, col] = ((one / (gx - u) - one / (gx - v)) / d2).sum()
            for N in (2, 3):
                base = product([d2] * N + [gx - A_j for A_j in A[: 2 * N - 1]])
                for i, y in enumerate(Y):
                    out[f"bers{N}"][i, col] = (weight[N][i] / (base * (gx - y))).sum()
    return out


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("name, max_len", FAR_CASES)
def test_far_field_matches_direct_dipole_sums(star, monkeypatch, name, max_len):
    """Within one call the points take the expansions and the term-by-term
    sums of a group's words within one shell, and the expansions give the
    word sums' values (every group near every point) to 1e-14 of the value
    in F and on the handle circles.

    Inside a disc a word's pole can sit within 1e-6 of x, and the float word
    matrices alone move the deep shells by more than 1e-14 of the value,
    carried or summed word by word alike (by 3e-12 one disc deep on
    genus3-wide, 4e-3 three discs deep). So there each kind's carried deep
    shells are checked against their 40-digit sums at every point: no
    further from them than 1.25 times the word sums are (1.1 times at most
    on these cases), plus 1e-14 of the value."""
    p = _surface(name, star)
    cfg = SeriesConfig(max_len=max_len)
    xs = _far_case_points(p)
    ys = _bers_targets(p)
    nu = NuFamily(p, config=cfg)
    evaluate = {
        "nu": lambda: NuFamily(p, config=cfg).values(xs),
        "third_kind": lambda: ThirdKindEvaluator(p, config=cfg).value_grid(xs, THIRD_KIND_YS),
        "bers2": lambda: BersEvaluator(p, 2, config=cfg).value_grid(xs, ys),
        "bers3": lambda: BersEvaluator(p, 3, config=cfg).value_grid(xs, ys),
    }
    groups = poincare._PoleGroups
    total, far, near_sum = groups.total, groups.far, groups._near_sum
    paths = []  # per shell, the paths it took: "far" expansions, "near" sums
    deep = []  # per shell, its total
    calls = []  # per call, the moment blocks of its far pass
    monkeypatch.setattr(groups, "far", lambda *a: calls.append(far(*a)) or calls[-1])
    monkeypatch.setattr(
        groups, "total", lambda *a: paths.append(set()) or deep.append(total(*a)) or deep[-1]
    )
    monkeypatch.setattr(groups, "_near_sum", lambda *a: paths[-1].add("near") or near_sum(*a))

    def run(kind):
        paths.clear()
        deep.clear()
        return evaluate[kind](), sum(deep)

    got = {}
    for kind in evaluate:
        got[kind] = run(kind)
        # the far sums are nonzero at some point, and some point is near a group
        assert np.any(calls[-1][0]) and any(len(cols) for _, cols in calls[-1][1]), kind
        assert {"near"} in paths, kind
    inside = _inside_discs(p, xs)
    want = _deep_40_digit_sums(p, max_len, xs[inside], nu, ys)
    monkeypatch.setattr(poincare, "_FAR_RATIO", 0.0)  # every group is near every point
    for kind in evaluate:
        (value, carried), (near, words) = got[kind], run(kind)
        assert np.all(np.abs(value - near)[:, ~inside] <= 1e-14 * np.abs(near[:, ~inside])), kind
        err_carried, err_words = (np.abs(v[:, inside] - want[kind]) for v in (carried, words))
        assert np.all(err_carried <= 1.25 * err_words + 1e-14 * np.abs(near[:, inside])), kind


def _spy_far_totals(monkeypatch) -> list:
    """Each deep shell's total, appended as the series sum them."""
    totals, total = [], poincare._PoleGroups.total
    monkeypatch.setattr(
        poincare._PoleGroups, "total", lambda *a: totals.append(total(*a)) or totals[-1]
    )
    return totals


def test_far_shell_bits_depend_on_the_point_alone(star, monkeypatch):
    """A deep shell's value at a point is that point's own (1, K groups) @
    (K groups, t shells) product plus its near and outside-word sums, so
    with the expansion order K fixed (the one thing a batch's points share)
    a prefix or a shifted slice of a batch gives the batch's bits, where one
    whole-block product would not."""
    xs = _probe_xs(130)
    ys = 0.99 * np.exp(2j * np.pi * np.arange(20) / 20)  # as many rows as a spanning table
    bers = BersEvaluator(star, 2, config=SeriesConfig(max_len=6))
    bers.value_grid(xs, ys)
    rows = bers._rows
    order, K = poincare._expansion_order, []
    monkeypatch.setattr(poincare, "_expansion_order", lambda *a: K.append(order(*a)) or K[0])

    def deep(points):
        far = rows.far(points)
        return [rows.total(L, points, *far) for L in range(poincare._DIRECT_SHELLS, 7)]

    whole = deep(xs)
    # one K for the call's three deep shells, which take the outside words
    assert len(K) == 1 and all(len(s.outside) for s in rows.plan.shells.values())
    for lo, hi in [(0, 1), (0, 2), (0, 3), (0, 7), (0, 65), (1, 2), (3, 10), (64, 129)]:
        for part, want in zip(deep(xs[lo:hi]), whole):
            assert np.array_equal(part, want[:, lo:hi]), (lo, hi)


def _deep_series(p, cfg):
    """A weight-2, a third-kind and a nu series on p, each summed once at
    the far-case points, so that every deep shell has its plan and rows."""
    xs = _far_case_points(p)
    bers = BersEvaluator(p, 2, config=cfg)
    third, nu = ThirdKindEvaluator(p, config=cfg), NuFamily(p, config=cfg)
    bers.value_grid(xs, _bers_targets(p))
    third.value_grid(xs, THIRD_KIND_YS)
    nu.values(xs)
    return xs, {"bers2": bers, "third_kind": third, "nu": nu}


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("name, max_len", [("star", 7), ("genus3-wide", 6)])
def test_deep_plans_share_the_first_deep_shells_centres(star, monkeypatch, name, max_len):
    """Each series' word tree stops at shell 4, and one read-only plan holds
    every deep shell, each on shell 4's centres: the built words of shells
    5 and up are the outside words and their children alone."""
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    _, evs = _deep_series(_surface(name, star), SeriesConfig(max_len=max_len))
    for kind, ev in evs.items():
        plan = ev._plan
        assert ev.shells.max_len == poincare._DIRECT_SHELLS, kind
        assert sorted(plan.shells) == list(range(poincare._DIRECT_SHELLS, max_len + 1)), kind
        assert not plan.centre.flags.writeable, kind
        with pytest.raises(ValueError, match="read-only"):
            plan.centre[0] = 0.0
        shells = [plan.shells[L] for L in range(poincare._DIRECT_SHELLS + 1, max_len + 1)]
        deep = [len(s.words) + len(s.outside) for s in shells]
        # nu and the third kind have no outside word, so they build none
        assert deep == [0] * len(deep) if kind != "bers2" else 0 < max(deep) < 200, (kind, deep)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_near_group_words_count_against_the_cap(star):
    """A point three discs deep is near a deep group, whose words are
    rebuilt for it shell by shell: the first shell whose group words would
    pass the cap raises CapacityError before it builds them, where points
    of F, near no group, sum every shell to max_len 20 within the same cap
    of 2,000 words: 161 for the tree to shell 4 and 36 for each group of
    its 17 deep shells, counted before anything is built."""
    xs = _far_case_points(star)
    nu = NuFamily(star, config=SeriesConfig(max_len=20, cap=2000))
    assert np.all(np.isfinite(nu.values(xs[:4])))
    assert nu._plan.built == 161 + 17 * 36
    with pytest.raises(CapacityError, match="would rebuild 2187 words of shell 10 .*cap 2000"):
        nu.values(xs[-1:])
    nu = NuFamily(star, config=SeriesConfig(max_len=9, cap=2000))  # 729 words at shell 9
    assert np.all(np.isfinite(nu.values(xs[-1:])))


@pytest.mark.parametrize("kind, groups, last", [("bers", 12, 156), ("third_kind", 36, 54),
                                                ("nu", 36, 54)])
def test_deep_shells_count_against_the_cap_before_anything_is_built(
    star, monkeypatch, kind, groups, last
):
    """The tree to shell 4 (161 words) and one word for each group of each
    deep shell (shells 4..max_len; 12 groups of 2-letter keys for weight N,
    36 of 3-letter keys for a pole pair) count against the cap before any
    tree, limit point or plan is built: max_len 10**6 raises CapacityError
    within a second, and a cap of 2,000 takes max_len `last`, not one more."""
    make = {
        "bers": lambda cfg: BersEvaluator(star, 2, config=cfg),
        "third_kind": lambda cfg: ThirdKindEvaluator(star, config=cfg),
        "nu": lambda cfg: NuFamily(star, config=cfg),
    }[kind]
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    built, build = [], poincare.build_shells
    monkeypatch.setattr(
        poincare, "build_shells", lambda *a, **kw: built.append(a) or build(*a, **kw)
    )
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=rf"the {groups} groups of 999997 deep shells"):
        make(SeriesConfig(max_len=10**6))
    assert time.perf_counter() - start < 1.0 and not built
    assert 161 + (last - 3) * groups <= 2000 < 161 + (last - 2) * groups
    with pytest.raises(CapacityError, match=rf"would take {161 + (last - 2) * groups} words"):
        make(SeriesConfig(max_len=last + 1, cap=2000))
    assert not built
    assert make(SeriesConfig(max_len=last, cap=2000)).shells.max_len == poincare._DIRECT_SHELLS


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_stop_tol_sums_keep_their_bits_at_any_affordable_max_len(star):
    """With stop_tol the sums stop before shell 10, so nu at max_len 200 and
    weight 2 at max_len 40 return the max_len 10 values bit for bit."""
    xs, ys = _far_case_points(star)[:8], _bers_targets(star)
    for kind, deep in (("nu", 200), ("bers", 40)):
        got = []
        for max_len in (10, deep):
            cfg = SeriesConfig(max_len=max_len, stop_tol=1e-11)
            ev = NuFamily(star, config=cfg) if kind == "nu" else BersEvaluator(star, 2, config=cfg)
            got.append(ev.values(xs) if kind == "nu" else ev.value_grid(xs, ys))
            assert len(ev.last_shell_magnitudes) <= 10, kind
        assert np.array_equal(*got), kind


def _walked(ev, max_len):
    """The evaluator's shared points over every word of a tree built to
    max_len here, each word taken from its parent by the step the
    evaluator's own tree and deep words take (_Shared.child)."""
    shared = ev._shared
    tree = build_shells(ev.params, max_len)
    return poincare._Shared(ev.params, tree, shared.depth, shared.points, shared.chains).tree


def _word_sums(tree, targets, numerator, xs, lengths):
    """Each row's terms weight / prod_k (x - p_k) over every word of the given
    shells of a walked word tree (_walked), pulled back as the near sums
    pull them back: the target's factor and pole from each word's matrix,
    the shared points' as the words carry them; shape (t, len(xs))."""
    out = np.zeros((len(targets), len(xs)), dtype=np.complex128)
    x = xs[:, None]
    for length in lengths:
        words = tree[length]
        lam, pole = poincare._pull_back(*words.abcd, targets[:, None])
        weight = numerator[:, None] / (lam * np.prod(words.lam, axis=0))
        for lo in range(0, len(words), 2048):
            sl = slice(lo, lo + 2048)
            common = np.prod([x - q[sl] for q in words.pole], axis=0)
            for r in range(len(targets)):
                out[r] += np.sum(weight[r, sl] / ((x - pole[r, sl]) * common), axis=1)
    return out


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("name, max_len", [("star", 10), ("asymmetric", 8), ("genus3-wide", 7)])
def test_carried_shells_match_word_sums(star, monkeypatch, name, max_len):
    """nu, the third kind and the weight-2 and weight-3 series, their deep
    shells carried from shell 4, agree entry by entry to 1e-14 max(1, |v|)
    with the same deep shells summed word by word over a tree built to
    max_len here, at points in F and on the handle circles."""
    p = _surface(name, star)
    cfg = SeriesConfig(max_len=max_len)
    xs = _far_case_points(p)
    xs = xs[~_inside_discs(p, xs)]
    ys = _bers_targets(p)
    deep = range(poincare._DIRECT_SHELLS, max_len + 1)
    carried, total = [], poincare._PoleGroups.total
    monkeypatch.setattr(
        poincare._PoleGroups, "total", lambda *a: carried.append(total(*a)) or carried[-1]
    )
    nu, third = NuFamily(p, config=cfg), ThirdKindEvaluator(p, config=cfg)
    images = np.array(nu.images)
    cases = {
        "nu": (nu.values, images, nu.y0 - images, _walked(nu, max_len)),
        "third_kind": (lambda xs: third.value_grid(xs, THIRD_KIND_YS), THIRD_KIND_YS,
                       THIRD_KIND_YS, _walked(third, max_len)),
    }
    for N in (2, 3):
        bers = BersEvaluator(p, N, config=cfg)
        weights = np.array([np.prod(y - bers.points) for y in ys])
        cases[f"bers{N}"] = (lambda xs, bers=bers: bers.value_grid(xs, ys), ys, weights,
                             _walked(bers, max_len))
    for kind, (values, targets, numerator, tree) in cases.items():
        carried.clear()
        v = values(xs)
        assert len(carried) == len(deep), kind
        want = _word_sums(tree, np.asarray(targets), np.asarray(numerator), xs, deep)
        assert np.all(np.abs(sum(carried) - want) <= 1e-14 * np.maximum(1.0, np.abs(v))), kind


@pytest.mark.parametrize("kind", ["bers", "third_kind", "nu"])
def test_series_entry_points_reject_points_that_are_not_1d(star, kind):
    """A scalar or 2-D xs or ys is a ValueError naming the argument and its
    shape, at each series' grid entry point; the scalar value() stays."""
    cfg = SeriesConfig(max_len=4, shell_tol=1.0)
    x, y = 0.3 + 0.2j, 0.1j
    if kind == "nu":
        nu = NuFamily(star, config=cfg)
        calls = {"xs": [lambda: nu.values(x), lambda: nu.values([[x, y]])]}
        assert nu.value(1, x) == nu.values([x])[0, 0]
    else:
        if kind == "bers":
            ev = BersEvaluator(star, 2, config=cfg)
        else:
            ev = ThirdKindEvaluator(star, config=cfg)
        calls = {
            "xs": [lambda: ev.value_grid(x, [y]), lambda: ev.value_grid([[x, y]], [y])],
            "ys": [lambda: ev.value_grid([x], y), lambda: ev.value_grid([x], [[y], [0.2]])],
        }
        assert ev.value(x, y) == ev.value_grid([x], [y])[0, 0]
    for name, fs in calls.items():
        for f in fs:
            with pytest.raises(ValueError, match=rf"^{name} must be a 1-D array .* shape \("):
                f()


def _spy_builds(monkeypatch) -> list:
    """The class of each _GroupPlan and _PoleGroups built, in order."""
    built = []
    for cls in (poincare._GroupPlan, poincare._PoleGroups):
        init = cls.__init__
        spy = lambda self, *a, cls=cls, init=init: built.append(cls) or init(self, *a)
        monkeypatch.setattr(cls, "__init__", spy)
    return built


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_deep_shell_plans_are_built_once_per_evaluator(star, monkeypatch):
    """The deep shells' plan is built once per evaluator and only its rows
    are bound on each call with new targets, to the bits of a fresh
    evaluator; NuFamily, whose rows never change, binds them once. The
    registry starts empty, so no module fixture lends its plan."""
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    built = _spy_builds(monkeypatch)
    cfg = SeriesConfig(max_len=6)
    deep = 1  # one plan, and one binding of its rows, holds every deep shell
    xs = _far_case_points(star)
    ysets = [THIRD_KIND_YS, THIRD_KIND_YS[:1], 0.5 * THIRD_KIND_YS]
    for make in (functools.partial(BersEvaluator, star, 2, config=cfg),
                 functools.partial(ThirdKindEvaluator, star, config=cfg)):
        series = make()
        built.clear()
        got = [series.value_grid(xs, ys) for ys in ysets]
        assert built.count(poincare._GroupPlan) == deep
        assert built.count(poincare._PoleGroups) == len(ysets) * deep
        assert np.array_equal(got[-1], make().value_grid(xs, ysets[-1]))
    del series  # NuFamily(y0 = 0) would share the third kind's plans
    nu = NuFamily(star, config=cfg)
    built.clear()
    first = nu.values(xs)
    nu.values(xs[:3])
    assert built == [poincare._GroupPlan, poincare._PoleGroups] * deep
    assert np.array_equal(nu.values(xs), first)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_rows_are_kept_while_the_targets_stay(star, monkeypatch):
    """Two spanning tables, whose probe targets never change, bind the deep
    shells' rows once; a call with other targets binds them anew, and a call
    with the first targets again binds them once more. Every value is a
    fresh evaluator's."""
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    built = _spy_builds(monkeypatch)
    cfg = SeriesConfig(max_len=6)
    deep = 1  # one plan, and one binding of its rows, holds every deep shell
    xs = np.array(default_probe_points(star, 4)[1:])
    bers = BersEvaluator(star, 2, config=cfg)
    theta = gem.SpanningTheta(bers)
    tables = [theta.table(xs), theta.table(xs[:2])]
    assert built.count(poincare._PoleGroups) == deep
    other = bers.value_grid(xs, THIRD_KIND_YS)
    assert built.count(poincare._PoleGroups) == 2 * deep
    again = theta.table(xs)
    assert built.count(poincare._PoleGroups) == 3 * deep
    assert built.count(poincare._GroupPlan) == deep

    def fresh():
        return BersEvaluator(star, 2, config=cfg)

    assert np.array_equal(tables[0], gem.SpanningTheta(fresh()).table(xs))
    assert np.array_equal(tables[1], gem.SpanningTheta(fresh()).table(xs[:2]))
    assert np.array_equal(other, fresh().value_grid(xs, THIRD_KIND_YS))
    assert np.array_equal(again, tables[0])


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_rows_bind_copies_of_the_callers_targets(star, monkeypatch):
    """A caller that writes new values into the targets array it passed
    changes no bound row: a call with the old values keeps the rows and a
    call with the new ones binds them anew, each to a fresh evaluator's
    bits. Every deep group is summed term by term, from the bound targets."""
    monkeypatch.setattr(poincare, "_FAR_RATIO", 0.0)
    built = _spy_builds(monkeypatch)
    cfg = SeriesConfig(max_len=6)
    deep = 1  # one plan, and one binding of its rows, holds every deep shell
    xs = _far_case_points(star)
    tk = ThirdKindEvaluator(star, config=cfg)
    ys = THIRD_KIND_YS.copy()
    tk.value_grid(xs, ys)
    ys *= 0.5
    old = tk.value_grid(xs, THIRD_KIND_YS)
    assert built.count(poincare._PoleGroups) == deep
    new = tk.value_grid(xs, ys)
    assert built.count(poincare._PoleGroups) == 2 * deep
    assert np.array_equal(old, ThirdKindEvaluator(star, config=cfg).value_grid(xs, THIRD_KIND_YS))
    assert np.array_equal(new, ThirdKindEvaluator(star, config=cfg).value_grid(xs, ys))


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_live_twins_build_each_deep_plan_once(star, monkeypatch):
    """Two live weight-2 evaluators, and nu with y0 = 0 beside the third
    kind (both pole pairs share 0), build the deep shells' plan once and
    bind their own rows; weight 3 has a plan of its own."""
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    built = _spy_builds(monkeypatch)
    cfg = SeriesConfig(max_len=6)
    deep = 1  # one plan, and one binding of its rows, holds every deep shell
    xs = _far_case_points(star)

    def values(ev):
        return ev.values(xs) if isinstance(ev, NuFamily) else ev.value_grid(xs, THIRD_KIND_YS)

    twins = [
        (BersEvaluator(star, 2, config=cfg), BersEvaluator(star, 2, config=cfg)),
        (ThirdKindEvaluator(star, config=cfg), NuFamily(star, config=cfg)),
        (BersEvaluator(star, 3, config=cfg),),
    ]
    for evs in twins:
        built.clear()
        for ev in evs:
            values(ev)
        assert built.count(poincare._GroupPlan) == deep
        assert built.count(poincare._PoleGroups) == len(evs) * deep


def test_evaluators_share_one_read_only_tree_while_any_lives(star, monkeypatch):
    """Evaluators of one surface, max_len and cap share one word tree, and
    weight-N ones of one N its limit-point factors, only while one of them
    lives; both are read-only, and sharing them changes no bit."""
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    cfg = SeriesConfig(max_len=5)
    xs = _probe_xs(7)
    makers = {
        "bers": lambda: BersEvaluator(star, 2, config=cfg),
        "nu": lambda: NuFamily(star, config=cfg),
        "third_kind": lambda: ThirdKindEvaluator(star, config=cfg),
    }

    def values(ev):
        return ev.values(xs) if isinstance(ev, NuFamily) else ev.value_grid(xs, THIRD_KIND_YS)

    alone = {}
    for name, make in makers.items():
        ev = make()
        alone[name] = values(ev)
        refs = [weakref.ref(ev.shells), weakref.ref(ev._shared)]
        del ev
        gc.collect()
        assert [ref() for ref in refs] == [None, None] and not poincare._LIVE, name

    twins = {name: make() for name, make in makers.items()}
    bers = twins["bers"]
    for name, make in makers.items():
        ev = make()
        assert ev.shells is bers.shells, name
        assert np.array_equal(values(ev), alone[name]), name
    assert BersEvaluator(star, 2, config=cfg)._shared is bers._shared
    assert BersEvaluator(star, 3, config=cfg)._shared is not bers._shared
    # the keys (.., "N", 3) and (.., "u", 3 + 0j) differ by their tags alone
    bers3, nu3 = BersEvaluator(star, 3, config=cfg), NuFamily(star, config=cfg, y0=3.0)
    assert len(bers3.points) == 5 and np.array_equal(nu3._shared.points, [3.0])
    for other in (SeriesConfig(max_len=4), SeriesConfig(max_len=5, cap=10**6)):
        assert NuFamily(star, config=other).shells is not bers.shells

    with pytest.raises(ValueError, match="read-only"):
        bers.shells.a[3][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        bers._shared.tree[3].lam[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        twins["third_kind"]._shared.tree[3].lam[0, 0] = 0.0
    values(bers)  # binds the deep shells' plan, which every live weight-2 twin shares
    with pytest.raises(ValueError, match="read-only"):
        bers._plan.shells[4].words.lam[0, 0] = 0.0

    refs = [weakref.ref(bers.shells), weakref.ref(bers._shared)]
    del twins, bers, ev, bers3, nu3
    gc.collect()
    assert [ref() for ref in refs] == [None, None] and not poincare._LIVE


def test_far_field_bits_do_not_depend_on_blas_threads(tmp_path):
    code = """if True:
        import sys
        import numpy as np
        from schottkycalc.poincare import BersEvaluator, NuFamily, SeriesConfig
        from schottkycalc.schottky import HandleParams, SchottkyParams
        p = SchottkyParams([HandleParams(-6.0, -2.0, 0.09), HandleParams(2.0, 6.0, 0.09)])
        cfg = SeriesConfig(max_len=6)
        k = np.arange(257)
        xs = 1.3 * np.exp(2j * np.pi * (k + 0.25) / 257) * (0.6 + 0.3 * (k % 3) / 2)
        ys = 0.99 * np.exp(2j * np.pi * np.arange(20) / 20)
        bers = BersEvaluator(p, 2, config=cfg).value_grid(xs, ys)
        np.save(sys.argv[1], np.concatenate([bers, NuFamily(p, config=cfg).values(xs)]))
    """
    out = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env["OPENBLAS_NUM_THREADS"] = threads
        path = tmp_path / f"{threads}.npy"
        cmd = [sys.executable, "-c", code, str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[threads] = np.load(path)
    assert np.array_equal(out["1"], out["2"])


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_direct_dipole_sums_do_not_depend_on_tiles(star, monkeypatch):
    xs = _far_case_points(star)
    nu = NuFamily(star, config=SeriesConfig(max_len=6))
    monkeypatch.setattr(poincare, "_FAR_RATIO", 0.0)
    whole = nu.values(xs)
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 1)  # one point per batch
    assert np.array_equal(nu.values(xs), whole)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("name", ["star", "genus3-wide"])
def test_direct_sums_do_not_depend_on_the_batch(star, name):
    # at max_len 3 every word is summed directly, so no expansion order is
    # shared between the points
    p = _surface(name, star)
    evals = _all_evaluators(p, SeriesConfig(max_len=3))
    rng = np.random.default_rng(15)
    re = [disc_center(p, l).real for l in p.letters]
    xs = rng.uniform(min(re) - 2, max(re) + 2, 3000) + 2j * rng.uniform(-1, 1, 3000)
    xs = xs[[in_domain(p, x) for x in xs]][:2000]
    assert len(xs) == 2000
    for kind, f in evals.items():
        batch = f(xs)
        assert np.array_equal(f(xs[:100]), batch[:, :100]), kind
        for i in range(20):
            assert np.array_equal(f(xs[i : i + 1]), batch[:, i : i + 1]), (kind, i)


@pytest.mark.parametrize("length", [1, 5])
def test_nu_pole_guard_at_pulled_back_base_point(star, length):
    """x at g^-1 y0, formed from the word's matrix as the word tree forms
    it: at shell 5 the group holding g is near x, and its words, built from
    shell 4 as build_shells builds them, pull y0 back to x itself."""
    nu = NuFamily(star, config=SeriesConfig(max_len=6))
    tree = build_shells(star, length)
    _, poles = poincare._pull_back(*(m[length] for m in (tree.a, tree.b, tree.c, tree.d)), nu.y0)
    with pytest.raises(PoleProximityError):
        nu.values([poles[len(poles) // 3]])


def _pole_pair_kernel(series, pairs):
    """The direct kernel of the terms g'(x)(1/(gx - u_r) - 1/(gx - v_r)) over
    the series' shells, built from the pole pairs (u_r, v_r) alone: the
    member all pairs share is the kernel's shared point, the other one each
    row's target, and the numerator is u_r - v_r."""
    u, v = (np.array(p, dtype=np.complex128) for p in zip(*pairs))
    shared, targets = (u, v) if len(set(u)) == 1 else (v, u)
    assert len(set(shared)) == 1
    kernel_shared = poincare._Shared(series.params, series.shells, series._depth, shared[:1])
    return poincare._DirectKernel(targets, u - v, kernel_shared, series._discs)


def _direct_sums(shells, kernel, xs):
    """The kernel's sums over each shell's words at all of xs in one tile,
    combined shell by shell as the series combine them (Kahan)."""
    totals = comp = 0
    for words in zip(shells.a, shells.b, shells.c, shells.d):
        y = kernel(*words, xs) - comp
        s = totals + y
        comp = (s - totals) - y
        totals = s
    return totals


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("max_len", [0, 3])
def test_shallow_series_are_the_chunk_kernel_sums(star, max_len):
    """With no deep shell, nu and the third kind are, bit for bit, the direct
    kernel's sums of their pole pairs over the shells."""
    cfg = SeriesConfig(max_len=max_len, shell_tol=1.0)
    xs = _far_case_points(star)
    nu = NuFamily(star, config=cfg)
    pairs = [(nu.y0, complex(v)) for v in nu.images]
    want = _direct_sums(nu.shells, _pole_pair_kernel(nu, pairs), xs)
    assert np.array_equal(nu.values(xs), want)
    pairs = [(complex(y), 0j) for y in THIRD_KIND_YS]
    want = _direct_sums(nu.shells, _pole_pair_kernel(nu, pairs), xs)
    assert np.array_equal(ThirdKindEvaluator(star, config=cfg).value_grid(xs, THIRD_KIND_YS), want)


def _mp_mul(m, g):
    """The product of two matrices given as (a, b, c, d)."""
    return (m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
            m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3])


def _mp_generators(p):
    """The generators by letter, built from the handles at the working mp
    precision."""
    gens = {}
    for letter in p.letters:
        h = p.handles[abs(letter) - 1]
        wp, wm, rho = mp.mpc(h.w_plus), mp.mpc(h.w_minus), mp.mpc(h.rho)
        s = 1 / mp.sqrt(-rho)
        a, b, c, d = wm * s, (rho - wp * wm) * s, s, -wp * s
        gens[letter] = (a, b, c, d) if letter > 0 else (d, -b, -c, a)
    return gens


def _mp_limit_points(p, gens, n):
    """limit_points(p, n) at the working mp precision: the attracting fixed
    point of each one's word, from the mp generators."""
    A = []
    for A_float, w in zip(*poincare._limit_words(p, n)):
        a, b, c, d = functools.reduce(_mp_mul, (gens[letter] for letter in w))
        root = mp.sqrt((d - a) ** 2 + 4 * b * c)
        A.append(min([(a - d + root) / (2 * c), (a - d - root) / (2 * c)],
                     key=lambda z: abs(z - A_float)))
    return A


def _mp_word_matrices(p, shells):
    """The shells' word matrices as products of the mp generators
    (_mp_generators), shell by shell in the shells' order."""
    gens = _mp_generators(p)
    mats = [[(mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1))]]
    for length in range(1, shells.max_len + 1):
        parents, letters = shells.parent[length], shells.last_letter[length]
        mats.append([_mp_mul(mats[-1][i], gens[letter]) for i, letter in zip(parents, letters)])
    return mats


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_shallow_series_match_40_digit_sums(star):
    """Shells 0-3 of nu and the third kind, all summed by the direct kernel,
    against the same words summed in 40-digit arithmetic, from 40-digit
    generator matrices and the same float pole pairs, at F points at least
    1.5 from y0. Nearer y0, g_a x and g_a y0 nearly coincide, and the
    rounding of g_a x costs digits in either form of the term (3.4e-14 at
    x = 1.3i, 2.9e-9 at x = 0.003)."""
    cfg = SeriesConfig(max_len=3, shell_tol=1.0)
    nu = NuFamily(star, config=cfg)
    xs = np.array(default_probe_points(star, 43))
    xs = xs[np.abs(xs - nu.y0) >= 1.5]
    assert len(xs) == 38
    got = np.r_[nu.values(xs), ThirdKindEvaluator(star, config=cfg).value_grid(xs, THIRD_KIND_YS)]
    pairs = [(nu.y0, v) for v in nu.images] + [(y, 0j) for y in THIRD_KIND_YS]
    want = np.empty_like(got)
    with mp.workdps(40):
        mats = _mp_word_matrices(star, nu.shells)
        pairs = [(mp.mpc(complex(u)), mp.mpc(complex(v))) for u, v in pairs]
        for k, x in enumerate(xs):
            X = mp.mpc(complex(x))
            words = itertools.chain(*mats)
            images = [((a * X + b) / (c * X + d), c * X + d) for a, b, c, d in words]
            for i, (u, v) in enumerate(pairs):
                terms = ((1 / (gx - u) - 1 / (gx - v)) / den**2 for gx, den in images)
                want[i, k] = complex(mp.fsum(terms))
    assert np.all(np.abs(got - want) <= 3e-14 * np.maximum(1.0, np.abs(want)))


def test_expansion_order_bounds_the_tail():
    for m in (2, 4, 6):  # pole pairs, and weight-N terms at N = 2, 3
        assert poincare._expansion_order(0.0, m) == 1
        for rho in (1e-6, 1e-3, 0.1, 0.3, poincare._FAR_RATIO * (1 - 1e-12)):
            K = poincare._expansion_order(rho, m)
            bound = math.comb(K + m - 1, m - 1) * rho**K / (1 - rho) ** m
            assert bound <= poincare._TAIL_TOL
            earlier = math.comb(K + m - 2, m - 1) * rho ** (K - 1) / (1 - rho) ** m
            assert K == 1 or earlier > poincare._TAIL_TOL


@pytest.mark.parametrize("length", [4, 5])
def test_bers_pole_guard_at_pulled_back_target(star, length):
    bers = BersEvaluator(star, 2, config=SeriesConfig(max_len=6))
    shells = build_shells(star, length)
    y = 0.9 - 0.3j
    # g^-1 y from the word's matrix, the routine the near sums form a target's poles with
    words = (m[length] for m in (shells.a, shells.b, shells.c, shells.d))
    _, poles = poincare._pull_back(*words, y)
    with pytest.raises(PoleProximityError):
        bers.value_grid([poles[len(poles) // 3]], [y])


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize(
    "name, N, max_len",
    [("star", 2, 6), ("star", 2, 8), ("star", 3, 6), ("star", 2, 10), ("star", 3, 10),
     ("asymmetric", 2, 6), ("genus3-wide", 2, 5)],
)
def test_bers_outside_words_per_shell(star, monkeypatch, name, N, max_len):
    """A word whose first L - 1 letters run along W_j W_j ..., W_j the word
    of the limit point A_j, pulls A_j back outside its group's nested disc:
    (2N - 1)(2g - 1) words per shell, as the last letter is free, and no
    other word. Each is built, from its parent, itself an outside word, to
    the bits of a word tree built to max_len, its matrix entries, limit
    points' factors and poles alike, and summed term by term at every
    point, x = 0 included; every other deep word sits in a group no wider
    than its disc, and no word past shell 3 reaches the direct kernel."""
    p = _surface(name, star)
    bers = BersEvaluator(p, N, config=SeriesConfig(max_len=max_len))
    direct, call = {}, poincare._DirectKernel.__call__

    def spy_direct(kernel, a, *rest):
        direct[id(a)] = len(a)  # a shell's words, whatever its tiles
        return call(kernel, a, *rest)

    monkeypatch.setattr(poincare._DirectKernel, "__call__", spy_direct)
    xs = np.r_[0j, _far_case_points(p)]
    ys = _bers_targets(p)
    far = bers.value_grid(xs, ys)
    tree = build_shells(p, max_len)
    assert sum(direct.values()) == sum(map(tree.shell_size, range(poincare._DIRECT_SHELLS)))
    words = poincare._limit_words(p, 2 * N - 1)[1]
    plan, outside, walked = bers._plan, {}, _walked(bers, max_len)
    for length in range(poincare._DIRECT_SHELLS, max_len + 1):
        want = []
        for w in words:
            i = 0
            for back in range(1, length):  # the length-(L - 1) prefix of W_j W_j ...
                parent, last = tree.parent[back], tree.last_letter[back]
                i = np.flatnonzero((parent == i) & (last == w[(back - 1) % len(w)]))[0]
            want.extend(np.flatnonzero(tree.parent[length] == i))
        assert len(want) == (2 * N - 1) * (2 * p.genus - 1)
        built, full = plan.shells[length].outside, walked[length]
        got = np.stack(built.abcd)
        expected = np.stack([m[length][want] for m in (tree.a, tree.b, tree.c, tree.d)])
        assert np.array_equal(np.stack(full.abcd)[:, want], expected), length
        got_order, order = np.lexsort(got), np.lexsort(expected)
        assert np.array_equal(got[:, got_order], expected[:, order]), length
        for carried in ("lam", "pole"):
            got_factors = getattr(built, carried)[:, got_order]
            assert np.array_equal(got_factors, getattr(full, carried)[:, want][:, order]), length
        outside[length] = set(want)
        if length > poincare._DIRECT_SHELLS:  # every outside word's parent is an outside word
            assert {int(tree.parent[length][i]) for i in want} <= outside[length - 1], length
    # no group is wider than its nested disc's diameter (one would be near
    # every point), and none on the surfaces with equal small discs is wider than 1e-3
    radius = bers._rows.radius
    assert np.all(radius < 2 * plan.scale) and (name == "asymmetric" or radius.max() < 1e-3)
    monkeypatch.setattr(poincare, "_FAR_RATIO", 0.0)
    near = bers.value_grid(xs, ys)
    assert np.all(np.isfinite(far))
    assert np.all(np.abs(far - near) <= 1e-14 * np.abs(near))


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_deep_bers_shells_match_40_digit_sums(star, monkeypatch):
    """Shells 4 and up of the weight-2 and weight-3 series against the same
    words summed in 40-digit arithmetic, from 40-digit generator matrices
    and 40-digit limit points: x in F and inside a disc, y in F and at
    spanning-table targets inside the discs. The words along a limit
    point's own word W_j, whose a - c A_j cancels, carry their factors
    exactly, so the float sums agree to 1e-15 absolute."""
    max_len = 6
    _, _, _, images, _ = gem._probe_targets(star, 1, 2)
    xs = np.r_[default_probe_points(star, 4)[1:], images[2]]
    ys = np.r_[0.9 - 0.3j, -1.1 + 0.4j, images[:2]]
    got, totals = {}, _spy_far_totals(monkeypatch)
    for N in (2, 3):
        totals.clear()
        BersEvaluator(star, N, config=SeriesConfig(max_len=max_len)).value_grid(xs, ys)
        got[N] = sum(totals)
    nu = NuFamily(star, config=SeriesConfig(max_len=max_len))
    want = _deep_40_digit_sums(star, max_len, xs, nu, ys)
    for N in (2, 3):
        assert np.max(np.abs(got[N] - want[f"bers{N}"])) <= 1e-15, N


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("max_len", [2, 5])
def test_evaluators_accept_no_points(star, max_len):
    cfg = SeriesConfig(max_len=max_len, workers=2)
    none = np.array([], dtype=np.complex128)
    ys = np.array([0.9, -1.0 + 0.2j])
    nu = NuFamily(star, config=cfg)
    assert BersEvaluator(star, 2, config=cfg).value_grid(none, ys).shape == (2, 0)
    assert BersEvaluator(star, 2, config=cfg).value_grid(ys, none).shape == (0, 2)
    assert ThirdKindEvaluator(star, config=cfg).value_grid(none, ys).shape == (2, 0)
    assert nu.values(none).shape == (2, 0)
    assert nu.last_shell_magnitudes == [0.0] * (max_len + 1)


def test_series_match_30_digit_sums(star):
    """The float sums of the truncated nu and weight-2 series against the same
    truncated sums in 30-digit arithmetic, from the same binary inputs (word
    matrices, pole pairs, limit points), so only float rounding can differ.

    A term with a pole p has condition number about |gx| / |gx - p| in the
    rounded image gx, and the g_a term of nu always sits close to its pole
    g_a y0, so the error is measured against the rounding scale
    sum over words and poles of |part| * (1 + |gx| / |gx - p|). nu is also
    checked at max_len 5, whose shells 4 and 5 are summed as grouped dipole
    expansions, and so is the weight-2 series, whose shells 4 and 5 are
    grouped 4-pole expansions."""
    cfg = SeriesConfig(max_len=3, shell_tol=1.0)
    xs = np.array(default_probe_points(star, 4)[1:])  # the first one is y0 = 0
    ys = np.array([0.9 - 0.3j, -1.1 + 0.4j])
    nu = NuFamily(star, config=cfg)
    bers = BersEvaluator(star, 2, config=cfg)
    deep_nu = NuFamily(star, config=SeriesConfig(max_len=5, shell_tol=1.0))
    deep_bers = BersEvaluator(star, 2, config=SeriesConfig(max_len=5, shell_tol=1.0))

    def words_of(shells):
        return [
            tuple(mp.mpc(complex(v)) for v in abcd)
            for k in range(shells.max_len + 1)
            for abcd in zip(shells.a[k], shells.b[k], shells.c[k], shells.d[k])
        ]

    words, deep_words = words_of(nu.shells), words_of(build_shells(star, 5))

    def exact(x, parts, words=words):
        """(sum of terms, rounding scale); parts(gx, den) -> [(value, poles)]."""
        x = mp.mpc(complex(x))
        total = scale = mp.mpf(0)
        for a, b, c, d in words:
            den = c * x + d
            gx = (a * x + b) / den
            for value, poles in parts(gx, den):
                total += value
                scale += abs(value) * (1 + sum(abs(gx) / abs(gx - p) for p in poles))
        return complex(total), float(scale)

    u = mp.mpc(nu.y0)
    A = [mp.mpc(complex(v)) for v in bers.points]

    def nu_parts(v):
        return lambda gx, den: [(1 / ((gx - u) * den**2), [u]), (-1 / ((gx - v) * den**2), [v])]

    def bers_parts(y):
        w = mp.fprod(y - A_j for A_j in A)
        return lambda gx, den: [
            (w / (den**4 * (gx - y) * mp.fprod(gx - A_j for A_j in A)), [y, *A])
        ]

    with mp.workdps(30):
        checks = [
            (nu.values(xs), [[exact(x, nu_parts(mp.mpc(v))) for x in xs] for v in nu.images]),
            (
                bers.value_grid(xs, ys),
                [[exact(x, bers_parts(mp.mpc(complex(y)))) for x in xs] for y in ys],
            ),
            (
                deep_nu.values(xs),
                [[exact(x, nu_parts(mp.mpc(v)), deep_words) for x in xs] for v in deep_nu.images],
            ),
            (
                deep_bers.value_grid(xs, ys),
                [[exact(x, bers_parts(mp.mpc(complex(y))), deep_words) for x in xs] for y in ys],
            ),
        ]
    for got, want in checks:
        want, scale = np.moveaxis(np.array(want), -1, 0)
        assert np.all(np.abs(got - want) <= 1e-14 * scale.real)


# ---------------------------------------------------------------------------
# diagnostics


def test_shell_report_counts_and_decay(star):
    bers = BersEvaluator(star, 2, config=CFG)
    bers.value(0.1 + 0.2j, 0.9 - 0.3j)
    # the words are built to shell 4, and every shell to max_len is summed
    assert [len(a) for a in bers.shells.a] == [1, 4, 12, 36, 108]
    assert [bers.shells.shell_size(L) for L in range(7)] == [1, 4, 12, 36, 108, 324, 972]
    maxima = bers.last_shell_magnitudes
    assert len(maxima) == CFG.max_len + 1
    # geometric decay sets in immediately for this well-separated surface
    for prev, cur in zip(maxima[1:], maxima[2:]):
        assert cur < 0.05 * prev


def test_default_probe_points(star):
    pts = default_probe_points(star, count=2)
    assert len(pts) == 2
    assert pts[0] != pts[1]
    for z in pts:
        assert in_domain(star, z)
