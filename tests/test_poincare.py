import itertools
import threading
import time

import mpmath as mp
import numpy as np
import pytest

from schottkycalc import moebius, poincare
from schottkycalc.contour import CircleContour, circle_integral
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
    _sum_shells,
    shell_report,
)
from schottkycalc.schottky import (
    HandleParams,
    SchottkyParams,
    build_shells,
    disc_center,
    disc_radius,
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


def test_bers_rejects_wrong_point_count(star):
    with pytest.raises(ValueError):
        BersEvaluator(star, 2, points=[0.1, 0.2], config=CFG)


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


# 1 and 2 columns, an odd count, several tiles and a folded 1-column tail tile
TILE_CASE_POINTS = (1, 2, 3, 65, 513)


def test_bers_deterministic_across_workers(star):
    # all three evaluators, not only the weight-N series
    one = _all_evaluators(star, SeriesConfig(max_len=5, workers=1))
    four = _all_evaluators(star, SeriesConfig(max_len=5, workers=4))
    for m in TILE_CASE_POINTS:
        xs = _probe_xs(m)
        for name in one:
            assert np.array_equal(one[name](xs), four[name](xs)), (name, m)


@pytest.mark.parametrize("m", TILE_CASE_POINTS)
def test_column_tiles_do_not_change_bits(star, monkeypatch, m):
    xs = _probe_xs(m)
    evals = _all_evaluators(star, SeriesConfig(max_len=5, workers=2))
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 1 << 40)  # one tile per chunk
    whole = {name: f(xs) for name, f in evals.items()}
    monkeypatch.setattr(poincare, "_TILE_ELEMENTS", 1)  # 2- and 3-column tiles
    for name, f in evals.items():
        assert np.array_equal(f(xs), whole[name]), name


def test_column_tiles_cover_points_and_fold_the_tail():
    assert poincare._column_tiles(1, 1) == [(0, 1)]
    assert poincare._column_tiles(64, 3) == [(0, 3)]
    tiles = poincare._column_tiles(poincare._TILE_ELEMENTS // 4, 9)
    assert tiles == [(0, 4), (4, 9)]  # the 1-column tail joined its neighbour
    for rows, m in ((12, 4096), (64, 4096), (3000, 513), (1, 2)):
        tiles = poincare._column_tiles(rows, m)
        assert tiles[0][0] == 0 and tiles[-1][1] == m
        assert all(e0 == s1 for (_, e0), (s1, _) in zip(tiles, tiles[1:]))
        assert all(e - s >= 2 for s, e in tiles) or m == 1


def test_failing_chunk_leaves_no_worker_threads(star):
    shells = build_shells(star, 6)
    xs = np.zeros(4096, dtype=np.complex128)  # 64-word chunks, 16 tiles each
    in_last = []

    def dry_run(a, b, c, d, x):
        in_last.append(np.shares_memory(a, shells.a[shells.max_len]))
        return np.zeros((1, len(x)), dtype=np.complex128)

    _sum_shells(shells, xs, dry_run, 1, workers=1)
    tasks = len(in_last)
    fail_at = in_last.index(True) + 2  # inside the last shell, tasks still queued
    assert tasks - fail_at > 100
    calls = itertools.count()
    before = set(threading.enumerate())

    def chunk_fn(a, b, c, d, x):
        k = next(calls)
        if k == fail_at:
            raise EvaluationError("chunk failed")
        if k > fail_at - 2:
            time.sleep(0.05)  # keep the last shell's tasks queued
        return np.zeros((1, len(x)), dtype=np.complex128)

    with pytest.raises(EvaluationError):
        _sum_shells(shells, xs, chunk_fn, 1, workers=2)
    assert set(threading.enumerate()) <= before  # the pool's workers were joined
    assert next(calls) < tasks  # the queued tasks were cancelled, not run


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

    def f(z):
        return ev.value_grid(z, np.array([y]))[0]

    around_y = CircleContour(center=y, radius=0.15)
    around_0 = CircleContour(center=0j, radius=0.15)
    around_nothing = CircleContour(center=-4.0 + 0.0j, radius=0.2)
    two_pi_i = 2j * np.pi
    assert abs(circle_integral(f, around_y) / two_pi_i - 1.0) < 1e-10
    assert abs(circle_integral(f, around_0) / two_pi_i + 1.0) < 1e-10
    assert abs(circle_integral(f, around_nothing)) < 1e-10


def test_third_kind_is_invariant_one_form(star):
    ev = ThirdKindEvaluator(star, config=CFG)
    x, y = 0.3 + 0.2j, 1.1 - 0.4j
    g2 = generator(star, 2)
    gx = moebius.apply(g2, x)
    lhs = ev.value(gx, y) * moebius.deriv(g2, x)
    rhs = ev.value(x, y)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_nu_normalization(star, nus):
    two_pi_i = 2j * np.pi
    for b in (1, 2):
        c = CircleContour(
            center=disc_center(star, b), radius=disc_radius(star, b), n_nodes=256
        )
        for a in (1, 2):

            def f(z, a=a):
                return nus.values(z)[a - 1]

            val = circle_integral(f, c) / two_pi_i
            expected = 1.0 if a == b else 0.0
            assert abs(val - expected) < 1e-8


def test_nu_base_point_independence(star):
    alt = NuFamily(star, config=CFG, y0=0.8 + 0.3j)
    base = NuFamily(star, config=CFG)
    xs = np.array([0.2 - 0.1j, -0.7 + 0.4j])
    assert np.max(np.abs(alt.values(xs) - base.values(xs))) < 1e-8


def test_nu_holomorphic_in_domain(star, nus):
    c = CircleContour(center=0.5 + 0.5j, radius=0.3)

    def f(z):
        return nus.values(z)[0]

    assert abs(circle_integral(f, c)) < 1e-10


def test_nu_rejects_bad_base_point(star):
    with pytest.raises(ValueError):
        NuFamily(star, config=CFG, y0=-6.0 + 0.1j)  # inside C_1


def test_series_match_30_digit_sums(star):
    """The float sums of the truncated nu and weight-2 series against the same
    truncated sums in 30-digit arithmetic, from the same binary inputs (word
    matrices, pole pairs, limit points), so only float rounding can differ.

    A term with a pole p has condition number about |gx| / |gx - p| in the
    rounded image gx, and the g_a term of nu always sits close to its pole
    g_a y0, so the error is measured against the rounding scale
    sum over words and poles of |part| * (1 + |gx| / |gx - p|)."""
    cfg = SeriesConfig(max_len=3, shell_tol=1.0)
    xs = np.array(default_probe_points(star, 4)[1:])  # the first one is y0 = 0
    ys = np.array([0.9 - 0.3j, -1.1 + 0.4j])
    nu = NuFamily(star, config=cfg)
    bers = BersEvaluator(star, 2, config=cfg)
    shells = nu.shells
    words = [
        tuple(mp.mpc(complex(v)) for v in abcd)
        for k in range(shells.max_len + 1)
        for abcd in zip(shells.a[k], shells.b[k], shells.c[k], shells.d[k])
    ]

    def exact(x, parts):
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
        ]
    for got, want in checks:
        want, scale = np.moveaxis(np.array(want), -1, 0)
        assert np.all(np.abs(got - want) <= 1e-14 * scale.real)


# ---------------------------------------------------------------------------
# diagnostics


def test_shell_report_counts_and_decay(star):
    rows = shell_report(star, 2, 0.1 + 0.2j, 0.9 - 0.3j, config=CFG)
    assert [r["count"] for r in rows] == [1, 4, 12, 36, 108, 324, 972]
    maxima = [r["max_term"] for r in rows]
    # geometric decay sets in immediately for this well-separated surface
    for prev, cur in zip(maxima[1:], maxima[2:]):
        assert cur < 0.05 * prev


def test_default_probe_points(star):
    pts = default_probe_points(star, count=2)
    assert len(pts) == 2
    assert pts[0] != pts[1]
    for z in pts:
        assert in_domain(star, z)
