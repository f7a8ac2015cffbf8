import itertools
import threading
import time

import numpy as np
import pytest

from schottkycalc import moebius
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


def test_bers_deterministic_across_workers(star):
    xs = np.array([0.11 + 0.05j, -0.4, 1.0j])
    ys = np.array([0.9, -1.0 + 0.2j])
    v1 = BersEvaluator(star, 2, config=SeriesConfig(max_len=5, workers=1)).value_grid(xs, ys)
    v4 = BersEvaluator(star, 2, config=SeriesConfig(max_len=5, workers=4)).value_grid(xs, ys)
    assert np.array_equal(v1, v4)


def test_failing_chunk_leaves_no_worker_threads(star):
    shells = build_shells(star, 6)
    xs = np.zeros(4096, dtype=np.complex128)  # 64-word chunks: 16 in the last shell
    calls = itertools.count()
    before = set(threading.enumerate())

    def chunk_fn(a, b, c, d, x):
        if next(calls) == 14:  # inside the last shell, with chunks still queued
            raise EvaluationError("chunk failed")
        time.sleep(0.05)
        return np.zeros((1, len(x)), dtype=np.complex128)

    with pytest.raises(EvaluationError):
        _sum_shells(shells, xs, chunk_fn, 1, workers=2)
    assert set(threading.enumerate()) <= before  # the pool's workers were joined
    assert next(calls) < 28  # the queued chunks were cancelled, not run


def test_truncation_warning_on_shallow_cutoff():
    tight = SchottkyParams(
        [HandleParams(-1.5, -0.5, 0.04), HandleParams(0.5, 1.5, 0.04)]
    )
    ev = BersEvaluator(tight, 2, config=SeriesConfig(max_len=2))
    with pytest.warns(TruncationWarning):
        ev.value(0.0, 2.5)


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
