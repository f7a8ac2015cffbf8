import numpy as np
import pytest

from schottkycalc.contour import (
    CircleContour,
    QuadratureError,
    circle_integral,
    circle_integral_checked,
    contour_nodes,
    fail_max,
    gated_sum,
    handle_contour,
    handle_moments,
    handle_nodes,
    pairing,
)
from schottkycalc.eichler import canonical_cocycle
from schottkycalc.schottky import HandleParams, SchottkyParams, disc_radius, generator


@pytest.fixture
def star():
    return SchottkyParams(
        [
            HandleParams(-6.0, -2.0, 0.09),
            HandleParams(2.0, 6.0, 0.09),
        ]
    )


def test_orientation_residue():
    c = CircleContour(center=1.0 + 1.0j, radius=0.5)
    val = circle_integral(lambda z: 1.0 / (z - (1.0 + 1.0j)), c)
    assert abs(val - 2j * np.pi) < 1e-12


def test_monomials_integrate_to_zero():
    c = CircleContour(center=0.3j, radius=1.2)
    for k in (0, 1, 2, 3):
        val = circle_integral(lambda z, k=k: (z - 0.3j) ** k, c)
        assert abs(val) < 1e-12
    val = circle_integral(lambda z: (z - 0.3j) ** (-2), c)
    assert abs(val) < 1e-12


def test_cauchy_pole_inside_and_outside():
    c = CircleContour(center=0.0, radius=1.0)
    inside = circle_integral_checked(lambda z: 1.0 / (z - 0.2 - 0.1j), c)
    outside = circle_integral_checked(lambda z: 1.0 / (z - 3.0), c)
    assert abs(inside - 2j * np.pi) < 1e-12
    assert abs(outside) < 1e-12


def test_gate_trips_on_near_pole():
    c = CircleContour(center=0.0, radius=1.0, n_nodes=8)
    with pytest.raises(QuadratureError):
        circle_integral_checked(lambda z: 1.0 / (z - 1.001), c, tol=1e-12)


def test_nan_integrand_fails_the_gate():
    c = CircleContour(center=0.0, radius=1.0, n_nodes=16)
    with pytest.raises(QuadratureError):
        circle_integral_checked(lambda z: np.where(z.real > 0.99, np.nan, z), c)
    z, dz = contour_nodes(c, doubled=True)
    with pytest.raises(QuadratureError):
        gated_sum(np.full(len(z), np.nan + 0j), dz, 1e-10)


def test_fail_max_keeps_nan():
    assert max(0.0, float("nan")) == 0.0  # the builtin drops it
    assert np.isnan(fail_max(0.0, float("nan"), 1.0))
    assert fail_max(0.0, 3.0, 2.0) == 3.0


def test_doubled_nodes_are_superset():
    c = CircleContour(center=1.0, radius=2.0, n_nodes=16)
    z1, _ = contour_nodes(c)
    z2, _ = contour_nodes(c, doubled=True)
    assert np.allclose(z2[::2], z1)


def test_handle_contour_recovers_circle(star):
    m = generator(star, 1)
    c = handle_contour(m)
    assert abs(c.center - (-6.0)) < 1e-12
    assert abs(c.radius - 0.3) < 1e-12


def test_handle_moments_pick_out_the_matching_power(star):
    # (1/2 pi i) * integral over C_a of (z - w_a)^(k - j - 1) dz = delta_jk
    z, dz, w = handle_nodes(star, 2, 64)
    assert np.allclose(np.abs(z - w), disc_radius(star, 2), rtol=0, atol=1e-15)
    vals = np.array([1.0 / (z - w) ** (j + 1) for j in range(3)])
    got = handle_moments(vals, z, dz, w, range(3), 1e-10)
    assert got.shape == (3, 3)
    assert np.max(np.abs(got - np.eye(3))) < 1e-14


def test_handle_moments_gate_trips_near_a_pole(star):
    z, dz, w = handle_nodes(star, 1, 64)
    pole = w + 1.01 * disc_radius(star, 1)
    with pytest.raises(QuadratureError):
        handle_moments(np.array([1.0 / (z - pole)]), z, dz, w, [0], 1e-10)


def test_pairing_extracts_moments(star):
    # T has a simple pole at w_1 only: pairing with (z - w_1)^k picks delta_{k0}
    w1 = star.handles[0].w_plus

    def T(z):
        return 1.0 / (z - w1)

    for k in range(3):
        X = canonical_cocycle(star, 2, 1, k)
        val = pairing(T, X, avoid=(w1,))
        expected = 1.0 if k == 0 else 0.0
        assert abs(val - expected) < 1e-10


def test_pairing_skips_other_handles(star):
    # pole sits inside C_2 but the cocycle is supported on handle 1
    w2 = star.handles[1].w_plus

    def T(z):
        return 1.0 / (z - w2)

    X = canonical_cocycle(star, 2, 1, 0)
    assert abs(pairing(T, X)) < 1e-10


def test_pairing_rational_residues(star):
    # T(z) = 1/(z-w1) + 2/(z-w2): residue 1 against handle-1 moment,
    # residue 2 against handle-2 moment
    w1 = star.handles[0].w_plus
    w2 = star.handles[1].w_plus

    def T(z):
        return 1.0 / (z - w1) + 2.0 / (z - w2)

    v1 = pairing(T, canonical_cocycle(star, 2, 1, 0))
    v2 = pairing(T, canonical_cocycle(star, 2, 2, 0))
    assert abs(v1 - 1.0) < 1e-10
    assert abs(v2 - 2.0) < 1e-10


def test_avoidance_moves_contour(star):
    w1 = star.handles[0].w_plus
    # plant a fake pole exactly on C_1; the pairing should still succeed by
    # nudging the contour scale
    pole_on_circle = w1 + 0.3

    def T(z):
        return 1.0 / (z - w1)

    X = canonical_cocycle(star, 2, 1, 0)
    val = pairing(T, X, avoid=(pole_on_circle, w1))
    assert abs(val - 1.0) < 1e-8
