import numpy as np
import pytest

from contour_reference import TWO_PI_I, gated_sum, isometric_circle, pairing
from schottkycalc.contour import (
    QuadratureError,
    contour_nodes,
    fail_max,
    handle_moments,
    handle_nodes,
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


def _moments(rows, center, radius, powers=(0,), n_nodes=256, tol=1e-10):
    z, dz = contour_nodes(center, radius, n_nodes)
    return handle_moments(np.array([f(z) for f in rows]), z, dz, center, powers, tol)


def test_orientation_residue():
    c = 1.0 + 1.0j
    val = _moments([lambda z: 1.0 / (z - c)], c, 0.5)[0, 0]
    assert abs(TWO_PI_I * val - 2j * np.pi) < 1e-12


def test_monomials_integrate_to_zero():
    got = _moments([lambda z: np.ones_like(z)], 0.3j, 1.2, powers=(0, 1, 2, 3, -2))
    assert np.max(np.abs(TWO_PI_I * got)) < 1e-12


def test_cauchy_pole_inside_and_outside():
    rows = [lambda z: 1.0 / (z - 0.2 - 0.1j), lambda z: 1.0 / (z - 3.0)]
    inside, outside = _moments(rows, 0j, 1.0)[:, 0]
    assert abs(TWO_PI_I * inside - 2j * np.pi) < 1e-12
    assert abs(TWO_PI_I * outside) < 1e-12


def test_gate_trips_on_near_pole():
    with pytest.raises(QuadratureError):
        _moments([lambda z: 1.0 / (z - 1.001)], 0j, 1.0, n_nodes=8, tol=1e-12)


def test_nan_integrand_fails_the_gate():
    with pytest.raises(QuadratureError):
        _moments([lambda z: np.where(z.real > 0.99, np.nan, z)], 0j, 1.0, n_nodes=16)
    with pytest.raises(QuadratureError):
        _moments([lambda z: z, lambda z: np.full_like(z, np.nan)], 0j, 1.0, n_nodes=16)


def test_fail_max_keeps_nan():
    assert max(0.0, float("nan")) == 0.0  # the builtin drops it
    assert np.isnan(fail_max(0.0, float("nan"), 1.0))
    assert fail_max(0.0, 3.0, 2.0) == 3.0


def test_doubled_nodes_are_superset():
    z1, _ = contour_nodes(1.0, 2.0, 8)
    z2, _ = contour_nodes(1.0, 2.0, 16)
    assert len(z1) == 16 and len(z2) == 32
    assert np.allclose(z2[::2], z1)


@pytest.mark.parametrize("radius", [float("nan"), 0.0, -1.0])
def test_contour_nodes_reject_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius"):
        contour_nodes(0j, radius, 8)


def test_handle_contour_recovers_circle(star):
    # the reference pairing's circle for generator 1 is the disc circle C_1
    center, radius = isometric_circle(generator(star, 1))
    assert abs(center - (-6.0)) < 1e-12
    assert abs(radius - 0.3) < 1e-12


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


def test_handle_moments_match_the_row_loop(star):
    # the vectorised moments against one scalar gated sum per row and power:
    # the same products and the same sums, so the same bits
    z, dz, w = handle_nodes(star, 1, 64)
    rng = np.random.default_rng(0)
    vals = np.array([1.0 / (z - w) ** j + rng.normal() * z for j in range(4)])
    got = handle_moments(vals, z, dz, w, range(3), 1e-10)
    want = [[gated_sum(row, (z - w) ** k * dz, 1e-10) for k in range(3)] for row in vals]
    assert np.array_equal(got, np.array(want) / TWO_PI_I)


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
