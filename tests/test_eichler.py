import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkycalc import moebius
from schottkycalc.eichler import (
    Cocycle,
    PolyForm,
    canonical_cocycle,
    coboundary,
    cocycle_eval,
    decompose_coboundary,
    poly_pullback,
)
from schottkycalc.schottky import HandleParams, SchottkyParams, generator, word_map


@pytest.fixture
def star():
    return SchottkyParams(
        [
            HandleParams(-6.0, -2.0, 0.09),
            HandleParams(2.0, 6.0, 0.09),
        ]
    )


def _poly_close(p: PolyForm, q: PolyForm, tol=1e-9):
    scale = max(1.0, p.norm(), q.norm())
    return all(abs(x - y) <= tol * scale for x, y in zip(p.coeffs, q.coeffs))


def test_polyform_norm_keeps_a_nan():
    assert np.isnan(PolyForm(2, (1.0, np.nan, 0.0)).norm())
    assert PolyForm(2, (1.0, -3j, 0.0)).norm() == 3.0


def test_polyform_shape_checks():
    with pytest.raises(ValueError):
        PolyForm(2, (1.0, 2.0))
    with pytest.raises(ValueError):
        PolyForm(1, (1.0,))


def test_polyform_eval_and_arith():
    p = PolyForm(2, (1.0, 2.0, 3.0))
    assert abs(p(2.0) - (1 + 4 + 12)) < 1e-14
    q = PolyForm(2, (0.0, 1.0, 0.0))
    assert (p + q).coeffs == (1.0, 3.0, 3.0)
    assert (p - q).coeffs == (1.0, 1.0, 3.0)
    assert (2.0 * q).coeffs == (0.0, 2.0, 0.0)


def test_shifted_roundtrip():
    p = PolyForm(3, (1.0, -2.0j, 3.0, 0.5, 1.0j))
    w = 1.7 - 0.4j
    s = p.shifted_coeffs(w)
    back = PolyForm.from_shifted(3, w, s)
    assert _poly_close(p, back, tol=1e-12)
    # value agreement at a point
    z = 0.3 + 0.9j
    val = sum(c * (z - w) ** k for k, c in enumerate(s))
    assert abs(val - p(z)) < 1e-12


def test_pullback_pointwise(star):
    p = PolyForm(2, (1.0 + 0.5j, -2.0, 0.25j))
    m = generator(star, 1)
    q = poly_pullback(p, m)
    for z in (0.1 + 0.2j, 3.0, -1.0j):
        expected = p(moebius.apply(m, z)) * moebius.deriv(m, z) ** (1 - p.N)
        assert abs(q(z) - expected) < 1e-10 * max(1.0, abs(expected))


def _binom_coeffs(u, v, n):
    return np.array([math.comb(n, j) * u**j * v ** (n - j) for j in range(n + 1)], dtype=complex)


def _reference_pullback(P: PolyForm, m) -> np.ndarray:
    """P|m by the per-monomial binomial convolution: monomial k contributes
    c_k (az+b)^k (cz+d)^{2N-2-k}, summed one monomial at a time."""
    n = 2 * P.N - 2
    total = np.zeros(n + 1, dtype=np.complex128)
    for k, ck in enumerate(P.coeffs):
        if ck == 0:
            continue
        total += ck * np.convolve(_binom_coeffs(m.a, m.b, k), _binom_coeffs(m.c, m.d, n - k))
    return total


def _assert_matches_reference(P: PolyForm, m):
    ref = _reference_pullback(P, m)
    got = np.array(poly_pullback(P, m).coeffs)
    assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("N", [2, 3, 4])
def test_pullback_matches_the_convolution_on_the_surface_maps(star, N):
    # the generators, their inverses and the translations by +-w_a: every
    # map the cocycle suites act with
    maps = [generator(star, l) for l in star.letters]
    maps += [moebius.MoebiusMap(1.0, s * h.w_plus, 0.0, 1.0) for h in star.handles for s in (1, -1)]
    rng = np.random.default_rng(N)
    for m in maps:
        for _ in range(5):
            coeffs = rng.normal(size=2 * N - 1) + 1j * rng.normal(size=2 * N - 1)
            _assert_matches_reference(PolyForm(N, tuple(coeffs)), m)


_ENTRY = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@given(
    st.sampled_from([2, 3, 4]),
    st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    _ENTRY,
    _ENTRY,
    st.lists(_ENTRY, min_size=7, max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_pullback_matches_the_convolution_on_drawn_maps(N, a, b, c, coeffs):
    m = moebius.MoebiusMap(a, b, c, (1 + b * c) / a)  # determinant one
    _assert_matches_reference(PolyForm(N, tuple(coeffs[: 2 * N - 1])), m)


def test_pullback_identity(star):
    p = PolyForm(2, (1.0, 2.0, 3.0))
    q = poly_pullback(p, moebius.identity())
    assert _poly_close(p, q, tol=1e-12)


def test_pullback_affine():
    p = PolyForm(2, (1.0, 0.0, 1.0))
    m = moebius.moebius(2.0, 1.0, 0.0, 1.0)  # z -> (2z+1)/1, c = 0
    q = poly_pullback(p, m)
    z = 0.7 - 0.3j
    expected = p(moebius.apply(m, z)) * moebius.deriv(m, z) ** (1 - p.N)
    assert abs(q(z) - expected) < 1e-10


def test_pullback_composition(star):
    p = PolyForm(3, (1.0, 0.5, -1.0j, 2.0, 0.1))
    m1 = generator(star, 1)
    m2 = generator(star, -2)
    lhs = poly_pullback(p, moebius.compose(m1, m2))
    rhs = poly_pullback(poly_pullback(p, m1), m2)
    assert _poly_close(lhs, rhs, tol=1e-9)


def test_canonical_cocycle_values(star):
    X = canonical_cocycle(star, 2, 1, 2)
    w1 = star.handles[0].w_plus
    z = 0.3 + 1.1j
    assert abs(X.values[0](z) - (z - w1) ** 2) < 1e-10
    assert X.values[1].norm() == 0.0


def test_cocycle_empty_word(star):
    X = canonical_cocycle(star, 2, 1, 0)
    assert cocycle_eval(X, ()).norm() == 0.0


def test_cocycle_inverse_letter(star):
    X = canonical_cocycle(star, 2, 1, 1)
    v = cocycle_eval(X, (1, -1))
    assert v.norm() < 1e-10


@pytest.mark.parametrize("letter", [0, 3, -3], ids=["zero", "g+1", "-(g+1)"])
def test_out_of_range_letter_is_rejected(star, letter):
    X = canonical_cocycle(star, 2, 1, 0)  # genus 2: letters +-1, +-2
    with pytest.raises(ValueError, match="out of range"):
        X.letter_map(letter)
    with pytest.raises(ValueError, match="out of range"):
        X.on_letter(letter)
    with pytest.raises(ValueError, match="out of range"):
        cocycle_eval(X, (1, letter))


def test_negative_letter_steps_invert_the_positive_ones(star):
    X = canonical_cocycle(star, 3, 2, 3)
    for a in (1, 2):
        assert X.letter_map(-a) == moebius.inverse(X.maps[a - 1])
        expected = -poly_pullback(X.values[a - 1], moebius.inverse(X.maps[a - 1]))
        assert X.on_letter(-a) == expected
        assert X.on_letter(a) == X.values[a - 1]


@pytest.mark.parametrize(
    "w1,w2",
    [
        ((1,), (2,)),
        ((1, 2), (-1,)),
        ((2, -1), (1, 1)),
        ((-2,), (-1, 2)),
        ((1, -2, 1), (2,)),
    ],
)
def test_cocycle_identity(star, w1, w2):
    X = canonical_cocycle(star, 2, 2, 1)
    word = tuple(w1) + tuple(w2)
    lhs = cocycle_eval(X, word)
    rhs = poly_pullback(cocycle_eval(X, w1), word_map(star, w2)) + cocycle_eval(X, w2)
    assert _poly_close(lhs, rhs, tol=1e-9)


def test_coboundary_is_cocycle(star):
    P = PolyForm(2, (0.5, -1.0j, 2.0))
    X = coboundary(star, P)
    # check the defining property on a composite word directly
    word = (1, -2)
    m = word_map(star, word)
    expected = poly_pullback(P, m) - P
    assert _poly_close(cocycle_eval(X, word), expected, tol=1e-9)


def test_decompose_coboundary_reconstructs(star):
    N = 2
    P = PolyForm(N, (1.0 + 1.0j, 0.25, -0.75))
    coeffs = decompose_coboundary(star, P)
    X = coboundary(star, P)
    for a in (1, 2):
        recon = PolyForm.zero(N)
        for k in range(2 * N - 1):
            recon = recon + coeffs[a - 1, k] * canonical_cocycle(star, N, a, k).values[a - 1]
        assert _poly_close(recon, X.values[a - 1], tol=1e-9)


@given(
    st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=30, deadline=None)
def test_pullback_preserves_weight_action(cs):
    star = SchottkyParams([HandleParams(-6.0, -2.0, 0.09), HandleParams(2.0, 6.0, 0.09)])
    p = PolyForm(2, tuple(cs))
    m = generator(star, 2)
    q = poly_pullback(p, m)
    z = 1.3 - 0.8j
    expected = p(moebius.apply(m, z)) * moebius.deriv(m, z) ** (1 - p.N)
    assert abs(q(z) - expected) <= 1e-9 * max(1.0, abs(expected))
