import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottkycalc import moebius
from schottkycalc.schottky import (
    BoundaryAmbiguityError,
    CapacityError,
    ClassicalHandle,
    HandleParams,
    InvalidSurfaceError,
    SchottkyParams,
    build_shells,
    disc_center,
    disc_radius,
    expected_word_count,
    from_classical,
    generator,
    in_domain,
    invert_word,
    letter_order,
    reduce_to_fundamental,
    reduce_word,
    surface_from_dict,
    surface_to_dict,
    to_classical,
    transport,
    validate,
    word_map,
)


@pytest.fixture
def star():
    return SchottkyParams(
        [
            HandleParams(-6.0, -2.0, 0.09),
            HandleParams(2.0, 6.0, 0.09),
        ]
    )


def test_handle_requires_separated_circles():
    with pytest.raises(InvalidSurfaceError):
        HandleParams(0.0, 0.5, 0.09)  # 0.5 <= 2*0.3


def test_validate_reports_cross_pair_overlaps():
    p = SchottkyParams([HandleParams(0.0, 1.0, 0.09), HandleParams(0.5, 5.0, 0.09)])
    bad = validate(p)
    pairs = sorted(v["letters"] for v in bad)
    assert pairs == [(-1, 2), (1, 2)]
    assert all(v["gap"] <= 0 for v in bad)


def test_validate_star_is_clean(star):
    assert validate(star) == []


def test_letter_order():
    assert letter_order(2) == (1, -1, 2, -2)


def test_classical_conversion_example():
    h = from_classical(ClassicalHandle(1.0, -1.0, 0.25))
    assert abs(h.w_plus - 5.0 / 3.0) < 1e-14
    assert abs(h.w_minus + 5.0 / 3.0) < 1e-14
    assert abs(h.rho + 16.0 / 9.0) < 1e-14


def test_classical_roundtrip(star):
    for h in star.handles:
        ch = to_classical(h)
        assert abs(ch.q) < 1.0
        back = from_classical(ch)
        assert abs(back.w_plus - h.w_plus) < 1e-10
        assert abs(back.w_minus - h.w_minus) < 1e-10
        assert abs(back.rho - h.rho) < 1e-10


def test_star_fixed_points(star):
    ch = to_classical(star.handles[0])
    # attracting fixed point sits inside the w_minus disc
    assert abs(ch.W_minus - disc_center(star, -1)) < disc_radius(star, -1)
    assert abs(ch.W_plus - disc_center(star, 1)) < disc_radius(star, 1)


def test_expected_word_count():
    assert expected_word_count(2, 1) == 5
    assert expected_word_count(2, 2) == 17
    assert expected_word_count(2, 10) == 118097


def _entries(shells):
    """(word, matrix entries) of every word of the shells, in storage order."""
    return [
        (shells.word(length, i), {k: getattr(shells, k)[length][i] for k in "abcd"})
        for length in range(shells.max_len + 1)
        for i in range(shells.shell_size(length))
    ]


def test_enumeration_order_and_counts(star):
    words = [word for word, _ in _entries(build_shells(star, 2))]
    assert len(words) == 17
    assert words[0] == ()
    assert words[1:5] == [(1,), (-1,), (2,), (-2,)]
    assert words[5:8] == [(1, 1), (1, 2), (1, -2)]
    assert words[8:11] == [(-1, -1), (-1, 2), (-1, -2)]
    assert len(set(words)) == len(words)
    assert all(reduce_word(w) == w for w in words)


def test_enumeration_matrices_match_word_maps(star):
    for word, entries in _entries(build_shells(star, 3))[::7]:
        m = word_map(star, word)
        scale = max(1.0, *(abs(getattr(m, attr)) for attr in "abcd"))
        # matrices may differ by a global sign, and word_map's stepwise
        # renormalization adds ~1e-9 relative noise on deep words
        tol = 1e-7 * scale
        for attr in "abcd":
            got = entries[attr]
            want = getattr(m, attr)
            if abs(got - want) > tol:
                want = -want
            assert abs(got - want) < tol


def test_capacity_error(star):
    with pytest.raises(CapacityError):
        build_shells(star, 10, cap=1000)


def test_enumeration_requires_valid_surface():
    p = SchottkyParams([HandleParams(0.0, 1.0, 0.09), HandleParams(0.5, 5.0, 0.09)])
    with pytest.raises(InvalidSurfaceError):
        build_shells(p, 2)


def test_in_domain(star):
    assert in_domain(star, 0.0)
    assert not in_domain(star, -6.1)  # inside C_1
    assert not in_domain(star, 6.0)  # center of C_-2


def test_reduce_trivial(star):
    word, y0 = reduce_to_fundamental(star, 0.5 + 0.5j)
    assert word == ()
    assert y0 == 0.5 + 0.5j


def test_reduce_single_letter(star):
    y0 = 0.3 + 0.2j
    y = moebius.apply(generator(star, 1), y0)
    word, got = reduce_to_fundamental(star, y)
    assert word == (1,)
    assert abs(got - y0) < 1e-10


def test_reduce_boundary_ambiguity(star):
    z = disc_center(star, 1) + disc_radius(star, 1)  # exactly on C_1
    with pytest.raises(BoundaryAmbiguityError):
        reduce_to_fundamental(star, z)


@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=4),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_reduce_recovers_word(letters, dz):
    star = SchottkyParams([HandleParams(-6.0, -2.0, 0.09), HandleParams(2.0, 6.0, 0.09)])
    word = reduce_word(letters)
    y0 = dz  # |dz| <= 1 keeps it well inside the fundamental domain
    if not in_domain(star, y0):
        return
    y = moebius.apply(word_map(star, word), y0)
    got_word, got_y0 = reduce_to_fundamental(star, y)
    assert got_word == word
    # inverting a depth-4 contraction (~1e-9) amplifies float rounding; only
    # the word identity is exact
    assert abs(got_y0 - y0) < 1e-3


@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=8))
@settings(max_examples=60, deadline=None)
def test_reduce_word_involution(letters):
    w = reduce_word(letters)
    assert reduce_word(w) == w
    assert reduce_word(list(w) + list(invert_word(w))) == ()


def test_transport_moves_fixed_points_and_keeps_multiplier(star):
    m = moebius.moebius(1.0, 0.3, 0.1, 1.0)
    q = transport(star, m)
    for h_old, h_new in zip(star.handles, q.handles):
        ch_old = to_classical(h_old)
        ch_new = to_classical(h_new)
        assert abs(ch_new.W_plus - moebius.apply(m, ch_old.W_plus)) < 1e-9
        assert abs(ch_new.W_minus - moebius.apply(m, ch_old.W_minus)) < 1e-9
        assert abs(ch_new.q - ch_old.q) < 1e-11


def test_transport_is_conjugation(star):
    m = moebius.moebius(1.0, 0.3, 0.1, 1.0)
    q = transport(star, m)
    z = 0.2 + 0.1j
    for a in (1, 2):
        lhs = moebius.apply(generator(q, a), moebius.apply(m, z))
        rhs = moebius.apply(m, moebius.apply(generator(star, a), z))
        assert abs(lhs - rhs) < 1e-11


def test_transport_rejects_degenerate():
    star = SchottkyParams([HandleParams(-6.0, -2.0, 0.09), HandleParams(2.0, 6.0, 0.09)])
    # pole at -6.4 sits just outside C_1, which blows that circle up until it
    # swallows the others
    m = moebius.moebius(1.0, 0.0, 0.15625, 1.0)
    with pytest.raises(InvalidSurfaceError):
        transport(star, m)


def test_json_roundtrip(star):
    d = surface_to_dict(star)
    p2 = surface_from_dict(d)
    assert p2 == star
    assert d["genus"] == 2


def test_json_genus_mismatch(star):
    d = surface_to_dict(star)
    d["genus"] = 3
    with pytest.raises(ValueError):
        surface_from_dict(d)
