"""Jump coefficients, basis selection, and the canonical kernel."""
import numpy as np
import pytest

from schottkycalc import gem
from contour_reference import pairing
from schottkycalc.contour import handle_nodes
from schottkycalc.eichler import canonical_cocycle, cocycle_eval
from schottkycalc.gem import (
    CanonicalGEM,
    ConditioningError,
    DualBasis,
    FitResidualError,
    GeometryError,
    SpanningTheta,
    canonical_correction,
    canonical_gem,
    canonical_moment_residuals,
    expected_moment_identity,
    moment_identity,
    select_basis,
    _pivots,
)
from schottkycalc.moebius import apply as mob_apply, deriv as mob_deriv, inverse
from schottkycalc.poincare import BersEvaluator, SeriesConfig
from schottkycalc.schottky import (
    HandleParams,
    SchottkyParams,
    disc_center,
    generator,
)

STAR = SchottkyParams(handles=(HandleParams(-6, -2, 0.09), HandleParams(2, 6, 0.09)))
CFG = SeriesConfig(max_len=6, shell_tol=1e-7)


@pytest.fixture(scope="module")
def base():
    return BersEvaluator(STAR, 2, config=CFG)


@pytest.fixture(scope="module")
def theta(base):
    return SpanningTheta(base)


@pytest.fixture(scope="module")
def selection(theta):
    return select_basis(theta, n_nodes=128)


@pytest.fixture(scope="module")
def dual(theta, selection):
    return DualBasis(theta, selection)


@pytest.fixture(scope="module")
def canonical(base, theta, selection, dual):
    corr = canonical_correction(base, selection, n_nodes=128)
    return CanonicalGEM(base, theta, selection, dual, corr)


def test_quasi_period_jump_is_polynomial(base):
    # the fitted coefficients must reproduce the jump at a point that was
    # never used in the fit
    x = 0.37 + 0.21j
    single = SpanningTheta(base)
    coeffs = single.table(np.array([x]))[0, :, 0]
    g1 = generator(STAR, 1)
    y = disc_center(STAR, 1) + 0.9 - 0.4j  # inside the probe circle, off-node
    jump = base.value(x, mob_apply(g1, y)) * mob_deriv(g1, y) ** (1 - base.N) - base.value(x, y)
    fitted = np.polynomial.polynomial.polyval(y - disc_center(STAR, 1), coeffs)
    assert abs(jump - fitted) < 1e-8 * max(1.0, abs(jump))
    assert single.last_residual < 1e-10


def test_spanning_table_matches_single_point(base, theta):
    xs = np.array([0.5 + 0.3j, -0.7j])
    tab = theta.table(xs)
    assert tab.shape == (2, 3, 2)
    single = SpanningTheta(base).table(np.array([xs[1]]))
    assert np.allclose(tab[1, :, 1], single[1, :, 0], rtol=0, atol=1e-12)


def test_residual_gate_trips(monkeypatch):
    monkeypatch.setattr(gem, "_FIT_TOL", 1e-20)
    ev = BersEvaluator(STAR, 2, config=CFG)
    with pytest.raises(FitResidualError):
        SpanningTheta(ev).table(np.array([0.5 + 0.3j]))


def test_probe_geometry_rejects_cramped_surface():
    tight = SchottkyParams(
        handles=(HandleParams(-0.9, -0.42, 0.04), HandleParams(0.42, 0.9, 0.04))
    )
    ev = BersEvaluator(tight, 2, config=SeriesConfig(max_len=3, shell_tol=1.0))
    with pytest.raises(GeometryError):
        SpanningTheta(ev)


def test_selection_rank_and_gap(selection):
    assert selection.dim == 3  # (g-1)(2N-1) for g=2, N=2
    assert selection.family_dimension == 9
    s = selection.singular_values
    assert s[2] / s[3] > 1e6
    assert len(selection.J) == len(set(selection.J)) == 3
    assert len(selection.rows) == 3


def test_pivots_take_the_largest_remaining_column_first_index_on_a_tie():
    A = np.diag([1.0, 3.0, 2.0]).astype(complex)
    A = np.column_stack([A, 1j * A[:, 1]])  # column 3 depends on column 1, same norm
    assert _pivots(A, 3) == [1, 2, 0]
    assert _pivots(A[:, ::-1], 3) == [0, 1, 3]


@pytest.mark.parametrize("J", [(0, 1, 2), (3, 4, 5)])
def test_dependent_column_override_fails_closed(base, J):
    # all three powers on one handle: the pivot block is numerically singular
    with pytest.raises(ConditioningError):
        select_basis(SpanningTheta(base), n_nodes=128, J=J)


def test_selection_duality_via_independent_quadrature(selection):
    assert selection.duality_error < 1e-8


def test_moment_matrix_entry_matches_cocycle_pairing(theta, selection):
    # column (a, k) of the pairing matrix is the contour pairing against the
    # standard cocycle supported on handle a with power k
    a, k = 2, 1
    b, l = 1, 0
    col = (a - 1) * 3 + k
    row = (b - 1) * 3 + l

    def T(z):
        return theta.table(z)[b - 1, l]

    X = canonical_cocycle(STAR, 2, a, k)
    val = pairing(T, X, n_nodes=128)
    assert abs(val - selection.matrix[row, col]) < 1e-9 * max(1.0, abs(val))


def test_dual_basis_moments_are_kronecker(theta, selection, dual):
    # recompute the pairing of each dual differential against every column
    # from scratch on fresh contours
    m = 2 * theta.N - 1
    got = np.empty((selection.dim, len(selection.J)), dtype=complex)
    for j, flat in enumerate(selection.J):
        a, k = selection.label(flat)
        z, dz, w_a = handle_nodes(STAR, a, 128)
        vals = dual.values(z)  # (d, 2n)
        wk = (z - w_a) ** k * dz
        got[:, j] = (vals * wk).sum(axis=1) / (2j * np.pi)
    assert np.max(np.abs(got - np.eye(selection.dim))) < 1e-8


def test_correction_polys_match_direct_moments(base, selection, canonical):
    y = 0.3 - 0.9j
    for pos, flat in enumerate(selection.J):
        b, l = selection.label(flat)
        z, dz, w_b = handle_nodes(STAR, b, 128)
        vals = base.value_grid(z, np.array([y]))[0]
        direct = np.sum(vals * (z - w_b) ** l * dz) / (2j * np.pi)
        fitted = np.polynomial.polynomial.polyval(y, canonical.corrections[pos])
        assert abs(direct - fitted) < 1e-8 * max(1.0, abs(direct))


def test_correction_rows_match_the_cocycle_pairing(base, selection, canonical):
    # P_bl(y) off the fit circle against the independent pairing route
    # (isometric circles, cocycle polynomials)
    y = 0.3 - 0.9j
    for pos, flat in enumerate(selection.J):
        b, l = selection.label(flat)
        X = canonical_cocycle(STAR, 2, b, l)
        want = pairing(lambda z: base.value_grid(z, np.array([y]))[0], X, n_nodes=128)
        got = np.polynomial.polynomial.polyval(y, canonical.corrections[pos])
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_canonical_jumps_equal_negated_dual_on_J(canonical, dual, selection):
    xs = np.array([0.5 + 0.3j, -0.7j, 0.1 + 0.05j])
    tab = SpanningTheta(canonical).table(xs)
    phi = dual.values(xs)
    flat = tab.reshape(6, len(xs))
    for i, j in enumerate(selection.J):
        assert np.max(np.abs(flat[j] + phi[i])) < 1e-8
    off = [i for i in range(6) if i not in selection.J]
    assert np.max(np.abs(flat[off])) < 1e-8


def test_canonical_moments_vanish(canonical):
    ys = np.array([0.4 - 0.6j, -0.3 + 0.8j])
    assert canonical_moment_residuals(canonical, ys, n_nodes=128) < 1e-8


@pytest.mark.parametrize(
    "N, cfg", [(2, CFG), (3, SeriesConfig(max_len=5, shell_tol=1e-6))], ids=["N2", "N3"]
)
def test_canonical_j_moments_vanish_at_the_fit_nodes(N, cfg):
    """The defining property at the nodes the correction fits on: the raw
    kernel's J-moments there are the correction's polynomials, and the
    canonical kernel's own J-moments there vanish."""
    can = canonical_gem(STAR, N, config=cfg, n_nodes=128)
    ys = gem._fit_nodes(0j, gem._fit_radius(STAR), N)
    raw = gem._j_moments(can.base, can.selection, ys, 128, gem._CHECK_TOL)
    fitted = np.array([np.polynomial.polynomial.polyval(ys, row) for row in can.corrections])
    assert raw.shape == (can.selection.dim, 2 * N + 1) and np.max(np.abs(raw)) > 1e-3
    assert np.max(np.abs(raw - fitted)) < 1e-9 * np.max(np.abs(raw))
    moments = gem._j_moments(can, can.selection, ys, 128, gem._CHECK_TOL)
    assert np.max(np.abs(moments)) < 1e-9


def test_contour_identity_zero_in_domain(canonical, selection):
    y = 0.4 - 0.6j
    for flat in selection.J:
        a, k = selection.label(flat)
        X = canonical_cocycle(STAR, 2, a, k)
        assert abs(moment_identity(canonical, X, y, n_nodes=128)) < 1e-9


def test_contour_identity_recovers_folding_word(canonical, selection):
    y0 = 0.4 - 0.6j
    g1, g2 = generator(STAR, 1), generator(STAR, 2)
    targets = [
        mob_apply(inverse(g1), y0),
        mob_apply(g2, y0),
        mob_apply(inverse(g2), mob_apply(inverse(g1), y0)),
    ]
    for flat in selection.J:
        a, k = selection.label(flat)
        X = canonical_cocycle(STAR, 2, a, k)
        for y in targets:
            got = moment_identity(canonical, X, y, n_nodes=128)
            want = expected_moment_identity(canonical, X, y)
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_circle_nodes_served_from_the_selection_pass(base, theta, selection, canonical, monkeypatch):
    ys = np.array([0.4 - 0.6j, -0.3 + 0.8j])
    z = handle_nodes(STAR, 2, 128)[0]
    fresh_dual = DualBasis(SpanningTheta(base), selection).values(z)
    want = base.value_grid(z, ys) - np.einsum(
        "dt,dm->tm",
        np.array([np.polynomial.polynomial.polyval(ys, r) for r in canonical.corrections]),
        fresh_dual,
    )

    passes = []
    raw = base.value_grid

    def counted(xs, ys):
        passes.append(len(ys))
        return raw(xs, ys)

    monkeypatch.setattr(base, "value_grid", counted)
    got = canonical.value_grid(z, ys)
    assert passes == [2]  # the raw kernel only; the dual basis comes from the table
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    theta.table(z[:-1])  # any other node set is a fresh, gated pass
    assert passes == [2, 20]


def test_full_pipeline_constructor():
    can = canonical_gem(STAR, 2, config=CFG, n_nodes=128)
    assert can.N == 2
    assert can.selection.dim == 3
    v = can.value(0.5 + 0.3j, -0.7j)
    grid = can.value_grid(np.array([0.5 + 0.3j]), np.array([-0.7j]))
    assert v == complex(grid[0, 0])


def test_genus_three_rank():
    p3 = SchottkyParams(
        handles=(
            HandleParams(-12, -8, 0.04),
            HandleParams(-4, 4, 0.04),
            HandleParams(8, 12, 0.04),
        )
    )
    base = BersEvaluator(p3, 2, config=SeriesConfig(max_len=4, shell_tol=1e-4))
    sel = select_basis(SpanningTheta(base), n_nodes=128)
    assert sel.dim == 6
    assert sel.singular_values[5] / sel.singular_values[6] > 1e6


def test_weight_three_rank_and_moments():
    base = BersEvaluator(STAR, 3, config=SeriesConfig(max_len=5, shell_tol=1e-6))
    theta = SpanningTheta(base)
    sel = select_basis(theta, n_nodes=128)
    assert sel.dim == 5  # (g-1)(2N-1) for N=3
    dual = DualBasis(theta, sel)
    corr = canonical_correction(base, sel, n_nodes=128)
    can = CanonicalGEM(base, theta, sel, dual, corr)
    assert canonical_moment_residuals(can, np.array([0.4 - 0.6j]), n_nodes=128) < 1e-8


def test_genus_one_has_no_differentials():
    # a genus-1 group has too few limit points to anchor the weight-2 series,
    # matching d_N = (g-1)(2N-1) = 0: nothing to build
    p1 = SchottkyParams(handles=(HandleParams(-2, 2, 0.25),))
    with pytest.raises(ValueError, match="needs genus >= 2"):
        BersEvaluator(p1, 2, config=SeriesConfig(max_len=6, shell_tol=1e-4))
