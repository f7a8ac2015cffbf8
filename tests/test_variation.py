"""Tests for moduli tangent directions, the weight-2 variation field,
beta-periods, and the quadratic-differential identity for period derivatives."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schottkycalc import variation as va
from schottkycalc.cli import load_config
from schottkycalc.contour import QuadratureError
from schottkycalc.eichler import PolyForm, canonical_cocycle, cocycle_eval, decompose_coboundary
from schottkycalc.gem import CanonicalGEM, SpanningTheta, canonical_gem
from schottkycalc.moebius import apply as mob_apply, deriv, moebius
from schottkycalc.poincare import BersEvaluator, NuFamily, SeriesConfig, default_probe_points
from schottkycalc.schottky import (
    HandleParams,
    InvalidSurfaceError,
    SchottkyParams,
    from_classical,
    to_classical,
    transport,
    word_map,
)

STAR = SchottkyParams(handles=(HandleParams(-6.0, -2.0, 0.09), HandleParams(2.0, 6.0, 0.09)))
CFG = SeriesConfig(max_len=6, shell_tol=1e-6)
CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.fixture(scope="module")
def canonical():
    return canonical_gem(STAR, 2, config=CFG, n_nodes=128)


@pytest.fixture(scope="module")
def base_pm():
    return va.period_matrix(STAR, config=CFG)


# ---------------------------------------------------------------------------
# tangent directions


def test_perturbed_params_moves_each_field():
    h = 1e-3
    q0 = va.perturbed_params(STAR, 2, 0, h)
    assert q0.handles[1].w_plus == STAR.handles[1].w_plus + h
    assert q0.handles[1].w_minus == STAR.handles[1].w_minus
    assert q0.handles[0] == STAR.handles[0]

    q1 = va.perturbed_params(STAR, 1, 1, h)
    assert q1.handles[0].rho == STAR.handles[0].rho * (1 + h)

    q2 = va.perturbed_params(STAR, 1, 2, h)
    assert q2.handles[0].w_minus == STAR.handles[0].w_minus + h * STAR.handles[0].rho


def test_perturbed_params_rejects_invalid_surface():
    # dragging w_plus of handle 1 onto handle 1's own w_minus collides discs
    with pytest.raises(InvalidSurfaceError):
        va.perturbed_params(STAR, 1, 0, 3.9)


def test_direction_diff_recovers_coordinate_fields():
    rho = STAR.handles[0].rho
    d = va.direction_diff(STAR, 1, 0, lambda q: q.handles[0].w_plus)
    assert abs(d - 1.0) < 1e-10
    d = va.direction_diff(STAR, 2, 0, lambda q: q.handles[0].w_plus)
    assert abs(d) < 1e-12
    d = va.direction_diff(STAR, 1, 1, lambda q: q.handles[0].rho)
    assert abs(d - rho) < 1e-10
    d = va.direction_diff(STAR, 1, 2, lambda q: q.handles[0].w_minus)
    assert abs(d - rho) < 1e-10


def test_direction_diff_of_a_cubic_is_exact():
    # the circle's nodes integrate s^-2 times a cubic in the step exactly
    cubic = lambda q: 0.5 * q.handles[1].w_plus ** 3 - 2.0 * q.handles[1].w_plus
    d = va.direction_diff(STAR, 2, 0, cubic)
    want = 1.5 * STAR.handles[1].w_plus ** 2 - 2.0
    assert np.shape(d) == ()
    assert abs(d - want) <= 1e-12 * abs(want)


def test_direction_diff_of_a_discontinuous_function_fails_closed():
    # a step function of the moduli is no holomorphic function: the circle
    # sum moves under node doubling and the gate raises
    with pytest.raises(QuadratureError, match="node-doubling"):
        va.direction_diff(STAR, 1, 0, lambda q: float(q.handles[0].w_plus.imag > 0))


def test_direction_diff_fails_closed_off_the_schottky_space():
    # discs 0.05 apart: the circle of radius 0.1 in w_plus of handle 2
    # leaves the Schottky space, and perturbed_params raises there
    near = SchottkyParams(handles=(STAR.handles[0], HandleParams(-1.35, 6.0, 0.09)))
    with pytest.raises(InvalidSurfaceError):
        va.direction_diff(near, 2, 0, lambda q: q.handles[1].w_plus)


# ---------------------------------------------------------------------------
# the variation field's coefficient functions


def test_theta2_requires_weight_two():
    psi3 = BersEvaluator(STAR, 3, config=SeriesConfig(max_len=4, shell_tol=1.0))
    with pytest.raises(ValueError):
        va.theta2_table(psi3, np.array([0.5 + 0.3j]))


def test_theta2_is_negated_jump_table(canonical):
    xs = np.array([0.5 + 0.3j, -0.2 - 0.8j])
    tab = va.theta2_table(canonical, xs)
    assert tab.shape == (2, 3, 2)
    jumps = SpanningTheta(canonical).table(xs)
    assert np.max(np.abs(tab + jumps)) == 0.0


def test_theta2_of_canonical_kernel_is_dual_basis(canonical):
    # after moment removal the only surviving jump rows are the selected
    # ones, where the coefficient function equals the dual basis element
    xs = np.array([0.5 + 0.3j, 1.1 + 0.1j, -0.2 - 0.8j])
    tab = va.theta2_table(canonical, xs)
    dual_vals = canonical.dual.values(xs)
    scale = max(1.0, np.max(np.abs(dual_vals)))
    for pos, flat in enumerate(canonical.selection.J):
        a, l = canonical.selection.label(int(flat))
        assert np.max(np.abs(tab[a - 1, l] - dual_vals[pos])) / scale < 1e-7
    off = [f for f in range(6) if f not in set(int(j) for j in canonical.selection.J)]
    for flat in off:
        a, l = canonical.selection.label(flat)
        assert np.max(np.abs(tab[a - 1, l])) / scale < 1e-7


def test_nabla_of_constant_vanishes(canonical):
    out = va.nabla_apply(canonical, lambda q: 3.7 + 0.4j, 0.5 + 0.3j)
    assert abs(out) < 1e-12


def test_word_action_derivative_matches_cocycle():
    # moduli derivative of an orbit point: d_{a,l} (gamma z) equals
    # -X_{a,l}[gamma](z) * gamma'(z) for the elementary weight-2 cocycles
    z = 0.4 - 0.6j
    for word in [(1,), (2, -1), (1, -2, 1)]:
        m = word_map(STAR, word)
        dz = deriv(m, z)
        for a in (1, 2):
            for l in range(3):
                lhs = va.direction_diff(STAR, a, l, lambda q: mob_apply(word_map(q, word), z))
                rhs = -cocycle_eval(canonical_cocycle(STAR, 2, a, l), word)(z) * dz
                assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# sl2 directions


def _fixed_point_flow(p, P, f, h=1e-5):
    """Reference for sl2_apply by another route: move each handle's fixed
    points W at rate P(W) with the multiplier held, by central differences
    of step h in the classical parameters."""
    total = 0.0
    for idx, c in enumerate(to_classical(hp) for hp in p.handles):
        for name in ("W_plus", "W_minus"):
            def moved(step, idx=idx, c=c, name=name):
                hs = list(p.handles)
                hs[idx] = from_classical(replace(c, **{name: getattr(c, name) + step}))
                return SchottkyParams(handles=tuple(hs))

            total = total + P(getattr(c, name)) * (f(moved(h)) - f(moved(-h))) / (2.0 * h)
    return total


def test_sl2_forms_agree_and_match_conjugation_flow():
    # conjugating a handle map by the flow of P(z) d/dz moves the handle
    # points at rate P(w) + c2 rho (the z^2 flow displaces infinity, and the
    # w's are the images of infinity) and scales rho by P'(w_+) + P'(w_-)
    def coords(q):
        return np.array(
            [v for h in q.handles for v in (h.w_plus, h.w_minus, h.rho)]
        )

    for c in [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0), (0.3, -0.2j, 0.1)]:
        P = PolyForm(2, tuple(c))
        dP = lambda z: c[1] + 2 * c[2] * z
        want = np.array(
            [
                v
                for h in STAR.handles
                for v in (
                    P(h.w_plus) + c[2] * h.rho,
                    P(h.w_minus) + c[2] * h.rho,
                    h.rho * (dP(h.w_plus) + dP(h.w_minus)),
                )
            ]
        )
        t = va.sl2_apply(STAR, P, coords)
        f = _fixed_point_flow(STAR, P, coords)
        assert np.max(np.abs(t - f)) < 1e-6
        assert np.max(np.abs(t - want)) < 1e-6


def test_sl2_annihilates_period_matrix():
    omega_fn = lambda q: va.period_matrix(q, config=CFG, certify=False).omega
    out = va.sl2_apply(STAR, PolyForm(2, (0.0, 0.0, 1.0)), omega_fn)
    assert np.max(np.abs(out)) < 1e-6


def test_sl2_zero_polynomial_is_zero():
    coords = lambda q: np.array([h.w_plus for h in q.handles])
    out = va.sl2_apply(STAR, PolyForm(2, (0.0, 0.0, 0.0)), coords)
    assert np.max(np.abs(out)) == 0.0


# ---------------------------------------------------------------------------
# beta-periods


def test_period_matrix_single_handle_log_multiplier():
    # Omega = log(q) / (2 pi i): compare via exp to stay branch-free, then
    # pin the imaginary part (free of the lattice ambiguity) directly
    cfg = SeriesConfig(max_len=20, shell_tol=1.0)
    for rho in (0.25, -0.25):
        p = SchottkyParams(handles=(HandleParams(-2.0, 2.0, rho),))
        omega = va.period_matrix(p, config=cfg).omega[0, 0]
        q = to_classical(p.handles[0]).q
        assert abs(np.exp(2j * np.pi * omega) - q) < 1e-8 * abs(q)
        assert abs(omega.imag + np.log(abs(q)) / (2 * np.pi)) < 1e-8


def test_beta_path_shapes():
    # positive rho sends the anchor to the far side: detour arc required
    legs = va.beta_path(SchottkyParams(handles=(HandleParams(-2.0, 2.0, 0.25),)), 1)
    assert [l[0] for l in legs] == ["seg", "arc", "seg"]
    # negative rho lands on the near side: straight chord suffices
    legs = va.beta_path(SchottkyParams(handles=(HandleParams(-2.0, 2.0, -0.25),)), 1)
    assert [l[0] for l in legs] == ["seg"]


def test_beta_path_waypoint_detour_clears_third_disc():
    p = SchottkyParams(
        handles=(HandleParams(-6.0, 6.0, 0.09), HandleParams(0.02j, 1.5j, 0.0009))
    )
    legs = va.beta_path(p, 1)
    assert len(legs) == 4  # waypoint hop, approach, arc, exit
    pm = va.period_matrix(
        p, config=SeriesConfig(max_len=8, shell_tol=1.0), y0=3.0, certify=False
    )
    assert pm.symmetry_error < 1e-7


def test_beta_path_blocked_raises(monkeypatch):
    p = SchottkyParams(
        handles=(HandleParams(-6.0, 6.0, 0.09), HandleParams(0.02j, 1.5j, 0.0009))
    )
    monkeypatch.setattr(va, "_ARC_SCALES", ())
    monkeypatch.setattr(va, "_WAYPOINT_SCALES", ())
    with pytest.raises(va.PathBlockedError):
        va.beta_path(p, 1)


WIDE = SchottkyParams(
    handles=(
        HandleParams(-12.0, -8.0, 0.04),
        HandleParams(-4.0, 4.0, 0.04),
        HandleParams(8.0, 12.0, 0.04),
    )
)
ASYMMETRIC = SchottkyParams(handles=(HandleParams(-6.0, -2.0, 0.01), HandleParams(2.0, 6.0, 0.36)))


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize(
    "p, b, max_len, y0",
    [(WIDE, 2, 4, 0j), (WIDE, 2, 4, 2j), (ASYMMETRIC, 1, 6, 0j)],
    ids=["wide-y0=0", "wide-y0=2i", "asymmetric"],
)
def test_chord_through_a_small_anchor_disc_takes_the_detour(p, b, max_len, y0):
    # handle b's straight chord crosses the whole companion disc to reach
    # the image on its far side; that disc's radius is 2.5 % of the chord,
    # so a test on the chord shortened by 5 % at the anchor would miss it
    assert [leg[0] for leg in va.beta_path(p, b)] == ["seg", "arc", "seg"]
    pm = va.period_matrix(p, config=SeriesConfig(max_len=max_len, stop_tol=1e-11), y0=y0)
    assert pm.symmetry_error < 1e-7 and pm.normalization_error < 1e-8


def test_period_matrix_certified(base_pm):
    assert base_pm.genus == 2
    assert base_pm.symmetry_error < 1e-7
    assert base_pm.normalization_error < 1e-8
    # the surface is symmetric under z -> -z exchanging the handles
    assert abs(base_pm.omega[0, 0] - base_pm.omega[1, 1]) < 1e-9


@pytest.mark.parametrize("name, max_len", [("surface_star", 8), ("asymmetric", 7), ("genus3_wide", 5)])
def test_one_nu_pass_per_node_set_keeps_every_bit(name, max_len):
    """period_matrix evaluates nu once on all the beta legs' nodes, and the
    handle circles once on both circles: Omega and the circle values keep
    the bits of one call per leg and per circle."""
    p = load_config(str(CONFIGS / f"{name}.json")).surface
    nu = NuFamily(p, config=SeriesConfig(max_len=max_len))
    omega = va.period_matrix(p, nu=nu).omega
    for b in range(1, p.genus + 1):
        nodes, weights = va._path_rule(va.beta_path(p, b))
        legs = [nu.values(z) for z in nodes]
        assert np.array_equal(omega[:, b - 1], -va._path_integral(legs, weights) / va.TWO_PI_I)
    for a, z, _, _, vals in va._handle_circle_nu(p, nu):
        assert np.array_equal(vals, nu.values(z)), a


def test_period_matrix_rejects_a_nu_from_another_surface(base_pm):
    # STAR's nu with a surface whose rho_1 is 0.05 would clear the normalization gate
    other = SchottkyParams([HandleParams(-6.0, -2.0, 0.05), STAR.handles[1]])
    with pytest.raises(ValueError, match="another surface"):
        va.period_matrix(other, config=CFG, nu=base_pm.nu)


def test_period_matrix_transport_invariant(base_pm):
    for M in (moebius(1.05 + 0.2j, 0.3 - 0.1j, 0, 1), moebius(1, 0.5j, 0.1, 1)):
        pm = va.period_matrix(transport(STAR, M), config=CFG)
        assert np.max(np.abs(pm.omega - base_pm.omega)) < 1e-6


# ---------------------------------------------------------------------------
# period-matrix variation


@pytest.fixture(scope="module")
def grad():
    return va.period_gradient(STAR, config=CFG)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_period_gradient_stacks_every_direction():
    cfg = SeriesConfig(max_len=3)

    def omega_of(q):
        return va.period_matrix(q, config=cfg, certify=False).omega

    grad = va.period_gradient(STAR, config=cfg)
    assert grad.shape == (2, 3, 2, 2)
    for a in (1, 2):
        for l in range(3):
            assert np.array_equal(grad[a - 1, l], va.direction_diff(STAR, a, l, omega_of))


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize(
    "p, cfg",
    [(STAR, CFG), (ASYMMETRIC, SeriesConfig(max_len=8, stop_tol=1e-11))],
    ids=["star", "asymmetric"],
)
def test_exact_period_gradient_matches_finite_differences(p, cfg):
    # two routes to one array: Rauch's formula on the handle circles, and
    # period_gradient's gated Cauchy moments of whole period matrices (in
    # the place of the finite differences of the name). They differ by the
    # truncation, so asymmetric needs max_len 8 (1.9e-10 apart at 7, 3.7e-12
    # at 8); genus3-wide, at 1e-8 and 10x the cost, is checked through the
    # sl2 directions below
    exact = va.exact_period_gradient(va.period_matrix(p, config=cfg))
    cauchy = va.period_gradient(p, config=cfg)
    assert exact.shape == cauchy.shape == (2, 3, 2, 2)
    assert np.max(np.abs(exact - cauchy)) / np.max(np.abs(exact)) < 1e-11


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_period_matrix_is_continuous_in_every_direction(a, l, base_pm):
    # every beta arc turns clockwise, so no small step of the moduli flips
    # an arc to the other side of its disc and moves Omega by a lattice vector
    for step in (1e-3, -1e-3, 1e-3j, -1e-3j):
        moved = va.period_matrix(va.perturbed_params(STAR, a, l, step), config=CFG, certify=False)
        assert np.max(np.abs(moved.omega - base_pm.omega)) < 1e-3, step


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize(
    "p, cfg",
    [
        (STAR, CFG),
        (ASYMMETRIC, SeriesConfig(max_len=6, stop_tol=1e-11)),
        # at max_len 4 the last shell still carries 5e-6 and the truncated
        # periods are invariant only to 2e-7; one shell deeper, to 3e-9
        (WIDE, SeriesConfig(max_len=5, stop_tol=1e-11)),
    ],
    ids=["star", "asymmetric", "genus3-wide"],
)
def test_exact_period_gradient_annihilates_sl2_directions(p, cfg):
    # conjugating the whole group leaves Omega fixed: the period gradient
    # contracted with any coboundary direction vanishes
    exact = va.exact_period_gradient(va.period_matrix(p, config=cfg))
    for c in [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]:
        moved = va._contract(-decompose_coboundary(p, PolyForm(2, c)), exact)
        assert np.max(np.abs(moved)) < 1e-7, c


def test_exact_period_gradient_is_worker_independent(base_pm):
    cfg2 = SeriesConfig(max_len=CFG.max_len, shell_tol=CFG.shell_tol, workers=2)
    base2 = va.period_matrix(STAR, config=cfg2)
    assert np.array_equal(base2.omega, base_pm.omega)
    assert np.array_equal(va.exact_period_gradient(base2), va.exact_period_gradient(base_pm))


def test_exact_period_gradient_reuses_the_gate_circles(base_pm, monkeypatch):
    # the certifying gate evaluated nu on the handle circles; the gradient
    # reads those values, shared read-only, and evaluates nu nowhere
    calls = []
    values = NuFamily.values
    monkeypatch.setattr(NuFamily, "values", lambda self, xs: calls.append(1) or values(self, xs))
    got = va.exact_period_gradient(base_pm)
    assert calls == []
    circles = va._handle_circle_nu(STAR, base_pm.nu)
    assert circles is va._handle_circle_nu(STAR, base_pm.nu)
    assert not any(a.flags.writeable for _, z, dz, _, vals in circles for a in (z, dz, vals))
    monkeypatch.undo()
    # an uncertified base's new family has no circles yet: the gradient
    # evaluates them, to the same bits
    fresh = va.exact_period_gradient(va.period_matrix(STAR, config=CFG, certify=False))
    assert np.array_equal(got, fresh)


def test_exact_period_gradient_gate_fails_closed(base_pm, monkeypatch):
    monkeypatch.setattr(va, "_PATH_GATE", 0.0)
    with pytest.raises(QuadratureError, match="node-doubling"):
        va.exact_period_gradient(base_pm)


def test_gauss_legendre_rules_are_computed_once():
    nodes, weights = va._gl_rule(64)
    assert va._gl_rule(64)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    t, w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(nodes, 0.5 * (t + 1.0)) and np.array_equal(weights, 0.5 * w)


def test_rauch_identity(canonical, grad, base_pm):
    xs = [0.5 + 0.3j, -0.2 - 0.8j, 1.1 + 0.1j]
    rep = va.rauch_check(canonical, xs, grad, base_pm)
    assert rep["max_rel_error"] < 1e-10
    assert rep["symmetry_error"] < 1e-7
    assert rep["normalization_error"] < 1e-8
    assert len(rep["per_sample"]) == len(xs)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("name", ["asymmetric", "genus3_wide"])
def test_rauch_identity_with_the_exact_gradient(name):
    # each shipped config at its own settings and the rauch suite's samples:
    # the handle-circle gradient holds the identity to the series' accuracy
    rc = load_config(str(CONFIGS / f"{name}.json"))
    p = rc.surface
    psi = canonical_gem(p, 2, config=rc.series(), n_nodes=rc.nodes, J=rc.J)
    base = va.period_matrix(p, config=rc.series(), y0=default_probe_points(p, 1)[0])
    xs = default_probe_points(p, 4)[1:]
    rep = va.rauch_check(psi, xs, va.exact_period_gradient(base), base)
    assert rep["max_rel_error"] < 5e-11


def test_rauch_check_reads_nu_from_its_base(canonical, grad, base_pm, monkeypatch):
    built = []
    original = va.NuFamily

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        built.append(out)
        return out

    monkeypatch.setattr(va, "NuFamily", counting)
    x = 0.5 + 0.3j
    rep = va.rauch_check(canonical, [x], grad, base_pm)
    assert built == []
    nu = base_pm.nu.values(np.array([x]))[:, 0]
    assert np.array_equal(rep["rhs"][0], np.outer(nu, nu))


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_rauch_check_rejects_a_base_from_another_surface(canonical, grad, base_pm):
    other = SchottkyParams(handles=(HandleParams(-6.0, -2.0, 0.08), STAR.handles[1]))
    pm = va.period_matrix(other, config=SeriesConfig(max_len=3), certify=False)
    with pytest.raises(ValueError, match="another surface"):
        va.rauch_check(canonical, [0.5 + 0.3j], grad, pm)
    with pytest.raises(ValueError, match="does not fit genus 2"):
        va.rauch_check(canonical, [0.5 + 0.3j], grad[:1], base_pm)


def test_rauch_error_is_finite_at_a_zero_of_nu(canonical):
    # at a zero of nu_1 the rhs entries nu_1 nu_b vanish; the error is
    # judged against the largest rhs entry, so it stays at the series' level
    cfg = SeriesConfig(max_len=6, shell_tol=1e-6, stop_tol=1e-11)
    y0 = default_probe_points(STAR, 1)[0]
    nu = NuFamily(STAR, config=cfg, y0=y0)
    x, d = 6.53153 + 0j, 1e-6
    for _ in range(3):  # Newton, central-difference derivative
        v = nu.values(np.array([x - d, x, x + d]))[0]
        x -= v[1] / ((v[2] - v[0]) / (2 * d))
    vals = nu.values(np.array([x]))[:, 0]
    assert abs(vals[0]) < 1e-10 < abs(vals[1])
    base = va.period_matrix(STAR, config=cfg, y0=y0, nu=nu)
    rep = va.rauch_check(canonical, [x], va.period_gradient(STAR, config=cfg), base)
    assert rep["max_rel_error"] < 1e-4


def _shifted(can, j, coeffs):
    """psi - phi_j(x) P(y), phi_j the j-th dual differential: the canonical
    kernel with correction row j shifted by P's coefficients."""
    corrections = can.corrections.copy()
    corrections[j] += coeffs
    return CanonicalGEM(can.base, can.theta, can.selection, can.dual, corrections)


def test_variation_field_independent_of_kernel_choice():
    cfg = SeriesConfig(max_len=5, shell_tol=1e-5)
    can = canonical_gem(STAR, 2, config=cfg, n_nodes=128)
    shifted = _shifted(can, 0, (0.3, -0.2, 0.1))
    raw = BersEvaluator(STAR, 2, config=cfg)
    omega_fn = lambda q: va.period_matrix(q, config=cfg, certify=False).omega
    x = 0.5 + 0.3j
    grads = [va.nabla_apply(k, omega_fn, x) for k in (can, shifted, raw)]
    scale = max(1.0, np.max(np.abs(grads[0])))
    assert np.max(np.abs(grads[1] - grads[0])) / scale < 1e-6
    assert np.max(np.abs(grads[2] - grads[0])) / scale < 1e-6


def test_shifted_gem_value_grid(canonical):
    P = (0.1, 0.2, -0.3)
    sh = _shifted(canonical, 1, P)
    xs = np.array([0.5 + 0.3j, 1.1 + 0.1j])
    ys = np.array([0.3 - 0.9j])
    want = canonical.value_grid(xs, ys) - np.outer(
        np.polynomial.polynomial.polyval(ys, P), canonical.dual.values(xs)[1]
    )
    got = sh.value_grid(xs, ys)
    # the same kernel by another formula: equal up to rounding
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert sh.N == 2 and sh.params is STAR


# ---------------------------------------------------------------------------
# punctured extension


def test_punctured_field_without_punctures_matches_plain(canonical):
    x = 0.5 + 0.3j
    f = lambda q, ys: q.handles[0].rho ** 2 + q.handles[1].w_plus
    lhs = va.nabla_punctured_apply(canonical, (), f, x)
    rhs = va.nabla_apply(canonical, lambda q: f(q, ()), x)
    assert abs(lhs - rhs) < 1e-12


def test_punctured_field_orbit_covariance(canonical):
    # applying the field to (surface, y) -> generator image of y returns
    # the kernel itself evaluated at the moved point
    x, y = 0.5 + 0.3j, 0.4 - 0.6j
    for a in (1, 2):
        f = lambda q, ys: mob_apply(word_map(q, (a,)), ys[0])
        lhs = va.nabla_punctured_apply(canonical, (y,), f, x)
        rhs = canonical.value(x, mob_apply(word_map(STAR, (a,)), y))
        assert abs(lhs - rhs) < 1e-12


def test_punctured_field_validates_punctures(canonical):
    f = lambda q, ys: ys[0]
    with pytest.raises(ValueError):
        va.nabla_punctured_apply(canonical, (-6.0 + 0.05j,), f, 0.5)  # inside a disc
    with pytest.raises(ValueError):
        va.nabla_punctured_apply(canonical, (0.4j, 0.4j), f, 0.5)  # coincident


@pytest.mark.parametrize("y", [complex("nan"), complex("inf")])
def test_punctured_field_rejects_a_non_finite_puncture(canonical, y):
    """A NaN or infinite puncture is no point of F: refused by name before
    any kernel value or derivative is formed."""
    with pytest.raises(ValueError, match=r"puncture .* is not in the fundamental domain"):
        va.nabla_punctured_apply(canonical, (0.4j, y), lambda q, ys: ys[0], 0.5)
