"""Weight-2 moduli variation machinery.

Tangent directions on the space of handle parameters, the variation vector
field built from a two-point kernel's jump coefficients, sl2 actions along
coboundary directions, beta-period matrices of the normalized handle
differentials, their exact moduli gradient, and the verification of the
variational formula 2 pi i * grad Omega_ab(x) = nu_a(x) nu_b(x).

Every moduli derivative goes through one engine: `_cauchy` is the gated
Cauchy moment (1/2 pi i) * integral of f(p + s e) s^-2 ds on a circle in the
step s (16 evaluations of f, which must be holomorphic in the handle
parameters), `_gradient` stacks it along every tangent direction (a, l)
into an array of shape (g, 3, ...), and `_contract` sums that array
against a (g, 3) coefficient table. `nabla_apply`, `sl2_apply`
and `rauch_check` are each one contraction. The gradient of the period
matrix has two sources with the same shape. `exact_period_gradient` is
Rauch's variational formula in Schottky coordinates,

    dOmega_ij/d(k,l) = -(1/2 pi i)^2 integral over C_k of nu_i nu_j X_kl dz,

with X_kl = dg_k / g_k' the quadratic cocycle of direction (k, l): one
handle-circle moment of the certified matrix's own nu family, on the grid
of the normalization gate. `period_gradient`, the Cauchy derivative of
whole period matrices (holomorphic in the moduli, as every beta arc turns
clockwise), is kept as the independent cross-check.

The delta-normalization of the handle differentials is checked with the
handle-circle moments of `contour.handle_moments`; the jump coefficients
come from `gem.SpanningTheta`, which owns the polynomial fit. Another kernel
choice psi - phi_j(x) P(y), with phi_j a dual-basis differential, is a
`gem.CanonicalGEM` whose correction row j is shifted by P's coefficients;
its variation field differs by an sl2 (coboundary) direction only, so
Moebius-invariant functions of the surface feel no difference.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contour import TWO_PI_I, QuadratureError, contour_nodes, fail_max, handle_moments, handle_nodes
from .eichler import PolyForm, decompose_coboundary
from .gem import SpanningTheta
from .moebius import apply as mob_apply
from .poincare import NuFamily, SeriesConfig
from .schottky import (
    DIRECTIONS_PER_HANDLE,
    HandleParams,
    SchottkyParams,
    clearance,
    disc_center,
    disc_radius,
    generator,
    generator_tangent,
    in_domain,
    require_valid,
)

__all__ = [
    "DIRECTIONS_PER_HANDLE",
    "NormalizationError",
    "PathBlockedError",
    "PeriodMatrix",
    "PeriodSymmetryError",
    "beta_path",
    "direction_diff",
    "exact_period_gradient",
    "nabla_apply",
    "nabla_punctured_apply",
    "nu_normalization_error",
    "period_gradient",
    "period_matrix",
    "perturbed_params",
    "rauch_check",
    "sl2_apply",
    "theta2_table",
]

# Gauss-Legendre nodes per beta-path leg (doubled for the gate)
_N_LEG = 64
# node-doubling gate of the path quadrature and of every circle moment here
_PATH_GATE = 1e-8
# radius and nodes (doubled for the gate) of a moduli derivative's circle
_CAUCHY_RADIUS, _CAUCHY_NODES = 0.1, 8


class PathBlockedError(RuntimeError):
    """No clearance route found for a beta path."""


class PeriodSymmetryError(ArithmeticError):
    """Period matrix failed its symmetry certification."""


class NormalizationError(ArithmeticError):
    """Handle differentials failed the delta-normalization gate."""


# ---------------------------------------------------------------------------
# tangent directions


def perturbed_params(p: SchottkyParams, a: int, l: int, step: complex) -> SchottkyParams:
    """Shift one handle parameter along tangent direction (a, l).

    l = 0 moves w_plus by step; l = 1 scales rho by (1 + step); l = 2 moves
    w_minus by step * rho. d/dstep at 0 realizes the rho-weighted basis
    fields exactly; they are the directions of schottky.generator_tangent.
    A complex step off the Schottky space raises, so a derivative whose
    circle leaves it fails closed.
    """
    hs = list(p.handles)
    h = hs[a - 1]
    if l == 0:
        hs[a - 1] = HandleParams(h.w_plus + step, h.w_minus, h.rho)
    elif l == 1:
        hs[a - 1] = HandleParams(h.w_plus, h.w_minus, h.rho * (1 + step))
    elif l == 2:
        hs[a - 1] = HandleParams(h.w_plus, h.w_minus + step * h.rho, h.rho)
    else:
        raise ValueError(f"direction index {l} not in (0, 1, 2)")
    out = SchottkyParams(handles=tuple(hs))
    require_valid(out)
    return out


def _cauchy(f: Callable, moved: Callable, radius: float):
    """The one moduli derivative, d/ds f(moved(s)) at s = 0, as the gated
    moment (1/2 pi i) * integral over |s| = radius of f(moved(s)) s^-2 ds on
    16 nodes. f (each entry of an array f) must be holomorphic on the disc;
    one that is not fails the gate with QuadratureError."""
    s, ds = contour_nodes(0j, radius, _CAUCHY_NODES)
    vals = np.array([f(moved(complex(t))) for t in s])
    rows = vals.reshape(len(s), -1).T
    return handle_moments(rows, s, ds, 0j, [-2], _PATH_GATE).reshape(vals.shape[1:])[()]


def direction_diff(p: SchottkyParams, a: int, l: int, f: Callable):
    """Derivative of f, holomorphic in the handle parameters, along tangent
    direction (a, l): _cauchy on the step of perturbed_params."""
    return _cauchy(f, lambda step: perturbed_params(p, a, l, step), _CAUCHY_RADIUS)


def _gradient(p: SchottkyParams, f: Callable) -> np.ndarray:
    """direction_diff of f along every (a, l), shape (g, 3, *f's shape)."""
    return np.array(
        [
            [direction_diff(p, a, l, f) for l in range(DIRECTIONS_PER_HANDLE)]
            for a in range(1, p.genus + 1)
        ]
    )


def _contract(coeffs: np.ndarray, grad: np.ndarray):
    """Sum over (a, l) of coeffs[a, l] times grad[a, l], shape
    (*coeffs' trailing shape, *grad's trailing shape).

    The terms are added one at a time in (a, l) order, so the result has the
    same bits as the hand-written accumulation it replaces.
    """
    cs = np.reshape(coeffs, (-1, *np.shape(coeffs)[2:]))
    ds = np.reshape(grad, (-1, *np.shape(grad)[2:]))
    total = np.multiply.outer(cs[0], ds[0])
    for c, d in zip(cs[1:], ds[1:]):
        total = total + np.multiply.outer(c, d)
    return total


# ---------------------------------------------------------------------------
# the variation vector field


def theta2_table(psi, xs) -> np.ndarray:
    """Vector-field coefficients, shape (g, 3, len(xs)).

    Sign convention: psi(x, y) - psi(x, g_a y) (g_a'y)^{-1} as a polynomial
    in (y - w_a), i.e. the negated jump coefficients.
    """
    if psi.N != 2:
        raise ValueError(f"variation machinery needs a weight-2 kernel, got N={psi.N}")
    return -SpanningTheta(psi).table(xs)


def nabla_apply(psi, f: Callable, x: complex):
    """The variation field at x applied to a function of the surface.

    f maps SchottkyParams to a complex value (or ndarray), holomorphic in
    the handle parameters; its direction_diff along each tangent direction
    is weighted by the kernel's coefficient table at x.
    """
    tab = theta2_table(psi, np.array([x]))[:, :, 0]  # (g, 3)
    return _contract(tab, _gradient(psi.params, f))


def sl2_apply(p: SchottkyParams, P: PolyForm, f: Callable):
    """Action of the sl2 field attached to a quadratic polynomial P.

    Realizes -sum p_al d_{a,l} (direction_diff, f holomorphic) with p_al
    the coboundary coefficients of P: the conjugation flow of P(z) d/dz.
    """
    if P.N != 2:
        raise ValueError("sl2 fields are attached to weight-2 polynomials")
    return _contract(-decompose_coboundary(p, P), _gradient(p, f))


def nabla_punctured_apply(psi, punctures: Sequence[complex], f: Callable, x: complex):
    """Variation field extended by kernel-weighted puncture motion.

    f maps (SchottkyParams, punctures tuple) to a value, holomorphic in the
    handle parameters and each puncture. Adds to the surface variation the
    terms psi(x, y_k) * d/dy_k f, each _cauchy on a circle around y_k of
    half its clearance from the discs and other punctures, at most
    _CAUCHY_RADIUS.
    """
    p = psi.params
    ys = tuple(complex(y) for y in punctures)
    for i, y in enumerate(ys):
        if not in_domain(p, y):
            raise ValueError(f"puncture {y!r} is not in the fundamental domain")
        for z in ys[i + 1 :]:
            if abs(y - z) < 1e-12:
                raise ValueError("punctures must be distinct")

    total = nabla_apply(psi, lambda q: f(q, ys), x)
    for k, y in enumerate(ys):
        def moved(step: complex, k=k) -> tuple:
            return ys[:k] + (ys[k] + step,) + ys[k + 1 :]

        radius = 0.5 * min([clearance(p, y)] + [abs(y - z) for z in ys if z != y])
        radius = min(_CAUCHY_RADIUS, radius)
        total = total + psi.value(x, y) * _cauchy(lambda q: f(p, q), moved, radius)
    return total


# ---------------------------------------------------------------------------
# beta paths and the period matrix


def _segment_clearance(z0: complex, z1: complex, c: complex) -> float:
    d = z1 - z0
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(z0 - c)
    t = ((c - z0) * d.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(z0 + t * d - c)


def _leg_clear(
    p: SchottkyParams,
    za: complex,
    zb: complex,
    anchor_a: int | None,
    anchor_b: int | None,
    margin: float = 1.1,
) -> bool:
    """Clearance test for one straight leg.

    A leg from an endpoint anchored on its circle (centre w) meets the
    closed disc only at the anchor iff it leaves on or outside the tangent
    there, Re((z_far - z_anchor) * conj(z_anchor - w)) >= 0; that exact test
    judges the anchor discs. Every other disc must clear at `margin` times
    its radius.
    """
    for letter in p.letters:
        w = disc_center(p, letter)
        if letter == anchor_a:
            if not (((zb - za) * (za - w).conjugate()).real >= 0):
                return False
        elif letter == anchor_b:
            if not (((za - zb) * (zb - w).conjugate()).real >= 0):
                return False
        elif _segment_clearance(za, zb, w) < margin * disc_radius(p, letter):
            return False
    return True


def _arc_clear(p: SchottkyParams, center: complex, radius: float, skip: int) -> bool:
    for letter in p.letters:
        if letter == skip:
            continue
        w = disc_center(p, letter)
        r = disc_radius(p, letter)
        if abs(w - center) - radius < 1.1 * r:
            return False
    return True


def _anchor(p: SchottkyParams, b: int) -> complex:
    """Start of the handle-b period path: the point of C_b facing C_{-b}."""
    w = disc_center(p, b)
    wm = disc_center(p, -b)
    return w + disc_radius(p, b) * (wm - w) / abs(wm - w)


_ARC_SCALES = (1.6, 1.4, 1.9, 2.2)
_WAYPOINT_SCALES = (0.35, -0.35, 0.6, -0.6)


def beta_path(p: SchottkyParams, b: int) -> tuple[tuple, ...]:
    """Legs of the handle-b period path, each ("seg", za, zb) or
    ("arc", center, radius, th0, th1).

    The anchor z0 is the point of C_b facing the companion circle and the
    endpoint is its image z1 on C_{-b}. The straight chord is used when it
    clears every disc; since the image typically lands on the far side of
    the companion, the fallback detours around that disc on a circular arc
    (radial approach, arc, radial arrival), keeping the whole route away
    from every orbit-point cluster. The arc always turns clockwise, which
    fixes the homotopy class and hence the integer lattice of the periods.

    The angle from z0 to z1 about the companion is pi + arg rho -
    2 arg(w_minus - w_plus), a half turn for every real handle with
    rho > 0, where "the shorter way" would let rounding pick the side and
    Omega jump by a lattice vector. Turning clockwise moves that cut in the
    moduli to where the sweep would reach a full turn, where the straight
    chord takes over.
    """
    wm = disc_center(p, -b)
    rm = disc_radius(p, -b)
    z0 = _anchor(p, b)
    z1 = mob_apply(generator(p, b), z0)
    if not isinstance(z1, complex):
        raise PathBlockedError(f"anchor of handle {b} maps to infinity")
    if _leg_clear(p, z0, z1, anchor_a=b, anchor_b=-b):
        return (("seg", z0, z1),)

    th_a_dir = (z0 - wm) / abs(z0 - wm)
    th_b_dir = (z1 - wm) / abs(z1 - wm)
    th_a = float(np.angle(th_a_dir))
    th_b = float(np.angle(th_b_dir))
    dth = -((th_a - th_b) % (2.0 * np.pi))  # always clockwise

    for kappa in _ARC_SCALES:
        R = kappa * rm
        A = wm + R * th_a_dir
        B = wm + R * th_b_dir
        if not _arc_clear(p, wm, R, skip=-b):
            continue
        arc = ("arc", wm, R, th_a, th_a + dth)
        tail = ("seg", B, z1)
        if not _leg_clear(p, B, z1, anchor_a=None, anchor_b=-b):
            continue
        if _leg_clear(p, z0, A, anchor_a=b, anchor_b=None):
            return (("seg", z0, A), arc, tail)
        # first leg blocked by a third disc: try one perpendicular waypoint
        d = A - z0
        mid = 0.5 * (z0 + A)
        nhat = 1j * d / abs(d)
        for s in _WAYPOINT_SCALES:
            W = mid + s * abs(d) * nhat
            if _leg_clear(p, z0, W, anchor_a=b, anchor_b=None) and _leg_clear(
                p, W, A, anchor_a=None, anchor_b=None
            ):
                return (("seg", z0, W), ("seg", W, A), arc, tail)
    raise PathBlockedError(f"no clear route for the handle-{b} period path")


@dataclass(frozen=True)
class PeriodMatrix:
    omega: np.ndarray
    symmetry_error: float
    normalization_error: float
    paths: tuple[tuple[complex, ...], ...]
    nu: NuFamily  # the family whose periods omega holds

    @property
    def genus(self) -> int:
        return self.omega.shape[0]


@functools.cache
def _gl_rule(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per n and
    returned read-only."""
    t, wts = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (t + 1.0), 0.5 * wts
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _leg_nodes(leg: tuple, t: np.ndarray):
    """Quadrature nodes and the dz jacobian for one path leg at params t."""
    if leg[0] == "seg":
        _, za, zb = leg
        return za + t * (zb - za), np.full_like(t, zb - za, dtype=np.complex128)
    _, center, radius, th0, th1 = leg
    theta = th0 + t * (th1 - th0)
    z = center + radius * np.exp(1j * theta)
    return z, 1j * radius * (th1 - th0) * np.exp(1j * theta)


def _path_rule(legs: tuple[tuple, ...]) -> tuple[list[np.ndarray], list[tuple]]:
    """Per leg, its nodes under both Gauss-Legendre rules (n_leg, then
    2 n_leg) and their weights times dz."""
    t1, w1 = _gl_rule(_N_LEG)
    t2, w2 = _gl_rule(2 * _N_LEG)
    nodes, weights = [], []
    for leg in legs:
        z_1, dz_1 = _leg_nodes(leg, t1)
        z_2, dz_2 = _leg_nodes(leg, t2)
        nodes.append(np.concatenate([z_1, z_2]))
        weights.append((w1 * dz_1, w2 * dz_2))
    return nodes, weights


def _path_integral(leg_values: list[np.ndarray], weights: list[tuple]) -> np.ndarray:
    """Integral along the legs from their values at _path_rule's nodes, one
    array per leg whose last axis runs over the nodes, with a node-doubling
    gate over every entry."""
    n_leg = _N_LEG
    total1 = total2 = 0.0
    for vals, (wdz_1, wdz_2) in zip(leg_values, weights):
        total1 = total1 + (vals[..., :n_leg] * wdz_1).sum(axis=-1)
        total2 = total2 + (vals[..., n_leg:] * wdz_2).sum(axis=-1)
    err = float(np.max(np.abs(total1 - total2) / np.maximum(1.0, np.abs(total2))))
    if not (err <= _PATH_GATE):
        raise QuadratureError(
            f"period quadrature unstable under node doubling (moved {err:.3e})"
        )
    return total2


_NU_CIRCLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _handle_circle_nu(p: SchottkyParams, nu: NuFamily, n_nodes: int = 256) -> tuple:
    """Per handle a: a, the doubled trapezoid nodes z of C_a, their weights
    dz, the centre w_a and nu's values there, shape (g, 2 n_nodes).

    Evaluated once per (family, surface, node count) while the family lives,
    its arrays read-only as every caller shares them: the normalization gate
    and the exact period gradient read the same values."""
    per_family = _NU_CIRCLES.setdefault(nu, {})
    if (p, n_nodes) not in per_family:
        nodes = [handle_nodes(p, a, n_nodes) for a in range(1, p.genus + 1)]
        values = np.split(nu.values(np.concatenate([z for z, _, _ in nodes])), p.genus, axis=1)
        circles = []
        for a, (z, dz, w_a), vals in zip(range(1, p.genus + 1), nodes, values):
            for array in (z, dz, vals):
                array.flags.writeable = False
            circles.append((a, z, dz, w_a, vals))
        per_family[p, n_nodes] = tuple(circles)
    return per_family[p, n_nodes]


def nu_normalization_error(p: SchottkyParams, nu: NuFamily, n_nodes: int = 256) -> float:
    """Max |(1/2 pi i) * integral over C_a of nu_b - delta_ab| over a, b, from
    nu on the handle circles (_handle_circle_nu)."""
    worst = 0.0
    for a, z, dz, w_a, vals in _handle_circle_nu(p, nu, n_nodes):
        moments = handle_moments(vals, z, dz, w_a, [0], 1e-8)[:, 0]
        moments[a - 1] -= 1.0
        worst = fail_max(worst, np.max(np.abs(moments)))
    return worst


def period_matrix(
    p: SchottkyParams,
    config: SeriesConfig = SeriesConfig(),
    normalization_tol: float = 1e-8,
    symmetry_tol: float = 1e-7,
    certify: bool = True,
    y0: complex = 0j,
    nu: NuFamily | None = None,
) -> PeriodMatrix:
    """Omega_ab = (1/2 pi i) * integral of nu_a along the handle-b path.

    With certify=True the differentials must pass the delta-normalization
    gate at normalization_tol and the matrix must be symmetric to
    symmetry_tol. A given nu must belong to p (ValueError otherwise).
    """
    require_valid(p)
    if nu is None:
        nu = NuFamily(p, config=config, y0=y0)
    elif nu.params != p:
        raise ValueError("the handle differentials nu belong to another surface")
    norm_err = nu_normalization_error(p, nu) if certify else float("nan")
    if certify and not (norm_err <= normalization_tol):
        raise NormalizationError(
            f"handle differentials fail delta normalization by {norm_err:.3e}"
        )
    g = p.genus
    omega = np.empty((g, g), dtype=np.complex128)
    paths = [beta_path(p, b) for b in range(1, g + 1)]
    rules = [_path_rule(legs) for legs in paths]
    # every leg's nodes in one nu pass, split back per leg
    nodes = [z for leg_nodes, _ in rules for z in leg_nodes]
    ends = np.cumsum([len(z) for z in nodes])[:-1]
    values = iter(np.split(nu.values(np.concatenate(nodes)), ends, axis=1))
    for b, (leg_nodes, weights) in enumerate(rules, 1):
        # legs run anchor -> image; the period traverses them image -> anchor
        leg_values = [next(values) for _ in leg_nodes]
        omega[:, b - 1] = -_path_integral(leg_values, weights) / TWO_PI_I
    sym_err = float(np.max(np.abs(omega - omega.T)))
    if certify and not (sym_err <= symmetry_tol):
        raise PeriodSymmetryError(f"period matrix asymmetric by {sym_err:.3e}")
    return PeriodMatrix(
        omega=omega,
        symmetry_error=sym_err,
        normalization_error=norm_err,
        paths=tuple(paths),
        nu=nu,
    )


# ---------------------------------------------------------------------------
# Rauch verification


def exact_period_gradient(base: PeriodMatrix) -> np.ndarray:
    """Exact derivative of the period matrix base.omega per coordinate.

    Returns dOmega/d(k,l) stacked at [k - 1, l], shape (g, 3, g, g), the
    array period_gradient approximates, from base's nu family alone (Rauch's
    variational formula in Schottky coordinates): with g_k = (a b; c d) and
    (da, db, dc, dd) its generator_tangent along direction (k, l),

        dOmega_ij/d(k,l) = -(1/2 pi i) (1/2 pi i) integral over C_k of
                           nu_i(z) nu_j(z) X_kl(z) dz,
        X_kl(z) = dg_k(z) / g_k'(z) = (da z + db)(cz + d) - (az + b)(dc z + dd),

    X_kl being the quadratic (weight -1) cocycle of the direction, so only
    the circle C_k enters direction (k, l). The moments take nu on the
    handle circles at the normalization gate's 256 nodes (_handle_circle_nu,
    shared with a certified base's gate) behind the node-doubling gate
    _PATH_GATE.
    """
    nu = base.nu
    p = nu.params
    g = p.genus
    grad = np.empty((g, DIRECTIONS_PER_HANDLE, g, g), dtype=np.complex128)
    for k, z, dz, w_k, vals in _handle_circle_nu(p, nu):
        m = generator(p, k)
        own = slice(DIRECTIONS_PER_HANDLE * (k - 1), DIRECTIONS_PER_HANDLE * k)
        da, db, dc, dd = generator_tangent(p, k)[:, own, None]  # (3, 1) each
        X = (da * z + db) * (m.c * z + m.d) - (m.a * z + m.b) * (dc * z + dd)  # (3, 2n)
        rows = X[:, None, None] * vals[:, None] * vals[None, :]  # (3, g, g, 2n)
        moments = handle_moments(rows.reshape(-1, len(z)), z, dz, w_k, [0], _PATH_GATE)
        grad[k - 1] = -moments.reshape(DIRECTIONS_PER_HANDLE, g, g) / TWO_PI_I
    return grad


def period_gradient(p: SchottkyParams, config: SeriesConfig = SeriesConfig()) -> np.ndarray:
    """direction_diff of whole (uncertified) period matrices.

    Returns dOmega/d(a,l) stacked at [a - 1, l], shape (g, 3, g, g), over
    every handle a and its three directions. Expensive (16 period matrices
    per direction); exact_period_gradient gives the same array from one,
    and this one stays as its independent cross-check.
    """

    def omega_of(q: SchottkyParams) -> np.ndarray:
        return period_matrix(q, config=config, certify=False).omega

    return _gradient(p, omega_of)


def rauch_check(psi, xs, gradient: np.ndarray, base: PeriodMatrix) -> dict:
    """Check 2 pi i * grad Omega_ab(x) = nu_a(x) nu_b(x) at the samples xs.

    The identity is checked on the surface psi.params, for the weight-2
    kernel psi, with `gradient` from exact_period_gradient or
    period_gradient and the certified period matrix `base`, whose nu family
    gives the right-hand side; that family's base point must stay off the
    orbits of the samples. Raises ValueError when base belongs to another
    surface or gradient's shape does not fit its genus. Returns a
    report with each sample's error max|lhs - rhs| / max|rhs| over the
    (a, b) entries ("per_sample"; judged against the largest entry, it stays
    finite where some nu_a(x) vanishes) and their max ("max_rel_error"),
    both sides with shape (nx, g, g) ("lhs", "rhs"), and the base's
    "symmetry_error" and "normalization_error".
    """
    p = psi.params
    if base.nu.params != p:
        raise ValueError("the base period matrix belongs to another surface")
    if np.shape(gradient) != (p.genus, DIRECTIONS_PER_HANDLE, p.genus, p.genus):
        raise ValueError(f"gradient of shape {np.shape(gradient)} does not fit genus {p.genus}")
    xs = np.asarray(xs, dtype=np.complex128)
    nu_vals = base.nu.values(xs).T  # (nx, g)
    lhs = TWO_PI_I * _contract(theta2_table(psi, xs), gradient)  # (nx, g, g)
    rhs = nu_vals[:, :, None] * nu_vals[:, None, :]
    per_sample = np.max(np.abs(lhs - rhs), axis=(1, 2)) / np.max(np.abs(rhs), axis=(1, 2))
    return {
        "max_rel_error": fail_max(0.0, *per_sample),
        "per_sample": [float(r) for r in per_sample],
        "lhs": lhs,
        "rhs": rhs,
        "symmetry_error": base.symmetry_error,
        "normalization_error": base.normalization_error,
    }
