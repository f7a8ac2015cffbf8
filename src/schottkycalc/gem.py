"""Canonical holomorphic N-differentials from two-point kernel jumps.

For a weight-N two-point kernel psi(x, y) the y-side jump across handle a,

    psi(x, g_a y) (g_a'y)^{1-N} - psi(x, y) = sum_k c_{a,k}(x) (y - w_a)^k,

is exactly a polynomial of degree 2N-2 in (y - w_a). The g(2N-1) coefficient
functions c_{a,k} are holomorphic N-differentials in x spanning a space of
dimension d_N = (g-1)(2N-1). Pairing them against the standard cocycles by
contour moments produces a square matrix of rank d_N whose pivot structure
selects a basis (column set J, row set R), a dual family, and the correction
that cancels every J-indexed moment of the kernel, yielding its canonical
form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .contour import TWO_PI_I, CircleContour, contour_nodes, fail_max, gated_sum
from .eichler import Cocycle, cocycle_eval
from .moebius import apply as mob_apply, deriv as mob_deriv
from .poincare import BersEvaluator, SeriesConfig
from .schottky import (
    SchottkyParams,
    disc_center,
    disc_radius,
    generator,
    in_domain,
    invert_word,
    reduce_to_fundamental,
)

__all__ = [
    "BasisSelection",
    "CanonicalGEM",
    "ConditioningError",
    "DualBasis",
    "FitResidualError",
    "GeometryError",
    "QuasiPeriod",
    "RankGapError",
    "SpanningTheta",
    "canonical_correction",
    "canonical_gem",
    "canonical_moment_residuals",
    "moment_identities",
    "moment_identity",
    "quasi_periods",
    "select_basis",
]


class GeometryError(ValueError):
    """Surface too cramped to place probe circles safely."""


class FitResidualError(ArithmeticError):
    """A held-out interpolation node disagreed with the fitted polynomial."""


class RankGapError(ArithmeticError):
    """Pairing matrix has no clean singular-value gap at the expected rank."""


class ConditioningError(ArithmeticError):
    """Selected pivot block is too ill-conditioned to invert."""


@dataclass(frozen=True)
class QuasiPeriod:
    """Jump coefficients c_{a,k}(x), k = 0..2N-2, with held-out residual."""

    handle: int
    x: complex
    coeffs: tuple[complex, ...]
    residual: float


# ---------------------------------------------------------------------------
# probe geometry


def _probe_radius(p: SchottkyParams, a: int) -> float:
    """Radius around w_a with all 2N-1 probe nodes in the fundamental domain.

    Half the clearance from w_a to the nearest *other* disc: then every node
    keeps at least one radius of clearance from every other disc, and must
    also clear the handle's own circle.
    """
    w = disc_center(p, a)
    clear = min(
        abs(w - disc_center(p, l)) - disc_radius(p, l)
        for l in p.letters
        if l != a
    )
    R = 0.5 * clear
    if R <= disc_radius(p, a) * 1.05:
        raise GeometryError(
            f"probe circle around handle {a} (radius {R:.3g}) would graze its own disc"
        )
    return R


def _probe_targets(p: SchottkyParams, a: int, N: int):
    """Main + validation probe nodes around w_a and their generator images."""
    m = 2 * N - 1
    w = disc_center(p, a)
    R = _probe_radius(p, a)
    angles = 2.0 * np.pi * np.arange(m) / m
    val_angles = 2.0 * np.pi * (np.arange(2) + 0.5) / m
    nodes = w + R * np.exp(1j * angles)
    val_nodes = w + R * np.exp(1j * val_angles)
    all_nodes = np.concatenate([nodes, val_nodes])
    for z in all_nodes:
        if not in_domain(p, complex(z)):
            raise GeometryError(f"probe node {z!r} left the fundamental domain")
    g_a = generator(p, a)
    images = np.array([mob_apply(g_a, complex(z)) for z in all_nodes])
    weights = np.array([mob_deriv(g_a, complex(z)) ** (1 - N) for z in all_nodes])
    return w, R, all_nodes, images, weights


# ---------------------------------------------------------------------------
# quasi-periods and the spanning family


class SpanningTheta:
    """Evaluates all jump coefficients c_{a,k}(x) from one kernel pass.

    Fixed probe nodes per handle; for a batch of x the kernel is evaluated at
    every (probe, image) target in a single orbit sweep, then each handle's
    coefficients come from an exact inverse DFT on its probe circle with two
    held-out nodes as a residual gate.
    """

    def __init__(self, psi, residual_tol: float = 1e-8):
        self.psi = psi
        self.params: SchottkyParams = psi.params
        self.N: int = psi.N
        self.residual_tol = residual_tol
        self._probes = [
            _probe_targets(self.params, a, self.N)
            for a in range(1, self.params.genus + 1)
        ]
        self.last_residual = 0.0
        self._circles: list[tuple[np.ndarray, np.ndarray, float]] = []  # nodes, table, residual

    def table(self, xs) -> np.ndarray:
        """Coefficient table, shape (g, 2N-1, len(xs))."""
        xs = np.asarray(xs, dtype=np.complex128)
        for nodes, tab, resid in self._circles:
            if np.array_equal(xs, nodes):
                self.last_residual = resid
                return tab.copy()
        g = self.params.genus
        m = 2 * self.N - 1
        targets = []
        for w, R, nodes, images, weights in self._probes:
            targets.extend(nodes)
            targets.extend(images)
        values = self.psi.value_grid(xs, np.array(targets))  # (t, mx)

        out = np.empty((g, m, len(xs)), dtype=np.complex128)
        worst = 0.0
        per_handle = m + 2
        for ai, (w, R, nodes, images, weights) in enumerate(self._probes):
            base = 2 * per_handle * ai
            plain = values[base : base + per_handle]
            moved = values[base + per_handle : base + 2 * per_handle]
            delta = moved * weights[:, None] - plain  # (m+2, mx)
            coeffs = np.fft.fft(delta[:m], axis=0) / m
            coeffs /= R ** np.arange(m)[:, None]
            # held-out nodes: evaluate the fitted polynomial at the two
            # half-step rotations and compare
            offs = (nodes[m:] - w)[:, None] ** np.arange(m)[None, :]  # (2, m)
            fitted = offs @ coeffs  # (2, mx)
            scale = np.maximum(1.0, np.max(np.abs(delta), axis=0))
            resid = np.max(np.abs(fitted - delta[m:]) / scale)
            worst = fail_max(worst, resid)
            out[ai] = coeffs
        self.last_residual = worst
        if not (worst <= self.residual_tol):
            raise FitResidualError(
                f"jump-coefficient fit residual {worst:.3e} exceeds "
                f"{self.residual_tol:.1e}; the jump is not polynomial to tolerance"
            )
        return out

    def circle_tables(self, node_sets: Sequence[np.ndarray]) -> np.ndarray:
        """One table() pass over all node sets; later table() calls on exactly
        one of these sets are served from it without another kernel pass."""
        tab = self.table(np.concatenate(node_sets))
        ends = np.cumsum([len(z) for z in node_sets])
        self._circles = [
            (z, tab[:, :, end - len(z) : end], self.last_residual)
            for z, end in zip(node_sets, ends)
        ]
        return tab


def quasi_periods(psi, a: int, x: complex) -> QuasiPeriod:
    """Jump coefficients across handle a at a single x."""
    theta = SpanningTheta(psi)
    tab = theta.table(np.array([x]))
    return QuasiPeriod(
        handle=a,
        x=complex(x),
        coeffs=tuple(tab[a - 1, :, 0]),
        residual=theta.last_residual,
    )


# ---------------------------------------------------------------------------
# basis selection


@dataclass(frozen=True)
class BasisSelection:
    """Pivot data of the moment pairing between jumps and standard cocycles.

    matrix[r, c]: moment of coefficient function r against cocycle c, with
    flat index i <-> (handle 1 + i // (2N-1), power i % (2N-1)). J are the
    selected cocycle columns, rows the selected coefficient functions.
    """

    N: int
    genus: int
    matrix: np.ndarray
    shifted_matrix: np.ndarray
    J: tuple[int, ...]
    rows: tuple[int, ...]
    singular_values: tuple[float, ...]
    duality_error: float

    @property
    def dim(self) -> int:
        return len(self.J)

    @property
    def family_dimension(self) -> int:
        # correction coefficients form a (dim x 2N-1) block
        return self.dim * (2 * self.N - 1)

    def label(self, flat: int) -> tuple[int, int]:
        m = 2 * self.N - 1
        return (flat // m + 1, flat % m)


def _moment_integrals(
    theta_tab: np.ndarray,
    nodes: np.ndarray,
    dz: np.ndarray,
    center: complex,
    powers: int,
    tol: float,
) -> np.ndarray:
    """Gated contour moments of every (b, l) against (z-center)^k, k < powers."""
    g, m, _ = theta_tab.shape
    out = np.empty((g, m, powers), dtype=np.complex128)
    for k in range(powers):
        wk = (nodes - center) ** k * dz
        for b in range(g):
            for l in range(m):
                out[b, l, k] = gated_sum(theta_tab[b, l], wk, tol)
    return out / TWO_PI_I


def select_basis(
    theta: SpanningTheta,
    n_nodes: int = 256,
    stability_tol: float = 1e-10,
    gap_min: float = 1e6,
    cond_max: float = 1e10,
    J: Sequence[int] | None = None,
) -> BasisSelection:
    """Rank-revealing pivot selection on the moment pairing matrix."""
    p = theta.params
    N = theta.N
    g = p.genus
    m = 2 * N - 1
    n_tot = g * m

    contours = [
        CircleContour(disc_center(p, a), disc_radius(p, a), n_nodes=n_nodes)
        for a in range(1, g + 1)
    ]
    node_sets = [contour_nodes(c, doubled=True) for c in contours]
    # one heavy kernel pass for every circle; the dual basis reuses it
    tab = theta.circle_tables([z for z, _ in node_sets])

    M = np.empty((n_tot, n_tot), dtype=np.complex128)
    M_shift = np.empty_like(M)
    offset = 0
    for ai, (z, dz) in enumerate(node_sets):
        n2 = len(z)
        sl = slice(offset, offset + n2)
        offset += n2
        w_a = contours[ai].center
        moments = _moment_integrals(tab[:, :, sl], z, dz, w_a, m, stability_tol)
        # odd-index subset = n-node trapezoid on a rotated grid: an
        # independent quadrature used for the duality cross-check
        for k in range(m):
            wk = (z - w_a) ** k * dz
            col = ai * m + k
            for b in range(g):
                for l in range(m):
                    row = b * m + l
                    M[row, col] = moments[b, l, k]
                    M_shift[row, col] = complex(
                        np.sum(tab[b, l, sl][1::2] * wk[1::2]) * 2.0
                    ) / complex(TWO_PI_I)

    svals = scipy.linalg.svdvals(M)
    d = (g - 1) * m
    if d == 0:
        raise ValueError("genus-1 surfaces have no weight-N differentials in this family")
    if svals[d - 1] <= 0:
        raise RankGapError(f"rank below {d}: singular values {svals}")
    gap = svals[d - 1] / svals[d] if svals[d] > 0 else np.inf
    if gap < gap_min:
        raise RankGapError(
            f"singular-value gap {gap:.3e} at index {d} below {gap_min:.1e}: "
            f"{[f'{s:.3e}' for s in svals]}"
        )

    if J is None:
        _, _, piv = scipy.linalg.qr(M, pivoting=True)
        J = tuple(sorted(int(i) for i in piv[:d]))
    else:
        J = tuple(sorted(int(i) for i in J))
        if len(J) != d or len(set(J)) != d or not all(0 <= j < n_tot for j in J):
            raise ValueError(
                f"column override must pick {d} distinct indices in [0, {n_tot}), got {J}"
            )
    _, _, piv_rows = scipy.linalg.qr(M[:, J].T, pivoting=True)
    rows = tuple(sorted(int(i) for i in piv_rows[:d]))

    block = M[np.ix_(rows, J)]
    cond = np.linalg.cond(block)
    if not (cond <= cond_max):
        raise ConditioningError(f"pivot block condition number {cond:.3e} > {cond_max:.1e}")
    A = np.linalg.inv(block)
    duality_error = float(
        np.max(np.abs(A @ M_shift[np.ix_(rows, J)] - np.eye(d)))
    )

    return BasisSelection(
        N=N,
        genus=g,
        matrix=M,
        shifted_matrix=M_shift,
        J=J,
        rows=rows,
        singular_values=tuple(float(s) for s in svals),
        duality_error=duality_error,
    )


class DualBasis:
    """Differentials dual to the selected cocycles under the moment pairing."""

    def __init__(self, theta: SpanningTheta, selection: BasisSelection):
        self.theta = theta
        self.selection = selection
        block = selection.matrix[np.ix_(selection.rows, selection.J)]
        self._A = np.linalg.inv(block)

    def values(self, xs) -> np.ndarray:
        """Dual family at the given points, shape (dim, len(xs))."""
        xs = np.asarray(xs, dtype=np.complex128)
        tab = self.theta.table(xs)
        g, m, mx = tab.shape
        flat = tab.reshape(g * m, mx)
        return self._A @ flat[list(self.selection.rows)]


# ---------------------------------------------------------------------------
# canonical correction


def _fit_radius(p: SchottkyParams) -> float:
    R0 = 0.5 * min(abs(disc_center(p, l)) - disc_radius(p, l) for l in p.letters)
    if R0 <= 0:
        raise GeometryError("origin is not safely inside the fundamental domain")
    return R0


def canonical_correction(
    psi,
    selection: BasisSelection,
    n_nodes: int = 256,
    stability_tol: float = 1e-10,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Moment polynomials P_{bl}(y), one row per J entry, shape (dim, 2N-1).

    P_{bl}(y) = (1/2 pi i) * contour moment over C_b of psi(., y) against
    (x - w_b)^l. Each is exactly a polynomial of degree <= 2N-2 in y, fitted
    by inverse DFT on a circle around the origin with two held-out nodes.
    """
    p = psi.params
    N = psi.N
    m = 2 * N - 1
    R0 = _fit_radius(p)
    angles = 2.0 * np.pi * np.arange(m) / m
    val_angles = 2.0 * np.pi * (np.arange(2) + 0.5) / m
    y_fit = R0 * np.exp(1j * angles)
    y_val = R0 * np.exp(1j * val_angles)
    ys = np.concatenate([y_fit, y_val])

    by_handle: dict[int, list[tuple[int, int]]] = {}
    for pos, flat in enumerate(selection.J):
        b, l = selection.label(flat)
        by_handle.setdefault(b, []).append((pos, l))

    out = np.zeros((selection.dim, m), dtype=np.complex128)
    for b, entries in sorted(by_handle.items()):
        c = CircleContour(disc_center(p, b), disc_radius(p, b), n_nodes=n_nodes)
        z, dz = contour_nodes(c, doubled=True)
        vals = psi.value_grid(z, ys)  # (m+2, 2n)
        for pos, l in entries:
            wk = (z - c.center) ** l * dz
            pvals = np.array(
                [gated_sum(vals[t], wk, stability_tol) for t in range(m + 2)]
            ) / TWO_PI_I
            coeffs = np.fft.fft(pvals[:m]) / m / R0 ** np.arange(m)
            fitted = np.polynomial.polynomial.polyval(y_val, coeffs)
            scale = max(1.0, float(np.max(np.abs(pvals))))
            resid = float(np.max(np.abs(fitted - pvals[m:])))
            if not (resid <= residual_tol * scale):
                raise FitResidualError(
                    f"moment polynomial ({b},{l}) residual {resid:.3e} "
                    f"exceeds {residual_tol * scale:.3e}"
                )
            out[pos] = coeffs
    return out


class CanonicalGEM:
    """Two-point kernel with every J-indexed handle moment removed.

    value(x, y) = psi(x, y) - sum_J dual_J(x) P_J(y); shares the calling
    convention of the underlying kernel so jump coefficients, moments, and
    variation formulas apply unchanged.
    """

    def __init__(
        self,
        base: BersEvaluator,
        theta: SpanningTheta,
        selection: BasisSelection,
        dual: DualBasis,
        corrections: np.ndarray,
    ):
        self.base = base
        self.theta = theta
        self.selection = selection
        self.dual = dual
        self.corrections = corrections
        self.params = base.params
        self.N = base.N

    def value(self, x: complex, y: complex) -> complex:
        return complex(self.value_grid(np.array([x]), np.array([y]))[0, 0])

    def value_grid(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.complex128)
        ys = np.asarray(ys, dtype=np.complex128)
        raw = self.base.value_grid(xs, ys)  # (t, mx)
        phi = self.dual.values(xs)  # (d, mx)
        pvals = np.array(
            [np.polynomial.polynomial.polyval(ys, row) for row in self.corrections]
        )  # (d, t)
        return raw - np.einsum("dt,dm->tm", pvals, phi)


def canonical_gem(
    p: SchottkyParams,
    N: int,
    config: SeriesConfig = SeriesConfig(),
    n_nodes: int = 256,
    J: Sequence[int] | None = None,
) -> CanonicalGEM:
    """Full pipeline: kernel, jump family, pivot basis, dual, correction."""
    base = BersEvaluator(p, N, config=config)
    theta = SpanningTheta(base)
    selection = select_basis(theta, n_nodes=n_nodes, J=J)
    dual = DualBasis(theta, selection)
    corrections = canonical_correction(base, selection, n_nodes=n_nodes)
    return CanonicalGEM(base, theta, selection, dual, corrections)


# ---------------------------------------------------------------------------
# structural identities


def moment_identity(psi, X: Cocycle, y: complex, n_nodes: int = 256) -> complex:
    """Summed contour moments of psi(., y) against a cocycle.

    Equals the cocycle evaluated on the word that folds y into the
    fundamental domain (zero when y is already there).
    """
    return complex(moment_identities(psi, [X], [y], n_nodes=n_nodes)[0, 0])


def moment_identities(psi, Xs: Sequence[Cocycle], ys, n_nodes: int = 256) -> np.ndarray:
    """moment_identity for every (X, y) pair from one kernel pass per circle."""
    p = psi.params
    ys = np.asarray(ys, dtype=np.complex128)
    total = [[0j] * len(ys) for _ in Xs]
    for a in range(1, p.genus + 1):
        c = CircleContour(disc_center(p, a), disc_radius(p, a), n_nodes=n_nodes)
        z, dz = contour_nodes(c, doubled=True)
        vals = psi.value_grid(z, ys)  # (t, 2n)
        for i, X in enumerate(Xs):
            poly = X.values[a - 1](z)
            for t in range(len(ys)):
                total[i][t] += gated_sum(vals[t] * poly, dz, 1e-9)
    # scalar complex division: numpy's array division rounds differently
    return np.array([[s / TWO_PI_I for s in row] for row in total])


def expected_moment_identity(psi, X: Cocycle, y: complex) -> complex:
    """Reference value for moment_identity via fundamental-domain reduction.

    The word sending y into the fundamental domain is the inverse of the one
    reduce_to_fundamental reports (which maps the reduced point back to y).
    """
    word, _ = reduce_to_fundamental(psi.params, y)
    return complex(cocycle_eval(X, invert_word(word))(y))


def canonical_moment_residuals(can: CanonicalGEM, ys, n_nodes: int = 256) -> float:
    """Max |J-indexed moment| of the canonical kernel over probe y values."""
    p = can.params
    ys = np.asarray(ys, dtype=np.complex128)
    worst = 0.0
    by_handle: dict[int, list[int]] = {}
    for flat in can.selection.J:
        b, l = can.selection.label(flat)
        by_handle.setdefault(b, []).append(l)
    for b, powers in sorted(by_handle.items()):
        c = CircleContour(disc_center(p, b), disc_radius(p, b), n_nodes=n_nodes)
        z, dz = contour_nodes(c, doubled=True)
        vals = can.value_grid(z, ys)  # (t, 2n)
        for l in powers:
            wk = (z - c.center) ** l * dz
            for t in range(len(ys)):
                mom = gated_sum(vals[t], wk, 1e-9) / TWO_PI_I
                worst = fail_max(worst, abs(mom))
    return worst
