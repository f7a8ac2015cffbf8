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

The handle-circle moments come from `contour.handle_moments` on the doubled
grid of `contour.handle_nodes`; the odd-index half of the same grid gives
the shifted matrix that cross-checks the duality; `_j_moments` takes the
J-indexed ones, which the correction fits and the moment check reads. Both
polynomial fits, the jumps in y (`SpanningTheta.table`) and the moment
polynomials (`canonical_correction`), go through one `_fit_polynomial` on
`_fit_nodes`: an exact inverse DFT on 2N-1 nodes of a circle, gated by two
held-out nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import TWO_PI_I, fail_max, handle_moments, handle_nodes
from .eichler import Cocycle, cocycle_eval
from .moebius import apply as mob_apply, deriv as mob_deriv
from .poincare import BersEvaluator, SeriesConfig
from .schottky import (
    SchottkyParams,
    clearance,
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
    "RankGapError",
    "SpanningTheta",
    "canonical_correction",
    "canonical_gem",
    "canonical_moment_residuals",
    "expected_moment_identity",
    "moment_identities",
    "moment_identity",
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


# node-doubling gate of the moments behind the basis and the correction
_STABILITY_TOL = 1e-10
# held-out-node gate of every polynomial fit
_FIT_TOL = 1e-8
# least singular-value gap at the expected rank of the moment matrix
_GAP_MIN = 1e6
# largest condition number of the selected pivot block
_COND_MAX = 1e10
# node-doubling gate of the moments that check the canonical kernel
_CHECK_TOL = 1e-9


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


def _fit_nodes(center: complex, R: float, N: int) -> np.ndarray:
    """2N-1 equispaced fit nodes on |z - center| = R, then two held-out
    nodes at the half-step rotations."""
    m = 2 * N - 1
    angles = np.concatenate(
        [2.0 * np.pi * np.arange(m) / m, 2.0 * np.pi * (np.arange(2) + 0.5) / m]
    )
    return center + R * np.exp(1j * angles)


def _fit_polynomial(
    values: np.ndarray, nodes: np.ndarray, center: complex, R: float, what: str
) -> tuple[np.ndarray, float]:
    """Polynomial in (z - center) through each column of values on _fit_nodes.

    The first 2N-1 rows give the coefficients, shape (2N-1, columns), by an
    exact inverse DFT; the two held-out rows must match the fit to _FIT_TOL
    relative to max(1, |column|). Returns the coefficients and that residual.
    """
    m = len(nodes) - 2
    coeffs = np.fft.fft(values[:m], axis=0) / m
    coeffs /= R ** np.arange(m)[:, None]
    offs = (nodes[m:] - center)[:, None] ** np.arange(m)[None, :]  # (2, m)
    fitted = offs @ coeffs
    scale = np.maximum(1.0, np.max(np.abs(values), axis=0))
    resid = float(np.max(np.abs(fitted - values[m:]) / scale))
    if not (resid <= _FIT_TOL):
        raise FitResidualError(
            f"{what} fit residual {resid:.3e} exceeds {_FIT_TOL:.1e}; "
            "the function is not polynomial to tolerance"
        )
    return coeffs, resid


def _probe_targets(p: SchottkyParams, a: int, N: int):
    """Fit and held-out probe nodes around w_a and their generator images."""
    w = disc_center(p, a)
    R = _probe_radius(p, a)
    all_nodes = _fit_nodes(w, R, N)
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
    coefficients come from `_fit_polynomial` on its probe circle.
    """

    def __init__(self, psi):
        self.psi = psi
        self.params: SchottkyParams = psi.params
        self.N: int = psi.N
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
            out[ai], resid = _fit_polynomial(delta, nodes, w, R, f"handle-{ai + 1} jump")
            worst = fail_max(worst, resid)
        self.last_residual = worst
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


# ---------------------------------------------------------------------------
# basis selection


@dataclass(frozen=True)
class BasisSelection:
    """Pivot data of the moment pairing between jumps and standard cocycles.

    matrix[r, c]: moment of coefficient function r against cocycle c, with
    flat index i <-> (handle 1 + i // (2N-1), power i % (2N-1)). J are the
    selected cocycle columns, rows the selected coefficient functions, and
    inverse the inverse of their pivot block matrix[rows, J].
    """

    N: int
    genus: int
    matrix: np.ndarray
    shifted_matrix: np.ndarray
    J: tuple[int, ...]
    rows: tuple[int, ...]
    singular_values: tuple[float, ...]
    inverse: np.ndarray
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


def _flat_index(a: int, k: int, N: int) -> int:
    """Flat index of cocycle (handle a, power k), the inverse of BasisSelection.label."""
    return (a - 1) * (2 * N - 1) + k


def _checked_J(J: Sequence[int], genus: int, N: int) -> tuple[int, ...]:
    """J sorted, if it is d = (g-1)(2N-1) distinct flat indices in [0, g(2N-1))."""
    d, n_tot = (genus - 1) * (2 * N - 1), genus * (2 * N - 1)
    J = tuple(sorted(int(j) for j in J))
    if len(J) != d or len(set(J)) != d or not all(0 <= j < n_tot for j in J):
        raise ValueError(f"J must pick {d} distinct flat indices in [0, {n_tot}), got {J}")
    return J


def _pivots(A: np.ndarray, d: int) -> list[int]:
    """First d column pivots of A by Householder QR with Businger-Golub
    column pivoting: each step takes the remaining column of largest norm,
    the first index on a tie as LAPACK's geqp3 does. The norms are
    recomputed at each step rather than downdated."""
    R = np.array(A, dtype=np.complex128)
    perm = list(range(R.shape[1]))
    for k in range(d):
        j = k + int(np.argmax(np.linalg.norm(R[k:, k:], axis=0)))
        R[:, [k, j]] = R[:, [j, k]]
        perm[k], perm[j] = perm[j], perm[k]
        v = R[k:, k].copy()
        v[0] += np.exp(1j * np.angle(v[0])) * np.linalg.norm(v)
        v /= np.linalg.norm(v) or 1.0  # a zero column needs no reflection
        R[k:, k:] -= 2.0 * np.outer(v, v.conj() @ R[k:, k:])
    return perm[:d]


def select_basis(
    theta: SpanningTheta,
    n_nodes: int = 256,
    J: Sequence[int] | None = None,
) -> BasisSelection:
    """Rank-revealing pivot selection on the moment pairing matrix."""
    p = theta.params
    N = theta.N
    g = p.genus
    m = 2 * N - 1
    n_tot = g * m

    node_sets = [handle_nodes(p, a, n_nodes) for a in range(1, g + 1)]
    # one heavy kernel pass for every circle; the dual basis reuses it
    tab = theta.circle_tables([z for z, _, _ in node_sets])

    M = np.empty((n_tot, n_tot), dtype=np.complex128)
    M_shift = np.empty_like(M)
    offset = 0
    for ai, (z, dz, w_a) in enumerate(node_sets):
        rows = tab[:, :, offset : offset + len(z)].reshape(n_tot, len(z))  # row b*m + l
        offset += len(z)
        cols = slice(ai * m, (ai + 1) * m)
        M[:, cols] = handle_moments(rows, z, dz, w_a, range(m), _STABILITY_TOL)
        # odd-index subset = n-node trapezoid on a rotated grid: an
        # independent quadrature used for the duality cross-check; each
        # entry is divided by 2 pi i as a Python complex, as numpy's array
        # division rounds some entries differently in the last bit
        for k in range(m):
            odd = np.sum(rows[:, 1::2] * ((z - w_a) ** k * dz)[1::2], axis=1) * 2.0
            M_shift[:, ai * m + k] = [complex(s) / TWO_PI_I for s in odd]

    svals = np.linalg.svd(M, compute_uv=False)
    d = (g - 1) * m
    if d == 0:
        raise ValueError("genus-1 surfaces have no weight-N differentials in this family")
    if svals[d - 1] <= 0:
        raise RankGapError(f"rank below {d}: singular values {svals}")
    gap = svals[d - 1] / svals[d] if svals[d] > 0 else np.inf
    if gap < _GAP_MIN:
        raise RankGapError(
            f"singular-value gap {gap:.3e} at index {d} below {_GAP_MIN:.1e}: "
            f"{[f'{s:.3e}' for s in svals]}"
        )

    J = tuple(sorted(_pivots(M, d))) if J is None else _checked_J(J, g, N)
    rows = tuple(sorted(_pivots(M[:, J].T, d)))

    block = M[np.ix_(rows, J)]
    cond = np.linalg.cond(block)
    if not (cond <= _COND_MAX):
        raise ConditioningError(f"pivot block condition number {cond:.3e} > {_COND_MAX:.1e}")
    inverse = np.linalg.inv(block)
    duality_error = float(np.max(np.abs(inverse @ M_shift[np.ix_(rows, J)] - np.eye(d))))

    return BasisSelection(
        N=N,
        genus=g,
        matrix=M,
        shifted_matrix=M_shift,
        J=J,
        rows=rows,
        singular_values=tuple(float(s) for s in svals),
        inverse=inverse,
        duality_error=duality_error,
    )


class DualBasis:
    """Differentials dual to the selected cocycles under the moment pairing."""

    def __init__(self, theta: SpanningTheta, selection: BasisSelection):
        self.theta = theta
        self.selection = selection

    def values(self, xs) -> np.ndarray:
        """Dual family at the given points, shape (dim, len(xs))."""
        xs = np.asarray(xs, dtype=np.complex128)
        tab = self.theta.table(xs)
        g, m, mx = tab.shape
        flat = tab.reshape(g * m, mx)
        return self.selection.inverse @ flat[list(self.selection.rows)]


# ---------------------------------------------------------------------------
# canonical correction


def _fit_radius(p: SchottkyParams) -> float:
    R0 = 0.5 * clearance(p, 0j)
    if R0 <= 0:
        raise GeometryError("origin is not safely inside the fundamental domain")
    return R0


def _j_moments(psi, selection: BasisSelection, ys, n_nodes: int, tol: float) -> np.ndarray:
    """Row i: (1/2 pi i) * moment over C_b of psi(., y) against (x - w_b)^l at
    each y, (b, l) the label of J[i]; one value_grid pass per handle J names,
    every moment gated by node doubling at tol. Shape (dim, len(ys))."""
    labels = [selection.label(flat) for flat in selection.J]
    out = np.empty((len(labels), len(ys)), dtype=np.complex128)
    for b in sorted({b for b, _ in labels}):
        rows, powers = zip(*[(i, l) for i, (a, l) in enumerate(labels) if a == b])
        z, dz, w_b = handle_nodes(psi.params, b, n_nodes)
        out[list(rows)] = handle_moments(psi.value_grid(z, ys), z, dz, w_b, powers, tol).T
    return out


def canonical_correction(psi, selection: BasisSelection, n_nodes: int = 256) -> np.ndarray:
    """Moment polynomials P_J(y), one row per J entry, shape (dim, 2N-1): the
    J-moments of psi(., y) (`_j_moments`), of degree <= 2N-2 in y, fitted by
    `_fit_polynomial` on a circle around the origin, all J columns at once."""
    R0 = _fit_radius(psi.params)
    ys = _fit_nodes(0j, R0, psi.N)
    moments = _j_moments(psi, selection, ys, n_nodes, _STABILITY_TOL)
    coeffs, _ = _fit_polynomial(moments.T, ys, 0j, R0, "J-moment polynomial")
    return coeffs.T


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
    total = np.zeros((len(Xs), len(ys)), dtype=np.complex128)
    for a in range(1, p.genus + 1):
        z, dz, w_a = handle_nodes(p, a, n_nodes)
        vals = psi.value_grid(z, ys)  # (t, 2n)
        for i, X in enumerate(Xs):
            total[i] += handle_moments(vals * X.values[a - 1](z), z, dz, w_a, [0], _CHECK_TOL)[:, 0]
    return total


def expected_moment_identity(psi, X: Cocycle, y: complex) -> complex:
    """Reference value for moment_identity via fundamental-domain reduction.

    The word sending y into the fundamental domain is the inverse of the one
    reduce_to_fundamental reports (which maps the reduced point back to y).
    """
    word, _ = reduce_to_fundamental(psi.params, y)
    return complex(cocycle_eval(X, invert_word(word))(y))


def canonical_moment_residuals(can: CanonicalGEM, ys, n_nodes: int = 256) -> float:
    """Max |J-indexed moment| of the canonical kernel over probe y values."""
    return float(np.max(np.abs(_j_moments(can, can.selection, ys, n_nodes, _CHECK_TOL))))
