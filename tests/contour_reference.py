"""Independent reference for the handle-circle moments.

`pairing` is a separate route to the numbers `contour.handle_moments` gives
the library: the isometric circles of the generator maps in place of the
discs' own circles, the cocycle's polynomials in place of the powers of
(z - w_a), and a scalar node-doubling gate, one row at a time, in place of
the vectorised one.
"""
from typing import Callable, Sequence

import numpy as np

from schottkycalc.contour import QuadratureError, contour_nodes
from schottkycalc.eichler import Cocycle

TWO_PI_I = 2j * np.pi


def gated_sum(values_2n: np.ndarray, dz_2n: np.ndarray, tol: float) -> complex:
    """Integral from 2n-node values, gated against the n-node rule on the
    even nodes relative to max(1, |integral|)."""
    full = complex(np.sum(values_2n * dz_2n))
    half = complex(np.sum(values_2n[::2] * dz_2n[::2]) * 2.0)
    err = abs(full - half)
    if not (err <= tol * max(1.0, abs(full))):
        raise QuadratureError(f"node-doubling moved the integral by {err:.3e}")
    return full


def isometric_circle(m) -> tuple[complex, float]:
    """Centre and radius of the isometric circle |cz + d| = 1 of a normalized map."""
    if abs(m.c) < 1e-300:
        raise ValueError("affine maps have no isometric circle")
    return -m.d / m.c, 1.0 / abs(m.c)


def pairing(
    T: Callable,
    X: Cocycle,
    n_nodes: int = 256,
    tol: float = 1e-10,
    avoid: Sequence[complex] = (),
) -> complex:
    """(1/2 pi i) sum_a integral over C_a of T(z) X[g_a](z) dz.

    T must be vectorized over numpy arrays. C_a is the isometric circle of
    the a-th generator. If any point of `avoid` (known poles of T) sits
    within 1e-3 of a contour, the contour radius is nudged by a few percent.
    """
    total = 0j
    for a in range(1, X.genus + 1):
        center, radius = isometric_circle(X.maps[a - 1])
        z, dz = contour_nodes(center, _avoid_points(center, radius, avoid), n_nodes)
        total += gated_sum(np.asarray(T(z)) * X.values[a - 1](z), dz, tol)
    return total / TWO_PI_I


def _avoid_points(center: complex, radius: float, avoid: Sequence[complex]) -> float:
    for scale in (1.0, 1.02, 0.98, 1.04, 0.96):
        r = radius * scale
        if all(abs(abs(p - center) - r) > 1e-3 for p in avoid):
            return r
    raise QuadratureError("could not move the contour away from the supplied poles")
