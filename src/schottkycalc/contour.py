"""Trapezoid quadrature on circles and the contour pairing with cocycles.

Periodic trapezoid sums on circles converge geometrically for integrands
analytic near the contour; every consumer gates results by comparing the
n-node rule against the 2n-node rule on the same grid (the n-node sum reuses
the even-index subset, so doubling costs one evaluation set).

The handle-circle moments (1/2 pi i) * integral over C_a of f(z) (z - w_a)^k dz,
on which the basis selection, the canonical correction, the moment identities
and the normalization of the handle differentials rest, are computed here
once: `handle_nodes` lays out the doubled grid on C_a and `handle_moments`
takes the gated moments. `pairing` is a separate route to the same numbers
(isometric circles of the generator maps, cocycle polynomials) and serves as
the independent reference in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .eichler import Cocycle
from .schottky import SchottkyParams, disc_center, disc_radius

__all__ = [
    "CircleContour",
    "QuadratureError",
    "circle_integral",
    "circle_integral_checked",
    "contour_nodes",
    "fail_max",
    "gated_sum",
    "handle_contour",
    "handle_moments",
    "handle_nodes",
    "pairing",
]

TWO_PI_I = 2j * np.pi


class QuadratureError(ArithmeticError):
    """Doubling the node count moved the integral by more than the gate."""


def fail_max(*values: float) -> float:
    """Largest of the values, NaN if any is NaN (builtin max can drop a NaN)."""
    return float(np.max(np.asarray(values, dtype=np.float64)))


@dataclass(frozen=True)
class CircleContour:
    """Counterclockwise circle |z - center| = radius."""

    center: complex
    radius: float
    n_nodes: int = 256

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.n_nodes < 4:
            raise ValueError("need at least 4 nodes")


def contour_nodes(c: CircleContour, doubled: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_j and weights dz_j with sum f(z_j) dz_j the trapezoid rule.

    dz_j = i (z_j - center) * 2 pi / n, the exact differential of the
    parametrization; orientation is counterclockwise.
    """
    n = 2 * c.n_nodes if doubled else c.n_nodes
    theta = 2.0 * np.pi * np.arange(n) / n
    offs = c.radius * np.exp(1j * theta)
    z = c.center + offs
    dz = 1j * offs * (2.0 * np.pi / n)
    return z, dz


def gated_sum(values_2n: np.ndarray, dz_2n: np.ndarray, tol: float) -> complex:
    """Integral from 2n-node values with an n-node consistency gate.

    The even-index subset of the doubled grid is exactly the n-node rule, so
    the gate costs nothing extra. The tolerance is applied relative to
    max(1, |integral|).
    """
    full = complex(np.sum(values_2n * dz_2n))
    half = complex(np.sum(values_2n[::2] * dz_2n[::2]) * 2.0)
    err = abs(full - half)
    if not (err <= tol * max(1.0, abs(full))):
        raise QuadratureError(
            f"node-doubling moved the integral by {err:.3e} "
            f"(gate {tol:.1e}); integrand may have a pole near the contour"
        )
    return full


def circle_integral(f: Callable, c: CircleContour) -> complex:
    """Plain trapezoid integral of f over the circle (f must accept arrays)."""
    z, dz = contour_nodes(c)
    return complex(np.sum(np.asarray(f(z)) * dz))


def circle_integral_checked(f: Callable, c: CircleContour, tol: float = 1e-10) -> complex:
    """Trapezoid integral with the node-doubling stability gate."""
    z, dz = contour_nodes(c, doubled=True)
    return gated_sum(np.asarray(f(z)), dz, tol)


def handle_contour(m, n_nodes: int = 256) -> CircleContour:
    """Isometric circle |cz + d| = 1 of a normalized map as a contour."""
    if abs(m.c) < 1e-300:
        raise ValueError("affine maps have no isometric circle")
    return CircleContour(center=-m.d / m.c, radius=1.0 / abs(m.c), n_nodes=n_nodes)


def handle_nodes(p: SchottkyParams, a: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Doubled trapezoid nodes z, weights dz and the centre w_a of the circle C_a."""
    c = CircleContour(disc_center(p, a), disc_radius(p, a), n_nodes=n_nodes)
    z, dz = contour_nodes(c, doubled=True)
    return z, dz, c.center


def handle_moments(
    vals: np.ndarray,
    z: np.ndarray,
    dz: np.ndarray,
    center: complex,
    powers: Sequence[int],
    tol: float,
) -> np.ndarray:
    """(1/2 pi i) * gated moment of each row of vals against (z - center)^k.

    vals has shape (rows, 2n) on the doubled nodes z with weights dz; the
    result has shape (rows, len(powers)). Each moment passes the
    node-doubling gate of `gated_sum`.
    """
    out = np.empty((len(vals), len(powers)), dtype=np.complex128)
    for j, k in enumerate(powers):
        wk = (z - center) ** k * dz
        for r, row in enumerate(vals):
            out[r, j] = gated_sum(row, wk, tol)
    return out / TWO_PI_I


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
        c = handle_contour(X.maps[a - 1], n_nodes=n_nodes)
        c = _avoid_points(c, avoid)
        poly = X.values[a - 1]
        z, dz = contour_nodes(c, doubled=True)
        total += gated_sum(np.asarray(T(z)) * poly(z), dz, tol)
    return total / TWO_PI_I


def _avoid_points(c: CircleContour, avoid: Sequence[complex]) -> CircleContour:
    if not avoid:
        return c
    for scale in (1.0, 1.02, 0.98, 1.04, 0.96):
        r = c.radius * scale
        if all(abs(abs(p - c.center) - r) > 1e-3 for p in avoid):
            return CircleContour(c.center, r, c.n_nodes)
    raise QuadratureError("could not move the contour away from the supplied poles")
