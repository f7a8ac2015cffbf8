"""Trapezoid quadrature on circles: one doubled node grid and one gated moment.

Periodic trapezoid sums on circles converge geometrically for integrands
analytic near the contour. Every circle integral is a gated moment: the
n-node rule against the 2n-node rule on the same grid (the n-node sum reuses
the even-index subset, so doubling costs one evaluation set).

The handle-circle moments (1/2 pi i) * integral over C_a of f(z) (z - w_a)^k dz,
on which the basis selection, the canonical correction, the moment identities
and the normalization of the handle differentials rest, are computed here
once: `handle_nodes` lays out the doubled grid on C_a and `handle_moments`
takes the gated moments. The residue checks take the same moments on a
`contour_nodes` circle around the pole.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .schottky import SchottkyParams, disc_center, disc_radius

__all__ = [
    "QuadratureError",
    "contour_nodes",
    "fail_max",
    "handle_moments",
    "handle_nodes",
]

TWO_PI_I = 2j * np.pi


class QuadratureError(ArithmeticError):
    """Doubling the node count moved the integral by more than the gate."""


def fail_max(*values: float) -> float:
    """Largest of the values, NaN if any is NaN (builtin max can drop a NaN)."""
    return float(np.max(np.asarray(values, dtype=np.float64)))


def contour_nodes(center: complex, radius: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Doubled trapezoid grid on the counterclockwise circle |z - center| = radius.

    Returns 2 n_nodes nodes z_j and weights dz_j = i (z_j - center) * 2 pi / (2 n_nodes),
    the exact differential of the parametrization, so sum f(z_j) dz_j is the
    2n-node rule and its even-index subset, doubled, the n-node rule.
    """
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    if n_nodes < 4:
        raise ValueError("need at least 4 nodes")
    n = 2 * n_nodes
    theta = 2.0 * np.pi * np.arange(n) / n
    offs = radius * np.exp(1j * theta)
    return center + offs, 1j * offs * (2.0 * np.pi / n)


def handle_nodes(p: SchottkyParams, a: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray, complex]:
    """Doubled trapezoid nodes z, weights dz and the centre w_a of the circle C_a."""
    w_a = disc_center(p, a)
    return (*contour_nodes(w_a, disc_radius(p, a), n_nodes), w_a)


def handle_moments(
    vals: np.ndarray,
    z: np.ndarray,
    dz: np.ndarray,
    center: complex,
    powers: Sequence[int],
    tol: float,
) -> np.ndarray:
    """(1/2 pi i) * gated moment of each row of vals against (z - center)^k.

    vals has shape (rows, 2n) on the doubled nodes z with weights dz
    (`contour_nodes`); the result has shape (rows, len(powers)). Each moment
    must move by at most tol * max(1, |moment|) when the even-index n-node
    rule replaces the 2n-node one, else QuadratureError names the first
    failing entry; a NaN fails.
    """
    vals = np.asarray(vals)
    out = np.empty((len(vals), len(powers)), dtype=np.complex128)
    for j, k in enumerate(powers):
        terms = vals * ((z - center) ** k * dz)
        full = np.sum(terms, axis=1)
        err = np.abs(full - np.sum(terms[:, ::2], axis=1) * 2.0)
        bad = np.flatnonzero(~(err <= tol * np.maximum(1.0, np.abs(full))))
        if len(bad):
            raise QuadratureError(
                f"node-doubling moved the integral by {err[bad[0]]:.3e} "
                f"(gate {tol:.1e}); integrand may have a pole near the contour"
            )
        out[:, j] = full
    return out / TWO_PI_I
