"""Polynomial cocycles under the weight-(1-N) group action.

A PolyForm is a polynomial of degree <= 2N-2 read as the coefficient of a
(1-N)-form; the group acts by (P|m)(z) = P(mz) m'(z)^{1-N}, which maps this
space to itself exactly and linearly: each map has one cached (2N-1)-square
matrix, and a pullback is one mat-vec. Cocycles assign a PolyForm to every
group word so that X[uv] = X[u]|v + X[v]; they are determined by their
generator values, and a word's value is one mat-vec and add per letter.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import moebius
from .moebius import MoebiusMap
from .schottky import SchottkyParams, generator

__all__ = [
    "Cocycle",
    "PolyForm",
    "canonical_cocycle",
    "coboundary",
    "cocycle_eval",
    "decompose_coboundary",
    "poly_pullback",
]


@dataclass(frozen=True)
class PolyForm:
    """Monomial coefficients (low to high, length 2N-1) of a (1-N)-form polynomial."""

    N: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("weight parameter N must be >= 2")
        if len(self.coeffs) != 2 * self.N - 1:
            raise ValueError(
                f"need {2 * self.N - 1} coefficients for N = {self.N}, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, np.asarray(self.coeffs))

    def __add__(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        return PolyForm(self.N, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        self._check_compatible(other)
        return PolyForm(self.N, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.N, tuple(-x for x in self.coeffs))

    def __mul__(self, s: complex) -> "PolyForm":
        return PolyForm(self.N, tuple(x * s for x in self.coeffs))

    __rmul__ = __mul__

    def _check_compatible(self, other: "PolyForm"):
        if self.N != other.N:
            raise ValueError(f"mixed weights: N = {self.N} vs {other.N}")

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))  # a NaN coefficient gives NaN

    @staticmethod
    def zero(N: int) -> "PolyForm":
        return PolyForm(N, (0j,) * (2 * N - 1))

    def shifted_coeffs(self, w: complex) -> tuple[complex, ...]:
        """Coefficients s_k with P(z) = sum_k s_k (z - w)^k: the pullback by
        the translation z -> z + w."""
        return poly_pullback(self, MoebiusMap(1.0, w, 0.0, 1.0)).coeffs

    @staticmethod
    def from_shifted(N: int, w: complex, shifted: Sequence[complex]) -> "PolyForm":
        """Inverse of shifted_coeffs: PolyForm(N, shifted) pulled back by
        z -> z - w."""
        return poly_pullback(PolyForm(N, tuple(shifted)), MoebiusMap(1.0, -w, 0.0, 1.0))


def _binom_coeffs(u: complex, v: complex, n: int) -> np.ndarray:
    """Monomial coefficients of (u z + v)^n, low to high."""
    return np.array([math.comb(n, j) * u**j * v ** (n - j) for j in range(n + 1)], dtype=complex)


@functools.lru_cache(maxsize=256)
def _action(m: MoebiusMap, N: int) -> np.ndarray:
    """Read-only (2N-1)-square matrix of P -> P|m on monomial coefficients,
    built once per (map, N): column k holds (az+b)^k (cz+d)^{2N-2-k}."""
    n = 2 * N - 2
    S = np.column_stack([np.convolve(_binom_coeffs(m.a, m.b, k), _binom_coeffs(m.c, m.d, n - k))
                         for k in range(n + 1)])
    S.flags.writeable = False
    return S


def poly_pullback(P: PolyForm, m: MoebiusMap) -> PolyForm:
    """Exact polynomial representing (P|m)(z) = P(mz) m'(z)^{1-N}: with
    determinant one, m'(z)^{1-N} = (cz+d)^{2N-2}, so the action is linear, one
    mat-vec with m's cached matrix (_action), free of interpolation error."""
    return PolyForm(P.N, tuple(_action(m, P.N) @ np.array(P.coeffs)))


@dataclass(frozen=True)
class Cocycle:
    """Group cocycle valued in PolyForms, stored by its generator values.

    values[a-1] is the cocycle on the positive letter a. By X[uv] = X[u]|v + X[v]
    each letter l is a step X[ul] = S_l X[u] + v_l, S_l the matrix of m_l and
    v_{-a} = -S_{-a} v_a as X[g^-1] = -X[g]|g^-1.
    """

    N: int
    values: tuple[PolyForm, ...]
    maps: tuple[MoebiusMap, ...]

    def __post_init__(self):
        if len(self.values) != len(self.maps):
            raise ValueError("one PolyForm per generator required")
        if any(v.N != self.N for v in self.values):
            raise ValueError("mixed weights in cocycle values")

    @property
    def genus(self) -> int:
        return len(self.values)

    @functools.cached_property
    def _steps(self) -> dict[int, tuple[MoebiusMap, np.ndarray, np.ndarray]]:
        steps = {}
        for a, (v, m) in enumerate(zip(self.values, self.maps), 1):
            x, inv = np.array(v.coeffs), moebius.inverse(m)
            S_inv = _action(inv, self.N)
            steps[a], steps[-a] = (m, _action(m, self.N), x), (inv, S_inv, -(S_inv @ x))
        return steps

    def _step(self, letter: int) -> tuple[MoebiusMap, np.ndarray, np.ndarray]:
        if letter not in self._steps:
            raise ValueError(f"letter {letter} out of range: need 1 <= |letter| <= {self.genus}")
        return self._steps[letter]

    def on_letter(self, letter: int) -> PolyForm:
        return PolyForm(self.N, tuple(self._step(letter)[2]))

    def letter_map(self, letter: int) -> MoebiusMap:
        return self._step(letter)[0]


def cocycle_eval(X: Cocycle, word: Sequence[int]) -> PolyForm:
    """Value of the cocycle on an arbitrary word: one mat-vec per letter."""
    cur = np.zeros(2 * X.N - 1, dtype=np.complex128)
    for _, S, v in map(X._step, word):
        cur = S @ cur + v
    return PolyForm(X.N, tuple(cur))


def canonical_cocycle(p: SchottkyParams, N: int, a: int, k: int) -> Cocycle:
    """The cocycle supported on generator a with value (z - w_a)^k.

    These g*(2N-1) cocycles (a = 1..g, k = 0..2N-2) form the standard basis
    of the cocycle space.
    """
    if not 1 <= a <= p.genus:
        raise ValueError(f"handle index {a} out of range")
    if not 0 <= k <= 2 * N - 2:
        raise ValueError(f"power {k} out of range for N = {N}")
    shifted = np.eye(2 * N - 1, dtype=complex)[k]
    mono = PolyForm.from_shifted(N, p.handles[a - 1].w_plus, shifted)
    values = [PolyForm.zero(N) if b != a else mono for b in range(1, p.genus + 1)]
    maps = tuple(generator(p, b) for b in range(1, p.genus + 1))
    return Cocycle(N, tuple(values), maps)


def coboundary(p: SchottkyParams, P: PolyForm) -> Cocycle:
    """The cocycle X_P[g] = P|g - P attached to a single polynomial."""
    maps = tuple(generator(p, b) for b in range(1, p.genus + 1))
    values = tuple(poly_pullback(P, m) - P for m in maps)
    return Cocycle(P.N, values, maps)


def decompose_coboundary(p: SchottkyParams, P: PolyForm) -> np.ndarray:
    """Coefficients p[a-1, k] of X_P in the canonical cocycle basis.

    Row a-1 holds the expansion of P|g_a - P around w_a, so that
    X_P = sum_{a,k} p[a-1, k] * canonical_cocycle(p, N, a, k).
    """
    X = coboundary(p, P)
    return np.array([v.shifted_coeffs(h.w_plus) for v, h in zip(X.values, p.handles)])
