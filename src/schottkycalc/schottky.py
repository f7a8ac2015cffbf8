"""Schottky surface data and free-group machinery.

A genus-g surface is given by g "handles" (w_plus, w_minus, rho): each handle
contributes the loxodromic generator z -> w_minus + rho/(z - w_plus) whose
isometric circle C_a is |z - w_plus| = sqrt|rho| and whose inverse has circle
C_{-a} around w_minus. Generator letters are the nonzero integers
+-1..+-g; a negative letter is the inverse of the corresponding positive one.

The common exterior of all 2g discs is the fundamental domain; `validate`
reports every violated disc-separation constraint, `build_shells` enumerates
reduced words in length-lex order as vectorized matrix shells, and
`reduce_to_fundamental` moves an arbitrary point into the fundamental domain
while recording the group element that undoes the moves.

Moduli tangents are exact: `generator_tangent` differentiates each
normalized generator matrix along the DIRECTIONS_PER_HANDLE directions of
every handle. Rauch's formula (variation.exact_period_gradient) builds the
period matrix's gradient from the generator tangents alone.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import moebius
from .moebius import Infinity, MoebiusMap, fixed_points

__all__ = [
    "BoundaryAmbiguityError",
    "CapacityError",
    "ClassicalHandle",
    "DIRECTIONS_PER_HANDLE",
    "HandleParams",
    "InvalidSurfaceError",
    "ReductionError",
    "SchottkyParams",
    "WordShells",
    "build_shells",
    "clearance",
    "disc_center",
    "disc_gaps",
    "disc_radius",
    "expected_word_count",
    "from_classical",
    "generator",
    "generator_tangent",
    "in_domain",
    "invert_word",
    "letter_order",
    "reduce_to_fundamental",
    "require_valid",
    "surface_from_dict",
    "surface_to_dict",
    "to_classical",
    "transport",
    "validate",
    "word_map",
]


class InvalidSurfaceError(ValueError):
    """Disc-separation constraints are violated."""


class CapacityError(RuntimeError):
    """Requested enumeration exceeds the word-count cap."""


class ReductionError(RuntimeError):
    """Point did not reach the fundamental domain within the iteration bound."""


class BoundaryAmbiguityError(ValueError):
    """Point is too close to a disc boundary for a stable containment test."""


@dataclass(frozen=True)
class HandleParams:
    """One handle: attracting-side data (w_plus, w_minus, rho).

    Both isometric circles share radius sqrt|rho|; the handle is usable only
    if its data are finite and its own two circles are disjoint, which is
    enforced at construction.
    """

    w_plus: complex
    w_minus: complex
    rho: complex

    def __post_init__(self):
        for name in ("w_plus", "w_minus", "rho"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.rho == 0:
            raise ValueError("rho must be nonzero")
        r = math.sqrt(abs(self.rho))
        if abs(self.w_plus - self.w_minus) <= 2.0 * r:
            raise InvalidSurfaceError(
                f"handle circles overlap: |w_plus - w_minus| = "
                f"{abs(self.w_plus - self.w_minus):.6g} <= 2*sqrt|rho| = {2 * r:.6g}"
            )

    @property
    def radius(self) -> float:
        return math.sqrt(abs(self.rho))

    def map(self) -> MoebiusMap:
        return moebius.handle_map(self.w_plus, self.w_minus, self.rho)


@dataclass(frozen=True)
class ClassicalHandle:
    """Fixed-point form of a handle: repelling W_plus, attracting W_minus, multiplier q."""

    W_plus: complex
    W_minus: complex
    q: complex

    def __post_init__(self):
        if not 0.0 < abs(self.q) < 1.0:
            raise ValueError(f"multiplier must satisfy 0 < |q| < 1, got {self.q!r}")
        if self.W_plus == self.W_minus:
            raise ValueError("fixed points must be distinct")


@dataclass(frozen=True)
class SchottkyParams:
    handles: tuple[HandleParams, ...]

    def __init__(self, handles: Iterable[HandleParams]):
        object.__setattr__(self, "handles", tuple(handles))
        if not self.handles:
            raise ValueError("need at least one handle")

    @property
    def genus(self) -> int:
        return len(self.handles)

    @property
    def letters(self) -> tuple[int, ...]:
        return letter_order(self.genus)


def letter_order(g: int) -> tuple[int, ...]:
    """Canonical letter ordering 1 < -1 < 2 < -2 < ... used everywhere."""
    out = []
    for a in range(1, g + 1):
        out.extend((a, -a))
    return tuple(out)


def disc_center(p: SchottkyParams, letter: int) -> complex:
    h = p.handles[abs(letter) - 1]
    return h.w_plus if letter > 0 else h.w_minus


def disc_radius(p: SchottkyParams, letter: int) -> float:
    return p.handles[abs(letter) - 1].radius


def generator(p: SchottkyParams, letter: int) -> MoebiusMap:
    """Group generator for a letter; negative letters give the inverse map."""
    m = p.handles[abs(letter) - 1].map()
    return m if letter > 0 else moebius.inverse(m)


def disc_gaps(p: SchottkyParams) -> list[tuple[tuple[int, int], float]]:
    """((u, v), |center_u - center_v| - r_u - r_v) for every pair of discs."""
    letters = p.letters
    centers = [disc_center(p, l) for l in letters]
    radii = [disc_radius(p, l) for l in letters]
    return [
        ((u, v), abs(centers[i] - centers[j]) - radii[i] - radii[j])
        for i, u in enumerate(letters)
        for j, v in enumerate(letters[i + 1 :], i + 1)
    ]


def validate(p: SchottkyParams) -> list[dict]:
    """Report every violated pairwise disc-separation constraint.

    Returns a list of violation records {"letters": (u, v), "gap": float}
    where gap, the pair's disc_gaps entry, is not positive (a NaN gap is a
    violation). Empty iff the surface is usable.
    """
    return [{"letters": uv, "gap": gap} for uv, gap in disc_gaps(p) if not (gap > 0.0)]


def require_valid(p: SchottkyParams) -> None:
    bad = validate(p)
    if bad:
        raise InvalidSurfaceError(f"surface has {len(bad)} disc overlap(s): {bad}")


def clearance(p: SchottkyParams, z: complex) -> float:
    """Distance from z to the nearest disc, negative inside one."""
    return min(abs(z - disc_center(p, l)) - disc_radius(p, l) for l in p.letters)


def in_domain(p: SchottkyParams, z: complex) -> bool:
    """True when z is finite and lies strictly outside every disc."""
    return cmath.isfinite(z) and clearance(p, z) > 0


# ---------------------------------------------------------------------------
# words


def invert_word(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def word_map(p: SchottkyParams, word: Sequence[int]) -> MoebiusMap:
    m = moebius.identity()
    for letter in word:
        m = moebius.compose(m, generator(p, letter))
    return m


@dataclass
class WordShells:
    """Per-length arrays of reduced-word matrices, in length-lex order.

    shells[L] holds the length-L words: matrix entry arrays a, b, c, d,
    the trailing letter of each word, and the index of the length-(L-1)
    parent (for word reconstruction).
    """

    genus: int
    a: list[np.ndarray]
    b: list[np.ndarray]
    c: list[np.ndarray]
    d: list[np.ndarray]
    last_letter: list[np.ndarray]
    parent: list[np.ndarray]

    @property
    def max_len(self) -> int:
        return len(self.a) - 1

    def shell_size(self, length: int) -> int:
        """The number of reduced words of the given length, built or not."""
        return 1 if length == 0 else 2 * self.genus * (2 * self.genus - 1) ** (length - 1)

    def total_words(self) -> int:
        return sum(len(x) for x in self.a)

    def word(self, length: int, idx: int) -> tuple[int, ...]:
        letters: list[int] = []
        for back in range(length, 0, -1):
            letters.append(int(self.last_letter[back][idx]))
            idx = int(self.parent[back][idx])
        return tuple(reversed(letters))


def expected_word_count(g: int, max_len: int) -> int:
    total = 1
    shell = 2 * g
    for _ in range(1, max_len + 1):
        total += shell
        shell *= 2 * g - 1
    return total


def build_shells(p: SchottkyParams, max_len: int, cap: int = 2_000_000) -> WordShells:
    """Enumerate all reduced words of length <= max_len as matrix arrays.

    Words are extended on the right (suffix extension), so each shell is the
    previous one times a generator; within a shell the order is
    (parent order, letter order), which keeps the global length-lex order.
    """
    require_valid(p)
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    n_expected = expected_word_count(p.genus, max_len)
    if n_expected > cap:
        raise CapacityError(
            f"enumeration would produce {n_expected} words (cap {cap}); "
            f"lower max_len or raise the cap"
        )

    letters = p.letters
    gen_entries = {}
    for letter in letters:
        m = generator(p, letter)
        gen_entries[letter] = (m.a, m.b, m.c, m.d)

    one = np.ones(1, dtype=np.complex128)
    zero = np.zeros(1, dtype=np.complex128)
    shells = WordShells(
        genus=p.genus,
        a=[one.copy()],
        b=[zero.copy()],
        c=[zero.copy()],
        d=[one.copy()],
        last_letter=[np.zeros(1, dtype=np.int64)],
        parent=[np.zeros(1, dtype=np.int64)],
    )

    letter_row = np.array(letters, dtype=np.int64)
    for _ in range(max_len):
        pa, pb = shells.a[-1], shells.b[-1]
        pc, pd = shells.c[-1], shells.d[-1]
        plast = shells.last_letter[-1]
        n = len(pa)
        k = len(letters)
        ca = np.empty((n, k), dtype=np.complex128)
        cb = np.empty((n, k), dtype=np.complex128)
        cc = np.empty((n, k), dtype=np.complex128)
        cd = np.empty((n, k), dtype=np.complex128)
        for j, letter in enumerate(letters):
            ga, gb, gc, gd = gen_entries[letter]
            ca[:, j] = pa * ga + pb * gc
            cb[:, j] = pa * gb + pb * gd
            cc[:, j] = pc * ga + pd * gc
            cd[:, j] = pc * gb + pd * gd
        mask = plast[:, None] != -letter_row[None, :]
        # no det renormalization: products of unit-det generators keep unit
        # det to relative 1e-15, while the *computed* det of deep words is
        # cancellation noise and dividing by it would poison the arrays
        shells.a.append(ca[mask])
        shells.b.append(cb[mask])
        shells.c.append(cc[mask])
        shells.d.append(cd[mask])
        shells.last_letter.append(np.broadcast_to(letter_row, (n, k))[mask])
        shells.parent.append(np.broadcast_to(np.arange(n)[:, None], (n, k))[mask])
    return shells


# ---------------------------------------------------------------------------
# moduli tangents

# per handle, in this order: d/dw_plus, rho * d/drho, rho * d/dw_minus
DIRECTIONS_PER_HANDLE = 3


def generator_tangent(p: SchottkyParams, letter: int) -> np.ndarray:
    """Derivative of a letter's normalized generator matrix, shape (4, 3g).

    Row i is matrix entry (a, b, c, d)[i]; column 3 * (h - 1) + l is
    direction l of handle h, so only handle |letter|'s three columns are
    nonzero. The forward matrix is s * (w_minus, rho - w_plus w_minus;
    1, -w_plus) with s = (-rho)^(-1/2), so rho d/drho of it is minus half of
    it plus s rho in the b entry. An inverse letter's matrix is the adjugate
    of the forward one, and so is its tangent.
    """
    a = abs(letter)
    h = p.handles[a - 1]
    m = h.map()
    s, wp, wm, rho = m.c, h.w_plus, h.w_minus, h.rho
    columns = [
        (0.0, -s * wm, 0.0, -s),  # d/dw_plus
        (-m.a / 2, -m.b / 2 + s * rho, -m.c / 2, -m.d / 2),  # rho d/drho
        (s * rho, -s * rho * wp, 0.0, 0.0),  # rho d/dw_minus
    ]
    out = np.zeros((4, DIRECTIONS_PER_HANDLE * p.genus), dtype=np.complex128)
    out[:, DIRECTIONS_PER_HANDLE * (a - 1) : DIRECTIONS_PER_HANDLE * a] = np.array(columns).T
    if letter < 0:
        out = np.stack([out[3], -out[1], -out[2], out[0]])
    return out


def reduce_to_fundamental(
    p: SchottkyParams,
    y: complex,
    boundary_tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[tuple[int, ...], complex]:
    """Move y into the fundamental domain by repeated disc ejection.

    Returns (word, y0) with word_map(p, word)(y0) == y and y0 in the domain.
    A point inside a disc is pushed out by the matching generator; the
    recorded word is automatically reduced because an ejection never lands
    inside the disc it just exited through.
    """
    require_valid(p)
    applied: list[int] = []
    point = complex(y)
    for _ in range(max_iter):
        containing = 0
        for letter in p.letters:
            dist = abs(point - disc_center(p, letter))
            r = disc_radius(p, letter)
            if abs(dist - r) < boundary_tol:
                raise BoundaryAmbiguityError(
                    f"point {point!r} is within {boundary_tol} of circle {letter}"
                )
            if dist < r:
                containing = letter
                break
        if containing == 0:
            # y0 = g_{l_k}...g_{l_1} y, so y = g_{-l_1}...g_{-l_k} y0
            word = tuple(-c for c in applied)
            return word, point
        img = moebius.apply(generator(p, containing), point)
        if isinstance(img, Infinity):
            raise ReductionError("point hit a generator pole during reduction")
        point = img
        applied.append(containing)
    raise ReductionError(f"no convergence after {max_iter} ejections (limit-set point?)")


# ---------------------------------------------------------------------------
# parameter maps


def from_classical(ch: ClassicalHandle) -> HandleParams:
    """Handle triple from (repelling, attracting, multiplier) data."""
    W_p, W_m, q = ch.W_plus, ch.W_minus, ch.q
    w_plus = (W_p - q * W_m) / (1.0 - q)
    w_minus = (W_m - q * W_p) / (1.0 - q)
    rho = -q * (W_p - W_m) ** 2 / (1.0 - q) ** 2
    return HandleParams(w_plus, w_minus, rho)


def to_classical(h: HandleParams) -> ClassicalHandle:
    z_attr, z_rep, q = fixed_points(h.map())
    if isinstance(z_attr, Infinity) or isinstance(z_rep, Infinity):
        raise ValueError("handle maps with a fixed point at infinity are not supported here")
    return ClassicalHandle(W_plus=z_rep, W_minus=z_attr, q=q)


def transport(p: SchottkyParams, m: MoebiusMap) -> SchottkyParams:
    """Conjugate the whole group by m, re-deriving handle data.

    Fixed points move covariantly and multipliers are untouched; the handle
    triple transforms with the shared denominator
    D = (C w_plus + D)(C w_minus + D) - rho C^2.
    """
    new_handles = []
    for h in p.handles:
        A, B, C, D = m.a, m.b, m.c, m.d
        fp = C * h.w_plus + D
        fm = C * h.w_minus + D
        den = fp * fm - h.rho * C * C
        if abs(den) < 1e-300:
            raise ValueError("transport is singular for this handle")
        w_plus = ((A * h.w_plus + B) * fm - h.rho * A * C) / den
        w_minus = ((A * h.w_minus + B) * fp - h.rho * A * C) / den
        rho = h.rho / (den * den)
        new_handles.append(HandleParams(w_plus, w_minus, rho))
    q = SchottkyParams(new_handles)
    require_valid(q)
    return q


# ---------------------------------------------------------------------------
# serialization


def _is_number(v) -> bool:
    """A JSON number: a bool is an int to Python, not a number to JSON."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _c_from_json(v) -> complex:
    """A complex value from a number, an [re, im] pair of numbers or a string like "1+2j"."""
    if _is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, str):
        try:
            return complex(v.replace(" ", ""))
        except ValueError:
            pass
    raise ValueError(f"cannot parse complex value from {v!r}")


def _c_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def surface_from_dict(d: dict) -> SchottkyParams:
    handles = []
    for hd in d["handles"]:
        handles.append(
            HandleParams(
                w_plus=_c_from_json(hd["w_plus"]),
                w_minus=_c_from_json(hd["w_minus"]),
                rho=_c_from_json(hd["rho"]),
            )
        )
    p = SchottkyParams(handles)
    genus = d.get("genus", p.genus)
    if isinstance(genus, bool) or not isinstance(genus, int):
        raise ValueError(f"genus field {genus!r} is not an integer")
    if genus != p.genus:
        raise ValueError(f"genus field {genus} does not match {p.genus} handles")
    return p


def surface_to_dict(p: SchottkyParams) -> dict:
    return {
        "genus": p.genus,
        "handles": [
            {
                "w_plus": _c_to_json(h.w_plus),
                "w_minus": _c_to_json(h.w_minus),
                "rho": _c_to_json(h.rho),
            }
            for h in p.handles
        ],
    }
