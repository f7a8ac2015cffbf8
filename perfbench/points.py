"""Seeded evaluation points for the benchmark workloads.

Every seed-dependent input of the benchmark comes from here; the library only
receives the generated points. To print the points of one seed:

    python3 perfbench/points.py --config perfbench/configs/kernel.json --seed 7 --count 5
"""
from __future__ import annotations

import argparse
from typing import Sequence

import numpy as np

# Points are drawn uniformly from the box that holds every disc with MARGIN to
# spare, and kept only when they lie at least CLEARANCE radii outside every
# disc: inside the fundamental domain, where the series converge geometrically.
CLEARANCE = 1.5
MARGIN = 2.0


def domain_points(
    discs: Sequence[tuple[complex, float]], count: int, rng: np.random.Generator
) -> np.ndarray:
    """count points in the fundamental domain; discs are (center, radius) pairs."""
    centers = np.array([c for c, _ in discs], dtype=np.complex128)
    radii = np.array([r for _, r in discs], dtype=np.float64)
    lo_re = float(np.min(centers.real - radii)) - MARGIN
    hi_re = float(np.max(centers.real + radii)) + MARGIN
    lo_im = float(np.min(centers.imag - radii)) - MARGIN
    hi_im = float(np.max(centers.imag + radii)) + MARGIN
    out = np.empty(0, dtype=np.complex128)
    while len(out) < count:
        z = rng.uniform(lo_re, hi_re, 2 * count) + 1j * rng.uniform(lo_im, hi_im, 2 * count)
        dist = np.abs(z[:, None] - centers[None, :])
        keep = np.all(dist >= (1.0 + CLEARANCE) * radii[None, :], axis=1)
        out = np.concatenate([out, z[keep]])
    return out[:count]


def surface_discs(p) -> list[tuple[complex, float]]:
    """(center, radius) of every disc of a schottkycalc SchottkyParams."""
    from schottkycalc.schottky import disc_center, disc_radius

    return [(disc_center(p, l), disc_radius(p, l)) for l in p.letters]


def main() -> None:
    import checkout

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="CLI-format JSON config")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=8)
    args = ap.parse_args()
    checkout.import_library()
    from schottkycalc.cli import load_config

    p = load_config(args.config).surface
    for z in domain_points(surface_discs(p), args.count, np.random.default_rng(args.seed)):
        print(f"{z.real!r} {z.imag!r}")


if __name__ == "__main__":
    main()
