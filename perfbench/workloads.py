"""The benchmark's three workloads on the reference genus-2 surface STAR.

STAR = (-6, -2, 0.09), (2, 6, 0.09). Each workload is a closed loop in one
process: the next operation starts when the previous one returns. A workload
object is built once (the set-up: config, reference values and seeded
inputs); run() is one timed operation and calls only the library; check()
compares that operation's outputs with the committed references, outside the
timed region.

Every library name is reached through its module (`gem.canonical_gem`, not a
name imported by value), so the span wrappers of tracing.py see these calls.

Why these three, and why at these depths, is in NOTES.md.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from schottkycalc import cli, gem, poincare, variation
from schottkycalc.poincare import SeriesConfig

from points import domain_points, surface_discs

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

DIGITS_CAP = 16.0
STRICT_TIMEOUT_S = 120.0
_report_ids = itertools.count()


def encode(z) -> list:
    """Complex scalars/arrays to nested [re, im] lists (JSON keeps every digit)."""
    a = np.asarray(z, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def digits(out, ref) -> float:
    """-log10 of the worst relative error max|out - ref| / max(1, |ref|), capped."""
    out = np.asarray(out, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return 0.0
    rel = float(np.max(np.abs(out - ref) / np.maximum(1.0, np.abs(ref))))
    return DIGITS_CAP if rel == 0.0 else min(DIGITS_CAP, -math.log10(rel))


def probe_pairs(p) -> tuple[list[complex], list[list[complex]]]:
    """default_probe_points(p, 5): each probe as x against the other four as y."""
    probes = poincare.default_probe_points(p, 5)
    return probes, [[y for j, y in enumerate(probes) if j != i] for i in range(len(probes))]


def kernel_probe_values(can, p) -> np.ndarray:
    """Canonical kernel at every ordered pair of distinct probes, shape (5, 4)."""
    probes, others = probe_pairs(p)
    return np.array(
        [can.value_grid(np.array([x]), np.array(ys))[:, 0] for x, ys in zip(probes, others)]
    )


def strict_nu_values(p, y0, xs, max_len: int) -> np.ndarray:
    """NuFamily values at xs from a full-depth family of the given max_len."""
    return poincare.NuFamily(p, config=SeriesConfig(max_len=max_len), y0=y0).values(xs)


def base_point(p) -> complex:
    """The CLI's base point for the handle differentials."""
    return poincare.default_probe_points(p, 1)[0]


@dataclass
class Check:
    """Outcome of comparing one operation's outputs with the references."""

    digits: float
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # per-layer values from outputs


class Workload:
    name = ""
    # An operation fails when its seed-independent outputs agree with the
    # reference to fewer digits than this (set per workload from its depth).
    min_digits = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rc = cli.load_config(str(CONFIGS / f"{self.name}.json"))
        self.p = self.rc.surface
        self.ref = load_reference()
        self.rng = np.random.default_rng(seed)

    def run(self):
        raise NotImplementedError

    def check(self, result) -> Check:
        raise NotImplementedError

    def _digits_check(self, out, ref, what: str) -> Check:
        d = digits(out, ref)
        problems = []
        if d < self.min_digits:
            problems.append(f"{what}: {d:.2f} digits against the reference (< {self.min_digits})")
        return Check(digits=d, problems=problems)


class Kernel(Workload):
    """canonical_gem(STAR, 2), then value_grid on 1024 seeded x times 4 seeded y."""

    name = "kernel"
    min_digits = 12.0
    n_x, n_y = 1024, 4

    def __init__(self, seed: int):
        super().__init__(seed)
        discs = surface_discs(self.p)
        self.xs = domain_points(discs, self.n_x, self.rng)
        self.ys = domain_points(discs, self.n_y, self.rng)
        self.ref_J = tuple(self.ref["kernel"]["J"])
        self.ref_values = decode(self.ref["kernel"]["values"])

    def run(self):
        rc = self.rc
        can = gem.canonical_gem(self.p, rc.N, config=rc.series(), n_nodes=rc.nodes, J=rc.J)
        return can, can.value_grid(self.xs, self.ys)

    def check(self, result) -> Check:
        can, grid = result
        probe_vals = kernel_probe_values(can, self.p)
        out = self._digits_check(probe_vals, self.ref_values, "kernel at probe pairs")
        if tuple(can.selection.J) != self.ref_J:
            out.problems.append(f"basis columns {can.selection.J} != reference {self.ref_J}")
        if grid.shape != (self.n_y, self.n_x) or not np.all(np.isfinite(grid)):
            out.problems.append("seeded kernel grid is not a finite (4, 1024) array")
            return out
        # the batched grid must agree with single-point evaluation
        for i, j in ((0, 0), (self.n_x - 1, self.n_y - 1)):
            single = can.value(self.xs[i], self.ys[j])
            if abs(single - grid[j, i]) > 1e-10 * max(1.0, abs(single)):
                out.problems.append(f"grid[{j},{i}] = {grid[j, i]} but value() = {single}")
        return out


class Periods(Workload):
    """Certified period_matrix at the CLI base point, then NuFamily.values at 256 seeded x."""

    name = "periods"
    min_digits = 13.0
    n_x = 256
    # two seeded values are spot-checked against a full-depth max_len=10 family
    strict_max_len = 10
    spot = [0, n_x - 1]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.y0 = base_point(self.p)
        self.xs = domain_points(surface_discs(self.p), self.n_x, self.rng)
        self.ref_omega = decode(self.ref["omega"]["omega"])
        self.strict_values = None  # filled by the first check

    def run(self):
        cfg = self.rc.series()
        nu = poincare.NuFamily(self.p, config=cfg, y0=self.y0)
        pm = variation.period_matrix(self.p, config=cfg, y0=self.y0, nu=nu)
        return pm, nu.values(self.xs)

    def check(self, result) -> Check:
        pm, vals = result
        out = self._digits_check(pm.omega, self.ref_omega, "omega")
        if vals.shape != (self.p.genus, self.n_x) or not np.all(np.isfinite(vals)):
            out.problems.append("seeded nu values are not a finite (g, 256) array")
            return out
        if self.strict_values is None:
            try:
                self.strict_values = self._strict_in_child()
            except (subprocess.SubprocessError, ValueError, IndexError) as exc:
                out.problems.append(f"full-depth nu family failed: {exc}")
                return out
        if digits(vals[:, self.spot], self.strict_values) < self.min_digits:
            out.problems.append("seeded nu values disagree with the full-depth family")
        return out

    def _strict_in_child(self) -> np.ndarray:
        """Once, in a child process, so that neither set-up time nor this
        process's peak memory carries the checker's deeper family."""
        request = {
            "config": str(CONFIGS / f"{self.name}.json"),
            "xs": encode(self.xs[self.spot]),
            "max_len": self.strict_max_len,
        }
        # run() kills the child on a timeout or an exception and waits for it
        proc = subprocess.run(
            [sys.executable, str(HERE / "strict_nu.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=STRICT_TIMEOUT_S,
            check=True,
        )
        return decode(json.loads(proc.stdout.splitlines()[-1]))


class Report(Workload):
    """schottkycalc report --all, in-process, with --seed from the benchmark seed."""

    name = "report"
    min_digits = 9.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ref_omega = decode(self.ref["omega"]["omega"])
        OUT.mkdir(exist_ok=True)
        self.json_path = OUT / f"report-{os.getpid()}-{next(_report_ids)}.json"
        self.argv = [
            "report",
            "--config", str(CONFIGS / "report.json"),
            "--all",
            "--seed", str(seed),
            "--json", str(self.json_path),
        ]

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, result) -> Check:
        try:
            with open(self.json_path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return Check(digits=0.0, problems=[f"no report written: {exc}"])
        finally:
            with contextlib.suppress(FileNotFoundError):
                self.json_path.unlink()
        pm = payload.get("period_matrix", {})
        if "omega" not in pm:
            return Check(digits=0.0, problems=[f"report has no omega: {pm.get('error')}"])
        out = self._digits_check(decode(pm["omega"]), self.ref_omega, "report omega")
        if result != 0:
            out.problems.append(f"report exited with {result}")
        margins = []
        for name, suite in sorted(payload["suites"].items()):
            if not suite["passed"]:
                out.problems.append(f"suite {name} failed: {suite.get('error', suite['checks'])}")
            for c in suite["checks"].values():
                margins.append(
                    DIGITS_CAP
                    if c["residual"] == 0
                    else math.log10(c["tolerance"] / c["residual"])
                )
        out.layer["cli.min_margin_dec"] = min(margins) if margins else 0.0
        return out


WORKLOADS = {w.name: w for w in (Kernel, Periods, Report)}
