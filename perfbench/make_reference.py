"""Recompute perfbench/reference.json, the values every benchmark run checks against.

The references come from the library at settings stricter than any workload:

  * kernel: canonical_gem(STAR, 2) at full depth, max_len=10 and no stop_tol
    (the kernel workload stops at max_len=6 with stop_tol=1e-11), evaluated
    at every ordered pair of distinct default_probe_points(STAR, 5);
  * omega: the certified period matrix at the CLI base point, at full depth
    max_len=11 (the periods workload sums to 8, the report to 5).

Takes about 70 s on 2 cores:

    python3 perfbench/make_reference.py

It sums on one worker thread per core; the sums are bit-identical for any
worker count, so the output does not depend on the machine's core count.
"""
from __future__ import annotations

import json
import os
import platform
import time

import checkout

checkout.pin_blas()
checkout.import_library()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from schottkycalc import cli, gem, variation  # noqa: E402
from schottkycalc.poincare import SeriesConfig  # noqa: E402

import workloads  # noqa: E402

KERNEL_MAX_LEN = 10
OMEGA_MAX_LEN = 11


def main() -> None:
    workers = os.cpu_count() or 1
    rc = cli.load_config(str(workloads.CONFIGS / "kernel.json"))
    p = rc.surface
    t0 = time.perf_counter()
    cfg = SeriesConfig(max_len=KERNEL_MAX_LEN, shell_tol=rc.shell_tol, workers=workers)
    can = gem.canonical_gem(p, rc.N, config=cfg, n_nodes=rc.nodes)
    values = workloads.kernel_probe_values(can, p)
    t_kernel = time.perf_counter() - t0

    t0 = time.perf_counter()
    y0 = workloads.base_point(p)
    cfg = SeriesConfig(max_len=OMEGA_MAX_LEN, workers=workers)
    pm = variation.period_matrix(p, config=cfg, y0=y0)
    t_omega = time.perf_counter() - t0

    probes, _ = workloads.probe_pairs(p)
    out = {
        "kernel": {
            "N": rc.N,
            "max_len": KERNEL_MAX_LEN,
            "stop_tol": None,
            "nodes": rc.nodes,
            "J": [int(j) for j in can.selection.J],
            "probes": workloads.encode(probes),
            "values": workloads.encode(values),
        },
        "omega": {
            "max_len": OMEGA_MAX_LEN,
            "stop_tol": None,
            "y0": workloads.encode(y0),
            "omega": workloads.encode(pm.omega),
            "symmetry_error": pm.symmetry_error,
            "normalization_error": pm.normalization_error,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "workers": workers,
            "kernel_s": round(t_kernel, 1),
            "omega_s": round(t_omega, 1),
        },
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE} (kernel {t_kernel:.0f} s, omega {t_omega:.0f} s)")


if __name__ == "__main__":
    main()
