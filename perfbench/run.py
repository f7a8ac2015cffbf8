"""Benchmark driver for schottkycalc.

    python3 perfbench/run.py --workload {kernel,periods,report} --seed N \
        --seconds S --trace {0,1}

Runs one workload (workloads.py) as a closed loop for S seconds after one
untimed warm-up operation, checks every operation's outputs against
reference.json, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 runs the unmodified library and reports the end-to-end metrics:
  solve_s      median wall time of one operation (the warm-up excluded)
  setup_s      median, over SETUP_PROBES fresh processes, of the time from
               process start to ready-for-the-first-operation: interpreter and
               library import, config and reference load, input generation
  peak_rss_mb  peak resident memory of this process
  digits       fewest digits, over the operations, to which the outputs that
               do not depend on the seed agree with the reference
--trace 1 alternates untraced and traced operations (tracing.py) and reports
the per-layer metrics, per traced operation, plus trace.overhead_frac, the
traced against the untraced median operation time.

Results and spans are also written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass

import checkout

checkout.pin_blas()
checkout.import_library()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from schottkycalc.poincare import TruncationWarning  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
MIN_TIMED_OPS = 3
# stop starting operations after this long, whatever --seconds says, so a
# run ends well inside three minutes even on a slow machine
START_LIMIT_S = 120.0


@dataclass
class Op:
    seconds: float
    traced: bool
    warnings: int
    check: workloads.Check | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.check.problems


def run_op(w: workloads.Workload, tracer: tracing.Tracer | None) -> Op:
    """One operation; a library gate that raises makes it a failed operation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op += 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = w.run()
            error = None
        except Exception as exc:  # counted against attempted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    n_warn = sum(issubclass(c.category, TruncationWarning) for c in caught)
    if error is not None:
        return Op(seconds, tracer is not None, n_warn, None, error)
    check = w.check(result)
    return Op(seconds, tracer is not None, n_warn, check, None)


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh benchmark process to its 'ready' line."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        except BaseException:
            proc.kill()  # the with-block then waits for it to end
            raise
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def timing_summary(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s, n={n}"
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            q = float(np.percentile(samples, pct))
            return text + f", p{pct} {q:.4f} s"
    return text + " (too few samples for a percentile above the median)"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    process_start = time.perf_counter()
    ap = argparse.ArgumentParser(description="schottkycalc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    w = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer() if args.trace else None
    ops = [run_op(w, None)]  # warm-up, checked but not timed
    t_end = time.perf_counter() + args.seconds
    while True:
        now = time.perf_counter()
        n_timed = len(ops) - 1
        if n_timed >= MIN_TIMED_OPS and now >= t_end:
            break
        if n_timed >= 2 and now - process_start > START_LIMIT_S:
            break
        # traced runs alternate so that drift hits both halves alike
        ops.append(run_op(w, tracer if n_timed % 2 == 1 else None))
    for i, op in enumerate(ops):
        if not op.ok:
            print(f"op {i} failed: {op.error or '; '.join(op.check.problems)}", file=sys.stderr)

    timed = ops[1:]
    failed = sum(not op.ok for op in ops)

    def op_times(traced: bool) -> list[float]:
        """Times of the successful operations, or of all when none succeeded."""
        good = [op.seconds for op in timed if op.traced == traced and op.ok]
        return good or [op.seconds for op in timed if op.traced == traced]

    env = environment()
    workloads.OUT.mkdir(exist_ok=True)
    if args.trace:
        traced = [op for op in timed if op.traced]
        values = tracing.summarize(tracer.spans, len(traced))
        values["poincare.truncation_warnings"] = statistics.mean(op.warnings for op in traced)
        checks = [op.check for op in traced if op.check is not None]
        values["cli.min_margin_dec"] = min(
            (c.layer.get("cli.min_margin_dec", 0.0) for c in checks), default=0.0
        )
        values["trace.overhead_frac"] = (
            statistics.median(op_times(True)) / statistics.median(op_times(False)) - 1.0
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        tracer.dump(
            workloads.OUT / f"spans-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "environment": env},
        )
    else:
        solve = op_times(False)
        print(f"solve_s: {timing_summary(solve)}")
        digit_values = [op.check.digits for op in ops if op.check is not None]
        metrics = {
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "digits": {"value": min(digit_values, default=0.0), "unit": "digits"},
        }
    record = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    with open(workloads.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(
            dict(record, environment=env, op_seconds=[op.seconds for op in ops], setup_samples=setup),
            fh,
            indent=1,
        )
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
