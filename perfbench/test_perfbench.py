"""Self-tests of the benchmark, at small depths (about 10 s on 2 cores):

    python3 -m pytest perfbench/test_perfbench.py -q

They check that tracing does not change any output, that every layer span the
per-layer metrics rely on still fires on the workload that is meant to
exercise it, and that a failing operation is counted, not fatal.
"""
import dataclasses
import json

import checkout

checkout.pin_blas()
checkout.import_library()

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from schottkycalc import variation  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SHALLOW = {"kernel": 3, "periods": 4, "report": 5}


def shallow(name: str, seed: int = 3) -> workloads.Workload:
    w = workloads.WORKLOADS[name](seed)
    w.rc = dataclasses.replace(w.rc, max_len=SHALLOW[name])
    if name == "report":
        w.argv += ["--max-len", str(SHALLOW[name])]
    return w


def outputs(name: str, w, result) -> list:
    """The numbers an operation produced, as arrays to compare bit for bit."""
    if name == "kernel":
        can, grid = result
        return [grid, workloads.kernel_probe_values(can, w.p), np.array(can.selection.J)]
    if name == "periods":
        pm, vals = result
        return [pm.omega, vals]
    with open(w.json_path) as fh:
        payload = json.load(fh)
    w.json_path.unlink()

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if not k.startswith("wall_time")}
        return obj

    return [json.dumps(strip(payload), sort_keys=True), result]


def traced_op(name: str):
    w = shallow(name)
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        result = w.run()
    finally:
        tracer.uninstall()
    return w, result, tracer


@pytest.fixture(scope="module")
def traces():
    return {name: traced_op(name) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_bit_identical(name, traces):
    w = shallow(name)
    plain = outputs(name, w, w.run())
    w_traced, result, _ = traces[name]
    traced = outputs(name, w_traced, result)
    for a, b in zip(plain, traced):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


def test_uninstall_restores_the_library():
    import schottkycalc.cli as cli
    import schottkycalc.gem as gem
    import schottkycalc.poincare as poincare

    before = (cli.canonical_gem, cli._COMMANDS["report"], poincare.build_shells,
              poincare.BersEvaluator.value_grid)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.canonical_gem is gem.canonical_gem is not before[0]
    assert cli._COMMANDS["report"] is not before[1]
    assert poincare.build_shells is not before[2]
    tracer.uninstall()
    after = (cli.canonical_gem, cli._COMMANDS["report"], poincare.build_shells,
             poincare.BersEvaluator.value_grid)
    assert after == before


# spans each workload must produce; a rename in the library shows up here
FIRES = {
    "kernel": [
        "poincare.bers", "poincare.limit_points", "schottky.build_shells",
        "gem.canonical_gem", "gem.select_basis", "gem.canonical_correction",
        "gem.spanning_table", "gem.dual_values", "gem.canonical_value_grid",
    ],
    "periods": [
        "poincare.nu", "schottky.build_shells", "variation.period_matrix",
        "variation.nu_normalization",
    ],
    "report": [
        "poincare.bers", "poincare.nu", "poincare.third_kind", "poincare.limit_points",
        "schottky.build_shells", "gem.canonical_gem", "gem.select_basis",
        "gem.canonical_correction", "gem.spanning_table", "gem.dual_values",
        "gem.canonical_value_grid", "variation.period_matrix",
        "variation.nu_normalization", "variation.period_gradient",
        "variation.rauch_check", "variation.theta2_table", "cli.cmd_report",
    ] + [f"cli.suite.{s}" for s in tracing.SUITES],
}
SILENT = {
    "kernel": ["poincare.nu", "poincare.third_kind", "variation.period_matrix"],
    "periods": ["poincare.bers", "gem.canonical_gem"],
    "report": [],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_layer_span_fires(name, traces):
    _, _, tracer = traces[name]
    fired = {s.name for s in tracer.spans}
    assert not [n for n in FIRES[name] if n not in fired]
    assert not [n for n in SILENT[name] if n in fired]
    assert not [s.name for s in tracer.spans if s.info and "hook_error" in s.info]
    if name == "report":
        assert any(s.layer == "eichler" for s in tracer.spans)
    m = tracing.summarize(tracer.spans, 1)
    counted = {"kernel": "poincare.bers.terms", "periods": "poincare.nu.terms",
               "report": "gem.spanning_table.points"}[name]
    assert m[counted] > 0 and 0 < m["poincare.useful_word_frac"] <= 1


def test_report_builds_as_the_issue_counts(traces):
    m = tracing.summarize(traces["report"][2].spans, 1)
    assert m["gem.canonical_gem.calls"] == 3
    assert m["variation.period_matrix.calls"] == 14


def test_benchmark_json_lists_the_traced_metrics():
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(t) for t in tracing.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


class RaisingPeriods(workloads.Periods):
    def run(self):
        # no computed matrix is symmetric to 0: the certification gate raises
        return variation.period_matrix(self.p, config=self.rc.series(), symmetry_tol=0.0)


def test_raising_gate_counts_as_failed_op():
    w = RaisingPeriods(5)
    w.rc = dataclasses.replace(w.rc, max_len=3)
    op = run.run_op(w, None)
    assert not op.ok and op.error.startswith("PeriodSymmetryError")


def test_failing_report_suite_counts_as_failed_op():
    # at max_len 4 the nu-norm suite misses its base-point tolerance
    w = workloads.Report(5)
    w.argv += ["--max-len", "4"]
    op = run.run_op(w, None)
    assert not op.ok and any("nu-norm" in p for p in op.check.problems)


def test_points_are_seeded_and_clear_of_the_discs():
    a, b = workloads.Kernel(9), workloads.Kernel(9)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.xs, workloads.Kernel(10).xs)
    from points import CLEARANCE, surface_discs

    for c, r in surface_discs(a.p):
        assert np.min(np.abs(a.xs - c)) >= (1 + CLEARANCE) * r
