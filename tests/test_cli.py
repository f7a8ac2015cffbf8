"""End-to-end tests of the command-line interface: config handling, exit
codes, report shape, determinism, and the invariant suites."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schottkycalc import cli, gem, variation
from schottkycalc.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    run_suite,
)
from schottkycalc.schottky import HandleParams, ReductionError, to_classical

STAR_SURFACE = {
    "handles": [
        {"w_plus": [-6.0, 0.0], "w_minus": [-2.0, 0.0], "rho": 0.09},
        {"w_plus": [2.0, 0.0], "w_minus": [6.0, 0.0], "rho": 0.09},
    ]
}


def write_config(tmp_path, name="cfg.json", **overrides):
    payload = {"surface": STAR_SURFACE, "N": 2, "max_len": 4, "shell_tol": 1e-3}
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config loading


def test_load_config_full(tmp_path):
    path = write_config(
        tmp_path,
        max_len=7,
        nodes=128,
        seed=3,
        h=2e-5,
        tolerances={"rauch": 5e-4},
        J=[[1, 0], [1, 2], [2, 1]],
        punctures=[[0.4, -0.6]],
    )
    rc = load_config(path)
    assert rc.surface.genus == 2
    assert rc.max_len == 7 and rc.nodes == 128 and rc.seed == 3
    assert rc.h == 2e-5
    assert rc.tol("rauch") == 5e-4
    assert rc.tol("cocycle") == 1e-10  # default untouched
    assert rc.J == (0, 2, 4)  # [handle, power] pairs flattened
    assert rc.punctures == (0.4 - 0.6j,)


def test_load_config_bare_surface(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(STAR_SURFACE))
    rc = load_config(path)
    assert rc.surface.genus == 2 and rc.N == 2 and rc.max_len == 10


def test_load_config_overrides_win(tmp_path):
    path = write_config(tmp_path, max_len=7, seed=1)
    rc = load_config(path, max_len=3, seed=9, workers=2)
    assert rc.max_len == 3 and rc.seed == 9 and rc.workers == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"N": 1},
        {"max_len": 0},
        {"nodes": 2},
        {"h": -1.0},
        {"shell_tol": 0.0},
        {"stop_tol": -1e-11},
        {"tolerances": {"rauch": -1.0}},
        {"tolerances": {"no_such": 1.0}},
        {"J": [[1, 9]]},
    ],
)
def test_load_config_rejects_bad_values(tmp_path, bad):
    path = write_config(tmp_path, **bad)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_surface(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"handles": [{"w_plus": 0.0, "w_minus": 0.1, "rho": 1.0}]})
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_main_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and out["genus"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"surface": STAR_SURFACE, "N": 0}))
    assert main(["validate", "--config", str(bad)]) == 2

    # too-shallow truncation: the canonical pipeline reports a failure
    assert main(["check", "--config", cfg, "--suite", "rauch", "--max-len", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_word_cap_is_a_config_error(capsys):
    # 9.6M words at max_len 14 is over the 2M cap: exit 2, no traceback
    cfg = str(Path(__file__).parents[1] / "configs" / "surface_star.json")
    assert main(["enumerate", "--config", cfg, "--max-len", "14"]) == 2
    assert capsys.readouterr().err.startswith("config error: enumeration would produce")


@pytest.mark.parametrize("exc", [variation.PathBlockedError, ReductionError])
def test_runtime_failures_exit_one(tmp_path, monkeypatch, capsys, exc):
    def blocked(*args, **kwargs):
        raise exc("no path")

    monkeypatch.setattr(cli, "period_matrix", blocked)
    assert main(["period-matrix", "--config", write_config(tmp_path)]) == 1
    assert f"error: {exc.__name__}: no path" in capsys.readouterr().err


def test_check_cocycle_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["check", "--config", cfg, "--suite", "cocycle"]) == 0
    out = capsys.readouterr().out
    assert "cocycle/composition" in out and "PASS" in out


def test_enumerate_counts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["enumerate", "--config", cfg, "--max-len", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["count"] for c in out["counts"]] == [1, 4, 12, 36]
    assert out["total"] == out["expected_total"] == 53


def test_basis_payload(tmp_path, capsys):
    cfg = write_config(tmp_path, max_len=5, shell_tol=1e-4)
    assert main(["basis", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 3 and out["family_dimension"] == 9
    assert len(out["J"]) == 3 and len(out["singular_values"]) == 6
    assert out["gap"] > 1e6 and out["duality_error"] < 1e-8


def test_basis_respects_J_override(tmp_path, capsys):
    cfg = write_config(
        tmp_path, max_len=5, shell_tol=1e-4, J=[[1, 0], [1, 1], [2, 0]]
    )
    assert main(["basis", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["J"] == [[1, 0], [1, 1], [2, 0]]
    assert out["duality_error"] < 1e-8


def test_eval_csv_grid(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_path = tmp_path / "grid.csv"
    rcode = main(
        [
            "eval",
            "--config",
            cfg,
            "--what",
            "bers",
            "--grid",
            "0.4j,1+0.4j,3,0.3-0.9j,0.5-0.9j,2",
            "--out",
            str(out_path),
        ]
    )
    assert rcode == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 6
    xs = sorted({float(r["x_re"]) for r in rows})
    assert xs == [0.0, 0.5, 1.0]
    assert all(np.isfinite(float(r["value_re"])) for r in rows)


def test_eval_rejects_bad_grid(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg, "--what", "bers", "--grid", "1,2,3"]) == 2


def test_period_matrix_command(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(
        json.dumps(
            {
                "surface": {
                    "handles": [{"w_plus": -2.0, "w_minus": 2.0, "rho": 0.25}]
                },
                "max_len": 16,
                "shell_tol": 1e-2,
            }
        )
    )
    assert main(["period-matrix", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    omega = complex(*out["omega"][0][0])
    q = to_classical(HandleParams(-2.0, 2.0, 0.25)).q
    assert out["symmetry_error"] < 1e-7
    assert abs(np.exp(2j * np.pi * omega) - q) < 1e-6 * abs(q)


def test_report_aggregates_and_writes_json(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=5)
    out_path = tmp_path / "report.json"
    assert main(["report", "--config", cfg, "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert set(payload["suites"]) == {"cocycle", "residue", "quasiperiod"}
    assert payload["config"]["seed"] == 5
    assert all(s["passed"] for s in payload["suites"].values())
    assert "period_matrix" in payload


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v) for k, v in obj.items() if not k.startswith("wall_time")
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_report_deterministic_across_workers(tmp_path):
    cfg = write_config(tmp_path, seed=7)
    paths = [tmp_path / f"rep{i}.json" for i in range(3)]
    for path, workers in zip(paths, ("1", "3", "1")):
        assert (
            main(
                [
                    "report",
                    "--config",
                    cfg,
                    "--json",
                    str(path),
                    "--workers",
                    workers,
                ]
            )
            == 0
        )
    payloads = [
        json.dumps(_strip_timing(json.loads(p.read_text())), sort_keys=True)
        for p in paths
    ]
    # worker count must not leak into the payload comparison
    norm = [s.replace('"workers": 3', '"workers": 1') for s in payloads]
    assert norm[0] == norm[1] == norm[2]
    assert payloads[0] == payloads[2]  # bit-identical rerun


def _counting(monkeypatch, module, name, record):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        record.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_report_builds_each_artifact_once(tmp_path, monkeypatch):
    kernels, matrices = [], []
    _counting(monkeypatch, cli, "canonical_gem", kernels)
    for module in (cli, variation):
        _counting(monkeypatch, module, "period_matrix", matrices)
    cfg = write_config(tmp_path, max_len=5)
    out_path = tmp_path / "report.json"
    assert main(["report", "--config", cfg, "--all", "--json", str(out_path)]) == 0
    assert len(kernels) == 1
    # 12 for the finite-difference gradient, 1 certified base shared by
    # the rauch suite and the report's period_matrix entry
    assert len(matrices) == 13
    omega = json.loads(out_path.read_text())["period_matrix"]["omega"]
    assert omega == cli._encode(matrices[0][1].omega)


def test_commands_do_not_share_a_kernel(tmp_path, monkeypatch, capsys):
    kernels = []
    _counting(monkeypatch, cli, "canonical_gem", kernels)
    other = {"handles": [dict(h, rho=0.08) for h in STAR_SURFACE["handles"]]}
    for name, surface in (("a.json", STAR_SURFACE), ("b.json", other)):
        cfg = write_config(tmp_path, name=name, surface=surface, max_len=5, shell_tol=1e-4)
        assert main(["basis", "--config", cfg]) == 0
    capsys.readouterr()
    (_, can_a), (_, can_b) = kernels
    assert can_a is not can_b
    assert [h.rho for h in can_a.params.handles] == [0.09, 0.09]
    assert [h.rho for h in can_b.params.handles] == [0.08, 0.08]


def test_quasiperiod_suite_builds_one_table_per_point(tmp_path, monkeypatch):
    tables = []
    _counting(monkeypatch, gem.SpanningTheta, "table", tables)
    rep = run_suite(load_config(write_config(tmp_path)), "quasiperiod")
    assert rep["passed"], rep
    assert len(tables) == 2  # one all-handle table at each of the 2 probe points


class _KernelBuilt(Exception):
    pass


def test_rauch_command_uses_the_configured_kernel(tmp_path, monkeypatch, capsys):
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        raise _KernelBuilt  # what it was asked to build is all this test needs

    monkeypatch.setattr(cli, "canonical_gem", recorder)
    cfg = write_config(tmp_path, nodes=96, J=[[1, 0], [1, 1], [2, 0]])
    assert main(["rauch", "--config", cfg]) == 1
    assert "_KernelBuilt" in capsys.readouterr().err
    [(args, kwargs)] = calls
    assert args[1] == 2
    assert kwargs["n_nodes"] == 96
    assert kwargs["J"] == (0, 1, 3)

    cfg3 = write_config(tmp_path, name="n3.json", N=3)
    assert main(["rauch", "--config", cfg3]) == 2  # same ConfigError as the suite
    assert "needs N = 2" in capsys.readouterr().err
    assert len(calls) == 1


def test_nan_residual_fails_the_suite(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    calls = []
    exact = cli.decompose_coboundary

    def decompose(p, P):
        calls.append(P)
        coeffs = exact(p, P)
        if len(calls) == 2:  # after a passing first term, which max() would keep
            coeffs[:] = np.nan
        return coeffs

    monkeypatch.setattr(cli, "decompose_coboundary", decompose)
    rep = run_suite(load_config(cfg), "coboundary")
    assert np.isnan(rep["checks"]["reconstruction"]["residual"])
    assert rep["passed"] is False


def test_suite_seed_is_echoed(tmp_path):
    cfg = write_config(tmp_path, seed=11)
    rep = run_suite(load_config(cfg), "cocycle")
    assert rep["seed"] == 11 and rep["passed"]


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "schottkycalc.cli", "validate", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
