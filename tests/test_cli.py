"""End-to-end tests of the command-line interface: config handling, exit
codes, report shape, determinism, and the invariant suites."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schottkycalc import cli, eichler, gem, poincare, variation
from schottkycalc.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    run_suite,
)
from schottkycalc.eichler import PolyForm
from schottkycalc.schottky import (
    HandleParams,
    ReductionError,
    SchottkyParams,
    disc_gaps,
    surface_to_dict,
    to_classical,
)

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
    )
    rc = load_config(path)
    assert rc.surface.genus == 2
    assert rc.max_len == 7 and rc.nodes == 128 and rc.seed == 3
    assert "h" not in rc.echo()  # read, with no effect: no derivative takes a step
    assert rc.tol("rauch") == 5e-4
    assert rc.tol("cocycle") == 1e-10  # default untouched
    assert rc.J == (0, 2, 4)  # [handle, power] pairs flattened


def test_load_config_bare_surface(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(STAR_SURFACE))
    rc = load_config(path)
    assert rc.surface.genus == 2 and rc.N == 2 and rc.max_len == 10


def test_load_config_null_keeps_the_default(tmp_path):
    path = write_config(tmp_path, N=None, max_len=None, h=None, tolerances=None, J=None)
    rc = load_config(path)
    assert (rc.N, rc.max_len, rc.J) == (2, 10, None)
    assert rc.tol("rauch") == 1e-4


def test_surface_complex_values_may_be_strings(tmp_path):
    written = {
        "handles": [
            {"w_plus": "-6", "w_minus": "-2+0j", "rho": "0.09"},
            {"w_plus": " 2 + 0j ", "w_minus": 6.0, "rho": [0.09, 0.0]},
        ]
    }
    got = load_config(write_config(tmp_path, surface=written)).surface
    assert got == load_config(write_config(tmp_path, name="num.json")).surface


def test_load_config_overrides_win(tmp_path):
    path = write_config(tmp_path, max_len=7, seed=1)
    rc = load_config(path, max_len=3, seed=9, workers=2)
    assert rc.max_len == 3 and rc.seed == 9 and rc.workers == 2


STAR_HANDLES = STAR_SURFACE["handles"]
WRONG_TYPES = [
    {"max_len": "ten"},
    {"nodes": [1]},
    {"tolerances": [1]},
    {"h": "small"},
    # an integer key takes only a JSON integer: none of these is truncated
    {"max_len": 7.9},
    {"max_len": True},
    {"nodes": "256"},
    {"J": [[1, 0.7], [1, 1], [1, 2]]},
    # a real key takes only a JSON number: neither a string nor a bool
    {"h": "1e-5"},
    {"stop_tol": "1e-11"},
    {"shell_tol": True},
    {"tolerances": {"rauch": "1e-6"}},
    # a surface value takes no JSON bool, and its genus only a JSON integer
    {"surface": {"handles": [{**STAR_HANDLES[0], "w_plus": True}, STAR_HANDLES[1]]}},
    {"surface": {"handles": [STAR_HANDLES[0], {**STAR_HANDLES[1], "w_minus": [6, False]}]}},
    {"surface": {**STAR_SURFACE, "genus": 2.7}},
    # a top-level genus or handles belongs to the bare form: beside a
    # surface object it would be ignored
    {"genus": 2.7, "handles": []},
    {"genus": 2},
    {"handles": STAR_HANDLES},
]


@pytest.mark.parametrize(
    "bad",
    [
        {"N": 1},
        {"max_len": 0},
        {"nodes": 2},
        {"seed": -1},  # numpy's generator would refuse it only once a suite runs
        {"workers": 0},
        {"shell_tol": 0.0},
        {"stop_tol": -1e-11},
        {"tolerances": {"rauch": -1.0}},
        {"tolerances": {"no_such": 1.0}},
        {"J": [[1, 9]]},
        {"J": [0, 1, 99]},  # flat indices are range-checked too
        {"J": [0, 0, 1]},
        {"L": 6},  # neither a former alias nor a typo is dropped silently
        {"punctures": [[0.4, -0.6]]},
        *WRONG_TYPES,
    ],
)
def test_load_config_rejects_bad_values(tmp_path, bad):
    path = write_config(tmp_path, **bad)
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("bad", WRONG_TYPES)
def test_wrongly_typed_value_is_a_config_error(tmp_path, capsys, bad):
    assert main(["validate", "--config", write_config(tmp_path, **bad)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_out_of_range_J_is_a_config_error(tmp_path, capsys):
    assert main(["basis", "--config", write_config(tmp_path, J=[0, 1, 99])]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_load_config_rejects_bad_surface(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"handles": [{"w_plus": 0.0, "w_minus": 0.1, "rho": 1.0}]})
    )
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.name
)
def test_every_shipped_config_loads_and_validates(path):
    load_config(str(path))
    assert main(["validate", "--config", str(path)]) == 0


def test_validate_reports_overlapping_discs(tmp_path, capsys):
    # letters 1 and 2 overlap across handles; every other command refuses
    surface = {"handles": [{"w_plus": -1.0, "w_minus": -3.0, "rho": 0.5},
                           {"w_plus": -0.5, "w_minus": 3.0, "rho": 0.5}]}
    cfg = write_config(tmp_path, surface=surface)
    assert main(["validate", "--config", cfg]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and [v["letters"] for v in out["violations"]] == [[1, 2]]
    assert out["min_gap"] == pytest.approx(0.5 - 2 * 0.5**0.5)
    for command in (["enumerate"], ["basis"], ["report", "--all"]):
        assert main([*command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: bad surface")
    # a handle whose own circles overlap cannot be read at all
    own = {"handles": [{"w_plus": 0.0, "w_minus": 0.1, "rho": 1.0}]}
    assert main(["validate", "--config", write_config(tmp_path, surface=own)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad surface")


@pytest.mark.parametrize(
    "handle",
    [
        {"w_plus": [-6.0, 0.0], "w_minus": [-2.0, 0.0], "rho": float("nan")},
        {"w_plus": [float("inf"), 0.0], "w_minus": [-2.0, 0.0], "rho": 0.09},
        {"w_plus": "nan+0j", "w_minus": [-2.0, 0.0], "rho": 0.09},
    ],
    ids=["nan-rho", "inf-w_plus", "nan-string"],
)
def test_non_finite_handle_data_is_a_config_error(tmp_path, capsys, handle):
    # json reads the literals NaN and Infinity; either passes every disc-gap
    # comparison, so validate once called such a surface valid
    surface = {"handles": [handle, STAR_SURFACE["handles"][1]]}
    cfg = write_config(tmp_path, surface=surface)
    for command in (["validate"], ["report", "--all"]):
        assert main([*command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: bad surface")


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


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["check", "--suite", "cocycle", "--config", cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert main(["check", "--suite", "cocycle", "--config", write_config(tmp_path, seed=-1)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed must be >= 0")


def test_word_cap_is_a_config_error(capsys):
    # 9.6M words at max_len 14 is over the 2M cap: exit 2, no traceback
    cfg = str(Path(__file__).parents[1] / "configs" / "surface_star.json")
    assert main(["enumerate", "--config", cfg, "--max-len", "14"]) == 2
    assert capsys.readouterr().err.startswith("config error: enumeration would produce")


def test_a_max_len_the_deep_shells_cannot_afford_is_a_config_error(tmp_path, capsys):
    # a million deep shells, each one word per group of the pole-pair series,
    # are over the 2M cap: the config is refused when it is read, so exit 2
    # within a second, with no suite run and no report written
    cfg = str(Path(__file__).parents[1] / "configs" / "surface_star.json")
    with pytest.raises(ConfigError, match="the 36 groups of 999997 deep shells"):
        load_config(cfg, max_len=1_000_000)
    out = tmp_path / "report.json"
    for command in (["report", "--all"], ["check", "--suite", "residue"]):
        start = time.perf_counter()
        assert main([*command, "--config", cfg, "--max-len", "1000000", "--json", str(out)]) == 2
        assert time.perf_counter() - start < 1.0, command
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists(), command
        assert captured.err.startswith(
            "config error: the word tree and the 36 groups of 999997 deep shells"
        ), command


def test_a_capacity_error_in_a_suite_is_its_named_error(tmp_path, monkeypatch):
    # a config that passed its check can still meet the cap in a series (a
    # near group's words, the weight-N plan's outside words): each suite that
    # builds one reports the CapacityError as its error, with no traceback,
    # and so does the report's period matrix
    rc = load_config(write_config(tmp_path))
    series = RunConfig.series
    monkeypatch.setattr(RunConfig, "series", lambda self: replace(series(self), cap=100))
    report = run_suite(rc, "residue")
    assert report["passed"] is False and "traceback" not in report
    assert report["error"].startswith("CapacityError: the word tree and the 12 groups")
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_report(rc, argparse.Namespace(all=True, json=str(out))) == 1
    payload = json.loads(out.read_text())
    failed = {name: s for name, s in payload["suites"].items() if not s["passed"]}
    assert sorted(failed) == ["canonical", "gemcont", "nu-norm", "quasiperiod", "rauch", "residue"]
    for name, s in failed.items():
        assert s["error"].startswith("CapacityError:") and "traceback" not in s, name
    assert payload["period_matrix"]["error"].startswith("CapacityError:")


@pytest.mark.parametrize("exc", [variation.PathBlockedError, ReductionError])
def test_runtime_failures_exit_one(tmp_path, monkeypatch, capsys, exc):
    def blocked(*args, **kwargs):
        raise exc("no path")

    monkeypatch.setattr(cli, "period_matrix", blocked)
    assert main(["period-matrix", "--config", write_config(tmp_path)]) == 1
    assert f"error: {exc.__name__}: no path" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_normalization_tolerance_gates_the_normalization(tmp_path, capsys):
    # the "normalization" tolerance judges the delta-normalization of the
    # handle differentials, not the path quadrature
    cfg = write_config(tmp_path, tolerances={"normalization": 1e-20})
    assert main(["period-matrix", "--config", cfg, "--max-len", "5"]) == 1
    assert "NormalizationError" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_report_records_a_failed_period_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, tolerances={"normalization": 1e-20})
    out_path = tmp_path / "report.json"
    assert main(["report", "--config", cfg, "--max-len", "5", "--json", str(out_path)]) == 1
    payload = json.loads(out_path.read_text())
    assert all(s["passed"] for s in payload["suites"].values())
    assert payload["period_matrix"]["error"].startswith("NormalizationError")


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_a_failed_build_is_not_retried(tmp_path, monkeypatch):
    calls = []
    build = cli.period_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "period_matrix", counted)
    ctx = cli.RunContext(load_config(write_config(tmp_path, tolerances={"normalization": 1e-20})))
    for _ in range(2):
        with pytest.raises(variation.NormalizationError):
            ctx.period_matrix()
    assert len(calls) == 1


def test_rauch_rejects_a_malformed_sample_point(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rauch", "--config", write_config(tmp_path), "--x", "1+"])
    assert exc.value.code == 2


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_rauch_takes_a_sample_that_starts_with_a_minus(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["rauch", "--config", cfg, "--x", "-0.2-0.8j", "--x", "0.5+0.3j"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == [[-0.2, -0.8], [0.5, 0.3]]
    assert "h" not in out  # the check takes the exact gradient, no step


def test_eval_takes_a_grid_that_starts_with_a_minus(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg, "--what", "nu", "--grid", "-0.4j,0.4j,2,0,0,1"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [float(r[1]) for r in rows[1:]] == [-0.4, 0.4]


def test_basis_runs_with_scipy_unimportable():
    # numpy is the only dependency: with scipy blocked, the basis still comes out
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from schottkycalc.cli import main\n"
        "code = main(['basis', '--config', 'configs/surface_star.json', '--max-len', '5'])\n"
        "loaded = [k for k, v in sys.modules.items() if k.startswith('scipy') and v is not None]\n"
        "print(code, loaded, file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 []"


def test_report_on_genus_one_says_the_series_needs_genus_two(tmp_path, capsys):
    cfg = str(Path(__file__).parents[1] / "configs" / "single_handle.json")
    out_path = tmp_path / "report.json"
    assert main(["report", "--all", "--config", cfg, "--json", str(out_path)]) == 1
    suites = json.loads(out_path.read_text())["suites"]
    assert {k for k, s in suites.items() if s["passed"]} == {"cocycle", "coboundary", "nu-norm"}
    for name in ("residue", "quasiperiod", "canonical", "gemcont", "rauch"):
        assert "needs genus >= 2" in suites[name]["error"]


def _sweep_surface(seed: int, genus: int, draw: int) -> dict:
    """Surface `draw` (0-based) of the pinned sweep over Schottky space: for
    each handle in turn, w_plus and w_minus uniform in [-6, 6]^2, r uniform
    in [0.2, 1.2] and theta in [0, 2 pi), rho = r^2 e^{i theta}; a draw is
    rejected at the first handle whose own two discs overlap, or when the
    smallest disc gap is below 0.3."""
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) <= draw:
        handles = []
        for _ in range(genus):
            w_plus, w_minus = complex(*rng.uniform(-6, 6, 2)), complex(*rng.uniform(-6, 6, 2))
            r, angle = rng.uniform(0.2, 1.2), rng.uniform(0, 2 * np.pi)
            if abs(w_plus - w_minus) <= 2 * r:
                break
            handles.append(HandleParams(w_plus, w_minus, r * r * np.exp(1j * angle)))
        else:
            p = SchottkyParams(handles)
            if min(gap for _, gap in disc_gaps(p)) >= 0.3:
                kept.append(p)
    return surface_to_dict(kept[draw])


# today's outcome of each draw, so the fail-closed checks below meet real
# failures: draw 0's period matrix is asymmetric by exactly 1 (ROADMAP item
# 4) and draw 2's probe circle grazes its disc (item 5); mending either
# changes its row here
SWEEP_DRAWS = [
    (0, 1, {"rauch": "PeriodSymmetryError"}),
    (1, 0, {}),
    (2, 1, {s: "GeometryError" for s in ("quasiperiod", "canonical", "gemcont", "rauch")}),
]


@pytest.mark.parametrize("draw, code, errors", SWEEP_DRAWS, ids=["draw0", "draw1", "draw2"])
def test_report_fails_closed_on_random_surfaces(tmp_path, draw, code, errors):
    """report --all on genus-2 surfaces of the pinned sweep (seed 11):
    no NaN or inf in the JSON, no traceback, every failing suite names an
    error or a failing check, the exit code follows the verdicts, and the
    only warnings are TruncationWarnings, caught here."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "surface": _sweep_surface(11, 2, draw), "N": 2, "max_len": 10, "shell_tol": 1e-8,
        "stop_tol": 1e-11, "nodes": 256, "seed": 0,
    }))
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        got = main(["report", "--all", "--config", str(cfg), "--json", str(out)])
    assert all(issubclass(w.category, poincare.TruncationWarning) for w in caught)

    def refuse(constant):
        raise AssertionError(f"{constant} in the report")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    suites = payload["suites"]
    for name, s in suites.items():
        assert "traceback" not in s, name
        assert s["passed"] or s.get("error") or not all(c["passed"] for c in s["checks"].values())
    ok = all(s["passed"] for s in suites.values()) and "error" not in payload["period_matrix"]
    assert got == (0 if ok else 1) == code
    named = {name: s["error"].split(":")[0] for name, s in suites.items() if "error" in s}
    assert named == errors


def _readme_commands():
    """The `schottkycalc ...` lines of the README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line")[1].split("```sh")[1].split("```")[0]
    return [
        shlex.split(cmd)[1:]
        for cmd in block.replace("\\\n", " ").splitlines()
        if cmd.startswith("schottkycalc ")
    ]


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_readme_commands_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 8
    shutil.copytree(Path(__file__).parents[1] / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "--max-len" not in argv:
            argv = argv + ["--max-len", "5"]
        assert main(argv) == 0, argv


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
def test_readme_quick_start_runs(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library quick start")[1].split("```python")[1].split("```")[0]
    assert "max_len=10" in block and "exact_period_gradient(pm)" in block
    exec(compile(block.replace("max_len=10", "max_len=5"), "README.md", "exec"), {})
    assert capsys.readouterr().out  # it printed Omega and the identity's error


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


def test_failed_eval_writes_no_file(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise _KernelBuilt

    monkeypatch.setattr(cli, "canonical_gem", broken)
    out_path = tmp_path / "e.csv"
    argv = ["eval", "--config", write_config(tmp_path), "--what", "gem"]
    assert main(argv + ["--grid", "0.4j,1+0.4j,3,0.3-0.9j,0.5-0.9j,2", "--out", str(out_path)]) == 1
    assert "_KernelBuilt" in capsys.readouterr().err
    assert not out_path.exists()


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
    kernels, matrices, depths, factors, plans, fields = [], [], [], [], [], []
    _counting(monkeypatch, cli, "canonical_gem", kernels)
    _counting(monkeypatch, poincare._GroupPlan, "__init__", plans)
    _counting(monkeypatch, poincare._PoleGroups, "far", fields)
    deep_sums, series_sum = [], poincare._ShellSeries._sum

    def spy_sum(self, *args):
        out = series_sum(self, *args)
        deep_sums.append(len(self._last_shell_mags) > poincare._DIRECT_SHELLS)
        return out

    monkeypatch.setattr(poincare._ShellSeries, "_sum", spy_sum)
    for module in (cli, variation):
        _counting(monkeypatch, module, "period_matrix", matrices)
    # spies that keep no tree alive, over a registry no other test fills
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    build, scan = poincare.build_shells, poincare.limit_points
    monkeypatch.setattr(
        poincare, "build_shells", lambda p, n, **kw: depths.append(n) or build(p, n, **kw)
    )
    monkeypatch.setattr(poincare, "limit_points", lambda p, n: factors.append(n) or scan(p, n))
    cfg = write_config(tmp_path, max_len=5)
    out_path = tmp_path / "report.json"
    assert main(["report", "--config", cfg, "--all", "--json", str(out_path)]) == 0
    assert len(kernels) == 1
    # one word tree, built to shell 4 for the config's depth 5, and one set of
    # weight-2 limit-point factors, shared by every evaluator the suites build
    assert depths.count(poincare._DIRECT_SHELLS) == 1 and max(depths) == poincare._DIRECT_SHELLS
    assert factors == [3]
    # the deep shells planned once for each set of shared points: the
    # weight-2 limit points, y0 = 0 (nu and the third kind) and the second
    # nu's base point
    assert len(plans) == 3
    # one far pass for each series pass that reaches a deep shell
    assert sum(deep_sums) > 0 and len(fields) == sum(deep_sums)
    # one certified base, shared by the rauch suite (which differentiates
    # it exactly) and the report's period_matrix entry
    assert len(matrices) == 1
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


def test_quasiperiod_suite_builds_one_table(tmp_path, monkeypatch):
    tables, passes = [], []
    _counting(monkeypatch, gem.SpanningTheta, "table", tables)
    _counting(monkeypatch, poincare.BersEvaluator, "value_grid", passes)
    rep = run_suite(load_config(write_config(tmp_path)), "quasiperiod")
    assert rep["passed"], rep
    assert len(tables) == 1  # one all-handle table at both probe points
    # the table's pass and one off-grid pass over every g_a y_a and y_a
    assert len(passes) == 2


class _KernelBuilt(ArithmeticError):
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


def test_coboundary_residual_is_relative_to_its_values(monkeypatch):
    # genus3_wide's values reach 1.6e6, so an absolute error of rounding size
    # there is about 2e-9; a wrong coefficient must still fail
    rc = load_config(str(Path(__file__).parents[1] / "configs" / "genus3_wide.json"))
    assert run_suite(rc, "coboundary")["passed"]
    exact = cli.decompose_coboundary

    def decompose(p, P):
        coeffs = exact(p, P)
        coeffs[0, 0] *= 1 + 1e-6
        return coeffs

    monkeypatch.setattr(cli, "decompose_coboundary", decompose)
    rep = run_suite(rc, "coboundary")
    assert rep["checks"]["reconstruction"]["residual"] > 1e-10
    assert rep["passed"] is False


def test_suite_seed_is_echoed(tmp_path):
    cfg = write_config(tmp_path, seed=11)
    rep = run_suite(load_config(cfg), "cocycle")
    assert rep["seed"] == 11 and rep["passed"]


def test_cocycle_suite_fails_on_a_nan_coefficient(tmp_path, monkeypatch):
    evaluate, calls = cli.cocycle_eval, itertools.count()

    def nan_second_coefficient(X, word):
        value = evaluate(X, word)
        # each check evaluates the whole word first, then its two halves,
        # whose pullback would spread a NaN over every coefficient
        if next(calls) % 3:
            return value
        coeffs = list(value.coeffs)
        coeffs[1] = complex("nan")
        return PolyForm(X.N, coeffs)

    monkeypatch.setattr(cli, "cocycle_eval", nan_second_coefficient)
    rep = run_suite(load_config(write_config(tmp_path)), "cocycle")
    assert rep["passed"] is False


@pytest.mark.parametrize("N", [3, 4])
def test_cocycle_and_coboundary_pass_above_weight_two(tmp_path, N):
    # the (2N-1)-square action matrices at N = 3 and 4: 5x5 and 7x7
    rc = load_config(write_config(tmp_path, N=N))
    for suite in ("cocycle", "coboundary"):
        rep = run_suite(rc, suite)
        assert rep["passed"], rep
        assert all(c["residual"] <= 1e-13 for c in rep["checks"].values()), rep


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("seed", [1, 2])
def test_report_builds_one_action_matrix_per_map(seed):
    # each generator, its inverse and the translations by +-w_a: 4g matrices,
    # however many random words the cocycle suite draws
    cfg = str(Path(__file__).parents[1] / "configs" / "surface_star.json")
    eichler._action.cache_clear()
    assert main(["report", "--all", "--config", cfg, "--max-len", "5", "--seed", str(seed)]) == 0
    assert eichler._action.cache_info().misses == 4 * load_config(cfg).surface.genus == 8


@pytest.mark.parametrize("N", [5, 6])
def test_residue_and_quasiperiod_pass_at_high_weight(tmp_path, N):
    # the 2N - 1 limit points' words must be cyclically reduced; at N >= 5 the
    # scan once took (1, 2, -1) and the weight-N series failed to build
    rc = load_config(write_config(tmp_path, N=N, max_len=7, shell_tol=1e-8))
    ctx = cli.RunContext(rc)
    for suite in ("residue", "quasiperiod"):
        assert run_suite(rc, suite, ctx)["passed"], suite


def test_suite_keeps_the_traceback_of_a_programming_error(tmp_path, monkeypatch):
    def broken(rc, ctx):
        raise TypeError("bad call")

    def diverged(rc, ctx):
        raise ArithmeticError("diverged")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "cocycle", broken)
    monkeypatch.setitem(cli._SUITE_RUNNERS, "residue", diverged)
    rc = load_config(write_config(tmp_path))
    bug, failure = run_suite(rc, "cocycle"), run_suite(rc, "residue")
    assert bug["error"] == "TypeError: bad call" and bug["passed"] is False
    assert "in broken" in bug["traceback"]
    assert bug["traceback"].rstrip().endswith("TypeError: bad call")
    assert failure["error"] == "ArithmeticError: diverged" and failure["passed"] is False
    assert "traceback" not in failure  # a numerical failure stays one line


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "schottkycalc.cli", "validate", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


@pytest.mark.filterwarnings("ignore::schottkycalc.poincare.TruncationWarning")
@pytest.mark.parametrize("name", ["surface_star", "asymmetric", "genus3_wide"])
def test_report_builds_words_to_shell_4_on_the_shipped_configs(monkeypatch, name):
    """Every evaluator of a full report builds its word tree to shell 4 at
    most, whatever the config's max_len (10, 7 and 5); the deeper shells
    come from shell 4's moments and the tracked outside words."""
    depths, build = [], poincare.build_shells
    monkeypatch.setattr(poincare, "_LIVE", weakref.WeakValueDictionary())
    monkeypatch.setattr(
        poincare, "build_shells", lambda p, n, **kw: depths.append(n) or build(p, n, **kw)
    )
    cfg = str(Path(__file__).parents[1] / "configs" / f"{name}.json")
    assert main(["report", "--config", cfg, "--all"]) == 0
    assert depths and max(depths) <= poincare._DIRECT_SHELLS
