"""CLI driver: suites, report emission, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from openbooks import cli
from openbooks.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE,
                           SuiteConfig, emit_report, main, run_suite)
from openbooks.report import SCHEMA_VERSION, make_report, merge_reports


def _strip_timing(payload):
    out = copy.deepcopy(payload)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("wall_time_ms", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)

    scrub(out)
    return out


def test_unknown_suite_rejected_at_parse_time():
    with pytest.raises(ValueError):
        SuiteConfig(suite="nope")


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        SuiteConfig(suite="g1_s3", samples=0)


def test_negative_seed_and_non_path_out_rejected():
    with pytest.raises(ValueError):
        SuiteConfig(suite="g1_s3", seed=-1)
    with pytest.raises(ValueError):
        SuiteConfig(suite="g1_s3", out=5)


def test_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"suite": "subcritical", "seed": 3,
                                    "samples": 500}))
    cfg = SuiteConfig.from_file(cfg_path, {"seed": 9})
    assert cfg.suite == "subcritical" and cfg.seed == 9
    with pytest.raises(ValueError):
        SuiteConfig.from_file(cfg_path, {"suite": "bogus"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suite": "subcritical", "mystery": 1}))
    with pytest.raises(ValueError):
        SuiteConfig.from_file(bad)


def test_full_g1_suite_passes_and_exits_zero(tmp_path, capsys):
    code = main(["--suite", "g1_s3", "--seed", "7", "--samples", "600",
                 "--out", str(tmp_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS] g1_s3/contact" in out
    payload = json.loads((tmp_path / "reports.json").read_text())
    assert all(r["passed"] for r in payload)
    assert all(r["schema_version"] == SCHEMA_VERSION for r in payload)


def test_failing_check_exits_one(monkeypatch, capsys):
    def failing(cfg, seed):
        return make_report("failing", n_samples=1, tolerance=1e-3,
                           seed=seed, min_margin=1e-4)

    monkeypatch.setitem(cli.SUITES, "subcritical", lambda: [
        ("failing", failing)])
    assert main(["--suite", "subcritical"]) == EXIT_CHECK_FAILED
    assert "[FAIL] subcritical/failing" in capsys.readouterr().out


def test_tolerance_flag_exits_two(capsys):
    # margin bounds are fixed by each check, not by the command line
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "subcritical", "--tolerance", "1e-3"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


# the *_grid and removed_* cases name a field that the config no longer has
@pytest.mark.parametrize("config, argv", [
    ({"suite": "g1_s3", "samples": "10"}, []),
    (["g1_s3"], []),
    ({"suite": "g2_s3", "eps_grid": 5}, []),
    ({"suite": "g2_s5", "tolerance": 1e-3}, []),
    ({"suite": "g2_s3", "eps_grid": []}, []),
    ({"suite": "g2_s3", "t_grid": [0.0]}, []),
    ({"suite": "g2_s3", "tau_grid": [0.0]}, []),
    ({"suite": "g2_s3", "flow_starts": 1}, []),
    ({"suite": "g1_s3", "flow_step": 0.5}, []),
    ({"suite": "g2_s3", "binding_samples": 1}, []),
], ids=["string_count", "top_level_array", "scalar_grid", "tolerance_field",
        "empty_eps_grid", "removed_t_grid", "removed_tau_grid",
        "removed_flow_starts", "removed_flow_step",
        "removed_binding_samples"])
def test_bad_config_exits_two_with_error_line(tmp_path, capsys, config, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_config_has_five_fields():
    assert list(SuiteConfig.__dataclass_fields__) == [
        "suite", "seed", "samples", "out", "format"]


def test_unknown_suite_exits_two(capsys):
    assert main(["--suite", "not_a_suite"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_json_round_trip(tmp_path):
    cfg = SuiteConfig(suite="subcritical", seed=5, samples=400)
    reports = run_suite(cfg)
    paths = emit_report(reports, "json", tmp_path)
    payload = json.loads(open(paths[0]).read())
    assert [r["name"] for r in payload] == [r.name for r in reports]
    for loaded, report in zip(payload, reports):
        assert loaded["min_margin"] == report.min_margin
        assert loaded["max_residual"] == report.max_residual
        assert loaded["seed"] == report.seed
        assert loaded["passed"] == report.passed


def test_csv_columns_for_filling_sweep(tmp_path):
    from openbooks.bourgeois import FILLING_EPS_GRID, FILLING_T_GRID
    from openbooks.monodromy import FLOW_STARTS

    cfg = SuiteConfig(suite="g2_s3", seed=7, samples=300)
    reports = run_suite(cfg)
    paths = emit_report(reports, "csv", tmp_path)
    lines = open(paths[0]).read().splitlines()
    header = lines[0].split(",")
    assert {"name", "eps", "T", "min_margin"} <= set(header)
    assert len(header) == len(set(header))
    sweep_rows = [ln for ln in lines if "filling_polynomial" in ln]
    # one per (eps, T) pair
    assert len(sweep_rows) == len(FILLING_EPS_GRID) * len(FILLING_T_GRID)
    # monodromy endpoint comparisons also land one row per sample
    mono_rows = [ln for ln in lines if "monodromy_vs_twist" in ln]
    assert len(mono_rows) == FLOW_STARTS


def test_rerun_with_same_seed_is_bit_identical():
    cfg = SuiteConfig(suite="prelag", seed=11, samples=300)
    first = [r.to_dict() for r in run_suite(cfg)]
    second = [r.to_dict() for r in run_suite(cfg)]
    assert json.dumps(_strip_timing(first)) == json.dumps(
        _strip_timing(second))


def test_all_suites_pass_without_svd(monkeypatch):
    # frames, the Reeb solve and the rank tests take no SVD: every check
    # of the six suites still runs and passes at the default seed
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    reports = [r for suite in cli.SUITE_NAMES
               for r in run_suite(SuiteConfig(suite=suite, seed=7))]
    assert len(reports) == 40
    assert [r.name for r in reports if not r.passed] == []


def test_seed_recorded_allows_rerun():
    cfg = SuiteConfig(suite="subcritical", seed=13, samples=300)
    reports = run_suite(cfg)
    for report in reports:
        assert report.seed >= 13
    again = run_suite(cfg)
    assert [r.seed for r in reports] == [r.seed for r in again]
    assert [r.min_margin for r in reports] == [r.min_margin for r in again]


def test_unwritable_out_path_exits_two(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    code = main(["--suite", "subcritical", "--samples", "300",
                 "--out", str(blocker / "sub")])
    assert code == EXIT_USAGE


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_raised_check_and_nan_margin_emit_strict_json(tmp_path, monkeypatch):
    def raising(cfg, seed):
        raise RuntimeError("boom")

    def nan_margin(cfg, seed):
        return make_report("nan_margin", n_samples=3, tolerance=0.0,
                           seed=seed, min_margin=float("nan"))

    monkeypatch.setitem(cli.SUITES, "subcritical", lambda: [
        ("raising", raising), ("nan_margin", nan_margin)])
    reports = run_suite(SuiteConfig(suite="subcritical", seed=3))
    path, = emit_report(reports, "json", tmp_path)
    payload = json.loads(open(path).read(), parse_constant=_reject_constant)
    raised, nan = payload
    assert raised["name"] == "subcritical/raising"
    assert raised["passed"] is False and raised["max_residual"] is None
    assert "check raised RuntimeError: boom" in raised["note"]
    assert nan["min_margin"] is None and nan["passed"] is False
    # the in-memory reports keep their non-finite values
    assert reports[0].max_residual == float("inf")


def test_run_suite_times_each_check_itself(monkeypatch):
    def merged(cfg, seed):
        time.sleep(0.02)
        children = [make_report(f"child{i}", n_samples=1, tolerance=0.0,
                                seed=seed)
                    for i in range(2)]
        for child in children:
            child.wall_time_ms = 1e6
        return merge_reports("merged", children, seed=seed)

    monkeypatch.setitem(cli.SUITES, "subcritical",
                        lambda: [("merged", merged)])
    report, = run_suite(SuiteConfig(suite="subcritical", seed=3))
    assert 20.0 <= report.wall_time_ms < 1e5
    assert [d.wall_time_ms for d in report.details] == [1e6, 1e6]


def test_module_entry_point_runs_without_runpy_warning():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, "-m", "openbooks.cli", "--suite", "subcritical"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    assert "found in sys.modules" not in proc.stderr
    assert "[PASS] subcritical/coordinates" in proc.stdout
