"""The comparison of `tools/report_drift.py`, on hand-made reports."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_drift.py"
_SPEC = importlib.util.spec_from_file_location("report_drift", _PATH)
report_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_drift)


def _leaf(name, margin, residual, passed=True, seed=7):
    return {"schema_version": 1, "name": name, "n_samples": 10,
            "min_margin": margin, "max_residual": residual,
            "tolerance": 0.0, "residual_tolerance": 1e-8,
            "passed": passed, "seed": seed, "note": ""}


def _runs(margin_b, residual_b, passed_b, sweep_b):
    # two suite runs (seeds 7 and 8); the second holds a merged check with
    # two leaves and a sweep row
    first = [_leaf("s/a", 0.5, 1e-12)]
    second = [_leaf("s/a", 0.5, 1e-12, seed=8),
              {**_leaf("s/b", 0.25, residual_b, passed_b, seed=8),
               "details": [_leaf("x", margin_b, 1e-10, seed=8),
                           _leaf("y", 0.25, residual_b, passed_b, seed=8)],
               "rows": [{"T": 1.0, "min_margin": sweep_b}]}]
    return [first, second]


def test_equal_reports_compare_equal():
    base = _runs(0.75, 2e-9, True, 3.0)
    result = report_drift.compare(base, _runs(0.75, 2e-9, True, 3.0))
    assert (result["runs_equal"], result["runs"]) == (2, 2)
    assert (result["equal"], result["total"]) == (3, 3)
    assert result["flips"] == [] and result["drift"] == {}
    assert result["other"] == []
    text = report_drift.format_result(result, "HEAD")
    assert "suite runs: 2 of 2" in text and "reports: 3 of 3" in text
    assert "|" not in text


def test_drift_flips_and_ranges_are_found():
    base = _runs(0.75, 2e-9, True, 3.0)
    change = _runs(0.75 + 2e-16, 2e-8, False, 3.5)
    result = report_drift.compare(base, change)
    assert (result["runs_equal"], result["equal"]) == (1, 2)
    assert sorted(result["flips"]) == [("s/b", 8, True, False),
                                       ("s/b/y", 8, True, False)]
    drift = result["drift"]
    assert set(drift) == {("s/b/x", "min_margin"), ("s/b", "max_residual"),
                          ("s/b/y", "max_residual"),
                          ("s/b", "rows.min_margin")}
    gap, lo_a, hi_a, lo_b, hi_b = drift[("s/b/y", "max_residual")]
    assert gap == pytest.approx(1.8e-8)
    assert (lo_a, hi_a, lo_b, hi_b) == (2e-9, 2e-9, 2e-8, 2e-8)
    assert drift[("s/b", "rows.min_margin")][0] == 0.5
    assert drift[("s/b/x", "min_margin")][0] == pytest.approx(2e-16)
    text = report_drift.format_result(result, "HEAD")
    assert "| `s/b/y` | `max_residual` | 2e-09 – 2e-09 | 2e-08 – 2e-08" in text
    assert "pass flips: 2" in text


def test_nan_on_both_sides_is_no_drift_and_a_new_nan_is():
    base = [[_leaf("s/a", math.nan, 1e-12)], [_leaf("s/c", 1.0, 0.0)]]
    same = report_drift.compare(base, [[_leaf("s/a", math.nan, 1e-12)],
                                       [_leaf("s/c", 1.0, 0.0)]])
    assert same["drift"] == {} and same["equal"] == 2
    moved = report_drift.compare(base, [[_leaf("s/a", math.nan, 1e-12)],
                                        [_leaf("s/c", math.nan, 0.0)]])
    assert math.isnan(moved["drift"][("s/c", "min_margin")][0])


def test_runs_of_different_shape_are_rejected():
    base = _runs(0.75, 2e-9, True, 3.0)
    with pytest.raises(ValueError):
        report_drift.compare(base, base[:1])


def test_wall_time_is_scrubbed_at_every_level():
    report = {**_leaf("s/b", 0.25, 1e-9), "wall_time_ms": 3.0,
              "details": [{**_leaf("x", 0.5, 0.0), "wall_time_ms": 1.0}]}
    scrubbed = report_drift.scrub(report)
    assert "wall_time_ms" not in scrubbed
    assert "wall_time_ms" not in scrubbed["details"][0]
    assert report["wall_time_ms"] == 3.0
