"""CheckReport semantics: the pass rule and reductions."""

import json
import math
import sys
import time

import numpy as np
import pytest

from openbooks.report import SweepRow, make_report, merge_reports, timed


def test_pass_rule_margin_and_residual():
    assert make_report("m", n_samples=1, tolerance=1e-3, seed=0,
                       min_margin=1e-2).passed
    assert not make_report("m", n_samples=1, tolerance=1e-3, seed=0,
                           min_margin=1e-4).passed
    assert make_report("r", n_samples=1, tolerance=1e-6, seed=0,
                       max_residual=1e-8).passed
    assert not make_report("r", n_samples=1, tolerance=1e-6, seed=0,
                           max_residual=1e-3).passed
    # separate residual tolerance when margins and residuals differ in scale
    both = make_report("b", n_samples=1, tolerance=1e-3, seed=0,
                       min_margin=0.5, max_residual=1e-9,
                       residual_tolerance=1e-8)
    assert both.passed


@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("kind", ["min_margin", "max_residual"])
def test_nan_anywhere_in_pointwise_values_fails(kind, position):
    values = np.linspace(1.0, 2.0, 5) * (1.0 if kind == "min_margin" else 1e-9)
    values[position] = np.nan
    for given in (values, [values[:2], values[2:]]):
        report = make_report("x", n_samples=5, tolerance=1e-3, seed=0,
                             residual_tolerance=1e-6, **{kind: given})
        assert math.isnan(getattr(report, kind))
        assert not report.passed


def test_pointwise_values_reduce_exactly():
    margins = [np.array([0.5, 0.25]), np.array([[0.75], [0.125]]), 0.3]
    report = make_report("x", n_samples=5, tolerance=0.1, seed=0,
                         min_margin=margins, max_residual=np.array([1e-9, 0.0]),
                         residual_tolerance=1e-8)
    assert (report.min_margin, report.max_residual) == (0.125, 1e-9)
    assert type(report.min_margin) is float
    assert report.passed
    assert not make_report("x", n_samples=5, tolerance=0.2, seed=0,
                           min_margin=margins).passed


def test_timed_stamps_the_returned_report():
    @timed
    def check(seed=0):
        time.sleep(0.01)
        leaf = make_report("leaf", n_samples=1, tolerance=0.0, seed=seed,
                           min_margin=1.0)
        return merge_reports("check", [leaf], seed=seed)

    @timed
    def with_output():
        return "output", make_report("r", n_samples=1, tolerance=0.0,
                                     seed=0, min_margin=1.0)

    report = check()
    assert report.wall_time_ms >= 10.0
    assert report.details[0].wall_time_ms == 0.0
    assert check.__name__ == "check"
    out, report = with_output()
    assert out == "output" and report.wall_time_ms > 0.0


def test_merge_takes_worst_case():
    good = make_report("a", n_samples=2, tolerance=1e-3, seed=0,
                       min_margin=0.5)
    bad = make_report("b", n_samples=3, tolerance=1e-3, seed=0,
                      min_margin=1e-5)
    merged = merge_reports("all", [good, bad])
    assert merged.n_samples == 5
    assert merged.min_margin == 1e-5
    assert not merged.passed
    assert [d.name for d in merged.details] == ["a", "b"]


def test_merge_propagates_nan_in_either_order():
    nan = make_report("n", n_samples=1, tolerance=1e-3, seed=0,
                      min_margin=float("nan"), max_residual=float("nan"))
    fine = make_report("f", n_samples=1, tolerance=1e-3, seed=0,
                       min_margin=1.0, max_residual=1e-9)
    for pair in ([nan, fine], [fine, nan]):
        merged = merge_reports("all", pair)
        assert math.isnan(merged.min_margin)
        assert math.isnan(merged.max_residual)
        assert not merged.passed
    merged = merge_reports("all", [fine, fine])
    assert (merged.min_margin, merged.max_residual) == (1.0, 1e-9)
    assert type(merged.min_margin) is float


def test_report_dict_has_stable_schema():
    d = make_report("x", n_samples=1, tolerance=1e-3, seed=4,
                    min_margin=0.1, note="identity").to_dict()
    assert list(d) == ["schema_version", "name", "n_samples", "min_margin",
                       "max_residual", "tolerance", "residual_tolerance",
                       "passed", "seed", "wall_time_ms", "note"]


def test_sweep_row_reads_and_writes_like_its_dict():
    as_dict = {"eps": 0.05, "T": 2.5, "min_margin": 0.125}
    row = SweepRow(0.05, 2.5, 0.125)
    assert row == as_dict and dict(row) == as_dict
    assert list(row) == list(as_dict) and set(row) == set(as_dict)
    assert row["T"] == 2.5 and len(row) == 3
    with pytest.raises(KeyError):
        row["sample"]
    with pytest.raises(TypeError):
        row["T"] = 3.0
    assert not hasattr(row, "__dict__")
    assert sys.getsizeof(row) < sys.getsizeof(as_dict)
    report = make_report("sweep", n_samples=1, tolerance=0.0, seed=0,
                         min_margin=0.125, rows=[row])
    twin = make_report("sweep", n_samples=1, tolerance=0.0, seed=0,
                       min_margin=0.125, rows=[as_dict])
    assert type(report.to_dict()["rows"][0]) is dict
    assert json.dumps(report.to_dict()) == json.dumps(twin.to_dict())
