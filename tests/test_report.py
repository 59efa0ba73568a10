"""CheckReport semantics: the pass rule and reductions."""

import math

from openbooks.report import make_report, merge_reports


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
