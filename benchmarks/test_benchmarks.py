"""Self-tests of the benchmark: its workloads, report equality with the
CLI, the sample/tolerance/step guard and the tracer.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from checkout import ROOT, import_openbooks

import_openbooks()

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
import openbooks  # noqa: E402
from openbooks import (bourgeois, cli, contact, forms, liouville,  # noqa: E402
                       manifolds, monodromy, prelagrangian)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL_LABELS = [f"{suite}/{name}" for suite in cli.SUITE_NAMES
              for name, _ in cli.SUITES[suite]()]
SELECTED = [label for group in wl.WORKLOADS.values() for label in group]


def test_workloads_hold_every_cli_check_once():
    assert len(ALL_LABELS) == 40
    assert sorted(SELECTED) == sorted(ALL_LABELS)


def test_workloads_and_per_layer_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = run.per_layer(tr.Tracer(), 1.0, 0.0, 0.5)
    assert set(names) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("base_seed", wl.SUITE_SEEDS[:2])
@pytest.mark.parametrize("suite", cli.SUITE_NAMES)
def test_reports_equal_run_suite(suite, base_seed, monkeypatch):
    monkeypatch.delenv("OPENBOOKS_THREADS", raising=False)
    want = cli.run_suite(cli.SuiteConfig(suite=suite, seed=base_seed))
    labels = [label for label in SELECTED if label.startswith(suite + "/")]
    got = [wl.run_check(c) for c in wl.build_checks(labels, base_seed)]

    def scrubbed(reports):
        return [json.dumps(wl.scrub(r.to_dict()), sort_keys=True)
                for r in reports]

    assert scrubbed(got) == scrubbed(want)


def test_guard_records_every_check_at_every_suite_seed():
    for seed in wl.SUITE_SEEDS:
        assert set(wl.load_expected(seed)) == set(ALL_LABELS)


def test_guard_flags_fewer_samples_other_tolerances_and_steps():
    seed = wl.SUITE_SEEDS[0]
    expected = wl.load_expected(seed)
    check, = wl.build_checks(["g1_s3/representation"], seed)
    report = wl.run_check(check)
    assert wl.guard_violations(report, expected, point_steps=0) == []
    assert wl.guard_violations(report, expected, point_steps=1)
    for changed in (
            dataclasses.replace(report, n_samples=report.n_samples - 1),
            dataclasses.replace(report, tolerance=2 * report.tolerance),
            dataclasses.replace(report, residual_tolerance=1.0),
            dataclasses.replace(report, details=[
                dataclasses.replace(report.details[0], tolerance=1.0),
                *report.details[1:]])):
        assert wl.guard_violations(changed, expected)


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    t.start("outer", label="outer")     # 0
    t.start("a", label="a")             # 1
    t.start("leaf")                     # 2
    t.stop()                            # 3
    t.stop()                            # 4: a lasts 3, its child 1
    t.start("b")                        # 5
    t.stop()                            # 6
    t.stop()                            # 10: outer lasts 10, children 3 + 1
    assert dict(t.self_s) == {"outer": 6.0, "a": 2.0, "leaf": 1.0, "b": 1.0}
    assert dict(t.calls) == {"outer": 1, "a": 1, "leaf": 1, "b": 1}
    assert t.spans == [
        {"name": "a", "parent": "outer", "start_s": 1.0, "end_s": 4.0},
        {"name": "outer", "parent": None, "start_s": 0.0, "end_s": 10.0}]
    assert t.layer_self_s("outer") == 0.0


def test_wrapped_call_that_raises_closes_its_span():
    t = tr.Tracer()

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError), t.span("outer"):
        t.wrap("inner", fails)()
    assert dict(t.calls) == {"inner": 1, "outer": 1}
    assert t._stack == []


def test_wrappers_replace_every_binding_by_name_and_are_removed():
    bindings = {
        "tangent_bases": [manifolds, contact, monodromy, liouville,
                          prelagrangian, openbooks],
        "sample": [manifolds, cli, bourgeois, openbooks],
        "simpson": [prelagrangian],
    }
    originals = {name: getattr(mods[0], name)
                 for name, mods in bindings.items()}
    for name, mods in bindings.items():
        assert all(getattr(m, name) is originals[name] for m in mods)
    with tr.Instrumentation(tr.Tracer()):
        for name, mods in bindings.items():
            wrapper = getattr(mods[0], name)
            assert getattr(wrapper, tr.TRACED) is originals[name]
            assert all(getattr(m, name) is wrapper for m in mods)
        assert tr.wrappers_present()
    assert tr.wrappers_present() == []
    for name, mods in bindings.items():
        assert all(getattr(m, name) is originals[name] for m in mods)


def test_at_basis_counts_broadcast_points_and_coeffs_calls():
    t = tr.Tracer()
    with tr.Instrumentation(t):
        form = forms.coordinate_differential(3, 0)
        form.at_basis(np.ones((4, 3)), np.eye(3)[None, :1])
        form.at_basis(np.ones(3), np.eye(3)[:1])
    assert t.calls["forms.at_basis"] == 2
    assert t.counts["forms.at_basis.points"] == 5
    assert t.counts["forms.coeffs.calls"] == 2


def test_flow_point_steps_come_from_the_arguments():
    rep = contact.coordinate_open_book(2)
    pts = manifolds.sample(rep.manifold, 40, 3)
    pts = pts[rep.f.modulus(pts) > 1e-2][:5]
    field = monodromy.coordinate_spinning_field(rep)
    t = tr.Tracer()
    with tr.Instrumentation(t):
        monodromy.flow(field, pts, 0.1, 0.01)
        monodromy.flow(field, pts[0], 0.1, step=0.02)
    assert t.calls["monodromy.flow"] == 2
    assert t.counts["monodromy.flow.point_steps"] == len(pts) * 10 + 5
    assert t.calls["monodromy.field_eval"] == 4 * (10 + 5)


@pytest.mark.parametrize("trace", [0, 1])
def test_only_traced_passes_run_with_wrappers(trace, monkeypatch):
    monkeypatch.setitem(wl.WORKLOADS, "flows", ("subcritical/weinstein_C",))
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    monkeypatch.setenv("OPENBOOKS_THREADS", "2")
    seen = []
    run_check = wl.run_check

    def probe(check):
        seen.append(bool(tr.wrappers_present()))
        return run_check(check)

    monkeypatch.setattr(wl, "run_check", probe)
    args = argparse.Namespace(workload="flows", seed=1, seconds=0.0,
                              trace=trace)
    result = run.measure(args)
    n_untraced = len(result["pass_s"])
    n_traced = len(result["traced_pass_s"])
    assert seen == [True] + [False] * n_untraced + [True] * n_traced
    assert n_traced == (run.MIN_TRACED_PASSES if trace else 0)
    assert result["failures"] == []
    assert set(result["metrics"]) == {
        m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    prov = result["provenance"]
    assert prov["openbooks_threads_before"] == "2"
    assert prov["suite_seed"] == wl.SUITE_SEEDS[1]


def test_scipy_import_time_counts_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        450 |   scipy.integrate",
        "import time:        10 |        760 | openbooks.prelagrangian",
    ])
    assert run.scipy_import_s(log) == pytest.approx(750e-6)


def test_tail_has_ten_values_beyond_it():
    assert run.tail(range(10)) is None
    value, percentile, n = run.tail([float(x) for x in range(20, 0, -1)])
    assert (value, percentile, n) == (10.0, 50.0, 20)
