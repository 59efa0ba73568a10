"""The benchmark's workloads: which of the CLI's checks each one runs, at
which seeds, and how the reports are checked.

Every check is the CLI's own callable from `cli.SUITES`, run at the
default `SuiteConfig` with the seed `run_suite` derives for it
(suite seed + 1000 * index in the suite), so each report equals what
`verify` emits.  The three workloads together hold all 40 checks, each
once.  README.md gives the reason for each workload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from openbooks import cli
from openbooks.report import make_report

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Suite seeds with recorded guard values.  `--seed n` runs at
# SUITE_SEEDS[n % len(SUITE_SEEDS)]: seed 0 is the CLI's default seed 7,
# seed 1 (suite seed 8) is the held-out seed no change is tuned on.
SUITE_SEEDS = tuple(range(7, 23))

WORKLOADS = {
    # exterior algebra on batches of 200-2000 points; no RK4 steps
    "batch_forms": (
        "g1_s3/contact", "g1_s3/adapted", "g1_s3/representation",
        "g1_s3/volume_identity", "g1_s3/product_contact",
        "g1_s3/slice_representation", "g1_s3/spinning_definition",
        "g2_s3/contact", "g2_s3/adapted", "g2_s3/representation",
        "g2_s3/volume_identity", "g2_s3/product_contact",
        "g2_s3/slice_representation", "g2_s3/spinning_solve",
        "g2_s3/spinning_contraction", "g2_s3/inverse_form",
        "g2_s3/isotopy", "g2_s3/filling_polynomial",
        "g2_s5/contact", "g2_s5/adapted", "g2_s5/representation",
        "g2_s5/volume_identity",
        "disk_hypersurface/completion_disk",
        "disk_hypersurface/completion_bundle",
        "disk_hypersurface/identification_disk",
        "disk_hypersurface/identification_bundle",
        "disk_hypersurface/page_volume_identity",
        "subcritical/coordinates", "subcritical/weinstein_C",
        "subcritical/weinstein_TstarT2",
    ),
    # 1000-step projected RK4 flows
    "flows": (
        "g1_s3/trivial_monodromy", "g2_s3/closed_form_flow",
        "g2_s3/monodromy_vs_twist", "disk_hypersurface/hypersurface",
    ),
    # the forms layer one point at a time
    "pointwise": (
        "g2_s3/dehn_twist_identities", "g2_s5/product_assembly",
        "prelag/circle_torus", "prelag/binding_torus", "prelag/legendrian",
        "prelag/straighten",
    ),
}


@dataclass(frozen=True)
class Check:
    label: str                      # "<suite>/<check>", as in the report
    fn: Callable
    cfg: cli.SuiteConfig
    seed: int


def suite_seed(seed: int) -> int:
    return SUITE_SEEDS[seed % len(SUITE_SEEDS)]


def build_checks(labels, base_seed: int) -> list[Check]:
    """The CLI's check callables for `labels`, in suite order, each with
    the config and seed run_suite would give it."""
    wanted = set(labels)
    checks = []
    for suite in cli.SUITE_NAMES:
        cfg = cli.SuiteConfig(suite=suite, seed=base_seed)
        for index, (name, fn) in enumerate(cli.SUITES[suite]()):
            label = f"{suite}/{name}"
            if label in wanted:
                checks.append(Check(label, fn, cfg,
                                    base_seed + 1000 * index))
    missing = wanted - {c.label for c in checks}
    if missing:
        raise ValueError(f"unknown checks: {sorted(missing)}")
    return checks


def run_check(check: Check):
    """Run one check as run_suite does: a check that raises becomes a
    failing report."""
    try:
        report = check.fn(check.cfg, check.seed)
    except Exception as exc:
        report = make_report(
            check.label, n_samples=0, tolerance=0.0, seed=check.seed,
            passed=False, max_residual=float("inf"),
            note=f"check raised {type(exc).__name__}: {exc}")
    report.name = check.label
    return report


@dataclass
class Pass:
    """One pass over a workload's checks."""
    reports: list
    wall_s: float
    cpu_s: float
    check_s: list                   # each check's own perf_counter time
    point_steps: list = field(default_factory=list)    # traced passes only


def run_pass(checks, tracer=None) -> Pass:
    """Run every check once, closed loop.  With a tracer (whose
    Instrumentation the caller has installed) each check is a span
    labelled with its name, and its flow point-steps are recorded."""
    gc.collect()
    reports, check_s, point_steps = [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for check in checks:
        t0 = time.perf_counter()
        if tracer is None:
            reports.append(run_check(check))
        else:
            before = tracer.counts["monodromy.flow.point_steps"]
            with tracer.span("cli.check", label=check.label):
                reports.append(run_check(check))
            point_steps.append(
                tracer.counts["monodromy.flow.point_steps"] - before)
        check_s.append(time.perf_counter() - t0)
    return Pass(reports, time.perf_counter() - wall0,
                time.process_time() - cpu0, check_s, point_steps)


def scrub(report_dict: dict) -> dict:
    """A report's dict without its wall_time_ms fields, at every level."""
    out = {k: v for k, v in report_dict.items() if k != "wall_time_ms"}
    if "details" in out:
        out["details"] = [scrub(d) for d in out["details"]]
    return out


def report_sha256(reports) -> str:
    """SHA-256 of the scrubbed reports; equal hashes mean bit-identical
    reports apart from timing."""
    text = json.dumps([scrub(r.to_dict()) for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def guarded_fields(report) -> list[list]:
    """[name, n_samples, tolerance, residual_tolerance] of a report and of
    every sub-report under it, depth first."""
    rows = [[report.name, report.n_samples, report.tolerance,
             report.residual_tolerance]]
    for detail in report.details:
        rows += guarded_fields(detail)
    return rows


def load_expected(base_seed: int) -> dict:
    """Recorded guard values per check at one suite seed.  The file holds
    every check at the first suite seed and, at the others, only the
    checks whose values differ from it."""
    with open(EXPECTED_PATH) as fh:
        table = json.load(fh)["checks"]
    first = str(SUITE_SEEDS[0])
    return {label: by_seed.get(str(base_seed), by_seed[first])
            for label, by_seed in table.items()}


def guard_violations(report, expected: dict, point_steps=None) -> list[str]:
    """How a report departs from the sample counts, tolerances and flow
    steps recorded for its check; [] when it does not."""
    want = expected[report.name]
    out = []
    if guarded_fields(report) != want["reports"]:
        out.append("sample count or tolerance differs from the record")
    if point_steps is not None and point_steps != want["point_steps"]:
        out.append(f"flow point-steps {point_steps} != recorded "
                   f"{want['point_steps']}")
    return out
