"""Record the values the benchmark's guard compares every report with.

    python3 benchmarks/record_expected.py

For every suite seed in workloads.SUITE_SEEDS and every check of the
workloads, it writes to expected.json the name, n_samples, tolerance and
residual_tolerance of the report and of each sub-report, and the flow
point-steps (points x RK4 steps) the check integrates.  A run of the
benchmark counts a check as failed when its report departs from these,
so that no speed-up can come from fewer samples, looser tolerances or
coarser flow steps.  Re-record only in a change that says why.
"""

from __future__ import annotations

import json
import sys

from checkout import import_openbooks

import_openbooks()

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def record_seed(base_seed: int) -> dict:
    labels = [label for group in wl.WORKLOADS.values() for label in group]
    checks = wl.build_checks(labels, base_seed)
    tracer = tr.Tracer()
    with tr.Instrumentation(tracer):
        done = wl.run_pass(checks, tracer)
    entries = {}
    for report, steps in zip(done.reports, done.point_steps):
        if not report.passed:
            raise SystemExit(f"{report.name} fails at suite seed "
                             f"{base_seed}: {report.note}")
        entries[report.name] = {"point_steps": steps,
                                "reports": wl.guarded_fields(report)}
    return entries


def main() -> int:
    # every check at the first suite seed; at later seeds only the checks
    # whose record differs from it (seed-dependent filtered sample counts)
    table = {}
    for seed in wl.SUITE_SEEDS:
        for label, entry in record_seed(seed).items():
            by_seed = table.setdefault(label, {})
            if not by_seed or entry != by_seed[str(wl.SUITE_SEEDS[0])]:
                by_seed[str(seed)] = entry
        print(f"recorded suite seed {seed}", file=sys.stderr)
    lines = [f"  {json.dumps(label)}: {{\n" + ",\n".join(
                 f"   {json.dumps(seed)}: {json.dumps(entry)}"
                 for seed, entry in by_seed.items()) + "}"
             for label, by_seed in table.items()]
    with open(wl.EXPECTED_PATH, "w") as fh:
        fh.write('{"checks": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
