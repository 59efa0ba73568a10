"""Benchmark of openbooks: the time until a workload's checks return
correct reports, end to end, or where that time goes, layer by layer.

    python3 benchmarks/run.py --workload batch_forms --seed 0 --seconds 35 --trace 0

Workloads: batch_forms, flows, pointwise (see README.md).  With
`--trace 0` it times untraced warm passes over the workload's checks,
each relative to a reference computation timed around it, and prints
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it
runs traced passes as well and prints the per-layer metrics.  Every
report is checked: it must pass, equal the first pass bit for bit
(timings aside) and keep the recorded sample counts, tolerances and
flow steps.  The last line of standard output is one JSON object with
the fields correct, attempted, failed and metrics.  Provenance, report
hashes, per-check times and spans go to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checkout

MIN_PASSES = 5
# Size of the reference computation timed between passes (tens of ms).
REF_LOOP = 120_000
REF_CALLS = 600
# Untraced passes a traced run needs so that pass_s.tail exists: the
# tail is the highest percentile with at least ten passes beyond it.
TAIL_PASSES = 11
MIN_TRACED_PASSES = 3
SETUP_CHILDREN = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_checkout_child(extra_flags=()):
    """Run checkout.py in a fresh interpreter; returns (stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, *extra_flags, str(checkout.ROOT / "benchmarks"
                                          / "checkout.py")],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout, proc.stderr


def reference_s():
    """(wall, CPU) seconds of a fixed computation that involves neither
    openbooks nor the workload: an interpreter loop and small numpy calls,
    the two kinds of work a pass is made of.  Timed between passes, it
    measures how fast the machine is running at that moment.  Its CPU
    time is this thread's alone: BLAS threads still spinning after a
    pass would otherwise add to it."""
    import numpy as np

    mats = np.random.default_rng(0).normal(size=(64, 3, 3))
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    for _ in range(REF_CALLS):
        np.linalg.det(mats)
        np.einsum("nij,nij->n", mats, mats)
    return time.perf_counter() - wall0, time.thread_time() - cpu0


def scipy_import_s(importtime_log: str) -> float:
    """Seconds spent importing scipy, from a `-X importtime` log: the
    cumulative time of every scipy module no other scipy module imported.
    The log lists a module after the modules it imported, indented less."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue                                    # the header line
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        if not name.startswith("scipy"):
            continue
        ancestors, level = [], depth
        for later_depth, later_name, _ in entries[i + 1:]:
            if later_depth < level:
                ancestors.append(later_name)
                level = later_depth
        if not any(a.startswith("scipy") for a in ancestors):
            total_us += cumulative
    return total_us / 1e6


def tail(values):
    """(value, percentile, n) at the highest percentile with at least ten
    values beyond it, or None with fewer than eleven values."""
    xs = sorted(values)
    n = len(xs)
    if n < TAIL_PASSES:
        return None
    return xs[n - TAIL_PASSES], 100.0 * (n - 10) / n, n


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, base_seed, openbooks_threads):
    from importlib import metadata
    import platform

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "openbooks_threads_cleared": True,
        "openbooks_threads_before": openbooks_threads,
        "seed": args.seed,
        "suite_seed": base_seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def per_layer(t, tail_s, overhead_ratio, scipy_s):
    """The per-layer metrics of one traced pass, read from its tracer."""
    at_basis_calls = t.calls["forms.at_basis"]
    m = {
        "forms.at_basis.calls": at_basis_calls,
        "forms.at_basis.points": t.counts["forms.at_basis.points"],
        "forms.at_basis.points_per_call":
            t.counts["forms.at_basis.points"] / max(at_basis_calls, 1),
        "forms.coeffs.calls": t.counts["forms.coeffs.calls"],
        "monodromy.flow.point_steps": t.counts["monodromy.flow.point_steps"],
        "monodromy.field_evals": t.calls["monodromy.field_eval"],
        "prelagrangian.simpson.calls": t.calls["prelagrangian.simpson"],
    }
    for span in ("forms.jacobian", "manifolds.tangent_bases",
                 "manifolds.constraint_jacobian", "manifolds.project",
                 "contact.reeb_fields", "monodromy.flow"):
        m[f"{span}.calls"] = t.calls[span]
    for span in ("forms.at_basis", "forms.jacobian", "manifolds.tangent_bases",
                 "manifolds.constraint_jacobian", "manifolds.project",
                 "manifolds.sample", "contact.reeb_fields", "monodromy.flow",
                 "monodromy.field_eval", "monodromy.spinning_field",
                 "prelagrangian.loop_integral",
                 "prelagrangian.straighten_loop", "cli.check"):
        m[f"{span}.self_s"] = t.self_s[span]
    for layer in ("contact", "bourgeois", "liouville", "prelagrangian",
                  "report"):
        m[f"{layer}.self_s"] = t.layer_self_s(layer)
    m["setup.scipy_s"] = scipy_s
    m["pass_s.tail"] = tail_s
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def pass_failures(name, done, checks, expected, reference):
    """One entry per check of pass `name` that failed.  Flow point-steps
    are checked on traced passes, which record them."""
    import workloads as wl

    out = []
    for i, (check, report) in enumerate(zip(checks, done.reports)):
        reasons = [] if report.passed else [f"did not pass: {report.note}"]
        steps = done.point_steps[i] if done.point_steps else None
        reasons += wl.guard_violations(report, expected, steps)
        if reference is not None and wl.report_sha256([report]) != reference[i]:
            reasons.append("report differs from the first pass")
        if reasons:
            out.append({"pass": name, "check": check.label,
                        "reasons": reasons})
    return out


def measure(args):
    """Run the benchmark in this process; returns the result details."""
    openbooks_threads = os.environ.pop("OPENBOOKS_THREADS", None)
    _, import_s = checkout.import_openbooks()     # before numpy is imported
    import tracer as tr
    import workloads as wl

    setup_samples, scipy_s = [import_s], None
    if args.trace:
        scipy_s = scipy_import_s(run_checkout_child(("-X", "importtime"))[1])
    else:
        setup_samples += [float(run_checkout_child()[0])
                          for _ in range(SETUP_CHILDREN)]

    base_seed = wl.suite_seed(args.seed)
    checks = wl.build_checks(wl.WORKLOADS[args.workload], base_seed)
    expected = wl.load_expected(base_seed)

    # first pass: traced once for the flow steps the guard checks, and a
    # warm-up; its reports are the reference every later pass must equal
    with tr.Instrumentation(tr.Tracer()) as inst:
        first = wl.run_pass(checks, inst.tracer)
    failures = pass_failures("first", first, checks, expected, None)
    reference = [wl.report_sha256([r]) for r in first.reports]
    if tr.wrappers_present():
        raise RuntimeError(f"wrappers left installed: {tr.wrappers_present()}")

    probes = [reference_s()]

    def relative(done):
        """A pass's wall and CPU time over those of the reference
        computation, averaged over the probes just before and after it."""
        probes.append(reference_s())
        (w0, c0), (w1, c1) = probes[-2:]
        return done.wall_s / ((w0 + w1) / 2), done.cpu_s / ((c0 + c1) / 2)

    untraced, traced, layer_passes = [], [], []
    untraced_ref, traced_ref = [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    min_untraced = TAIL_PASSES if args.trace else MIN_PASSES
    start = time.perf_counter()
    while (len(untraced) < min_untraced
           or time.perf_counter() - start < budget):
        done = wl.run_pass(checks)
        untraced.append(done)
        untraced_ref.append(relative(done))
        failures += pass_failures(f"untraced[{len(untraced) - 1}]", done,
                                  checks, expected, reference)
    tracer = tr.Tracer()
    start = time.perf_counter()
    while args.trace and (len(traced) < MIN_TRACED_PASSES
                          or time.perf_counter() - start < args.seconds / 2):
        tracer.reset()
        label = f"traced[{len(traced)}]"
        with tr.Instrumentation(tracer), tracer.span("bench.pass", label):
            done = wl.run_pass(checks, tracer)
        traced.append(done)
        traced_ref.append(relative(done)[0])
        layer_passes.append(per_layer(
            tracer, tail([p.wall_s for p in untraced])[0],
            traced_ref[-1] / statistics.median(w for w, _ in untraced_ref)
            - 1.0, scipy_s))
        failures += pass_failures(label, done, checks, expected, reference)

    attempted = len(checks) * (1 + len(untraced) + len(traced))
    pass_s = [p.wall_s for p in untraced]
    if args.trace:
        metrics = {name: statistics.median_low(p[name] for p in layer_passes)
                   for name in layer_passes[0]}
    else:
        metrics = {
            "pass_ref": statistics.median(w for w, _ in untraced_ref),
            "pass_cpu_ref": statistics.median(c for _, c in untraced_ref),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_ratio": 1.0 - len(failures) / attempted,
        }
    return {
        "provenance": provenance(args, base_seed, openbooks_threads),
        "checks": [c.label for c in checks],
        "reports_sha256": wl.report_sha256(first.reports),
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "pass_s": pass_s,
        "pass_s_tail": tail(pass_s),
        "pass_cpu_s": [p.cpu_s for p in untraced],
        "pass_ref": [w for w, _ in untraced_ref],
        "pass_cpu_ref": [c for _, c in untraced_ref],
        "traced_pass_s": [p.wall_s for p in traced],
        "traced_pass_ref": traced_ref,
        "reference_s": probes,
        "setup_s_samples": setup_samples,
        "check_median_ms": {
            c.label: 1000 * statistics.median(p.check_s[i] for p in untraced)
            for i, c in enumerate(checks)},
        "layer_passes": layer_passes,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    try:
        result = measure(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(result["metrics"]):
        raise RuntimeError("metrics differ from those BENCHMARK.json declares")

    out_dir = checkout.ROOT / "benchmarks" / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)

    prov = result["provenance"]
    print(f"workload {args.workload}, seed {args.seed} (suite seed "
          f"{prov['suite_seed']}), trace {args.trace}, "
          f"{len(result['pass_s'])} untraced and "
          f"{len(result['traced_pass_s'])} traced passes")
    for m in declared:
        print(f"  {m['name']:<40} {result['metrics'][m['name']]:.6g} "
              f"{m['unit']}")
    for name in ("pass_s", "pass_cpu_s"):
        print(f"  {name:<40} {statistics.median(result[name]):.6g} s "
              f"(median of {len(result[name])} passes)")
    if result["pass_s_tail"] is not None:
        value, pct, n = result["pass_s_tail"]
        print(f"  pass_s p{pct:.0f} of {n} passes: {value:.6g} s")
    failed, attempted = len(result["failures"]), result["attempted"]
    print(f"  check_fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} check runs failed)")
    for f in result["failures"][:10]:
        print(f"  FAIL {f['pass']} {f['check']}: {'; '.join(f['reasons'])}")
    print(f"  reports sha256 (wall_time_ms removed) "
          f"{result['reports_sha256']}")
    print(f"  details in {out_path.relative_to(checkout.ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
