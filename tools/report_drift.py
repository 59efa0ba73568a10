"""Report drift between this tree and a git revision.

    python tools/report_drift.py REV

`git archive`s REV into a temporary directory and runs the six suites
there and in this tree through `cli.run_suite` at suite seeds 7-22, each
tree in its own subprocess.  `wall_time_ms` is scrubbed, so two reports
are byte-equal when their JSON is.  Prints the byte-equal counts of
suite runs and of reports, every pass flip, and a Markdown table of the
largest |change - REV| per suite, leaf and field, with the range of the
field on both sides: the layout of the drift tables in CHANGES.md.  Needs
only the standard library, and numpy in the child processes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(7, 23)

# run in the tree under test: one JSON list of suite runs, seeds x suites,
# each the list of its report dicts
_CHILD = """
import json, sys
from openbooks import cli
out = []
for seed in json.loads(sys.argv[1]):
    for suite in cli.SUITE_NAMES:
        cfg = cli.SuiteConfig(suite=suite, seed=seed)
        out.append([r.to_dict() for r in cli.run_suite(cfg)])
json.dump(out, sys.stdout)
"""


def run_tree(tree: Path) -> list[list[dict]]:
    """The scrubbed reports of the six suites at SEEDS, run from tree: one
    list of reports per suite run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", _CHILD,
                           json.dumps(list(SEEDS))],
                          cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return [[scrub(r) for r in run] for run in json.loads(done.stdout)]


def scrub(report: dict) -> dict:
    """report without wall_time_ms, at every level."""
    out = {k: v for k, v in report.items() if k != "wall_time_ms"}
    if "details" in out:
        out["details"] = [scrub(d) for d in out["details"]]
    return out


def _leaves(report: dict, path: str = ""):
    """((leaf path, field), row, value) of every field of report and its
    sub-reports; the fields of sweep row i read rows.<key> with row i,
    the others have row None."""
    path = f"{path}/{report['name']}" if path else report["name"]
    for key, value in report.items():
        if key == "details":
            for sub in value:
                yield from _leaves(sub, path)
        elif key == "rows":
            for i, row in enumerate(value):
                for k, v in row.items():
                    yield (path, f"rows.{k}"), i, v
        elif key != "name":
            yield (path, key), None, value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(base: list[list[dict]], change: list[list[dict]]) -> dict:
    """Compare the reports of the same suite runs, in the same order.

    Returns ``runs_equal`` and ``runs`` (suite runs whose reports are all
    byte-equal, and all runs), ``equal`` and ``total`` (the same for
    single reports), ``flips`` (leaf, seed, base and change ``passed``),
    ``drift`` ({(leaf, field): [max |change - base|, base min, base max,
    change min, change max]} over the numeric fields that moved, the
    ranges over every run and sweep row) and ``other`` (leaf, field and
    seed of a non-numeric field that moved or is missing on one side).
    """
    if [len(run) for run in base] != [len(run) for run in change]:
        raise ValueError("the two sides ran different reports")
    result = {"runs": len(base), "runs_equal": 0,
              "total": sum(len(run) for run in base), "equal": 0,
              "flips": [], "drift": {}, "other": []}
    ranges = {}
    for run_a, run_b in zip(base, change):
        equal = [json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
                 for a, b in zip(run_a, run_b)]
        result["equal"] += sum(equal)
        result["runs_equal"] += all(equal)
    for a, b in zip([r for run in base for r in run],
                    [r for run in change for r in run]):
        seed = a.get("seed")
        fa = {(key, row): v for key, row, v in _leaves(a)}
        fb = {(key, row): v for key, row, v in _leaves(b)}
        for key, row in fa.keys() | fb.keys():
            va, vb = fa.get((key, row)), fb.get((key, row))
            if _is_number(va) and _is_number(vb):
                lo_a, hi_a, lo_b, hi_b = ranges.get(
                    key, (math.inf, -math.inf, math.inf, -math.inf))
                ranges[key] = (min(lo_a, va), max(hi_a, va),
                               min(lo_b, vb), max(hi_b, vb))
                if va != vb and not (math.isnan(va) and math.isnan(vb)):
                    gap = abs(vb - va)
                    drift = result["drift"].setdefault(key, [0.0])
                    drift[0] = math.nan if math.isnan(gap) else max(
                        drift[0], gap)
            elif va != vb:
                if key[1] == "passed":
                    result["flips"].append((key[0], seed, va, vb))
                else:
                    result["other"].append((key[0], key[1], seed))
    for key, drift in result["drift"].items():
        drift += ranges[key]
    return result


def format_result(result: dict, rev: str) -> str:
    seeds = f"{SEEDS[0]}-{SEEDS[-1]}"
    lines = [f"byte-equal suite runs: {result['runs_equal']} of "
             f"{result['runs']}",
             f"byte-equal reports: {result['equal']} of {result['total']}",
             f"pass flips: {len(result['flips'])}"]
    lines += [f"  {leaf} (seed {seed}): {a} -> {b}"
              for leaf, seed, a, b in result["flips"]]
    lines += [f"changed non-numeric field: {leaf} {field} (seed {seed})"
              for leaf, field, seed in result["other"]]
    if result["drift"]:
        lines += ["", f"| leaf | field | {rev}, seeds {seeds} "
                      f"| this tree, seeds {seeds} | max abs change |",
                  "|---|---|---|---|---|"]
        for (leaf, field), (gap, lo_a, hi_a, lo_b, hi_b) in sorted(
                result["drift"].items()):
            lines.append(f"| `{leaf}` | `{field}` | {lo_a:.14g} – {hi_a:.14g}"
                         f" | {lo_b:.14g} – {hi_b:.14g} | {gap:.3g} |")
    return "\n".join(lines)


def archive(rev: str, into: Path) -> None:
    """The files of rev, unpacked into the directory into."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(into, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory() as tmp:
        archive(rev, Path(tmp))
        base = run_tree(Path(tmp))
    change = run_tree(ROOT)
    print(format_result(compare(base, change), rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
