"""The `verify` driver and the suite table.

    verify --suite g2_s3 [--config cfg.json] [--seed N] [--samples N]
           [--out DIR] [--format json|csv]

A config file holds suite, seed, samples, out and format.  Each suite is
a list of rows in TABLE: a check name, the inputs it runs on and the
check, a function of a package module.  Grids and flow steps are fixed
in the checks and the table.  Exit codes: 0 all checks passed, 1 at
least one check failed, 2 usage or configuration error.
Reports are deterministic given the seed: on one BLAS build and one CPU
core type, re-runs give bit-identical JSON apart from the wall_time_ms
fields.  OpenBLAS picks its kernels by core type, so on another core
type the last bits of some numbers can differ (by up to 2.3e-15 at
suite seeds 7-9).  A report's wall_time_ms is the time span of
the check function that returned it.  A sub-report that a timed check
returned inside another check keeps its own time (the contact,
representation and spinning_definition details of
disk_hypersurface/hypersurface); the other sub-reports read 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import bourgeois, contact, liouville, monodromy, prelagrangian
from .manifolds import (_sum, disk_bundle_draw, flat_torus, rng_for, sample,
                        unit_sphere)
from .report import CheckReport, make_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 7
    samples: int = 2000
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from "
                             f"{', '.join(SUITE_NAMES)}")
        for key, least in (("seed", 0), ("samples", 1)):
            value = getattr(self, key)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{key} must be >= {least}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path, got {self.out!r}")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")

    @staticmethod
    def from_file(path, overrides=None):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {k: v for k, v in data.items()
                 if k in SuiteConfig.__dataclass_fields__}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if overrides:
            known.update(overrides)
        if "suite" not in known:
            raise ValueError("config must specify a suite")
        return SuiteConfig(**known)


# ---------------------------------------------------------------------------
# the suite table

BINDING_SAMPLES = 100


@dataclass(frozen=True)
class Row:
    """One check of a suite.  Run at a seed, ``inputs(cfg, seed)`` builds
    the check's representation and samples, and ``check``, a
    "module.function" of this package, runs on them.  The function is
    looked up at call time, so a traced or patched one is what runs."""

    name: str
    inputs: Callable
    check: str

    def __call__(self, cfg, seed):
        module, function = self.check.split(".")
        out = getattr(globals()[module], function)(*self.inputs(cfg, seed),
                                                    seed=seed)
        return out[-1] if isinstance(out, tuple) else out


def _draw(obj, cfg, seed, k=None, binding=False):
    """obj and cfg.samples points of obj.manifold at seed, at most k of
    them; with `binding`, also BINDING_SAMPLES of obj.binding at seed + 1."""
    pts = sample(obj.manifold, cfg.samples if k is None
                 else min(cfg.samples, k), seed)
    if not binding:
        return obj, pts
    return obj, pts, sample(obj.binding, BINDING_SAMPLES, seed + 1)


def _fixed(obj, count, seed):
    """obj and `count` points of obj.manifold, independent of cfg.samples."""
    return obj, sample(obj.manifold, count, seed)


def _adapted_inputs(rep, cfg, seed):
    _, pts, bind = _draw(rep, cfg, seed, binding=True)
    return rep.contact, rep.f, pts, bind


def _slice_inputs(rep, cfg, seed):
    _, pts, bind = _draw(rep, cfg, seed, 500, binding=True)
    return bourgeois.bourgeois_form(rep), pts, bind


def _spinning_inputs(cfg, seed):
    rep, pts = _fixed(contact.coordinate_open_book(2), 400, seed)
    return (rep, monodromy.coordinate_spinning_field(rep),
            pts[rep.f.modulus(pts) > 1e-2])


def _contraction_inputs(cfg, seed):
    rep, pts = _fixed(contact.quadric_open_book(2), 400, seed)
    return rep, monodromy.quadric_spinning_field(rep), pts


def _twist_inputs(cfg, seed):
    """FLOW_STARTS points (q, p) of the cotangent bundle of S^1, with p a
    quarter turn from q and |p| < 1 - 2e-3."""
    rng = rng_for(seed)
    count = monodromy.FLOW_STARTS
    q = unit_sphere(2).sampler(rng, count)
    g = np.stack([-q[:, 1], q[:, 0]], axis=-1)
    r = rng.uniform(0.0, 1.0 - 2e-3, size=(count, 1))
    return contact.quadric_open_book(2), np.concatenate([q, r * g], axis=-1)


def _twist_frame_inputs(cfg, seed):
    """200 unit vectors q of R^3, unit covectors g at q, radii in [0, 1):
    the draw of the disk cotangent bundle of S^2."""
    return disk_bundle_draw(rng_for(seed), 200, 3)


def _inverse_inputs(cfg, seed):
    rep, pts, bind = _draw(bourgeois.profiled_representation(
        contact.quadric_open_book(2)), cfg, seed, 800, binding=True)
    c, _, _ = bourgeois.find_inverse_constant(rep, pts)
    return rep, c, pts[:200], bind


def _isotopy_inputs(cfg, seed):
    rep, pts = _fixed(bourgeois.profiled_representation(
        contact.quadric_open_book(2)), 600, seed)
    c, _, _ = bourgeois.find_inverse_constant(rep, pts)
    product = bourgeois.bourgeois_form(rep).manifold
    return rep, c, sample(product, 300, seed + 1)


def _filling_inputs(cfg, seed):
    rep = contact.quadric_open_book(2)
    return rep, sample(bourgeois.bourgeois_form(rep).manifold, 400, seed)


def _completion_disk_inputs(cfg, seed):
    ld, pts = _draw(liouville.quartic_disk_domain(2), cfg, seed, 500)
    return ld, pts, sample(unit_sphere(4), BINDING_SAMPLES, seed + 1)


def _completion_bundle_inputs(cfg, seed):
    ld, pts = _draw(liouville.disk_bundle_domain(2), cfg, seed, 500)
    b = pts[:BINDING_SAMPLES].copy()
    b[:, 2:] /= np.sqrt(_sum(b[:, 2:] * b[:, 2:]))[:, None]
    return ld, pts, b


def _identification_inputs(example, ld, cfg, seed):
    _, pts = _draw(ld, cfg, seed, 500)
    return example, ld, pts[ld.u(pts) > 0.05]


def _hypersurface_inputs(cfg, seed):
    hs = liouville.hypersurface_build(liouville.weinstein_disk_domain())
    return (hs, *_draw(hs.rep, cfg, seed, binding=True)[1:])


def _coordinate_inputs(cfg, seed):
    rng = rng_for(seed)
    count = max(cfg.samples, 1000)
    return (np.concatenate([rng.normal(size=(count, 4)),
                            flat_torus(2).sampler(rng, count)], axis=-1),)


def _prelagrangian_inputs(pl, cfg, seed):
    return pl, sample(pl.submanifold, min(cfg.samples, 500), seed)


def _legendrian_inputs(cfg, seed):
    l_sub = prelagrangian.real_circle_submanifold()
    return l_sub, contact.quadric_open_book(2), sample(l_sub, 200, seed)


def _straighten_inputs(cfg, seed):
    pl = prelagrangian.real_circle_torus_prelagrangian()
    loop = prelagrangian.Loop.from_function(
        prelagrangian.desk_loop(0.5), prelagrangian.TORUS_ANGLES)
    return loop, pl, np.array([0, 0, 0, 0, 1, 0])


def _book_rows(book, product=True):
    """The rows of the sphere open book that book() builds, and with
    `product` those of its product with T^2."""
    rows = [
        Row("contact", lambda cfg, seed: _draw(book().contact, cfg, seed),
            "contact.verify_contact"),
        Row("adapted", lambda cfg, seed: _adapted_inputs(book(), cfg, seed),
            "contact.verify_adapted"),
        Row("representation",
            lambda cfg, seed: _draw(book(), cfg, seed, binding=True),
            "contact.verify_representation"),
        Row("volume_identity", lambda cfg, seed: _draw(book(), cfg, seed, 500),
            "contact.volume_form_cross_check")]
    if product:
        rows += [
            Row("product_contact", lambda cfg, seed: _draw(
                bourgeois.bourgeois_form(book()), cfg, seed, 1000),
                "bourgeois.verify_product_contact"),
            Row("slice_representation",
                lambda cfg, seed: _slice_inputs(book(), cfg, seed),
                "bourgeois.extract_slice_representation")]
    return rows


# each suite's rows, in the order from which run_suite derives their seeds
TABLE = {
    "g1_s3": _book_rows(lambda: contact.coordinate_open_book(2)) + [
        Row("spinning_definition", _spinning_inputs,
            "monodromy.spinning_definition_check"),
        Row("trivial_monodromy", lambda cfg, seed: _fixed(
            contact.coordinate_open_book(2), 400, seed),
            "monodromy.trivial_monodromy_check")],
    "g2_s3": _book_rows(lambda: contact.quadric_open_book(2)) + [
        Row("spinning_solve", lambda cfg, seed: _fixed(
            contact.quadric_open_book(2), 400, seed),
            "monodromy.spinning_solve_check"),
        Row("spinning_contraction", _contraction_inputs,
            "monodromy.contraction_identity_check"),
        Row("closed_form_flow", lambda cfg, seed: _fixed(
            contact.quadric_open_book(2), 800, seed),
            "monodromy.closed_form_flow_check"),
        Row("monodromy_vs_twist", _twist_inputs,
            "monodromy.monodromy_vs_dehn_twist"),
        Row("dehn_twist_identities", _twist_frame_inputs,
            "monodromy.dehn_twist_identities_check"),
        Row("inverse_form", _inverse_inputs, "bourgeois.verify_inverse_form"),
        Row("isotopy", _isotopy_inputs, "bourgeois.isotopy_check"),
        Row("filling_polynomial", _filling_inputs,
            "bourgeois.filling_polynomial")],
    "g2_s5": _book_rows(lambda: contact.quadric_open_book(3),
                        product=False) + [
        Row("product_assembly", lambda cfg, seed: _fixed(
            bourgeois.bourgeois_form(contact.quadric_open_book(3)), 200,
            seed), "bourgeois.product_assembly_check")],
    "disk_hypersurface": [
        Row("completion_disk", _completion_disk_inputs,
            "liouville.completion_check"),
        Row("completion_bundle", _completion_bundle_inputs,
            "liouville.completion_check"),
        Row("identification_disk", lambda cfg, seed: _identification_inputs(
            "disk", liouville.quartic_disk_domain(2), cfg, seed),
            "liouville.identification_check"),
        Row("identification_bundle",
            lambda cfg, seed: _identification_inputs(
                "disk_bundle", liouville.disk_bundle_domain(2), cfg, seed),
            "liouville.identification_check"),
        Row("page_volume_identity", lambda cfg, seed: _draw(
            liouville.weinstein_disk_domain(), cfg, seed, 500),
            "liouville.page_volume_identity"),
        Row("hypersurface", _hypersurface_inputs,
            "monodromy.hypersurface_check")],
    "subcritical": [
        Row("coordinates", _coordinate_inputs, "liouville.subcritical_check"),
        Row("weinstein_C", lambda cfg, seed: (*_draw(
            liouville.complex_plane_weinstein(), cfg, seed, 500), 0.2),
            "liouville.weinstein_check"),
        Row("weinstein_TstarT2", lambda cfg, seed: (*_draw(
            liouville.torus_cotangent_weinstein(), cfg, seed, 500), 0.4),
            "liouville.weinstein_check")],
    "prelag": [
        Row("circle_torus", lambda cfg, seed: _prelagrangian_inputs(
            prelagrangian.real_circle_torus_prelagrangian(), cfg, seed),
            "prelagrangian.verify_prelagrangian"),
        Row("binding_torus", lambda cfg, seed: _prelagrangian_inputs(
            prelagrangian.binding_torus_prelagrangian(), cfg, seed),
            "prelagrangian.verify_prelagrangian"),
        Row("legendrian", _legendrian_inputs,
            "prelagrangian.legendrian_check"),
        Row("straighten", _straighten_inputs,
            "prelagrangian.straighten_loop")],
}
# suite -> () -> [(check name, callable(cfg, seed) -> report)]
SUITES = {suite: partial(list, [(row.name, row) for row in rows])
          for suite, rows in TABLE.items()}
SUITE_NAMES = tuple(SUITES)


def run_suite(cfg: SuiteConfig) -> list[CheckReport]:
    """Execute the configured suite; every check gets its own derived
    seed, so reports are independent of execution order.  Each report's
    wall_time_ms is the time run_suite spent in its check."""
    reports = []
    for index, (name, fn) in enumerate(SUITES[cfg.suite]()):
        seed = cfg.seed + 1000 * index
        t0 = time.perf_counter()
        try:
            report = fn(cfg, seed)
        except Exception as exc:      # checks report, they do not abort
            report = make_report(
                name, n_samples=0, tolerance=0.0, seed=seed,
                max_residual=float("inf"),
                note=f"check raised {type(exc).__name__}: {exc}")
        report.wall_time_ms = (time.perf_counter() - t0) * 1000.0
        report.name = f"{cfg.suite}/{name}"
        reports.append(report)
    return reports


def _strict_json(value):
    """value with every non-finite float replaced by None, so that it
    serialises as strict JSON (null, not Infinity or NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def emit_report(reports, fmt: str, out_dir) -> list[str]:
    """Write reports to out_dir; JSON is an array of report objects, in
    strict JSON (a non-finite margin or residual is written as null), CSV
    has one row per (check, grid point)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "json":
        path = out_dir / "reports.json"
        with open(path, "w") as fh:
            json.dump([_strict_json(r.to_dict()) for r in reports], fh,
                      indent=1, allow_nan=False)
        written.append(str(path))
    elif fmt == "csv":
        path = out_dir / "reports.csv"
        # one row per (check, grid point); grid columns are the union of
        # the row keys emitted by the sweeps (eps/T for the filling
        # polynomial, sample/endpoint_gap for monodromy comparisons)
        scalar_fields = ["n_samples", "min_margin", "max_residual",
                         "tolerance", "passed", "seed"]
        grid_rows = [r.rows + [row for d in r.details for row in d.rows]
                     for r in reports]
        grid_keys = []
        for row in (row for rows in grid_rows for row in rows):
            grid_keys += [k for k in row
                          if k not in grid_keys and k not in scalar_fields]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, ["name"] + grid_keys + scalar_fields)
            writer.writeheader()
            for r, rows in zip(reports, grid_rows):
                scalar = {"name": r.name, "n_samples": r.n_samples,
                          "min_margin": r.min_margin,
                          "max_residual": r.max_residual,
                          "tolerance": r.tolerance, "passed": r.passed,
                          "seed": r.seed}
                # a grid row's own min_margin replaces the report's
                writer.writerows({**scalar, **row} for row in rows or [{}])
        written.append(str(path))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="run a numerical verification suite and report")
    parser.add_argument("--suite", help="suite name "
                        f"({', '.join(SUITE_NAMES)})")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--out", help="output directory for reports")
    parser.add_argument("--format", choices=("json", "csv"))
    args = parser.parse_args(argv)

    overrides = {k: v for k, v in (
        ("suite", args.suite), ("seed", args.seed),
        ("samples", args.samples), ("out", args.out),
        ("format", args.format)) if v is not None}
    try:
        if args.config:
            cfg = SuiteConfig.from_file(args.config, overrides)
        else:
            if "suite" not in overrides:
                print("error: --suite or --config required",
                      file=sys.stderr)
                return EXIT_USAGE
            cfg = SuiteConfig(**overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    reports = run_suite(cfg)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        margin = "" if r.min_margin is None else f" margin={r.min_margin:.3e}"
        residual = ("" if r.max_residual is None
                    else f" residual={r.max_residual:.3e}")
        print(f"[{status}] {r.name}{margin}{residual} "
              f"({r.wall_time_ms:.0f} ms)")
    if cfg.out:
        try:
            for path in emit_report(reports, cfg.format, cfg.out):
                print(f"wrote {path}")
        except OSError as exc:
            print(f"error: cannot write reports: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
