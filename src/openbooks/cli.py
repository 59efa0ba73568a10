"""Command-line driver: configure, run and report the verification
suites.

    verify --suite g2_s3 [--config cfg.json] [--seed N] [--samples N]
           [--out DIR] [--format json|csv]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.  Reports are deterministic given the seed (bit
identical JSON apart from the wall_time_ms fields).  A report's
wall_time_ms is the time span of the check function that returned it;
sub-reports built inside a check read 0.
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
from pathlib import Path

import numpy as np

from . import bourgeois, contact, liouville, monodromy, prelagrangian
from .forms import ext_deriv
from .manifolds import rng_for, sample
from .report import CheckReport, make_report, merge_reports

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 7
    samples: int = 2000
    binding_samples: int = 100
    flow_starts: int = 100
    flow_step: float = 1e-3
    eps_grid: tuple = (0.0, 0.01, 0.05, 0.1, 1.0)
    t_grid: tuple = ()
    tau_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from "
                             f"{', '.join(SUITE_NAMES)}")
        for key in ("seed", "samples", "binding_samples", "flow_starts"):
            value = getattr(self, key)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if min(self.samples, self.binding_samples, self.flow_starts) < 1:
            raise ValueError("sample counts must be >= 1")
        if not (_is_finite_number(self.flow_step) and self.flow_step > 0):
            raise ValueError("flow_step must be a finite number > 0, got "
                             f"{self.flow_step!r}")
        for key in ("eps_grid", "t_grid", "tau_grid"):
            grid = getattr(self, key)
            if not (isinstance(grid, (list, tuple))
                    and all(map(_is_finite_number, grid))):
                raise ValueError(
                    f"{key} must be a list of finite numbers, got {grid!r}")
            # an empty t_grid means the default grid; the other two grids
            # have no default, and a sweep over nothing certifies nothing
            if not grid and key != "t_grid":
                raise ValueError(f"{key} must not be empty")
            setattr(self, key, tuple(grid))
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path, got {self.out!r}")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if not self.t_grid:
            self.t_grid = bourgeois.FillingFamily.default_t_grid()

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


def _is_finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# ---------------------------------------------------------------------------
# suite definitions: each entry is (check name, callable(cfg, seed))


def _sphere_book_checks(maker, n):
    def contact_check(cfg, seed):
        rep = maker(n)
        pts = sample(rep.manifold, cfg.samples, seed)
        return contact.verify_contact(rep.contact, pts, seed=seed)

    def adapted_check(cfg, seed):
        rep = maker(n)
        pts = sample(rep.manifold, cfg.samples, seed)
        bind = sample(rep.binding, cfg.binding_samples, seed + 1)
        return contact.verify_adapted(rep.contact, rep.f, pts, bind,
                                      seed=seed)

    def representation_check(cfg, seed):
        rep = maker(n)
        pts = sample(rep.manifold, cfg.samples, seed)
        bind = sample(rep.binding, cfg.binding_samples, seed + 1)
        return contact.verify_representation(rep, pts, bind, seed=seed)

    def volume_check(cfg, seed):
        rep = maker(n)
        pts = sample(rep.manifold, min(cfg.samples, 500), seed)
        return contact.volume_form_cross_check(rep, pts, seed=seed)

    return [("contact", contact_check), ("adapted", adapted_check),
            ("representation", representation_check),
            ("volume_identity", volume_check)]


def _product_checks(maker, n):
    def product_check(cfg, seed):
        rep = maker(n)
        bf = bourgeois.bourgeois_form(rep)
        pts = sample(bf.manifold, min(cfg.samples, 1000), seed)
        return bourgeois.verify_product_contact(bf, pts, seed=seed)

    def slice_check(cfg, seed):
        rep = maker(n)
        bf = bourgeois.bourgeois_form(rep)
        pts = sample(rep.manifold, min(cfg.samples, 500), seed)
        bind = sample(rep.binding, cfg.binding_samples, seed + 1)
        return bourgeois.extract_slice_representation(
            bf, samples=pts, binding_samples=bind, seed=seed)

    return [("product_contact", product_check), ("slice_representation", slice_check)]


def _suite_g1_s3():
    checks = _sphere_book_checks(contact.coordinate_open_book, 2)
    checks += _product_checks(contact.coordinate_open_book, 2)

    def spinning_check(cfg, seed):
        rep = contact.coordinate_open_book(2)
        pts = sample(rep.manifold, 400, seed)
        pts = pts[rep.f.modulus(pts) > 1e-2]
        return monodromy.spinning_definition_check(
            rep, monodromy.coordinate_spinning_field(rep), pts, seed=seed)

    def trivial_monodromy(cfg, seed):
        rep = contact.coordinate_open_book(2)
        pts = sample(rep.manifold, 4 * cfg.flow_starts, seed)
        pts = pts[rep.f.modulus(pts) > 1e-2][: cfg.flow_starts]
        end = monodromy.flow(monodromy.coordinate_spinning_field(rep), pts,
                             1.0, cfg.flow_step)
        return make_report(
            "trivial_monodromy", n_samples=len(pts),
            max_residual=np.abs(end - pts), tolerance=1e-7,
            seed=seed,
            note="time-1 flow of the spinning field returns every start")

    checks += [("spinning_definition", spinning_check),
               ("trivial_monodromy", trivial_monodromy)]
    return checks


def _suite_g2_s3():
    checks = _sphere_book_checks(contact.quadric_open_book, 2)
    checks += _product_checks(contact.quadric_open_book, 2)

    def spinning_solve(cfg, seed):
        rep = contact.quadric_open_book(2)
        pts = sample(rep.manifold, 400, seed)
        pts = pts[rep.f.modulus(pts) > 1e-3][:200]
        solved = monodromy.spinning_field(rep, pts)
        analytic = monodromy.quadric_spinning_field(rep)(pts)
        return make_report(
            "spinning_solve", n_samples=len(pts),
            max_residual=np.abs(solved - analytic),
            tolerance=1e-7, seed=seed,
            note="linear-solve spinning field matches the closed form")

    def contraction(cfg, seed):
        rep = contact.quadric_open_book(2)
        pts = sample(rep.manifold, 400, seed)
        return monodromy.contraction_identity_check(
            rep, monodromy.quadric_spinning_field(rep), pts, seed=seed)

    def closed_form_check(cfg, seed):
        rep = contact.quadric_open_book(2)
        pts = sample(rep.manifold, 8 * cfg.flow_starts, seed)
        g0 = rep.f.modulus(pts)
        pts = pts[(g0 > 0.05) & (g0 < 0.95)][: cfg.flow_starts]
        end_rk = monodromy.flow(monodromy.quadric_spinning_field(rep), pts,
                                1.0, cfg.flow_step)
        end_cf, _ = monodromy.closed_form_quadric_flow(
            monodromy.real_to_complex(pts), 1.0)
        drift = np.abs(np.abs(np.sum(end_cf * end_cf, axis=-1))
                       - rep.f.modulus(pts))
        return make_report(
            "closed_form_flow", n_samples=len(pts),
            max_residual=np.abs(monodromy.real_to_complex(end_rk) - end_cf),
            tolerance=1e-6, seed=seed,
            note=f"RK4 matches the closed-form trajectory; |f| drift "
                 f"{np.max(drift):.2e}")

    def twist_compare(cfg, seed):
        rep = contact.quadric_open_book(2)
        rng = rng_for(seed)
        count = max(cfg.flow_starts, 100)
        q = rng.normal(size=(count, 2))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        g = np.stack([-q[:, 1], q[:, 0]], axis=-1)
        r = rng.uniform(0.0, 1.0 - 2e-3, size=(count, 1))
        qp = np.concatenate([q, r * g], axis=-1)
        return monodromy.monodromy_vs_dehn_twist(rep, qp,
                                                 step=cfg.flow_step,
                                                 seed=seed)

    def twist_identities(cfg, seed):
        rng = rng_for(seed)
        n = 3
        twist = monodromy.standard_twist()
        q = rng.normal(size=(200, n))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        g = rng.normal(size=(200, n))
        g -= np.sum(g * q, axis=-1, keepdims=True) * q
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        p = rng.uniform(0.0, 1.0, size=(200, 1)) * g
        _, p2 = twist(q, p)
        norm_gap = np.abs(np.linalg.norm(p2, axis=-1)
                          - np.linalg.norm(p, axis=-1))
        qb, pb = twist(q, g)
        boundary_gap = np.abs(np.concatenate([qb - q, pb - g], axis=-1))
        pull = monodromy.dehn_twist_pullback_check(
            twist, n, np.concatenate([q, p], axis=-1), seed=seed)
        return make_report(
            "dehn_twist_identities", n_samples=600,
            max_residual=[norm_gap, boundary_gap, pull.max_residual],
            tolerance=1e-7, seed=seed,
            note=f"|p| preserved ({np.max(norm_gap):.1e}), boundary fixed "
                 f"({np.max(boundary_gap):.1e}), pullback identity "
                 f"({pull.max_residual:.1e})")

    def inverse_check(cfg, seed):
        rep = _profiled_quadric()
        pts = sample(rep.manifold, min(cfg.samples, 800), seed)
        bind = sample(rep.binding, cfg.binding_samples, seed + 1)
        c, _, _ = bourgeois.find_inverse_constant(rep, pts)
        return bourgeois.verify_inverse_form(rep, c, pts[:200], bind,
                                             seed=seed)

    def isotopy(cfg, seed):
        rep = _profiled_quadric()
        pts = sample(rep.manifold, 600, seed)
        c, _, _ = bourgeois.find_inverse_constant(rep, pts)
        bf = bourgeois.bourgeois_form(rep)
        product_pts = sample(bf.manifold, 300, seed + 1)
        return bourgeois.isotopy_check(rep, c, cfg.tau_grid, product_pts,
                                       seed=seed)

    def filling(cfg, seed):
        rep = contact.quadric_open_book(2)
        omega = ext_deriv(rep.contact.alpha)
        fam = bourgeois.FillingFamily(rep, omega, cfg.eps_grid, cfg.t_grid)
        bf = bourgeois.bourgeois_form(rep)
        pts = sample(bf.manifold, 400, seed)
        return bourgeois.filling_polynomial(fam, pts, seed=seed)

    checks += [("spinning_solve", spinning_solve),
               ("spinning_contraction", contraction),
               ("closed_form_flow", closed_form_check),
               ("monodromy_vs_twist", twist_compare),
               ("dehn_twist_identities", twist_identities),
               ("inverse_form", inverse_check),
               ("isotopy", isotopy),
               ("filling_polynomial", filling)]
    return checks


def _profiled_quadric():
    """Quadric book with the radial-profile modulus (slope one near the
    binding, constant outside) used by the inverse-monodromy checks."""
    return bourgeois.profiled_representation(contact.quadric_open_book(2))


def _suite_g2_s5():
    checks = _sphere_book_checks(contact.quadric_open_book, 3)

    def assembly(cfg, seed):
        rep = contact.quadric_open_book(3)
        bf = bourgeois.bourgeois_form(rep)
        pts = sample(bf.manifold, 200, seed)
        phi1 = np.zeros((len(pts), 8))
        phi1[:, 6] = 1.0
        vals = bf.alpha.restrict(pts, phi1[:, None, :])[:, 0]
        return make_report(
            "product_assembly", n_samples=len(pts),
            max_residual=np.abs(vals - np.real(rep.f.value(pts[:, :6]))),
            tolerance=1e-12, seed=seed,
            note="alpha(d/dphi1) reads off Re f on the dim-7 product")

    checks.append(("product_assembly", assembly))
    return checks


def _suite_disk_hypersurface():
    def completion_disk(cfg, seed):
        ld = liouville.quartic_disk_domain(2)
        pts = sample(ld.manifold, min(cfg.samples, 500), seed)
        rng = rng_for(seed + 1)
        b = rng.normal(size=(cfg.binding_samples, 4))
        b /= np.linalg.norm(b, axis=-1, keepdims=True)
        return liouville.completion_check(ld, pts, b, seed=seed)

    def completion_bundle(cfg, seed):
        ld = liouville.disk_bundle_domain(2)
        pts = sample(ld.manifold, min(cfg.samples, 500), seed)
        b = pts[: cfg.binding_samples].copy()
        b[:, 2:] /= np.linalg.norm(b[:, 2:], axis=-1, keepdims=True)
        return liouville.completion_check(ld, pts, b, seed=seed)

    def ident_disk(cfg, seed):
        ld = liouville.quartic_disk_domain(2)
        pts = sample(ld.manifold, min(cfg.samples, 500), seed)
        return liouville.identification_check(
            "disk", ld, pts[ld.u(pts) > 0.05], seed=seed)

    def ident_bundle(cfg, seed):
        ld = liouville.disk_bundle_domain(2)
        pts = sample(ld.manifold, min(cfg.samples, 500), seed)
        return liouville.identification_check(
            "disk_bundle", ld, pts[ld.u(pts) > 0.05], seed=seed)

    def page_volume(cfg, seed):
        ld = liouville.weinstein_disk_domain()
        pts = sample(ld.manifold, min(cfg.samples, 500), seed)
        return liouville.page_volume_identity(ld, pts, seed=seed)

    def hypersurface(cfg, seed):
        hs = liouville.hypersurface_build(liouville.weinstein_disk_domain())
        pts = sample(hs.manifold, cfg.samples, seed)
        bind = sample(hs.rep.binding, cfg.binding_samples, seed + 1)
        rep_report = contact.verify_representation(hs.rep, pts[:500], bind,
                                                   seed=seed)
        contact_report = contact.verify_contact(hs.rep.contact, pts,
                                                seed=seed)
        off = pts[hs.rep.f.modulus(pts) > 1e-2][:200]
        y = liouville.angle_spinning_field(hs.rep)
        spin = monodromy.spinning_definition_check(hs.rep, y, off, seed=seed)
        end = monodromy.flow(y, off[:50], 1.0, cfg.flow_step)
        identity = make_report(
            "identity_monodromy", n_samples=50,
            max_residual=np.abs(end - off[:50]), tolerance=1e-7, seed=seed,
            note="time-1 flow of 2 pi d/d(theta) is the identity")
        return merge_reports(
            "hypersurface", [contact_report, rep_report, spin, identity],
            seed=seed,
            note=f"hypersurface in F x C; transversality margin "
                 f"{hs.transversality_margin:.3f}")

    return [("completion_disk", completion_disk),
            ("completion_bundle", completion_bundle),
            ("identification_disk", ident_disk),
            ("identification_bundle", ident_bundle),
            ("page_volume_identity", page_volume),
            ("hypersurface", hypersurface)]


def _suite_subcritical():
    def coordinates(cfg, seed):
        rng = rng_for(seed)
        count = max(cfg.samples, 1000)
        pts = np.concatenate(
            [rng.normal(size=(count, 4)),
             rng.uniform(0.0, 2 * np.pi, size=(count, 2))], axis=-1)
        return liouville.subcritical_check(pts, seed=seed)

    def weinstein_c(cfg, seed):
        w = liouville.complex_plane_weinstein()
        pts = sample(w.manifold, min(cfg.samples, 500), seed)
        return liouville.weinstein_check(w, pts, delta=0.2, seed=seed)

    def weinstein_torus(cfg, seed):
        w = liouville.torus_cotangent_weinstein()
        pts = sample(w.manifold, min(cfg.samples, 500), seed)
        return liouville.weinstein_check(w, pts, delta=0.4, seed=seed)

    return [("coordinates", coordinates), ("weinstein_C", weinstein_c),
            ("weinstein_TstarT2", weinstein_torus)]


def _suite_prelag():
    def circle_torus(cfg, seed):
        pl = prelagrangian.real_circle_torus_prelagrangian()
        pts = sample(pl.submanifold, min(cfg.samples, 500), seed)
        return prelagrangian.verify_prelagrangian(pl, pts, seed=seed)

    def binding_torus(cfg, seed):
        pl = prelagrangian.binding_torus_prelagrangian()
        pts = sample(pl.submanifold, min(cfg.samples, 500), seed)
        return prelagrangian.verify_prelagrangian(pl, pts, seed=seed)

    def legendrian(cfg, seed):
        rep = contact.quadric_open_book(2)
        l_sub = prelagrangian.real_circle_submanifold()
        pts = sample(l_sub, 200, seed)
        return prelagrangian.legendrian_check(l_sub, rep, pts, seed=seed)

    def straighten(cfg, seed):
        pl = prelagrangian.real_circle_torus_prelagrangian()
        loop = prelagrangian.Loop.from_function(
            prelagrangian.desk_loop(0.5), 2048, pl.submanifold.periodic_mask)
        y = np.array([0, 0, 0, 0, 1, 0])
        _, report = prelagrangian.straighten_loop(loop, pl, y, seed=seed)
        return report

    return [("circle_torus", circle_torus),
            ("binding_torus", binding_torus),
            ("legendrian", legendrian), ("straighten", straighten)]


SUITES = {
    "g1_s3": _suite_g1_s3,
    "g2_s3": _suite_g2_s3,
    "g2_s5": _suite_g2_s5,
    "disk_hypersurface": _suite_disk_hypersurface,
    "subcritical": _suite_subcritical,
    "prelag": _suite_prelag,
}
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
        grid_keys = []
        for r in reports:
            for row in r.rows + [r for d in r.details for r in d.rows]:
                for key in row:
                    if key not in grid_keys and key not in scalar_fields:
                        grid_keys.append(key)
        fields = ["name"] + grid_keys + scalar_fields
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for r in reports:
                rows = r.rows + [row for d in r.details for row in d.rows]
                scalar = {"name": r.name, "n_samples": r.n_samples,
                          "min_margin": r.min_margin,
                          "max_residual": r.max_residual,
                          "tolerance": r.tolerance, "passed": r.passed,
                          "seed": r.seed}
                if rows:
                    for row in rows:
                        record = dict.fromkeys(fields, "")
                        record.update(scalar)
                        record.update(row)
                        if "min_margin" in row:
                            record["min_margin"] = row["min_margin"]
                        writer.writerow(record)
                else:
                    record = dict.fromkeys(fields, "")
                    record.update(scalar)
                    writer.writerow(record)
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
