"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured quantities at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from openbooks import bourgeois, contact, liouville, monodromy, prelagrangian
from openbooks.cli import SuiteConfig, run_suite
from openbooks.forms import KForm, SmoothMap, ext_deriv, pullback, wedge
from openbooks.manifolds import rng_for, sample, tangent_bases


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_exterior_calculus_kernel():
    """d^2 = 0, Leibniz, pullback naturality, each <= 1e-6 over 1e4
    random evaluations, in under 10 seconds."""
    t0 = time.perf_counter()
    m = 4
    rng = rng_for(101)
    mat_a = rng.normal(size=(m, m))
    mat_b = rng.normal(size=(m * (m - 1) // 2, m))
    a = KForm(1, m, lambda p: np.sin(p @ mat_a.T) + 0.3 * p)
    b = KForm(2, m, lambda p: np.cos(p @ mat_b.T))

    n_eval = 10_000
    pts = rng.normal(size=(n_eval, m))

    dd = ext_deriv(ext_deriv(a))
    worst_dd = np.max(np.abs(dd.at_basis(pts, rng.normal(
        size=(n_eval, 3, m)))))

    lhs = ext_deriv(wedge(a, b))
    rhs = wedge(ext_deriv(a), b) + (-1.0) * wedge(a, ext_deriv(b))
    vecs4 = rng.normal(size=(n_eval, 4, m))
    worst_leibniz = np.max(np.abs(lhs.at_basis(pts, vecs4)
                                  - rhs.at_basis(pts, vecs4)))

    phi = SmoothMap(m, m, lambda p: p @ mat_a.T / 3.0 + 0.1 * np.sin(p))
    nat_lhs = pullback(phi, ext_deriv(a))
    nat_rhs = ext_deriv(pullback(phi, a))
    vecs2 = rng.normal(size=(n_eval, 2, m))
    worst_nat = np.max(np.abs(nat_lhs.at_basis(pts, vecs2)
                              - nat_rhs.at_basis(pts, vecs2)))

    elapsed = time.perf_counter() - t0
    ok = (worst_dd <= 1e-6 and worst_leibniz <= 1e-6 and worst_nat <= 1e-6
          and elapsed < 10.0)
    _line(1, ok, f"d2={worst_dd:.2e} leibniz={worst_leibniz:.2e} "
                 f"naturality={worst_nat:.2e} over {n_eval} evals "
                 f"in {elapsed:.1f}s (< 10s)")


def test_criterion_02_contact_verification():
    """alpha_0 contact on S^3 and S^5 with margin > 1e-3 over 2000
    samples; both open books adapted on both spheres with >= 100 binding
    samples; regularized volume identity two-sided <= 1e-8; < 60 s."""
    t0 = time.perf_counter()
    results = []
    for n in (2, 3):
        sphere = contact.standard_sphere(n)
        cf = contact.ContactForm(contact.standard_contact_form(n), sphere)
        pts = sample(sphere, 2000, seed=201 + n)
        r = contact.verify_contact(cf, pts)
        results.append(("contact", n, r.passed, r.min_margin))
        for maker in (contact.coordinate_open_book,
                      contact.quadric_open_book):
            rep = maker(n)
            bind = sample(rep.binding, 100, seed=211 + n)
            adapted = contact.verify_adapted(rep.contact, rep.f, pts, bind)
            volume = contact.volume_form_cross_check(rep, pts[:500])
            omega = contact.openbook_volume_form(rep)
            with_binding = np.vstack([pts[:400], bind])
            vol_vals = omega.at_basis(
                with_binding, tangent_bases(rep.manifold, with_binding))
            results.append((rep.name, n,
                            adapted.passed and volume.passed
                            and np.min(vol_vals) > 1e-3,
                            volume.max_residual))
    elapsed = time.perf_counter() - t0
    ok = all(r[2] for r in results) and elapsed < 60.0
    worst = max(r[3] for r in results if r[0] != "contact")
    _line(2, ok, f"contact+adapted+volume on S^3/S^5, worst two-sided "
                 f"residual {worst:.2e} (<= 1e-8), {elapsed:.1f}s (< 60s)")


def test_criterion_03_bourgeois_characterization():
    """Both product forms contact on S^3 x T^2; the direct and expanded
    evaluations agree to 1e-8 relative; eps-scaling identity to 1e-8 for
    eps in {0.1, 0.5, 1}."""
    worst_route = 0.0
    worst_eps = 0.0
    ok = True
    for maker in (contact.coordinate_open_book, contact.quadric_open_book):
        rep = maker(2)
        bf = bourgeois.bourgeois_form(rep)
        pts = sample(bf.manifold, 1000, seed=301)
        r = bourgeois.verify_product_contact(bf, pts)
        named = {d.name: d for d in r.details}
        worst_route = max(worst_route,
                          named["two_route_agreement"].max_residual)
        worst_eps = max(worst_eps, named["eps_scaling"].max_residual)
        ok = ok and r.passed
    _line(3, ok, f"two-route agreement {worst_route:.2e}, eps-scaling "
                 f"{worst_eps:.2e} (both <= 1e-8)")


def test_criterion_04_inverse_monodromy():
    """alpha_minus contact with reversed orientation at the found C
    (re-verified at 2C); shear pullback <= 1e-6 at five tau values;
    volume invariance <= 1e-6 relative; the tau = 1 angle flip reproduces
    the product form of (alpha_minus, conj f) to 1e-10."""
    rep = bourgeois.profiled_representation(contact.quadric_open_book(2))
    pts_v = sample(rep.manifold, 800, seed=401)
    c, margin, margin_2c = bourgeois.find_inverse_constant(rep, pts_v)
    bind = sample(rep.binding, 100, seed=402)
    inv = bourgeois.verify_inverse_form(rep, c, pts_v[:200], bind)
    bf = bourgeois.bourgeois_form(rep)
    pts = sample(bf.manifold, 300, seed=403)
    iso = bourgeois.isotopy_check(rep, c, pts)
    named = {d.name: d for d in iso.details}
    ok = inv.passed and iso.passed
    _line(4, ok, f"C={c} (margins {margin:.2f}/{margin_2c:.2f}), pullback "
                 f"{named['shear_pullback'].max_residual:.2e} (<= 1e-6), "
                 f"volume {named['volume_invariance'].max_residual:.2e}, "
                 f"flip {named['endpoint_flip'].max_residual:.2e} "
                 f"(<= 1e-10)")


def test_criterion_05_monodromy_flows():
    """Trivial monodromy of the z_1 book to 1e-7 over 200 starts; RK4 at
    step 1e-4 matches the closed-form quadric flow to 1e-6 over 200
    starts with g_0 in [0.05, 0.95]; |f| conserved to 1e-9; the embedded
    monodromy equals the twist with g(r) = 2 pi/(1+r) to 1e-5 over 100
    page samples; the reversed field inverts the flow to 1e-5; < 5 min."""
    t0 = time.perf_counter()
    rep1 = contact.coordinate_open_book(2)
    pts1 = sample(rep1.manifold, 1600, seed=501)
    pts1 = pts1[rep1.f.modulus(pts1) > 1e-2][:200]
    end1 = monodromy.flow(monodromy.coordinate_spinning_field(rep1), pts1,
                          1.0, 1e-4)
    return_gap = float(np.max(np.abs(end1 - pts1)))

    rep2 = contact.quadric_open_book(2)
    pts2 = sample(rep2.manifold, 1600, seed=502)
    g0 = rep2.f.modulus(pts2)
    pts2 = pts2[(g0 > 0.05) & (g0 < 0.95)][:200]
    end_rk = monodromy.flow(monodromy.quadric_spinning_field(rep2), pts2,
                            1.0, 1e-4)
    z0 = monodromy.real_to_complex(pts2)
    closed_gap = 0.0
    drift = 0.0
    for t in (0.25, 0.5, 0.75, 1.0):
        zt, _ = monodromy.closed_form_quadric_flow(z0, t)
        drift = max(drift, float(np.max(np.abs(
            np.abs(np.sum(zt * zt, axis=-1)) - rep2.f.modulus(pts2)))))
    z1, _ = monodromy.closed_form_quadric_flow(z0, 1.0)
    closed_gap = float(np.max(np.abs(monodromy.real_to_complex(end_rk)
                                     - z1)))

    rng = rng_for(503)
    q = rng.normal(size=(100, 2))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    g = np.stack([-q[:, 1], q[:, 0]], axis=-1)
    r = rng.uniform(0.0, 1.0 - 2e-3, size=(100, 1))
    compare = monodromy.monodromy_vs_dehn_twist(
        rep2, np.concatenate([q, r * g], axis=-1))
    named = {d.name: d for d in compare.details}
    elapsed = time.perf_counter() - t0
    ok = (return_gap <= 1e-7 and closed_gap <= 1e-6 and drift <= 1e-9
          and compare.passed and elapsed < 300.0)
    _line(5, ok, f"return={return_gap:.2e} (<= 1e-7), rk4-vs-closed="
                 f"{closed_gap:.2e} (<= 1e-6), |f| drift={drift:.2e} "
                 f"(<= 1e-9), twist={named['page_monodromy_vs_twist'].max_residual:.2e}, "
                 f"inverse={named['inverse_flow'].max_residual:.2e} "
                 f"(<= 1e-5), {elapsed:.0f}s (< 300s)")


def test_criterion_06_dehn_twist_identities():
    """|p| preserved to 1e-12; the boundary is fixed exactly; the
    pullback identity holds to 1e-7 at 200 samples."""
    twist = monodromy.standard_twist()
    rng = rng_for(601)
    n = 3
    q = rng.normal(size=(200, n))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    g = rng.normal(size=(200, n))
    g -= np.sum(g * q, axis=-1, keepdims=True) * q
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    p = rng.uniform(0.0, 1.0, size=(200, 1)) * g
    q2, p2 = twist(q, p)
    norm_gap = float(np.max(np.abs(np.linalg.norm(p2, axis=-1)
                                   - np.linalg.norm(p, axis=-1))))
    qb, pb = twist(q, g)
    boundary_exact = np.array_equal(qb, q) and np.array_equal(pb, g)
    pull = monodromy.dehn_twist_pullback_check(
        twist, n, np.concatenate([q, p], axis=-1))
    ok = norm_gap <= 1e-12 and boundary_exact and pull.passed
    _line(6, ok, f"|p| gap={norm_gap:.2e} (<= 1e-12), boundary exact="
                 f"{boundary_exact}, pullback={pull.max_residual:.2e} "
                 f"(<= 1e-7)")


def test_criterion_07_ideal_liouville():
    """Completions pass for the quartic disk and the disk bundle;
    identification pullbacks <= 1e-8; page-volume identity two-sided
    <= 1e-8; the 2-disk hypersurface passes the representation suite and
    has identity monodromy under 2 pi d/d(theta)."""
    quartic = liouville.quartic_disk_domain(2)
    pts_d = sample(quartic.manifold, 500, seed=701)
    rng = rng_for(702)
    bdry = rng.normal(size=(100, 4))
    bdry /= np.linalg.norm(bdry, axis=-1, keepdims=True)
    comp_d = liouville.completion_check(quartic, pts_d, bdry)

    bundle = liouville.disk_bundle_domain(2)
    pts_b = sample(bundle.manifold, 500, seed=703)
    bdry_b = pts_b[:100].copy()
    bdry_b[:, 2:] /= np.linalg.norm(bdry_b[:, 2:], axis=-1, keepdims=True)
    comp_b = liouville.completion_check(bundle, pts_b, bdry_b)

    ident_d = liouville.identification_check(
        "disk", quartic, pts_d[quartic.u(pts_d) > 0.05])
    ident_b = liouville.identification_check(
        "disk_bundle", bundle, pts_b[bundle.u(pts_b) > 0.05])

    disk2 = liouville.weinstein_disk_domain()
    page_vol = liouville.page_volume_identity(
        disk2, sample(disk2.manifold, 500, seed=704))

    hs = liouville.hypersurface_build(disk2)
    pts_v = sample(hs.rep.manifold, 600, seed=705)
    bind = sample(hs.rep.binding, 100, seed=706)
    rep_check = contact.verify_representation(hs.rep, pts_v[:400], bind)
    off = pts_v[hs.rep.f.modulus(pts_v) > 1e-2][:50]
    end = monodromy.flow(liouville.angle_spinning_field(hs.rep), off, 1.0,
                         1e-3)
    identity_gap = float(np.max(np.abs(end - off)))

    ok = (comp_d.passed and comp_b.passed and ident_d.passed
          and ident_b.passed and page_vol.passed and rep_check.passed
          and identity_gap <= 1e-7)
    _line(7, ok, f"completions pass, identifications "
                 f"{max(ident_d.max_residual, ident_b.max_residual):.2e} "
                 f"(<= 1e-8), page volume {page_vol.max_residual:.2e}, "
                 f"hypersurface suite pass, identity monodromy "
                 f"{identity_gap:.2e}")


def test_criterion_08_subcritical_filling():
    """Coordinate-change pullback to 1e-10 at 1000 samples; the Lyapunov
    sum pulls back exactly; Weinstein checks for the plane and torus
    cotangent factors with recorded deltas."""
    rng = rng_for(801)
    pts = np.concatenate([rng.normal(size=(1000, 4)),
                          rng.uniform(0, 2 * np.pi, size=(1000, 2))],
                         axis=-1)
    coords = liouville.subcritical_check(pts)
    named = {d.name: d for d in coords.details}
    w_c = liouville.weinstein_check(
        liouville.complex_plane_weinstein(),
        sample(liouville.complex_plane_weinstein().manifold, 500, seed=802),
        delta=0.2)
    w_t = liouville.weinstein_check(
        liouville.torus_cotangent_weinstein(),
        sample(liouville.torus_cotangent_weinstein().manifold, 500,
               seed=803),
        delta=0.4)
    ok = coords.passed and w_c.passed and w_t.passed
    _line(8, ok, f"pullback {named['one_form_pullback'].max_residual:.2e} "
                 f"(<= 1e-10), lyapunov exact="
                 f"{named['lyapunov_pullback'].max_residual == 0.0}, "
                 f"weinstein deltas recorded (C: 0.2, T*T^2: 0.4)")


def test_criterion_09_filling_polynomial():
    """P_0(T) and P_eps(T) for eps in {0.01, 0.05, 0.1, 1} positive on the
    full T grid for the sphere filled by the ball, with both leading
    coefficients certified."""
    rep = contact.quadric_open_book(2)
    bf = bourgeois.bourgeois_form(rep)
    pts = sample(bf.manifold, 400, seed=901)
    report = bourgeois.filling_polynomial(rep, pts)
    grid_min = min(row["min_margin"] for row in report.rows)
    ok = report.passed and grid_min > 0
    _line(9, ok, f"grid min margin {grid_min:.3e} over "
                 f"{len(report.rows)} (eps, T) pairs; leading "
                 f"coefficients certified in note")


def test_criterion_10_prelagrangian():
    """d(alpha_hat) on T(L x T^2) <= 1e-7 for the real-circle example;
    straightened loops have uniform speed C/(2 pi) to 1e-5 and conserve
    the loop integral to 1e-6."""
    pl = prelagrangian.real_circle_torus_prelagrangian()
    pts = sample(pl.submanifold, 400, seed=1001)
    flat = prelagrangian.verify_prelagrangian(pl, pts)
    loop = prelagrangian.Loop.from_function(prelagrangian.desk_loop(0.5),
                                            prelagrangian.TORUS_ANGLES)
    _, straight = prelagrangian.straighten_loop(
        loop, pl, np.array([0, 0, 0, 0, 1, 0]))
    named = {d.name: d for d in straight.details}
    ok = flat.passed and straight.passed
    _line(10, ok, f"d(alpha_hat)|TP = {flat.max_residual:.2e} (<= 1e-7), "
                  f"uniform speed {named['transverse_speed'].max_residual:.2e} "
                  f"(<= 1e-5), integral drift "
                  f"{named['integral_conserved'].max_residual:.2e} (<= 1e-6)")


def test_criterion_11_determinism_and_runtime():
    """Re-running every suite with the same seed produces bit-identical
    JSON (timing excluded); the whole sweep stays under 15 minutes."""
    t0 = time.perf_counter()

    def run_all():
        payload = []
        for suite in ("g1_s3", "g2_s3", "g2_s5", "disk_hypersurface",
                      "subcritical", "prelag"):
            cfg = SuiteConfig(suite=suite, seed=7, samples=800)
            for report in run_suite(cfg):
                d = report.to_dict()
                payload.append(d)
        return payload

    def scrub(node):
        if isinstance(node, dict):
            node.pop("wall_time_ms", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)
        return node

    first = run_all()
    second = run_all()
    all_passed = all(r["passed"] for r in first)
    identical = json.dumps(scrub(first)) == json.dumps(scrub(second))
    elapsed = time.perf_counter() - t0
    ok = all_passed and identical and elapsed < 900.0
    _line(11, ok, f"{len(first)} reports x 2 runs, bit-identical="
                  f"{identical}, all passed={all_passed}, "
                  f"{elapsed:.0f}s (< 900s)")
