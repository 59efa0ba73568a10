"""Product contact forms on V x T^2, characterization, inverse monodromy,
the shear isotopy, and the filling positivity sweep."""

from dataclasses import replace

import numpy as np
import pytest

from openbooks import bourgeois
from openbooks.bourgeois import (PAGE_BINDING_BAND, BourgeoisForm,
                                 FillingFamily, bourgeois_form, extend_form,
                                 extract_slice_representation,
                                 family_form, filling_polynomial,
                                 find_inverse_constant,
                                 inverse_form, inverse_form_margins,
                                 inverse_line, isotopy_check,
                                 product_assembly_check,
                                 profiled_representation,
                                 radial_profile, radial_profile_slope,
                                 verify_product_contact, verify_inverse_form)
from openbooks.contact import (ContactForm, DefiningFunction, Representation,
                               coordinate_open_book, quadric_open_book,
                               verify_representation)
from openbooks.errors import DegenerateSystem
from openbooks.forms import KForm, contact_volume, ext_deriv, scale_form
from openbooks.manifolds import sample, tangent_bases, tangent_pluecker
from openbooks.report import SweepRow


def _margins(rep, c, pts):
    # inverse_form_margins with the coordinates and the line built for the
    # call
    coords = tangent_pluecker(rep.manifold, pts)
    return inverse_form_margins(rep, c, pts, coords, inverse_line(rep, pts))


# ---------------------------------------------------------------------------
# assembly


def test_product_form_at_binding_reduces_to_base_form():
    rep = coordinate_open_book(2)
    bf = bourgeois_form(rep)
    bind = sample(rep.binding, 50, seed=1)
    pts = np.concatenate([bind, np.zeros((50, 2))], axis=-1)
    # where f = 0 the product form's coefficients equal alpha_V's
    coeffs = bf.alpha.coeffs(pts)
    np.testing.assert_allclose(coeffs[:, 4:], 0.0, atol=1e-15)
    base = rep.contact.alpha.coeffs(bind)
    np.testing.assert_allclose(coeffs[:, :4], base, atol=1e-15)


def test_product_form_reads_off_re_f():
    rep = quadric_open_book(2)
    bf = bourgeois_form(rep)
    pts = sample(bf.manifold, 100, seed=2)
    e_phi1 = np.zeros(6)
    e_phi1[4] = 1.0
    vals = np.array([bf.alpha(p, e_phi1) for p in pts])
    np.testing.assert_allclose(vals, np.real(rep.f.value(pts[:, :4])),
                               atol=1e-13)


def test_product_assembly_on_s5():
    rep = quadric_open_book(3)
    bf = bourgeois_form(rep)
    assert bf.manifold.ambient_dim == 8
    assert bf.manifold.dim == 7


def test_product_assembly_check_reads_off_re_f():
    bf = bourgeois_form(quadric_open_book(3))
    report = product_assembly_check(bf, sample(bf.manifold, 200, seed=4))
    assert report.passed and report.n_samples == 200
    assert report.note.endswith("on the dim-7 product")


def test_half_beta_fails_product_assembly():
    # control: with beta halved, alpha(d/dphi1) is Re f / 2
    rep = quadric_open_book(3)
    bf = bourgeois_form(rep)
    half = BourgeoisForm(rep=rep, manifold=bf.manifold,
                         alpha=extend_form(rep.contact.alpha) + 0.5 * bf.beta,
                         beta=bf.beta)
    report = product_assembly_check(half, sample(bf.manifold, 200, seed=4))
    assert not report.passed
    assert report.max_residual > 0.1


def test_invalid_representation_propagates():
    # negative control: f = z_1^2 vanishes to second order along its zero
    # set, so 0 is not a regular value and the pair is no representation
    def value(p):
        z1 = p[..., 0] + 1j * p[..., 1]
        return z1 * z1

    base = coordinate_open_book(2)
    rep = Representation(contact=base.contact,
                         f=DefiningFunction(4, value),
                         binding=base.binding, name="bad fixture")
    report = verify_representation(rep, sample(rep.manifold, 200, seed=0),
                                   sample(rep.binding, 50, seed=1))
    assert not report.passed
    failed = [d.name for d in report.details if not d.passed]
    assert "regular_value" in failed


# ---------------------------------------------------------------------------
# contact characterization on the product


@pytest.mark.parametrize("maker", [coordinate_open_book, quadric_open_book])
def test_product_contact_two_routes(maker):
    rep = maker(2)
    bf = bourgeois_form(rep)
    pts = sample(bf.manifold, 2000, seed=3)
    report = verify_product_contact(bf, pts)
    assert report.passed, [(d.name, d.max_residual) for d in report.details]
    named = {d.name: d for d in report.details}
    assert named["two_route_agreement"].max_residual < 1e-8
    assert named["eps_scaling"].max_residual < 1e-8
    assert named["beta_fiber_vanishing"].max_residual == 0.0
    assert named["torus_invariance"].max_residual == 0.0


def test_torus_dependent_beta_fails_eps_scaling():
    # negative control: with beta scaled by a factor depending on phi1,
    # alpha_V + eps beta is no longer eps^2-homogeneous in its volume
    rep = quadric_open_book(2)
    bf = bourgeois_form(rep)
    beta = scale_form(lambda p: 1.0 + 0.5 * np.sin(p[..., 4]), bf.beta)
    bent = BourgeoisForm(rep=rep, manifold=bf.manifold,
                         alpha=extend_form(rep.contact.alpha) + beta,
                         beta=beta)
    pts = sample(bf.manifold, 500, seed=3)
    report = verify_product_contact(bent, pts)
    named = {d.name: d for d in report.details}
    assert not named["eps_scaling"].passed
    assert named["eps_scaling"].max_residual > 0.1
    assert not report.passed


def test_product_value_equals_volume_factor():
    # the top power equals (n+1) Omega_V ^ dphi1 ^ dphi2; for the quadric
    # book on S^3 the volume form evaluates to 2, so the product value on
    # oriented bases is exactly 4
    rep = quadric_open_book(2)
    bf = bourgeois_form(rep)
    pts = sample(bf.manifold, 200, seed=4)
    from openbooks.forms import wedge, wedge_power
    top = wedge(bf.alpha, wedge_power(ext_deriv(bf.alpha), 2))
    vals = top.at_basis(pts, tangent_bases(bf.manifold, pts))
    np.testing.assert_allclose(vals, 4.0, atol=1e-9)


@pytest.mark.parametrize("maker", [coordinate_open_book, quadric_open_book])
def test_slice_extraction_passes(maker):
    rep = maker(2)
    bf = bourgeois_form(rep)
    report = extract_slice_representation(
        bf, samples=sample(rep.manifold, 400, seed=5),
        binding_samples=sample(rep.binding, 80, seed=6))
    assert report.passed


def test_dead_zone_fixture_fails_submersion():
    # scale f to zero on an open set away from the true binding: the
    # slice can no longer be a representation, and the submersion
    # condition is the one that breaks
    base = quadric_open_book(2)

    def bump(d):
        t = np.clip((d - 0.35) / 0.2, 0.0, 1.0)
        return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    center = np.array([1.0, 0.0, 0.0, 0.0])

    def scaled(p):
        d = np.linalg.norm(p - center, axis=-1)
        return bump(d) * base.f.value(p)

    rep = Representation(contact=base.contact,
                         f=DefiningFunction(4, scaled),
                         binding=base.binding, name="dead-zone fixture")
    bf = bourgeois_form(rep)
    report = extract_slice_representation(
        bf, samples=sample(rep.manifold, 600, seed=7),
        binding_samples=sample(rep.binding, 60, seed=8))
    assert not report.passed
    failed = [d.name for d in report.details if not d.passed]
    assert "theta_submersion" in failed


# ---------------------------------------------------------------------------
# inverse monodromy


def test_radial_profile_shape():
    s = np.linspace(0.0, 1.0, 200)
    prof = radial_profile(s)
    slope = radial_profile_slope(s)
    np.testing.assert_allclose(prof[s <= 0.2], s[s <= 0.2], atol=1e-15)
    np.testing.assert_allclose(prof[s >= 0.4], 0.3, atol=1e-15)
    assert np.all(slope >= 0.0)
    assert np.all(np.diff(prof) >= -1e-15)


def test_profiled_representation_keeps_theta_and_binding():
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 200, seed=9)
    base = quadric_open_book(2)
    np.testing.assert_allclose(rep.f.theta(pts), base.f.theta(pts),
                               atol=1e-12)
    near = sample(rep.binding, 50, seed=10)
    # below the knee the profile is the identity, so f is unchanged there
    np.testing.assert_allclose(rep.f.value(near), base.f.value(near),
                               atol=1e-14)
    # analytic gradient of the profiled f agrees with finite differences
    fd = DefiningFunction(4, rep.f.value).grad(pts[:20])
    np.testing.assert_allclose(rep.f.grad(pts[:20]), fd, atol=1e-7)


def test_inverse_form_at_c_ten():
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 800, seed=11)
    margins = _margins(rep, 10.0, pts)
    assert np.min(margins) > 1e-3       # contact with reversed orientation
    bind = sample(rep.binding, 100, seed=12)
    report = verify_inverse_form(rep, 10.0, pts[:200], bind)
    assert report.passed


def test_inverse_form_with_a_binding_sample_raises():
    # mu vanishes on T_p V at a binding point, so the point has no page
    # frame; the check raises instead of reading a page gap.  A binding
    # sample reads |f| at rounding level, not exactly 0, so the gate is the
    # band |f| < PAGE_BINDING_BAND, not mu == 0
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 200, seed=11)
    bind = sample(rep.binding, 100, seed=12)
    assert verify_inverse_form(rep, 10.0, pts, bind).passed
    assert np.min(rep.f.modulus(pts)) >= PAGE_BINDING_BAND
    near = bind[rep.f.modulus(bind) > 0.0][0]
    assert 0.0 < rep.f.modulus(near) < 1e-15
    # a point of V a distance ~1e-7 off the binding: still inside the band
    inside = near + 1e-7 * pts[0]
    inside /= np.linalg.norm(inside)
    assert 1e-9 < rep.f.modulus(inside) < PAGE_BINDING_BAND
    for point in (near, inside):
        moved = pts.copy()
        moved[17] = point
        with pytest.raises(DegenerateSystem, match="no page frame"):
            verify_inverse_form(rep, 10.0, moved, bind)


def test_restriction_agreement_reads_alpha_minus(monkeypatch):
    # control: alpha_minus + 1e-6 |f|^2 dx_0 vanishes on the binding but
    # not on pages, so only the page half of restriction_agreement can see
    # it; reversed_contact reads alpha - C mu and is unchanged
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 800, seed=11)
    bind = sample(rep.binding, 100, seed=12)
    c, _, _ = find_inverse_constant(rep, pts)
    honest = verify_inverse_form(rep, c, pts[:200], bind)
    assert honest.passed

    def perturbed(rep, c):
        bump = KForm(1, 4, lambda p: 1e-6 * rep.f.modulus(p)[..., None] ** 2
                     * np.eye(4)[0])
        return ContactForm(inverse_form(rep, c).alpha + bump, rep.manifold)

    monkeypatch.setattr(bourgeois, "inverse_form", perturbed)
    report = verify_inverse_form(rep, c, pts[:200], bind)
    named = {d.name: d for d in report.details}
    assert not report.passed
    assert not named["restriction_agreement"].passed
    assert named["restriction_agreement"].max_residual > 1e-8
    assert named["reversed_contact"].passed
    assert named["reversed_contact"] == {
        d.name: d for d in honest.details}["reversed_contact"]


def test_inverse_form_c_zero_is_original():
    rep = profiled_representation(quadric_open_book(2))
    cf = inverse_form(rep, 0.0)
    pts = sample(rep.manifold, 200, seed=13)
    margins = -_margins(rep, 0.0, pts)   # positive orientation
    np.testing.assert_allclose(margins, 0.5, atol=1e-10)
    gap = cf.alpha.coeffs(pts) - rep.contact.alpha.coeffs(pts)
    assert np.max(np.abs(gap)) == 0.0


@pytest.mark.parametrize("c", [0.0, 1.0, 16.0, 1024.0])
def test_inverse_margins_on_the_line_match_the_assembled_form(c):
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 200, seed=13)
    bases = tangent_bases(rep.manifold, pts)
    assembled = -contact_volume(inverse_form(rep, c).alpha, rep.n).at_basis(
        pts, bases)
    on_line = _margins(rep, c, pts)
    scale = max(1.0, c)
    np.testing.assert_allclose(on_line, assembled, rtol=0, atol=1e-9 * scale)


def test_constant_search_then_doubling():
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 600, seed=14)
    c, margin, margin2 = find_inverse_constant(rep, pts)
    assert c in [2.0 ** k for k in range(11)]
    assert margin > 1e-3 and margin2 > 1e-3


def test_inverse_form_checks_build_each_frame_once(monkeypatch):
    # the Pluecker coordinates once per sample set; frames only for the
    # restrictions to pages and binding
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 300, seed=15)
    bind = sample(rep.binding, 50, seed=16)
    frames, coords = _count_sizes(monkeypatch, bourgeois, "tangent_bases",
                                  "tangent_pluecker")
    c, margin, margin2 = find_inverse_constant(rep, pts)
    assert (frames, coords) == ([], [300])
    assert margin == np.min(_margins(rep, c, pts))
    assert margin2 == np.min(_margins(rep, 2 * c, pts))
    frames.clear()
    coords.clear()
    report = verify_inverse_form(rep, c, pts[:200], bind)
    assert report.passed
    assert (frames, coords) == ([200, 50], [200])


# ---------------------------------------------------------------------------
# the shear isotopy


def test_isotopy_tau_zero_is_identity():
    rep = profiled_representation(quadric_open_book(2))
    bf = bourgeois_form(rep)
    alpha_tau = family_form(rep, 0.0, 10.0)
    pts = sample(bf.manifold, 100, seed=16)
    gap = alpha_tau.coeffs(pts) - bf.alpha.coeffs(pts)
    assert np.max(np.abs(gap)) == 0.0


def test_isotopy_family():
    rep = profiled_representation(quadric_open_book(2))
    pts_v = sample(rep.manifold, 600, seed=17)
    c, _, _ = find_inverse_constant(rep, pts_v)
    bf = bourgeois_form(rep)
    pts = sample(bf.manifold, 300, seed=18)
    report = isotopy_check(rep, c, pts)
    assert report.passed, [(d.name, d.max_residual) for d in report.details]
    named = {d.name: d for d in report.details}
    assert named["shear_pullback"].max_residual < 1e-6
    assert named["volume_invariance"].max_residual < 1e-6
    assert named["endpoint_flip"].max_residual < 1e-10


def test_endpoint_is_product_form_of_inverse_data():
    # alpha_1 = alpha_minus + f_x dphi1 - f_y dphi2 pointwise
    rep = profiled_representation(quadric_open_book(2))
    c = 10.0
    alpha_1 = family_form(rep, 1.0, c)
    from dataclasses import replace
    rep_minus = replace(rep, contact=inverse_form(rep, c))
    direct = bourgeois_form(rep_minus).alpha
    bf = bourgeois_form(rep)
    pts = sample(bf.manifold, 200, seed=19)
    np.testing.assert_allclose(alpha_1.coeffs(pts), direct.coeffs(pts),
                               atol=1e-10)


# ---------------------------------------------------------------------------
# filling polynomial


def _ball_filling_family():
    rep = quadric_open_book(2)
    return FillingFamily(rep, ext_deriv(rep.contact.alpha))


def _with_t_grid(monkeypatch, t_grid):
    monkeypatch.setattr(FillingFamily, "default_t_grid",
                        staticmethod(lambda: t_grid))


def test_filling_polynomial_positive():
    fam = _ball_filling_family()
    bf = bourgeois_form(fam.rep)
    pts = sample(bf.manifold, 400, seed=20)
    report = filling_polynomial(fam, pts)
    assert report.passed
    assert report.min_margin > 1e-9
    assert report.max_residual < 1e-8          # P_0 route agreement
    assert {"eps", "T", "min_margin"} <= set(report.rows[0])
    # slotted rows: a benchmark keeps every pass's reports
    assert all(type(row) is SweepRow for row in report.rows)


def test_filling_zero_eps_proportional_to_one_plus_t(monkeypatch):
    # oracle: with omega = d(alpha_V) the eps = 0 polynomial is
    # (n+1) alpha ^ ((1+T) d alpha)^n ^ vol, i.e. proportional to (1+T)
    monkeypatch.setattr(bourgeois, "FILLING_EPS_GRID", (0.0,))
    fam = _ball_filling_family()
    bf = bourgeois_form(fam.rep)
    pts = sample(bf.manifold, 200, seed=21)
    report = filling_polynomial(fam, pts)
    rows = {row["T"]: row["min_margin"] for row in report.rows}
    base = rows[0.0]
    for t_val, margin in rows.items():
        np.testing.assert_allclose(margin, base * (1.0 + t_val),
                                   rtol=1e-9)


def test_filling_leading_coefficients_certified():
    fam = _ball_filling_family()
    bf = bourgeois_form(fam.rep)
    pts = sample(bf.manifold, 200, seed=22)
    report = filling_polynomial(fam, pts)
    assert report.passed
    assert "T^n[eps=0]" in report.note and "T^(n+1)[eps=" in report.note


# ---------------------------------------------------------------------------
# a NaN anywhere on a grid fails the leaf


def test_filling_nan_eps_fails(monkeypatch):
    monkeypatch.setattr(bourgeois, "FILLING_EPS_GRID", (0.0, float("nan")))
    fam = _ball_filling_family()
    bf = bourgeois_form(fam.rep)
    report = filling_polynomial(fam, sample(bf.manifold, 100, seed=23))
    assert not report.passed
    assert np.isnan(report.min_margin)


def test_isotopy_nan_tau_fails_every_tau_leaf(monkeypatch):
    rep = profiled_representation(quadric_open_book(2))
    bf = bourgeois_form(rep)
    pts = sample(bf.manifold, 100, seed=24)
    monkeypatch.setattr(bourgeois, "TAU_GRID", (0.0, float("nan"), 1.0))
    report = isotopy_check(rep, 10.0, pts)
    assert not report.passed
    named = {d.name: d for d in report.details}
    for leaf in ("shear_pullback", "family_contact", "volume_invariance"):
        assert not named[leaf].passed
    assert np.isnan(named["family_contact"].min_margin)
    assert np.isnan(named["volume_invariance"].max_residual)


def test_product_contact_nan_eps_fails_scaling(monkeypatch):
    bf = bourgeois_form(quadric_open_book(2))
    pts = sample(bf.manifold, 100, seed=25)
    monkeypatch.setattr(bourgeois, "EPS_VALUES", (0.5, float("nan")))
    report = verify_product_contact(bf, pts)
    named = {d.name: d for d in report.details}
    assert not named["eps_scaling"].passed
    assert np.isnan(named["eps_scaling"].max_residual)
    assert not report.passed


# ---------------------------------------------------------------------------
# evaluation counts: each form once per batch, each frame once per check


def _count_sizes(monkeypatch, module, *names):
    """Wrap each function `names` of `module`; one list per name of the
    number of points of each call."""
    sizes = []
    for name in names:
        original, seen = getattr(module, name), []

        def counting(manifold, points, original=original, seen=seen):
            seen.append(len(points))
            return original(manifold, points)

        monkeypatch.setattr(module, name, counting)
        sizes.append(seen)
    return sizes


def _count_calls(monkeypatch, name):
    """Wrap the openbooks function `name` in every module that binds it."""
    import sys

    original = getattr(sys.modules["openbooks.forms"], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("openbooks") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _stencil_alpha(rep):
    """rep with alpha_V stripped of its exact d, so that every derivative
    of it, and of the product forms built on it, is taken by the stencil."""
    return replace(rep, contact=ContactForm(replace(rep.contact.alpha, d=None),
                                            rep.manifold))


def test_filling_stencil_calls_do_not_grow_with_the_t_grid(monkeypatch):
    # alpha_V and beta carry d, so the sweep takes no stencil call; with
    # alpha_V's derivative by stencil the count is positive and the same
    # for every T grid
    exact = quadric_open_book(2)
    pts = sample(bourgeois_form(exact).manifold, 40, seed=22)
    calls = _count_calls(monkeypatch, "central_difference")
    monkeypatch.setattr(bourgeois, "FILLING_EPS_GRID", (0.0, 0.1))
    for rep in (exact, _stencil_alpha(exact)):
        fam = FillingFamily(rep, ext_deriv(rep.contact.alpha))
        counts = []
        for t_grid in [(0.0, 1.0, 10.0), tuple(np.linspace(0.0, 45.0, 46))]:
            _with_t_grid(monkeypatch, t_grid)
            calls.clear()
            assert filling_polynomial(fam, pts).passed
            counts.append(len(calls))
        if rep is exact:
            assert counts == [0, 0]
        else:
            assert counts[0] == counts[1] > 0


def test_stencil_calls_do_not_grow_with_the_constants(monkeypatch):
    exact = profiled_representation(quadric_open_book(2))
    pts = sample(exact.manifold, 100, seed=26)
    product_pts = sample(bourgeois_form(exact).manifold, 60, seed=27)
    calls = _count_calls(monkeypatch, "central_difference")

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    def with_constant(name, value, fn):
        monkeypatch.setattr(bourgeois, name, value)
        return count(fn)

    # the exact forms take no stencil call at all; with alpha_V's
    # derivative by stencil, the count does not grow with the constants
    for rep in (exact, _stencil_alpha(exact)):
        bf = bourgeois_form(rep)
        # C = 2^-20 .. 2^-1 all fail before the search reaches the default
        # grid
        small = tuple(2.0 ** k for k in range(-20, 0))
        grids = [bourgeois.C_GRID, small + bourgeois.C_GRID]
        searches = [with_constant("C_GRID", g,
                                  lambda: find_inverse_constant(rep, pts))
                    for g in grids]
        taus = [(0.0, 1.0), tuple(np.linspace(0.0, 1.0, 21))]
        isotopies = [with_constant("TAU_GRID", t,
                                   lambda: isotopy_check(rep, 8.0,
                                                         product_pts))
                     for t in taus]
        epss = [(1.0,), tuple(np.linspace(0.05, 2.0, 20))]
        products = [with_constant(
            "EPS_VALUES", e, lambda: verify_product_contact(bf, product_pts))
            for e in epss]
        _with_t_grid(monkeypatch, (0.0, 1.0))
        family = FillingFamily(rep, ext_deriv(rep.contact.alpha))
        fillings = [with_constant(
            "FILLING_EPS_GRID", e,
            lambda: filling_polynomial(family, product_pts))
            for e in [(0.0, 1.0), tuple(np.linspace(0.0, 1.0, 11))]]
        all_counts = (searches, isotopies, products, fillings)
        for counts in all_counts:
            if rep is exact:
                assert counts == [0, 0], all_counts
            else:
                assert counts[0] == counts[1] > 0, all_counts


def test_isotopy_takes_the_pluecker_coordinates_once(monkeypatch):
    # one set of coordinates for every tau, read off the normal of the
    # hypersurface V x T^2 (no minors), and one set of frames for the
    # restrictions
    rep = profiled_representation(quadric_open_book(2))
    pts = sample(rep.manifold, 300, seed=23)
    c, _, _ = find_inverse_constant(rep, pts)
    product_pts = sample(bourgeois_form(rep).manifold, 100, seed=24)
    frames, coords = _count_sizes(monkeypatch, bourgeois, "tangent_bases",
                                  "tangent_pluecker")
    minors = _count_calls(monkeypatch, "pluecker")
    report = isotopy_check(rep, c, product_pts)
    assert report.passed
    assert (frames, coords, minors) == ([100], [100], [])
