"""Exact exterior derivatives carried by the forms (KForm.d) against the
central-difference stencil of the same coefficients, d(d a) = 0 exactly,
and controls in which one rule is flipped."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from openbooks import bourgeois, cli
from openbooks.bourgeois import (bourgeois_form, inverse_form,
                                 profiled_representation,
                                 verify_product_contact)
from openbooks.contact import (DefiningFunction, coordinate_open_book,
                               quadric_open_book, standard_contact_form,
                               standard_sphere)
from openbooks.forms import (DEFAULT_FD_STEP, KForm, central_difference,
                             coordinate_differential, ext_deriv,
                             place_form, wedge)
from openbooks.liouville import (canonical_one_form, hypersurface_build,
                                 quartic_disk_domain, weinstein_disk_domain)
from openbooks.manifolds import sample

# Central differences with step h = DEFAULT_FD_STEP = 1e-5 err on each
# partial derivative by h^2/6 |c'''| (truncation) plus a few eps |c| / h
# and eps |p| |c'| / h (rounding of the values and of p +- h e_i, about
# 1e-11 here), and each coefficient of d a sums at most two partials on
# these forms.  Hence one bound per kind of coefficient:
#   - linear or quadratic (alpha_0, both books' alpha and beta, the
#     hypersurface alphas, lambda_W + lambda_can): c''' = 0, rounding
#     only: 1e-10 (measured at most 1.8e-11);
#   - cubic or quartic (mu = f_x df_y - f_y df_x of the quadric, which has
#     |c'''| <= 12 on the unit sphere, and mu ^ alpha_0): 2 x 12 h^2/6
#     = 4e-10 plus rounding, and for the wedge the product rule's
#     3 |mu''| |alpha_0'| on top: 2e-9 (measured 4.2e-10 and 2.0e-10);
#   - the radial profile's f, whose profile has |profile'''| <= 5.77 /
#     (R1 - R0)^2 = 144, divided by |f| >= R0 and composed with
#     |grad |f|| <= 2, which puts |c'''| of mu near 1e4 and its truncation
#     near 2e-7: 1e-6 per unit of the coefficient of mu (measured 3.2e-8
#     for mu, 2.1e-7 for alpha - 8 mu).
LINEAR, POLYNOMIAL, PROFILED = 1e-10, 2e-9, 1e-6
C = 8.0                 # the alpha - C mu case, inside the suites' grid

assert DEFAULT_FD_STEP == 1e-5      # the bounds above assume this step


def _sphere_points(n, seed):
    return sample(standard_sphere(n), 300, seed)


def _product_points(rep, seed):
    return sample(bourgeois_form(rep).manifold, 300, seed)


def _hypersurface_case(domain, seed):
    """The contact form of the hypersurface V over a domain, and points
    of V."""
    def rep():
        return hypersurface_build(domain()).rep

    return (lambda: rep().contact.alpha,
            lambda: sample(rep().manifold, 300, seed), LINEAR)


def _subcritical_lambda():
    """lambda_W + lambda_can on R^6 as the subcritical check builds it."""
    return (place_form(standard_contact_form(1), 6, 0)
            + place_form(canonical_one_form(2), 6, 2))


def _mu_wedge_alpha():
    rep = quadric_open_book(2)
    return wedge(rep.f.mu_form(), rep.contact.alpha)


# (form builder, point builder, bound): every form that carries d
CASES = {
    "alpha0_n2": (lambda: standard_contact_form(2),
                  lambda: _sphere_points(2, 1), LINEAR),
    "alpha0_n3": (lambda: standard_contact_form(3),
                  lambda: _sphere_points(3, 2), LINEAR),
    "coordinate_bf_alpha": (
        lambda: bourgeois_form(coordinate_open_book(2)).alpha,
        lambda: _product_points(coordinate_open_book(2), 3), LINEAR),
    "coordinate_bf_beta": (
        lambda: bourgeois_form(coordinate_open_book(2)).beta,
        lambda: _product_points(coordinate_open_book(2), 4), LINEAR),
    "quadric_bf_alpha": (
        lambda: bourgeois_form(quadric_open_book(2)).alpha,
        lambda: _product_points(quadric_open_book(2), 5), LINEAR),
    "quadric_bf_beta": (
        lambda: bourgeois_form(quadric_open_book(2)).beta,
        lambda: _product_points(quadric_open_book(2), 6), LINEAR),
    "quadric_mu": (lambda: quadric_open_book(2).f.mu_form(),
                   lambda: _sphere_points(2, 7), POLYNOMIAL),
    "profiled_mu": (
        lambda: profiled_representation(quadric_open_book(2)).f.mu_form(),
        lambda: _sphere_points(2, 8), PROFILED),
    "alpha_minus_c_mu": (
        lambda: inverse_form(profiled_representation(quadric_open_book(2)),
                             C).alpha,
        lambda: _sphere_points(2, 9), (1.0 + C) * PROFILED),
    "leibniz_mu_wedge_alpha0": (_mu_wedge_alpha,
                                lambda: _sphere_points(2, 10), POLYNOMIAL),
    "lambda_can_n1": (lambda: canonical_one_form(1),
                      lambda: _sphere_points(1, 14), LINEAR),
    "lambda_can_n2": (lambda: canonical_one_form(2),
                      lambda: _sphere_points(2, 15), LINEAR),
    "hypersurface_weinstein_disk": _hypersurface_case(weinstein_disk_domain,
                                                      16),
    "hypersurface_quartic_d4": _hypersurface_case(
        lambda: quartic_disk_domain(2), 17),
    "subcritical_lambda": (_subcritical_lambda,
                           lambda: _sphere_points(3, 18), LINEAR),
}

# central_difference calls of one suite run at seed 7.  What is left is the
# quotient oracles, the step_scale derivatives of the quotient forms and the
# frame stencils; a form of a suite that loses its exact d adds calls here.
STENCIL_CALLS = {"g1_s3": 3, "g2_s3": 4, "g2_s5": 2, "disk_hypersurface": 4,
                 "subcritical": 0, "prelag": 1}


def _stencil(form):
    """The stencil's derivative of form's coefficients."""
    return ext_deriv(replace(form, d=None))


def _fd_gap(form, pts):
    return np.max(np.abs(ext_deriv(form).coeffs(pts)
                         - _stencil(form).coeffs(pts)))


def _patch_everywhere(monkeypatch, name, value):
    """Replace the openbooks function `name` in every module binding it."""
    original = getattr(sys.modules["openbooks.forms"], name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("openbooks") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_derivative_agrees_with_the_stencil(case):
    build, points, bound = CASES[case]
    form = build()
    assert form.d is not None
    pts = points()
    gap = _fd_gap(form, pts)
    assert gap <= bound, gap
    # the comparison sees a real derivative, not two zeros
    assert np.max(np.abs(ext_deriv(form).coeffs(pts))) >= 0.4


@pytest.mark.parametrize("case", sorted(CASES))
def test_d_of_the_exact_derivative_is_exactly_zero(case):
    build, points, _ = CASES[case]
    dd = ext_deriv(ext_deriv(build()))
    assert dd.d is not None
    assert np.all(dd.coeffs(points()) == 0.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_derivatives_take_no_stencil(monkeypatch, case):
    build, points, _ = CASES[case]
    form, pts = build(), points()
    want = ext_deriv(form).coeffs(pts)

    def refuse(*args, **kwargs):
        raise AssertionError("central_difference called")

    _patch_everywhere(monkeypatch, "central_difference", refuse)
    assert np.array_equal(ext_deriv(form).coeffs(pts), want)
    assert np.all(ext_deriv(ext_deriv(form)).coeffs(pts) == 0.0)
    with pytest.raises(AssertionError, match="central_difference"):
        _stencil(form).coeffs(pts)


@pytest.mark.parametrize("suite", sorted(STENCIL_CALLS))
def test_each_suite_makes_its_stencil_calls(monkeypatch, suite):
    assert set(STENCIL_CALLS) == set(cli.SUITE_NAMES)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return central_difference(*args, **kwargs)

    _patch_everywhere(monkeypatch, "central_difference", counting)
    reports = cli.run_suite(cli.SuiteConfig(suite=suite, seed=7))
    assert all(r.passed for r in reports)
    assert len(calls) == STENCIL_CALLS[suite]


def test_wedge_follows_leibniz_only_when_both_factors_carry_d():
    rep = quadric_open_book(2)
    mu, alpha = rep.f.mu_form(), rep.contact.alpha
    exact = wedge(mu, alpha)
    pts = _sphere_points(2, 11)
    leibniz = wedge(ext_deriv(mu), alpha) - wedge(mu, ext_deriv(alpha))
    assert np.array_equal(ext_deriv(exact).coeffs(pts),
                          leibniz.coeffs(pts))
    assert wedge(mu, replace(alpha, d=None)).d is None
    # a top-degree wedge is closed
    top = wedge(exact, wedge(rep.f.dfx_form(), rep.f.dfy_form()))
    assert top.degree == 4
    # a constant form's coefficients broadcast to the batch
    assert np.broadcast_shapes(ext_deriv(top).coeffs(pts).shape,
                               (len(pts), 0)) == (len(pts), 0)


# ---------------------------------------------------------------------------
# controls: one rule flipped in a test-local copy


_BETA_FORM = bourgeois._beta_form


def _flipped_beta_form(rep):
    """bourgeois._beta_form with the sign of the dphi2 term of d beta
    flipped."""
    good = _BETA_FORM(rep)
    m = rep.manifold.ambient_dim
    f = rep.f

    def d():
        dphi1 = coordinate_differential(m + 2, m)
        dphi2 = coordinate_differential(m + 2, m + 1)
        return (wedge(place_form(f.dfx_form(), m + 2, 0), dphi1)
                + wedge(place_form(f.dfy_form(), m + 2, 0), dphi2))

    return replace(good, d=d)


def _mu_form_without_the_2(self):
    """DefiningFunction.mu_form with d mu = df_x ^ df_y (the 2 dropped)."""
    return KForm(1, self.ambient_dim, lambda p: self.regularized(p).mu,
                 lambda: 1.0 * self.area_form())


def test_flipped_d_beta_fails_the_cross_check_and_two_route_agreement(
        monkeypatch):
    rep = quadric_open_book(2)
    pts = _product_points(rep, 12)
    monkeypatch.setattr(bourgeois, "_beta_form", _flipped_beta_form)
    bf = bourgeois_form(rep)
    assert _fd_gap(bf.beta, pts) > 1.0
    assert _fd_gap(bf.alpha, pts) > 1.0
    report = verify_product_contact(bf, pts)
    two_route = next(d for d in report.details
                     if d.name == "two_route_agreement")
    assert not two_route.passed and two_route.max_residual > 0.1
    assert not report.passed


def test_d_mu_without_the_2_fails_the_cross_check(monkeypatch):
    # the cross-check is what catches this rule: in the suites d mu enters
    # only alpha - C mu, whose margins have no second route, and the
    # isotopy's volume, where every term with d mu = 2 df_x ^ df_y
    # vanishes (it must take dphi1 and dphi2 from the angle terms, and one
    # of them brings df_x or df_y a second time)
    rep = profiled_representation(quadric_open_book(2))
    pts = _sphere_points(2, 13)
    monkeypatch.setattr(DefiningFunction, "mu_form", _mu_form_without_the_2)
    assert _fd_gap(rep.f.mu_form(), pts) > 0.1
    assert _fd_gap(inverse_form(rep, C).alpha, pts) > 0.1 * C
