"""Pre-Lagrangian constructions and the loop straightening procedure."""

import numpy as np
import pytest

from openbooks.contact import coordinate_open_book, quadric_open_book
from openbooks.errors import DimensionMismatch, DomainError, OffManifold
from openbooks.manifolds import Submanifold, sample
from openbooks.prelagrangian import (Loop, binding_torus_prelagrangian,
                                     cumulative_simpson, desk_loop,
                                     hopf_circle_submanifold,
                                     legendrian_check, loop_integral,
                                     real_circle_submanifold,
                                     real_circle_torus_prelagrangian,
                                     restricted_form_values, simpson,
                                     straighten_loop, verify_prelagrangian)

PHI1 = np.array([0, 0, 0, 0, 1, 0])       # Y = d/d(phi1) on L x T^2


# ---------------------------------------------------------------------------
# pre-Lagrangians


def test_circle_torus_is_prelagrangian():
    pl = real_circle_torus_prelagrangian()
    pts = sample(pl.submanifold, 400, seed=1)
    report = verify_prelagrangian(pl, pts)
    assert report.passed
    assert report.max_residual < 1e-7


def test_circle_torus_restriction_is_dphi1():
    # oracle: direct evaluation on the three tangent directions; on L the
    # rescaled form has f_x / fhat_x = 1, f_y = 0 and alpha_0|TL = 0
    pl = real_circle_torus_prelagrangian()
    pts = sample(pl.submanifold, 100, seed=2)
    bases, vals = restricted_form_values(pl, pts)
    np.testing.assert_allclose(vals, bases[:, :, 4], atol=1e-12)


def test_binding_torus_is_prelagrangian():
    pl = binding_torus_prelagrangian()
    pts = sample(pl.submanifold, 400, seed=3)
    report = verify_prelagrangian(pl, pts)
    assert report.passed


def test_binding_torus_beta_part_vanishes_exactly():
    # both components of f vanish along K x T^2; with the parametrized
    # binding sampler the cancellation is exact in floating point
    pl = binding_torus_prelagrangian()
    pts = sample(pl.submanifold, 300, seed=4)
    rep = quadric_open_book(2)
    assert np.max(np.abs(rep.f.value(pts[:, :4]))) == 0.0
    e_phi = np.zeros((2, 6))
    e_phi[0, 4] = 1.0
    e_phi[1, 5] = 1.0
    from openbooks.bourgeois import bourgeois_form
    beta = bourgeois_form(rep).beta
    for v in e_phi:
        vals = np.array([beta(p, v) for p in pts])
        assert np.max(np.abs(vals)) == 0.0


def test_wrong_dimension_fixture_fails():
    pl = real_circle_torus_prelagrangian()

    def constraints(p):
        base = pl.submanifold.constraints(p)
        return np.concatenate([base, p[..., 5:6]], axis=-1)

    def sampler(rng, count):
        pts = pl.submanifold.sampler(rng, count)
        pts[:, 5] = 0.0
        return pts

    wrong = Submanifold(6, constraints, 4, name="L x S^1",
                        periodic_mask=pl.submanifold.periodic_mask,
                        orientation=None, sampler=sampler)
    from openbooks.prelagrangian import PreLagrangian
    fixture = PreLagrangian(wrong, pl.ambient_contact, pl.alpha_hat,
                            name="wrong dimension")
    pts = sample(wrong, 100, seed=5)
    report = verify_prelagrangian(fixture, pts)
    assert not report.passed
    assert "VIOLATED" in report.note


# ---------------------------------------------------------------------------
# Legendrian checks


def test_real_circle_is_legendrian_in_zero_page():
    rep = quadric_open_book(2)
    l_sub = real_circle_submanifold()
    pts = sample(l_sub, 200, seed=6)
    report = legendrian_check(l_sub, rep, pts)
    assert report.passed
    # alpha_0 on real tangent vectors at real points vanishes identically
    named = {d.name: d for d in report.details}
    assert named["alpha_vanishing"].max_residual < 1e-15
    # f = 1 on the real circle, so theta is constant 0
    np.testing.assert_allclose(rep.f.value(pts), 1.0, atol=1e-12)


def test_hopf_fixture_fails_alpha_vanishing():
    rep = quadric_open_book(2)
    hopf = hopf_circle_submanifold()
    pts = sample(hopf, 200, seed=7)
    report = legendrian_check(hopf, rep, pts)
    assert not report.passed
    named = {d.name: d for d in report.details}
    assert named["alpha_vanishing"].max_residual > 0.4


def test_binding_circle_fails_page_containment():
    rep = coordinate_open_book(2)

    def constraints(p):
        return np.stack([np.sum(p * p, axis=-1) - 1.0, p[..., 0],
                         p[..., 1]], axis=-1)

    k_circle = Submanifold(4, constraints, 3, name="binding circle",
                           orientation=None,
                           sampler=rep.binding.sampler)
    pts = sample(k_circle, 100, seed=8)
    report = legendrian_check(k_circle, rep, pts)
    assert not report.passed
    named = {d.name: d for d in report.details}
    assert named["page_containment"].min_margin == 0.0


# ---------------------------------------------------------------------------
# straightening


def test_straighten_desk_loop():
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.5), 2048,
                              pl.submanifold.periodic_mask)
    out, report = straighten_loop(loop, pl, PHI1)
    assert report.passed
    named = {d.name: d for d in report.details}
    assert named["transverse_speed"].max_residual < 1e-5
    assert named["integral_conserved"].max_residual < 1e-6
    # oracle: quadrature of the output loop gives the same C = 2 pi and a
    # uniform speed C / (2 pi) = 1
    c_out, g_out, _ = loop_integral(pl, out)
    np.testing.assert_allclose(c_out, 2 * np.pi, atol=1e-9)
    np.testing.assert_allclose(g_out, 1.0, atol=1e-7)
    # f(t) = -0.5 sin t for this loop, so the angle is straightened to t
    t = np.linspace(0, 2 * np.pi, 2049)[:-1]
    np.testing.assert_allclose(out.values[:-1, 4], t, atol=1e-7)


def test_already_transverse_loop_is_fixed():
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.0), 2048,
                              pl.submanifold.periodic_mask)
    out, report = straighten_loop(loop, pl, PHI1)
    assert report.passed
    assert np.max(np.abs(out.values - loop.values)) < 1e-12


def test_negative_integral_rejected():
    pl = real_circle_torus_prelagrangian()

    def backwards(t):
        zero = np.zeros_like(t)
        return np.stack([np.cos(t), zero, np.sin(t), zero, -t, zero],
                        axis=-1)

    loop = Loop.from_function(backwards, 1024,
                              pl.submanifold.periodic_mask)
    with pytest.raises(DomainError):
        straighten_loop(loop, pl, PHI1)


def test_bad_field_rejected():
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.5), 1024,
                              pl.submanifold.periodic_mask)
    # not alpha_hat(Y) = 1
    with pytest.raises(DomainError):
        straighten_loop(loop, pl, np.array([1, 0, 0, 0, 0, 0]))
    # alpha_hat(Y) = 1 along the loop (the radial direction pairs to zero
    # with alpha_0 at real points) but the translation leaves P
    with pytest.raises(OffManifold):
        straighten_loop(loop, pl, np.array([0.5, 0, 0, 0, 1, 0]))


@pytest.mark.parametrize("component", [0, 4, 5])
def test_nan_direction_rejected(component):
    # NaN fails every comparison, so a guard written `x > bound` lets it
    # through to a report with NaN residuals
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.5), 1024,
                              pl.submanifold.periodic_mask)
    direction = PHI1.astype(float)
    direction[component] = np.nan
    with pytest.raises(DomainError):
        straighten_loop(loop, pl, direction)


def test_nan_loop_rejected():
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.5), 1024,
                              pl.submanifold.periodic_mask)
    values = loop.values.copy()
    values[10, 1] = np.nan
    with pytest.raises(OffManifold):
        straighten_loop(Loop(values, loop.periodic_mask), pl, PHI1)


@pytest.mark.parametrize("direction", [
    np.array([0, 0, 0, 0, 1]),
    np.array([[0, 0, 0, 0, 1, 0]]),
    np.zeros((1024, 6)),
], ids=["five", "row", "per_sample"])
def test_direction_of_the_wrong_shape_rejected(direction):
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.5), 1024,
                              pl.submanifold.periodic_mask)
    with pytest.raises(DimensionMismatch):
        straighten_loop(loop, pl, direction)


@pytest.mark.parametrize("wobble", [0.5, 0.0, -0.3])
def test_straightening_is_the_exact_translation(wobble):
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(wobble), 2048,
                              pl.submanifold.periodic_mask)
    out, report = straighten_loop(loop, pl, PHI1)
    assert report.passed
    c_val, g, t = loop_integral(pl, loop)
    f_t = c_val * t / (2 * np.pi) - cumulative_simpson(g, 2 * np.pi / 2048)
    vals = loop.values[:-1]
    assert np.array_equal(out.values[:-1], vals + f_t[:-1, None] * PHI1)
    # the columns where Y is 0 are untouched
    still = PHI1 == 0
    assert np.array_equal(out.values[:, still], loop.values[:, still])


def test_open_loop_rejected():
    pl = real_circle_torus_prelagrangian()

    def arc(t):
        zero = np.zeros_like(t)
        return np.stack([np.cos(t / 2), zero, np.sin(t / 2), zero, t, zero],
                        axis=-1)

    loop = Loop.from_function(arc, 512, pl.submanifold.periodic_mask)
    with pytest.raises(DomainError):
        straighten_loop(loop, pl, PHI1)


def test_loop_derivative_stencil_accuracy():
    pl = real_circle_torus_prelagrangian()
    loop = Loop.from_function(desk_loop(0.5), 2048,
                              pl.submanifold.periodic_mask)
    der = loop.derivatives()
    t = np.linspace(0, 2 * np.pi, 2049)[:-1]
    exact = np.stack([-np.sin(t), np.zeros_like(t), np.cos(t),
                      np.zeros_like(t), 1 + 0.5 * np.cos(t),
                      np.zeros_like(t)], axis=-1)
    assert np.max(np.abs(der - exact)) < 1e-10


def test_loop_samples_gamma_in_one_call():
    calls = []
    gamma = desk_loop(0.5)

    def counted(t):
        calls.append(np.shape(t))
        return gamma(t)

    loop = Loop.from_function(counted, 2048)
    assert calls == [(2049,)]
    # reference: gamma called point by point, as the loop was sampled
    # before; the samples are bit for bit the same
    t = np.linspace(0.0, 2 * np.pi, 2049)
    assert np.array_equal(loop.values, np.stack([gamma(s) for s in t]))


@pytest.mark.parametrize("gamma", [
    lambda t: desk_loop(0.5)(t).T,                       # (m, n + 1)
    lambda t: np.cos(t),                                 # (n + 1,)
    lambda t: [np.cos(t), 0.0, np.sin(t), 0.0, t, 0.0],  # scalar-style
], ids=["transposed", "one_column", "ragged"])
def test_loop_of_the_wrong_shape_rejected(gamma):
    with pytest.raises(DimensionMismatch):
        Loop.from_function(gamma, 64)


# ---------------------------------------------------------------------------
# Simpson rules


def _cubic(t):
    return 2.0 - 3.0 * t + 0.5 * t ** 2 + 1.25 * t ** 3


def _cubic_integral(t):
    return 2.0 * t - 1.5 * t ** 2 + t ** 3 / 6.0 + 0.3125 * t ** 4


@pytest.mark.parametrize("n", [2, 4, 64])
def test_simpson_rules_are_exact_for_cubics(n):
    t = np.linspace(0.0, 3.0, n + 1)
    dx = 3.0 / n
    assert simpson(_cubic(t), dx) == pytest.approx(_cubic_integral(3.0),
                                                   rel=1e-14)
    # every even-indexed running value is a composite Simpson sum
    running = cumulative_simpson(_cubic(t), dx)
    np.testing.assert_allclose(running[::2], _cubic_integral(t[::2]),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 7, 65])
def test_single_interval_rules_are_exact_for_quadratics(n):
    # an odd interval count closes with a one-interval quadratic rule, and
    # the running integral takes one at every interval
    t = np.linspace(0.0, 3.0, n + 1)
    dx = 3.0 / n
    y = 2.0 - 3.0 * t + 0.5 * t ** 2
    exact = 2.0 * t - 1.5 * t ** 2 + t ** 3 / 6.0
    assert simpson(y, dx) == pytest.approx(exact[-1], rel=1e-14)
    np.testing.assert_allclose(cumulative_simpson(y, dx), exact, rtol=0,
                               atol=1e-13)


def test_simpson_closed_form_integrals():
    n = 2048
    t = np.linspace(0.0, 2 * np.pi, n + 1)
    dx = 2 * np.pi / n
    assert abs(simpson(np.sin(t) ** 2, dx) - np.pi) < 1e-13
    running = cumulative_simpson(np.cos(t), dx)
    assert running[0] == 0.0
    assert np.max(np.abs(running - np.sin(t))) < 1e-11
    # the rule is fourth order: halving the grid cuts the error ~16x
    coarse = np.abs(cumulative_simpson(np.cos(t[::64]), 64 * dx)
                    - np.sin(t[::64]))
    finer = np.abs(cumulative_simpson(np.cos(t[::32]), 32 * dx)
                   - np.sin(t[::32]))
    assert 10.0 < np.max(coarse) / np.max(finer) < 20.0


def test_simpson_rejects_a_single_interval():
    with pytest.raises(ValueError):
        simpson([1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        cumulative_simpson([1.0, 2.0], 0.5)
