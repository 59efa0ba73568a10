"""Contact forms, Reeb fields, adaptedness, volume forms, representations."""

import math
from dataclasses import replace

import numpy as np
import pytest

from openbooks.contact import (ContactForm, DefiningFunction,
                               Representation, _sub_pfaffians,
                               coordinate_open_book, openbook_volume_form,
                               quadric_open_book, reeb_fields,
                               standard_contact_form, standard_sphere,
                               verify_adapted, verify_contact,
                               verify_representation, volume_form_cross_check)
from openbooks.errors import DegenerateSystem, OffManifold
from openbooks.forms import VecField, contact_volume, form_from_components
from openbooks.liouville import hypersurface_build, weinstein_disk_domain
from openbooks.manifolds import (Submanifold, flat_torus, rng_for, sample,
                                 tangent_bases)


# ---------------------------------------------------------------------------
# Reeb fields


def standard_reeb_field(n: int) -> VecField:
    """Reeb field of alpha_0 on the unit sphere: R(z) = 2 i z.

    The normalization is fixed by alpha_0(R) = 1 on |z| = 1; the complex
    multiplication-by-i field alone pairs with alpha_0 to 1/2."""
    m = 2 * n

    def eval(p):
        out = np.empty_like(p)
        out[..., 0::2] = -2.0 * p[..., 1::2]
        out[..., 1::2] = 2.0 * p[..., 0::2]
        return out

    return VecField(m, eval)


def test_reeb_field_of_standard_r3():
    # alpha = dz + x dy on R^3: the Reeb field is d/dz
    alpha = form_from_components(3, 1, {(2,): 1.0,
                                        (1,): lambda p: p[..., 0]})
    ambient = Submanifold(3, None, 0, name="R^3", oriented=True,
                          sampler=lambda rng, n: rng.normal(size=(n, 3)))
    cf = ContactForm(alpha, ambient)
    r, residual = reeb_fields(cf, np.array([0.3, -0.2, 0.9]))
    np.testing.assert_allclose(r, [0.0, 0.0, 1.0], atol=1e-9)
    assert residual < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_reeb_field_on_sphere_is_doubled_rotation(n):
    # oracle: least-squares solve; the analytic field is 2 i z (the
    # un-normalized i z pairs with alpha_0 to 1/2 on the unit sphere)
    sphere = standard_sphere(n)
    cf = ContactForm(standard_contact_form(n), sphere)
    pts = sample(sphere, 200, seed=2)
    solved, residual = reeb_fields(cf, pts)
    np.testing.assert_allclose(solved, standard_reeb_field(n)(pts),
                               atol=1e-8)
    assert np.max(residual) < 1e-8
    pairing = np.einsum("nm,nm->n", standard_contact_form(n).coeffs(pts),
                        pts[:, [1, 0, 3, 2, 5, 4][: 2 * n]]
                        * np.tile([-1.0, 1.0], n))
    np.testing.assert_allclose(pairing, 0.5, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_reeb_solution_matches_the_pinv_solve(n):
    # reference: the pseudo-inverse of the overdetermined system [a; pair],
    # with np.linalg.pinv; the bordered solve agrees to rounding
    sphere = standard_sphere(n)
    cf = ContactForm(standard_contact_form(n), sphere)
    pts = sample(sphere, 500, seed=3)
    bases = tangent_bases(sphere, pts)
    mat = np.concatenate([cf.alpha.restrict(pts, bases)[:, None, :],
                          -cf.d_alpha().restrict(pts, bases)], axis=1)
    rhs = np.zeros((len(pts), mat.shape[1], 1))
    rhs[:, 0] = 1.0
    sol = np.linalg.pinv(mat) @ rhs
    want = np.einsum("nd,ndm->nm", sol[..., 0], bases)
    got, residual = reeb_fields(cf, pts)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(residual) <= 1e-14
    # the analytic field; the gap is the stencil error of d(alpha)
    assert np.max(np.abs(got - standard_reeb_field(n)(pts))) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4], ids=["S^3", "S^5", "S^7"])
def test_sub_pfaffians_are_the_kernel_and_the_contact_volume(n):
    # the two routes to the contact volume pin each other: on the same
    # frames, n! (a . k) from the sub-Pfaffians of P = d(alpha)(e_i, e_j)
    # equals alpha ^ (d alpha)^n from the wedge tables and Pluecker minors
    # (1/2, 1 and 3 here).  Both read the same stencil coefficients, so
    # they differ by rounding only, in sums of products of n + 1 entries
    # of order one; 4e-15 relative is about 18 ulp.  A wrong sign or table
    # in either route is off by order one.  P k = 0 to rounding too
    sphere = standard_sphere(n)
    alpha = standard_contact_form(n)
    pts = sample(sphere, 500, seed=3)
    bases = tangent_bases(sphere, pts)
    a = alpha.restrict(pts, bases)
    pair = ContactForm(alpha, sphere).d_alpha().restrict(pts, bases)
    k = _sub_pfaffians(pair)
    got = math.factorial(n - 1) * np.einsum("nd,nd->n", a, k)
    want = contact_volume(alpha, n - 1).at_basis(pts, bases)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15
    assert np.max(np.abs(np.einsum("nij,nj->ni", pair, k))) <= 4e-15


def test_even_dimensional_form_rejected():
    # alpha = x dy on R^2: [alpha; d(alpha)] has full rank, but no R has
    # d(alpha)(R, .) = 0 and alpha(R) = 1: an even-dimensional frame has
    # no Reeb field
    alpha = form_from_components(2, 1, {(1,): lambda p: p[..., 0]})
    ambient = Submanifold(2, None, 0, name="R^2", oriented=True)
    with pytest.raises(DegenerateSystem) as err:
        reeb_fields(ContactForm(alpha, ambient), np.array([0.3, -0.2]))
    assert err.value.singular_values.shape == (2,)


R3 = Submanifold(3, None, 0, name="R^3", oriented=True)


def test_degenerate_form_rejected():
    # d(dz) = 0: alpha ^ d(alpha) vanishes and there is no Reeb field.  The
    # error carries the singular values of [a; P] at the offending point
    alpha = form_from_components(3, 1, {(2,): 1.0})
    with pytest.raises(DegenerateSystem) as err:
        reeb_fields(ContactForm(alpha, R3), np.zeros(3))
    assert err.value.singular_values.shape == (3,)


@pytest.mark.parametrize("alpha", [
    form_from_components(3, 1, {(1,): lambda p: p[..., 0]}),
    form_from_components(3, 1, {(2,): lambda p: np.where(
        p[..., 0] > 0.2, np.nan, 1.0), (1,): lambda p: p[..., 0]})],
    ids=["x_dy", "nan"])
def test_non_contact_form_rejected(alpha):
    # x dy has d(alpha) = dx ^ dy != 0 but alpha ^ d(alpha) = 0 everywhere,
    # so P has a kernel that alpha does not see.  dz + x dy is contact, but
    # a NaN coefficient at the second point fails the same gate
    pts = np.array([[0.1, 0.0, 0.0], [0.3, -0.2, 0.9]])
    with pytest.raises(DegenerateSystem) as err:
        reeb_fields(ContactForm(alpha, R3), pts)
    assert err.value.singular_values.shape == (3,)


def test_nearly_closed_form_has_its_reeb_field():
    # dz + 1e-9 x dy: alpha ^ d(alpha) = 1e-9 dx^dy^dz, small but exact,
    # and the Reeb field is d/dz.  The gate compares |a . k| with
    # |a| |P|_F^n, both of degree n + 1, so the form passes; a rank test
    # on the singular values of [a; P] (ratio ~1e-9) would reject it
    alpha = form_from_components(3, 1, {(2,): 1.0,
                                        (1,): lambda p: 1e-9 * p[..., 0]})
    pts = np.array([[0.3, -0.2, 0.9], [-1.5, 2.0, 0.1]])
    reeb, residual = reeb_fields(ContactForm(alpha, R3), pts)
    np.testing.assert_allclose(reeb, [[0.0, 0.0, 1.0]] * 2, rtol=0,
                               atol=1e-15)
    assert np.max(residual) <= 1e-15


# ---------------------------------------------------------------------------
# contact condition


def test_alpha0_contact_on_s3_value_is_half():
    # oracle: hand computation at p = (1,0,0,0) with the oriented basis
    # (dy1, dx2, dy2): alpha_0 ^ d(alpha_0) = 1/2 dy1^dx2^dy2 there, and
    # the value is constant over the sphere by symmetry
    sphere = standard_sphere(2)
    cf = ContactForm(standard_contact_form(2), sphere)
    pts = sample(sphere, 2000, seed=3)
    report = verify_contact(cf, pts)
    assert report.passed
    np.testing.assert_allclose(report.min_margin, 0.5, atol=1e-10)


def test_alpha0_contact_on_s5():
    sphere = standard_sphere(3)
    cf = ContactForm(standard_contact_form(3), sphere)
    report = verify_contact(cf, sample(sphere, 2000, seed=4))
    assert report.passed
    np.testing.assert_allclose(report.min_margin, 1.0, atol=1e-9)


def test_closed_one_form_on_torus_fails():
    torus = flat_torus(3)
    eta = form_from_components(3, 1, {(0,): 1.0})
    report = verify_contact(ContactForm(eta, torus),
                            sample(torus, 200, seed=5))
    assert not report.passed
    assert abs(report.min_margin) < 1e-10


# ---------------------------------------------------------------------------
# adaptedness


def test_adapted_coordinate_book():
    rep = coordinate_open_book(2)
    pts = sample(rep.manifold, 500, seed=6)
    bind = sample(rep.binding, 100, seed=7)
    report = verify_adapted(rep.contact, rep.f, pts, bind)
    assert report.passed
    # oracle for condition (ii): with R = 2 i z the chain rule gives
    # h_x dh_y(R) - h_y dh_x(R) = 2 |z_1|^2
    off = pts[rep.f.modulus(pts) >= 1e-3]
    reeb, _ = reeb_fields(rep.contact, off)
    hx, hy = rep.f.parts(off)
    g = rep.f.grad(off)
    d_on_r = np.einsum("ncm,nm->nc", g, reeb)
    vals = hx * d_on_r[:, 1] - hy * d_on_r[:, 0]
    np.testing.assert_allclose(vals, 2.0 * rep.f.modulus(off) ** 2,
                               atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_adapted_quadric_book(n):
    rep = quadric_open_book(n)
    pts = sample(rep.manifold, 500, seed=8)
    bind = sample(rep.binding, 100, seed=9)
    report = verify_adapted(rep.contact, rep.f, pts, bind)
    assert report.passed
    # oracle: the Reeb flow z -> e^{2it} z multiplies f by e^{4it}, so
    # condition (ii) equals 4 |f|^2
    off = pts[rep.f.modulus(pts) >= 1e-3]
    reeb, _ = reeb_fields(rep.contact, off)
    hx, hy = rep.f.parts(off)
    g = rep.f.grad(off)
    d_on_r = np.einsum("ncm,nm->nc", g, reeb)
    vals = hx * d_on_r[:, 1] - hy * d_on_r[:, 0]
    np.testing.assert_allclose(vals, 4.0 * rep.f.modulus(off) ** 2,
                               atol=1e-9)


def test_constant_defining_function_rejected():
    rep = coordinate_open_book(2)
    const = DefiningFunction(4, lambda p: np.ones(p.shape[:-1],
                                                  dtype=complex))
    pts = sample(rep.manifold, 100, seed=10)
    with pytest.raises(OffManifold):
        verify_adapted(rep.contact, const, pts, np.empty((0, 4)))


# ---------------------------------------------------------------------------
# the open-book volume form


@pytest.mark.parametrize("maker,n", [(coordinate_open_book, 2),
                                     (quadric_open_book, 2),
                                     (quadric_open_book, 3)])
def test_volume_form_positive_including_binding(maker, n):
    rep = maker(n)
    pts = sample(rep.manifold, 2000, seed=11)
    bind = sample(rep.binding, 100, seed=12)
    omega = openbook_volume_form(rep)
    from openbooks.manifolds import tangent_bases
    all_pts = np.vstack([pts, bind])
    vals = omega.at_basis(all_pts, tangent_bases(rep.manifold, all_pts))
    assert np.min(vals) > 1e-3


@pytest.mark.parametrize("maker,n", [(coordinate_open_book, 2),
                                     (quadric_open_book, 2),
                                     (quadric_open_book, 3)])
def test_volume_form_two_sided_identity(maker, n):
    # oracle: |f|^(n+2) d(theta) ^ (d(alpha/|f|))^n evaluated with raw
    # quotient forms and finite differences, off the binding
    rep = maker(n)
    pts = sample(rep.manifold, 500, seed=13)
    report = volume_form_cross_check(rep, pts)
    assert report.passed
    assert report.max_residual < 1e-8


def test_quadric_volume_value_is_two():
    # frozen: for the quadric book on S^3 the regularized volume form
    # evaluates to exactly 2 on oriented orthonormal bases (|df|^2-type
    # cancellations on the unit sphere)
    rep = quadric_open_book(2)
    pts = sample(rep.manifold, 300, seed=14)
    from openbooks.manifolds import tangent_bases
    vals = openbook_volume_form(rep).at_basis(
        pts, tangent_bases(rep.manifold, pts))
    np.testing.assert_allclose(vals, 2.0, atol=1e-10)


def test_binding_term_vanishes_at_binding():
    # at binding points the rho^2 d(theta) ^ (d alpha)^n term contributes 0
    rep = quadric_open_book(2)
    bind = sample(rep.binding, 100, seed=15)
    from openbooks.forms import ext_deriv, wedge
    from openbooks.manifolds import tangent_bases
    second = wedge(rep.f.mu_form(), ext_deriv(rep.contact.alpha))
    vals = second.at_basis(bind, tangent_bases(rep.manifold, bind))
    assert np.max(np.abs(vals)) < 1e-9


# ---------------------------------------------------------------------------
# representations


@pytest.mark.parametrize("maker,n", [(coordinate_open_book, 2),
                                     (quadric_open_book, 2),
                                     (quadric_open_book, 3)])
def test_representation_passes(maker, n):
    rep = maker(n)
    pts = sample(rep.manifold, 500, seed=16)
    bind = sample(rep.binding, 100, seed=17)
    report = verify_representation(rep, pts, bind)
    assert report.passed, [(d.name, d.min_margin) for d in report.details]


def _swapped_fx_fy(manifold):
    # the binding's rule is constraint rows first, the sign of
    # det[J_V; grad f_x; grad f_y; W]; with the rows of f_x and f_y
    # swapped it is the opposite
    def constraints(p):
        return manifold.constraints(p)[..., [0, 2, 1]]

    def jac(p):
        return manifold.constraint_jac(p)[..., [0, 2, 1], :]
    return replace(manifold, constraints=constraints, constraint_jac=jac)


def _negated_fy(manifold):
    # negating the last constraint row reverses the same orientation
    def jac(p):
        rows = manifold.constraint_jac(p).copy()
        rows[..., -1, :] = -rows[..., -1, :]
        return rows
    return replace(manifold, constraint_jac=jac)


@pytest.mark.parametrize("reverse", [_swapped_fx_fy, _negated_fy],
                         ids=["swapped_fx_fy", "negated_fy"])
def test_reversed_binding_orientation_fails_only_binding_contact(
        monkeypatch, reverse):
    # negative control: the binding K is oriented by the signs of its
    # constraint rows [J_V; grad f_x; grad f_y].  Reversed through those
    # rows, alpha restricted to the binding circle of the quadric S^3 book
    # pairs to -1/2 with the oriented unit tangent, and no other condition
    # moves
    import openbooks.contact as contact_module
    rep = quadric_open_book(2)
    pts = sample(rep.manifold, 500, seed=16)
    bind = sample(rep.binding, 100, seed=17)
    reference = verify_representation(rep, pts, bind)
    assert reference.passed

    made = contact_module.binding_manifold
    monkeypatch.setattr(contact_module, "binding_manifold",
                        lambda rep: reverse(made(rep)))
    report = verify_representation(rep, pts, bind)
    assert not report.passed
    failed = [d.name for d in report.details if not d.passed]
    assert failed == ["binding_contact"]
    margin = report.details[-1].min_margin
    assert abs(margin + 0.5) <= 1e-9, margin
    for got, want in zip(report.details[:-1], reference.details[:-1]):
        assert (got.min_margin, got.max_residual) == (want.min_margin,
                                                      want.max_residual)


def test_squared_coordinate_fails_regular_value():
    # fixture: f = z_1^2 has vanishing gradient along its zero set, so the
    # regular-value condition must reject it; oracle: the explicit
    # gradient 2 z_1 dz_1 vanishes where z_1 = 0
    n = 2
    sphere = standard_sphere(n)

    def value(p):
        z1 = p[..., 0] + 1j * p[..., 1]
        return z1 * z1

    def gradient(p):
        g = np.zeros(np.shape(p)[:-1] + (2, 4))
        g[..., 0, 0] = 2.0 * p[..., 0]
        g[..., 0, 1] = -2.0 * p[..., 1]
        g[..., 1, 0] = 2.0 * p[..., 1]
        g[..., 1, 1] = 2.0 * p[..., 0]
        return g

    base = coordinate_open_book(n)
    rep = Representation(
        contact=ContactForm(standard_contact_form(n), sphere),
        f=DefiningFunction(4, value, gradient),
        binding_sampler=base.binding_sampler,    # same zero set {z_1 = 0}
        name="z1 squared fixture")
    pts = sample(rep.manifold, 300, seed=18)
    bind = sample(rep.binding, 50, seed=19)
    assert np.max(np.abs(value(bind))) < 1e-12
    report = verify_representation(rep, pts, bind)
    assert not report.passed
    failed = {d.name for d in report.details if not d.passed}
    assert "regular_value" in failed


@pytest.mark.parametrize("maker,n", [(coordinate_open_book, 2),
                                     (quadric_open_book, 3)])
def test_theta_submersion_reads_the_rank_margin_at_the_binding(maker, n):
    # at samples inside the binding band, theta_submersion reads the
    # smaller singular value of (df_x, df_y) on TV, the number
    # regular_value reads at the binding samples; rho^2 d(theta) vanishes
    # there, and would read 0
    from openbooks.contact import representation_conditions
    rep = maker(n)
    bind = sample(rep.binding, 50, seed=24)
    regular, _, theta = representation_conditions(rep, bind, bind)[:3]
    assert theta.passed and theta.min_margin == regular.min_margin >= 1.0


def test_binding_orientation_follows_the_orientation_of_v():
    # an oriented V gives K the constraint-rows-first rule, an unoriented
    # V leaves K unoriented
    from openbooks.contact import binding_manifold
    rep = quadric_open_book(2)
    assert binding_manifold(rep).oriented
    for flag in (True, False):
        moved = replace(rep, contact=replace(
            rep.contact, manifold=replace(rep.manifold, oriented=flag)))
        assert binding_manifold(moved).oriented is flag
        assert moved.binding.oriented is flag


def _constraint_free_v(rep):
    """rep with V replaced by its ambient space R^m, oriented by the
    coordinate order."""
    free = Submanifold(rep.manifold.ambient_dim, None, 0, name="R^m",
                       sampler=rep.manifold.sampler)
    return replace(rep, contact=replace(rep.contact, manifold=free))


@pytest.mark.parametrize("maker", [
    lambda: coordinate_open_book(2), lambda: quadric_open_book(3),
    lambda: hypersurface_build(weinstein_disk_domain()).rep,
    lambda: _constraint_free_v(coordinate_open_book(2))],
    ids=["z1 S^3", "quadric S^5", "hypersurface", "constraint-free V"])
def test_binding_adds_the_two_rows_of_f_to_v(maker):
    # K = f^{-1}(0) inside V: V's constraints, then f_x and f_y
    from openbooks.contact import binding_manifold
    rep = maker()
    bind = binding_manifold(rep)
    assert bind.n_constraints == rep.manifold.n_constraints + 2
    assert bind.dim == rep.manifold.dim - 2
    pts = sample(rep.binding, 20, seed=3)
    assert bind.constraints(pts).shape == (20, bind.n_constraints)
    assert bind.jacobian(pts).shape == (20, bind.n_constraints,
                                        rep.manifold.ambient_dim)


def test_binding_is_the_zero_set_of_the_replaced_f():
    # replace(rep, f=g).binding is cut out by g: with g = z_2 on S^3 the
    # circle {z_2 = 0} lies on it and the circle {z_1 = 0} does not
    rep = coordinate_open_book(2)

    def gradient(p):
        out = np.zeros(np.shape(p)[:-1] + (2, 4))
        out[..., 0, 2] = out[..., 1, 3] = 1.0
        return out

    g = DefiningFunction(4, lambda p: p[..., 2] + 1j * p[..., 3], gradient)
    moved = replace(rep, f=g)
    a = np.linspace(0.0, 2 * np.pi, 9)[:, None]
    z1_circle = np.hstack([0 * a, 0 * a, np.cos(a), np.sin(a)])
    z2_circle = np.hstack([np.cos(a), np.sin(a), 0 * a, 0 * a])
    assert np.max(moved.binding.residual(z2_circle)) <= 1e-15
    np.testing.assert_allclose(moved.binding.residual(z1_circle), 1.0)
    assert np.max(rep.binding.residual(z1_circle)) <= 1e-15
    # its tangent line at z = (cos a, sin a, 0, 0) is spanned by i z
    frames = tangent_bases(moved.binding, z2_circle)[:, 0, :]
    iz = np.hstack([-np.sin(a), np.cos(a), 0 * a, 0 * a])
    np.testing.assert_allclose(
        np.abs(np.einsum("nm,nm->n", frames, iz)), 1.0, atol=1e-15)
    # the z_1 book's sampler draws points of the old binding only
    with pytest.raises(OffManifold):
        sample(moved.binding, 20, seed=0)


def test_binding_sampler_off_the_zero_set_of_f_rejected():
    # sample checks binding points against K, so against f as well as V:
    # points of S^3 with x_1 = 1e-6 are on V to rounding and 1e-6 off K
    rep = coordinate_open_book(2)

    def sampler(rng, count):
        pts = rep.binding_sampler(rng, count)
        pts[:, 0] = 1e-6
        return pts / np.linalg.norm(pts, axis=-1, keepdims=True)

    moved = replace(rep, binding_sampler=sampler)
    off = sampler(rng_for(0), 20)
    assert np.max(rep.manifold.residual(off)) <= 1e-15
    np.testing.assert_allclose(rep.f.modulus(off), 1e-6)
    with pytest.raises(OffManifold, match="violated constraints"):
        sample(moved.binding, 20, seed=0)


def test_binding_manifold_orientation_value():
    # alpha_0 restricted to the binding circle of the quadric book pairs
    # to +1/2 with the oriented unit tangent (hand value at the
    # parametrized circle)
    rep = quadric_open_book(2)
    bind = sample(rep.binding, 50, seed=20)
    from openbooks.contact import binding_contact_values
    vals = binding_contact_values(rep, bind)
    np.testing.assert_allclose(vals, 0.5, atol=1e-9)


def _per_point_binding_signs(rep, points, bases):
    """Reference: the binding orientation one point at a time (tangent
    frame, projector eigenvectors, (df_x, df_y) pairing, normal-first
    determinant)."""
    from openbooks.manifolds import tangent_bases
    signs = []
    for p, basis in zip(points, bases):
        frame = tangent_bases(rep.manifold, p[None, :])[0]
        coords = basis @ frame.T
        eigval, eigvec = np.linalg.eigh(np.eye(len(frame)) - coords.T @ coords)
        comp = eigvec[:, eigval > 0.5].T @ frame
        g = rep.f.grad(p)
        if (g[0] @ comp[0]) * (g[1] @ comp[1]) \
                - (g[0] @ comp[1]) * (g[1] @ comp[0]) < 0:
            comp = comp[::-1]
        normal = rep.manifold.jacobian(p)[0]
        frame_v = np.vstack([normal / np.linalg.norm(normal), comp, basis])
        signs.append(np.sign(np.linalg.det(frame_v)))
    return np.array(signs)


@pytest.mark.parametrize("maker,n", [(coordinate_open_book, 2),
                                     (coordinate_open_book, 3),
                                     (quadric_open_book, 2),
                                     (quadric_open_book, 3)])
def test_batched_binding_orientation_matches_per_point(maker, n):
    from openbooks.contact import binding_manifold
    from openbooks.manifolds import tangent_bases
    rep = maker(n)
    bind = binding_manifold(rep)
    pts = sample(rep.binding, 60, seed=23)
    bases = tangent_bases(replace(bind, oriented=False), pts)
    flip = np.arange(len(pts)) % 2 == 1
    bases[flip, -1] = -bases[flip, -1]
    # the sign the binding's rule gives these bases: + where they have the
    # orientation of the frames tangent_bases returns, which its
    # Householder chain orients
    oriented = tangent_bases(bind, pts)
    signs = np.sign(np.linalg.det(bases @ np.swapaxes(oriented, -1, -2)))
    want = _per_point_binding_signs(rep, pts, bases)
    assert signs.shape == (len(pts),)
    np.testing.assert_array_equal(signs, want)
    assert set(signs) == {-1.0, 1.0}
    # the oriented bases tangent_bases returns are all positive
    assert np.all(_per_point_binding_signs(rep, pts, oriented) > 0)
