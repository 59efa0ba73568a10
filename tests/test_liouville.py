"""Completions, model identifications, the trivial-monodromy
hypersurface, Weinstein checks and the subcritical coordinate change."""

import numpy as np
import pytest

from openbooks import liouville
from openbooks.contact import verify_adapted, verify_contact, \
    verify_representation
from openbooks.errors import DomainError
from openbooks.forms import central_difference
from openbooks.liouville import (angle_spinning_field, completion_check,
                                 complex_plane_weinstein,
                                 disk_bundle_domain, hypersurface_build,
                                 identification_check,
                                 identification_jacobian,
                                 interior_identification, lyapunov_ratio,
                                 page_volume_identity, quartic_disk_domain,
                                 subcritical_check, subcritical_coordinates,
                                 subcritical_map, torus_cotangent_weinstein,
                                 weinstein_check, weinstein_disk_domain)
from openbooks.manifolds import rng_for, sample
from openbooks.monodromy import (flow, spinning_definition_check,
                                 spinning_field)


def _disk_boundary(m, count, seed):
    rng = rng_for(seed)
    b = rng.normal(size=(count, m))
    return b / np.linalg.norm(b, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# completion


def test_quartic_disk_completion_values():
    ld = quartic_disk_domain(2)
    pts = sample(ld.manifold, 400, seed=1)
    # du(X) = -2 |z|^4 for u = 1 - |z|^4 and the radial half field
    np.testing.assert_allclose(ld.du_along_field(pts),
                               -2.0 * np.sum(pts ** 2, axis=-1) ** 2,
                               atol=1e-12)
    boundary = _disk_boundary(4, 100, seed=2)
    np.testing.assert_allclose(ld.du_along_field(boundary), -2.0,
                               atol=1e-12)
    center = np.zeros((1, 4))
    assert ld.du_along_field(center)[0] == 0.0 and ld.u(center)[0] == 1.0
    report = completion_check(ld, pts, boundary)
    assert report.passed


def _bits(a):
    return np.asarray(a, np.float64).view(np.int64)


def test_weinstein_disk_u_and_du_have_the_bits_of_the_formulas():
    # u adds its two squares in the order of np.add.reduce over the last
    # axis, and du is the radial -2p, on a batch, a single point (2,) and
    # the strided x[..., :2] slice that the hypersurface step passes
    ld = weinstein_disk_domain()
    rng = rng_for(5)
    x = rng.normal(size=(300, 4)) * 10.0 ** rng.uniform(
        -4.0, 1.0, size=(300, 1))
    for p in (sample(ld.manifold, 300, seed=4), x[5, :2], x[..., :2]):
        u, du = ld.u(p), ld.du(p)
        assert np.shape(u) == np.shape(p)[:-1]
        assert np.array_equal(_bits(u),
                              _bits(1.0 - np.add.reduce(p * p, axis=-1)))
        assert np.shape(du) == np.shape(p)
        assert np.array_equal(_bits(du), _bits(-2.0 * p))
        # the fact the round-sphere Newton step of V relies on
        assert np.array_equal(_bits(-du), _bits(2.0 * p))


def test_disk_bundle_completion():
    ld = disk_bundle_domain(2)
    pts = sample(ld.manifold, 400, seed=3)
    # -2|p|^2 < 1 - |p|^2 on |p| < 1: margin is 1 + |p|^2 > 0
    margin = ld.u(pts) - ld.du_along_field(pts)
    np.testing.assert_allclose(
        margin, 1.0 + np.sum(pts[:, 2:] ** 2, axis=-1), atol=1e-12)
    boundary = pts[:80].copy()
    boundary[:, 2:] /= np.linalg.norm(boundary[:, 2:], axis=-1,
                                      keepdims=True)
    report = completion_check(ld, pts, boundary)
    assert report.passed


def test_completion_convexity():
    # oracle: if u_1 and u_2 are admissible so is their average, checked
    # at the same samples
    quartic = quartic_disk_domain(2)
    from openbooks.liouville import LiouvilleDomain
    quadratic = LiouvilleDomain(
        quartic.manifold, quartic.lambda_c, quartic.liouville_field,
        lambda p: 1.0 - np.sum(p * p, axis=-1),
        lambda p: -2.0 * p, name="quadratic disk")
    pts = sample(quartic.manifold, 300, seed=4)
    boundary = _disk_boundary(4, 80, seed=5)
    average = LiouvilleDomain(
        quartic.manifold, quartic.lambda_c, quartic.liouville_field,
        lambda p: 0.5 * (quartic.u(p) + quadratic.u(p)),
        lambda p: 0.5 * (quartic.du(p) + quadratic.du(p)), name="average")
    for ld in (quartic, quadratic, average):
        assert completion_check(ld, pts, boundary).passed


# ---------------------------------------------------------------------------
# interior identifications


def test_disk_identification_center_and_radius():
    assert np.all(interior_identification("disk", np.zeros((1, 4))) == 0.0)
    z = np.zeros((1, 4))
    z[0, 0] = 0.7
    out = interior_identification("disk", z)
    np.testing.assert_allclose(out[0, 0],
                               0.7 / np.sqrt(1 - 0.7 ** 4), atol=1e-14)


def test_disk_identification_pullback():
    ld = quartic_disk_domain(2)
    pts = sample(ld.manifold, 400, seed=6)
    report = identification_check("disk", ld, pts[ld.u(pts) > 0.05])
    assert report.passed and report.max_residual < 1e-8


def test_bundle_identification_pullback():
    ld = disk_bundle_domain(2)
    pts = sample(ld.manifold, 400, seed=7)
    report = identification_check("disk_bundle", ld,
                                  pts[ld.u(pts) > 0.05])
    assert report.passed and report.max_residual < 1e-8


@pytest.mark.parametrize("example,make", [("disk", quartic_disk_domain),
                                          ("disk_bundle", disk_bundle_domain)])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_identification_jacobian_matches_the_stencil(example, make, seed):
    # the hand-written Jacobians against a central difference of the map,
    # at the u > 0.05 samples the identification checks run on.  At step
    # 1e-6 the stencil's error is its truncation, h^2/6 of the third
    # derivative, which grows as u -> 0.05: measured 2.3e-9 to 3.5e-9
    # relative on the disk and 1.0e-9 to 1.3e-9 on the bundle.  1e-7
    # leaves 30x of room; a wrong factor in either Jacobian is off by
    # order 0.1 (the radial term of the disk, 2.0 -> 2.2, reads 0.088).
    # The pullback check does not see the disk's radial term at all:
    # alpha_0 vanishes on the radial direction z
    ld = make(2)
    pts = sample(ld.manifold, 500, seed=seed)
    pts = pts[ld.u(pts) > 0.05]
    got = identification_jacobian(example, pts)
    want = central_difference(
        lambda x: interior_identification(example, x), pts, 1e-6)
    rel = (np.max(np.abs(got - want), axis=(-2, -1))
           / np.max(np.abs(got), axis=(-2, -1)))
    assert np.max(rel) <= 1e-7, np.max(rel)


def test_identification_jacobian_rejects_an_unknown_example():
    with pytest.raises(DomainError, match="unknown identification"):
        identification_jacobian("unknown", np.zeros((1, 4)))


def test_identification_rejects_boundary():
    boundary = _disk_boundary(4, 3, seed=8)
    with pytest.raises(DomainError):
        interior_identification("disk", boundary)
    with pytest.raises(DomainError):
        interior_identification("unknown", boundary)


# ---------------------------------------------------------------------------
# trivial-monodromy hypersurface


@pytest.fixture(scope="module")
def hypersurface():
    return hypersurface_build(weinstein_disk_domain())


def test_hypersurface_is_three_manifold(hypersurface):
    assert hypersurface.rep.manifold.dim == 3
    assert hypersurface.transversality_margin > 1e-3
    pts = sample(hypersurface.rep.manifold, 2000, seed=9)
    report = verify_contact(hypersurface.rep.contact, pts)
    assert report.passed


@pytest.mark.parametrize("domain", [weinstein_disk_domain,
                                    lambda: quartic_disk_domain(1)],
                         ids=["weinstein_disk", "quartic_disk"])
def test_hypersurface_of_a_full_domain_has_one_more_dimension(domain):
    ld = domain()
    hs = hypersurface_build(ld)
    assert hs.rep.manifold.dim == ld.manifold.dim + 1 == 3


def test_hypersurface_of_a_constrained_domain_is_rejected():
    # the disk bundle of T*S^1 is 2-dimensional inside R^4; the hypersurface
    # {|z|^2 = u(p)} of R^4 x C would be 5-dimensional, not 3
    with pytest.raises(DomainError):
        hypersurface_build(disk_bundle_domain(2))


def test_hypersurface_representation_suite(hypersurface):
    rep = hypersurface.rep
    pts = sample(rep.manifold, 500, seed=10)
    bind = sample(rep.binding, 100, seed=11)
    report = verify_representation(rep, pts, bind)
    assert report.passed, [(d.name, d.min_margin) for d in report.details]
    assert verify_adapted(rep.contact, rep.f, pts, bind).passed


def test_hypersurface_binding_is_boundary_circle(hypersurface):
    bind = sample(hypersurface.rep.binding, 100, seed=12)
    np.testing.assert_allclose(np.linalg.norm(bind[:, :2], axis=-1), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(bind[:, 2:], 0.0, atol=1e-15)


def test_hypersurface_spinning_field(hypersurface):
    rep = hypersurface.rep
    pts = sample(rep.manifold, 600, seed=13)
    off = pts[rep.f.modulus(pts) > 1e-2][:200]
    y = angle_spinning_field(rep)
    report = spinning_definition_check(rep, y, off)
    assert report.passed
    # the angle field differs from the kernel-normalized solve (it is the
    # trivial-monodromy representative), but both satisfy the pairing row
    solved = spinning_field(rep, off[:20])
    mu = rep.f.mu_form()
    vals = np.array([mu(off[i], solved[i]) for i in range(20)])
    np.testing.assert_allclose(
        vals, 2 * np.pi * rep.f.modulus(off[:20]) ** 2, rtol=1e-8)


def test_hypersurface_identity_monodromy(hypersurface):
    rep = hypersurface.rep
    pts = sample(rep.manifold, 200, seed=14)
    off = pts[rep.f.modulus(pts) > 1e-2][:50]
    end = flow(angle_spinning_field(rep), off, 1.0, 1e-3)
    assert np.max(np.abs(end - off)) < 1e-7
    # the exact rotation by 2 pi is the identity outright
    angle = 2 * np.pi
    rot = off.copy()
    rot[:, 2] = np.cos(angle) * off[:, 2] - np.sin(angle) * off[:, 3]
    rot[:, 3] = np.sin(angle) * off[:, 2] + np.cos(angle) * off[:, 3]
    np.testing.assert_allclose(rot, off, atol=1e-15)


def test_page_volume_identity_two_sided():
    ld = weinstein_disk_domain()
    pts = sample(ld.manifold, 500, seed=15)
    report = page_volume_identity(ld, pts)
    assert report.passed and report.max_residual < 1e-8
    # oracle: both sides equal (u - du(X)/2) d(lambda) with
    # d(lambda) = da^db; at the center this is u * (d lambda)
    center = np.zeros((1, 2))
    from openbooks.forms import ext_deriv
    dlam = ext_deriv(ld.lambda_c)
    base = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    lhs = (np.sqrt(ld.u(center)) ** 3
           * ext_deriv(
               __import__("openbooks.forms", fromlist=["scale_form"])
               .scale_form(lambda p: 1 / np.sqrt(ld.u(p)), ld.lambda_c))
           .at_basis(center, base))
    np.testing.assert_allclose(lhs, ld.u(center) * dlam.at_basis(
        center, base), atol=1e-8)


def test_page_volume_near_boundary_margin():
    ld = weinstein_disk_domain()
    rng = rng_for(16)
    ang = rng.uniform(0, 2 * np.pi, 100)
    r = np.sqrt(1.0 - 0.06)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    report = page_volume_identity(ld, pts)
    # near the boundary the margin approaches |du(X)|/2 = r^2 > 0
    assert report.passed
    np.testing.assert_allclose(report.min_margin,
                               ld.u(pts)[0] + r * r / 1.0 - r * r / 2.0,
                               atol=1e-9)


# ---------------------------------------------------------------------------
# Weinstein checks


def test_complex_plane_ratio_is_four_seventeenths():
    # oracle: scalar minimization of df(X) / (|X|^2 + |df|^2) on the
    # annulus; the ratio is constant 4/17
    w = complex_plane_weinstein()
    pts = sample(w.manifold, 500, seed=17)
    ratio = lyapunov_ratio(w, pts)
    np.testing.assert_allclose(ratio, 4.0 / 17.0, atol=1e-12)
    assert weinstein_check(w, pts, delta=0.2).passed


def test_torus_cotangent_ratio_is_two_fifths():
    w = torus_cotangent_weinstein()
    pts = sample(w.manifold, 500, seed=18)
    ratio = lyapunov_ratio(w, pts)
    np.testing.assert_allclose(ratio, 0.4, atol=1e-12)
    assert weinstein_check(w, pts, delta=0.4).passed
    assert not weinstein_check(w, pts, delta=0.41).passed


def test_zero_field_fixture_fails():
    from openbooks.forms import VecField
    from openbooks.liouville import WeinsteinStructure
    base = torus_cotangent_weinstein()
    broken = WeinsteinStructure(
        base.manifold, base.omega, VecField(4, lambda p: np.zeros_like(p)),
        base.dlyapunov, base.lam, name="zero field")
    pts = sample(base.manifold, 200, seed=19)
    report = weinstein_check(broken, pts, delta=0.1)
    assert not report.passed


# ---------------------------------------------------------------------------
# subcritical coordinates


def test_subcritical_map_at_origin():
    p = np.array([0.0, 0.0, 0.0, 0.0, 1.2, 0.7])
    out = subcritical_coordinates(p)
    np.testing.assert_allclose(out, [0.0, 0.0, -1.2, 0.7, 0.0, 0.0],
                               atol=1e-15)


def test_subcritical_identities():
    rng = rng_for(20)
    pts = np.concatenate([rng.normal(size=(1000, 4)),
                          rng.uniform(0, 2 * np.pi, size=(1000, 2))],
                         axis=-1)
    report = subcritical_check(pts)
    assert report.passed
    named = {d.name: d for d in report.details}
    assert named["one_form_pullback"].max_residual <= 1e-10
    assert named["lyapunov_pullback"].max_residual == 0.0
    assert named["slice_measure"].max_residual == 0.0
    assert "-1" in named["slice_measure"].note


def test_plus_p_dq_fails_the_subcritical_pullback(monkeypatch):
    # negative control: the opposite cotangent convention +p dq
    orig = liouville.canonical_one_form
    monkeypatch.setattr(liouville, "canonical_one_form", lambda n: -orig(n))
    rng = rng_for(20)
    pts = np.concatenate([rng.normal(size=(200, 4)),
                          rng.uniform(0, 2 * np.pi, size=(200, 2))],
                         axis=-1)
    report = subcritical_check(pts)
    named = {d.name: d for d in report.details}
    assert not named["one_form_pullback"].passed
    assert named["one_form_pullback"].max_residual > 1.0
    assert named["lyapunov_pullback"].passed
    assert not report.passed


def test_subcritical_jacobian_determinant():
    phi = subcritical_map(2)
    jac = phi.jacobian(np.zeros((1, 6)))[0]
    assert abs(np.linalg.det(jac[2:, 2:])) == 1.0
    np.testing.assert_allclose(np.linalg.det(jac[2:, 2:]), -1.0)


def test_lyapunov_pullback_componentwise():
    # x^2 + y^2 = p_1^2 + p_2^2 exactly: the map copies the coordinates
    rng = rng_for(21)
    pts = np.concatenate([rng.normal(size=(50, 4)),
                          rng.uniform(0, 2 * np.pi, size=(50, 2))],
                         axis=-1)
    out = subcritical_coordinates(pts)
    assert np.array_equal(out[:, 4], pts[:, 2])
    assert np.array_equal(out[:, 5], pts[:, 3])


@pytest.mark.parametrize("make, n", [
    (liouville.weinstein_disk_domain, 1),
    (lambda: liouville.quartic_disk_domain(2), 2),
    (lambda: liouville.disk_bundle_domain(2), 1)],
    ids=["D^2", "D^4", "D(T*S^1)"])
def test_leading_pluecker_forms_equal_at_basis_on_the_frames(make, n):
    # the one-hot row of a constraint-free domain gives each form its
    # coefficient c_I, the value at_basis takes from the minors of the
    # identity frame, bit for bit; a domain with constraints takes the
    # minors of its tangent frames
    from openbooks.forms import ext_deriv, wedge_power
    from openbooks.manifolds import tangent_bases
    ld = make()
    pts = sample(ld.manifold, 300, seed=47)
    form = wedge_power(ext_deriv(ld.lambda_c), n)
    bases = tangent_bases(ld.manifold, pts)
    for k, top in ((2 * n - 1, liouville.interior(ld.liouville_field, form)),
                   (2 * n, form)):
        coords = liouville._leading_pluecker(ld.manifold, pts, k)
        assert np.array_equal(top.on_pluecker(pts, coords),
                              top.at_basis(pts, bases[:, :k, :]))
