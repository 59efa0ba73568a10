"""Submanifolds: tangent bases, orientation, sampling, projection."""

import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from openbooks import manifolds
from openbooks.contact import (binding_manifold, coordinate_open_book,
                               quadric_open_book, reeb_fields)
from openbooks.errors import DegenerateSystem, OffManifold
from openbooks.forms import pluecker
from openbooks.liouville import (hypersurface_build, quartic_disk_domain,
                                 weinstein_disk_domain)
from openbooks.manifolds import (ON_MANIFOLD_TOL, RANK_RATIO, Submanifold,
                                 disk_cotangent_bundle, flat_torus,
                                 gauss_newton_step, product_with_torus,
                                 project_to_constraints, rng_for, sample,
                                 singular_values, tangent_bases,
                                 tangent_pluecker, two_row_min_singular_value,
                                 unit_sphere)
from openbooks.monodromy import spinning_field
from openbooks.prelagrangian import (binding_torus_prelagrangian,
                                     real_circle_torus_prelagrangian)


def test_circle_basis_at_east_pole():
    circle = unit_sphere(2)
    basis = tangent_bases(circle, np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(basis, [[[0.0, 1.0]]], atol=1e-12)


def test_sphere_bases_orthogonal_to_position():
    sphere = unit_sphere(4)
    pts = sample(sphere, 200, seed=3)
    bases = tangent_bases(sphere, pts)
    inner = np.einsum("njm,nm->nj", bases, pts)
    assert np.max(np.abs(inner)) < 1e-10
    gram = np.einsum("nim,njm->nij", bases, bases)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape),
                               atol=1e-10)


def test_sphere_bases_positively_oriented():
    sphere = unit_sphere(4)
    pts = sample(sphere, 100, seed=4)
    bases = tangent_bases(sphere, pts)
    frames = np.concatenate([pts[:, None, :], bases], axis=1)
    assert np.all(np.linalg.det(frames) > 0)


def test_quadric_binding_rank():
    # oracle: SVD of the joint constraint Jacobian (sphere + both
    # components of f) stays full rank along the binding
    rep = quadric_open_book(2)
    bind = sample(rep.binding, 100, seed=5)
    jac = np.concatenate([2.0 * bind[:, None, :], rep.f.grad(bind)], axis=1)
    svals = np.linalg.svd(jac, compute_uv=False)
    assert np.min(svals[:, -1]) > 1e-6 * np.max(svals[:, 0])
    # the binding of the quadric book in S^3 is one dimensional
    k_sub = binding_manifold(rep)
    assert k_sub.dim == 1
    basis = tangent_bases(k_sub, bind[:1])
    assert basis.shape == (1, 1, 4)


# Every coordinate of a quadric binding sample is a Gram-Schmidt coordinate
# of size <= 1 rounded once more by the factor sqrt(1/2), and each of
# |z|^2 - 1, f_x = |x|^2 - |y|^2, f_y = 2 x . y, x . y and |x| - |y| sums
# n <= 4 products of such numbers: a few ulps of 1 each.  6 ulps bounds
# them; the largest seen over 200 seeds of 100 samples each was 3 ulps
# (|z|^2 - 1) and 4 ulps for the residual, which is their joint norm.
BINDING_ULPS = 6 * np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadric_binding_samples_lie_on_the_binding(n, monkeypatch):
    # the binding {|z| = 1, sum z_j^2 = 0} is {(x + i y) / sqrt 2 : x, y
    # orthonormal}; the sampler builds such pairs directly.  sample's own
    # gate sees only the sphere, so the binding's constraints are read
    # from binding_manifold, with x . y and |x| - |y|.  No Newton step or
    # linear solve is taken
    def newton(*args, **kwargs):
        raise AssertionError("the binding sampler took a Newton step")

    monkeypatch.setattr(manifolds, "gauss_newton_step", newton)
    monkeypatch.setattr(np.linalg, "solve", newton)
    rep = quadric_open_book(n)
    binding = binding_manifold(rep)
    for seed in range(10):
        z = sample(rep.binding, 100, seed=seed)
        x, y = z[:, 0::2], z[:, 1::2]
        assert np.max(binding.residual(z)) <= BINDING_ULPS
        assert np.max(np.abs(np.sum(x * y, axis=-1))) <= BINDING_ULPS
        assert np.max(np.abs(np.linalg.norm(x, axis=-1)
                             - np.linalg.norm(y, axis=-1))) <= BINDING_ULPS


def test_quadric_binding_sampler_control():
    # control: the same sampler without the orthogonalization (x, y two
    # independent unit vectors / sqrt 2) keeps the sphere's constraint at
    # rounding but misses f = 0 by order one
    rep = quadric_open_book(3)
    z = sample(rep.binding, 100, seed=4)
    x = z[:, 0::2]
    y = rng_for(5).normal(size=x.shape)
    y *= np.sqrt(0.5) / np.linalg.norm(y, axis=-1, keepdims=True)
    loose = np.empty_like(z)
    loose[:, 0::2], loose[:, 1::2] = x, y
    assert np.max(rep.manifold.residual(loose)) <= BINDING_ULPS
    assert np.max(binding_manifold(rep).residual(loose)) > 0.1


def test_off_manifold_rejected():
    sphere = unit_sphere(4)
    with pytest.raises(OffManifold):
        tangent_bases(sphere, np.array([[1.1, 0.0, 0.0, 0.0]]))


def test_rank_deficient_jacobian_rejected():
    # cusp-like constraint: gradient vanishes at the origin
    def constraints(p):
        return (np.sum(p * p, axis=-1) ** 2)[..., None]

    bad = Submanifold(3, constraints, 1, name="cusp")
    with pytest.raises(DegenerateSystem) as err:
        tangent_bases(bad, np.zeros((1, 3)))
    assert err.value.singular_values is not None


def test_rank_deficient_multi_constraint_jacobian_rejected():
    # two constraints, the second with a gradient that vanishes at the
    # origin: the chain's pivot test rejects the batch
    def constraints(p):
        return np.stack([p[..., 0], np.sum(p * p, axis=-1) ** 2], axis=-1)

    bad = Submanifold(3, constraints, 2, name="cusp line")
    with pytest.raises(DegenerateSystem) as err:
        tangent_bases(bad, np.zeros((1, 3)))
    assert err.value.singular_values is not None
    assert err.value.singular_values.shape == (1, 2)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_rank_gate_reads_the_pivots_at_every_scale(scale):
    # two constraint rows at angle t: prod |r_ii| / |J|_F^2 = sin t / 2,
    # whatever their common length, so t = 1e-3 passes the gate and
    # t = 1e-8 (sigma_min / sigma_max = 5e-9) does not
    def line(t):
        rows = scale * np.array([[1.0, 0.0, 0.0],
                                 [np.cos(t), np.sin(t), 0.0]])
        return Submanifold(
            3, lambda p: np.zeros(p.shape[:-1] + (2,)), 2, name="line",
            constraint_jac=lambda p: np.broadcast_to(rows, p.shape[:-1]
                                                     + (2, 3)))

    pts = np.zeros((4, 3))
    assert tangent_bases(line(1e-3), pts).shape == (4, 1, 3)
    with pytest.raises(DegenerateSystem) as err:
        tangent_bases(line(1e-8), pts)
    assert err.value.singular_values.shape == (4, 2)


def test_singular_values_match_the_svd():
    rng = rng_for(43)
    mats = rng.normal(size=(500, 3, 6))
    s = singular_values(mats)
    want = np.linalg.svd(mats, compute_uv=False)
    assert np.max(np.abs(s - want) / want[:, :1]) <= 1e-14
    # rank 2 in exact arithmetic: the smallest value reads below the
    # rank ratio, never as NaN
    low = rng.normal(size=(2000, 3, 2)) @ rng.normal(size=(2000, 2, 6))
    s = singular_values(low)
    assert np.all(s[:, -1] < RANK_RATIO * s[:, 0])


def _mp_min_singular_value(rows):
    # the smaller singular value of each exact double pair, at 50 digits
    with mpmath.workdps(50):
        return np.array([float(min(mpmath.svd_r(mpmath.matrix(pair.tolist()),
                                                compute_uv=False)))
                         for pair in rows])


def _orthonormal_pairs(rng, count, d):
    q, _ = np.linalg.qr(rng.normal(size=(count, d, 2)))
    return np.swapaxes(q, -1, -2)


# sigma_min / sigma_max of each regime
RATIOS = {"equal": (1.0, 1.0), "well_conditioned": (0.1, 1.0),
          "ratio_1e-7": (1e-7, 1e-7)}


@pytest.mark.parametrize("regime", list(RATIOS))
@pytest.mark.parametrize("d", [2, 3, 5])
def test_two_row_min_singular_value_against_mpmath(regime, d):
    # pairs R(phi) diag(s, s r) Q: Q two orthonormal rows, R(phi) a plane
    # rotation, s spread over six decades and r the regime's ratio
    rng = rng_for(44 + d)
    count = 200
    s = 10.0 ** rng.uniform(-3, 3, size=count)
    r = rng.uniform(*RATIOS[regime], size=count)
    phi = rng.uniform(0.0, 2 * np.pi, size=count)
    rot = np.stack([np.stack([np.cos(phi), -np.sin(phi)], -1),
                    np.stack([np.sin(phi), np.cos(phi)], -1)], -2)
    rows = (rot * np.stack([s, s * r], -1)[:, None, :]) \
        @ _orthonormal_pairs(rng, count, d)
    got = two_row_min_singular_value(rows)
    want = _mp_min_singular_value(rows)
    assert np.all(np.abs(want / s - r) <= 1e-6 * r)
    # the Householder step is backward stable and DLAS2 accurate to ulps:
    # the error is a few ulps of the larger singular value, so a few ulps
    # of sigma_min itself where the two are equal.  sigma from
    # |a|^2 + |b|^2 and |a ^ b| is off by about 1e-8 there
    assert np.max(np.abs(got - want) / s) <= 1e-15
    if regime == "equal":
        assert np.max(np.abs(got - want) / want) <= 1e-15
    # a point alone has the bits of its row in the batch
    for i in (0, 1, 57, count - 1):
        assert two_row_min_singular_value(rows[i:i + 1])[0] == got[i]


def test_two_row_min_singular_value_of_degenerate_pairs():
    # a zero first row gives 0 exactly; parallel rows give 0 up to the
    # rounding of the reflection; a NaN gives NaN
    rows = np.array([[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
                     [[1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]],
                     [[3.0, 0.0, 0.0], [0.0, 0.0, 4.0]],
                     [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    got = two_row_min_singular_value(rows)
    assert got[0] == 0.0 and got[2] == 3.0
    assert 0.0 <= got[1] <= 1e-15 * np.linalg.norm(rows[1])
    assert np.isnan(got[3])


@pytest.mark.parametrize("manifold", [
    binding_manifold(quadric_open_book(3)),
    binding_torus_prelagrangian().submanifold, disk_cotangent_bundle(2)],
    ids=["K in S^5", "K x T^2", "D(T*S^1)"])
def test_chain_frame_of_a_point_is_its_row_of_the_batch(manifold):
    pts = sample(manifold, 100, seed=45)
    bases = tangent_bases(manifold, pts)
    for i in (0, 1, 63, 99):
        assert np.array_equal(tangent_bases(manifold, pts[i:i + 1])[0],
                              bases[i])


@pytest.mark.parametrize("manifold", [
    binding_manifold(quadric_open_book(2)),
    binding_manifold(quadric_open_book(3)),
    real_circle_torus_prelagrangian().submanifold,
    binding_torus_prelagrangian().submanifold,
    disk_cotangent_bundle(3)],
    ids=["K in S^3", "K in S^5", "L x T^2", "K x T^2", "D(T*S^2)"])
def test_qr_frames_are_orthonormal_kernel_frames(manifold, monkeypatch):
    assert manifold.n_constraints >= 2
    pts = sample(manifold, 300, seed=41)
    jac = manifold.jacobian(pts)
    with monkeypatch.context() as patch:
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called for a tangent frame")
        patch.setattr(np.linalg, "svd", no_svd)
        bases = tangent_bases(manifold, pts)
    d = manifold.dim
    assert bases.shape == (len(pts), d, manifold.ambient_dim)
    gram = bases @ np.swapaxes(bases, -1, -2)
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-15
    # unit Jacobian rows, so that the bound does not scale with |grad c|
    rows = jac / np.linalg.norm(jac, axis=-1, keepdims=True)
    assert np.max(np.abs(rows @ np.swapaxes(bases, -1, -2))) <= 1e-15
    _, _, vh = np.linalg.svd(jac)
    svd_bases = vh[:, manifold.n_constraints:, :]
    gap = (np.swapaxes(bases, -1, -2) @ bases
           - np.swapaxes(svd_bases, -1, -2) @ svd_bases)
    assert np.max(np.abs(gap)) <= 1e-14


@pytest.mark.parametrize("manifold, base_dim", [
    (unit_sphere(4), 4), (unit_sphere(6), 6),
    (product_with_torus(unit_sphere(4)), 4)],
    ids=["S^3", "S^5", "S^3xT^2"])
def test_householder_frames_are_oriented_orthonormal_tangent_frames(
        manifold, base_dim, monkeypatch):
    pts = sample(manifold, 300, seed=31)
    # about half the normals have a negative first coordinate; make one zero
    pts[0, 0] = 0.0
    pts[0, :base_dim] /= np.linalg.norm(pts[0, :base_dim])
    jac = manifold.jacobian(pts)
    with monkeypatch.context() as patch:
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called on a one-constraint manifold")
        patch.setattr(np.linalg, "svd", no_svd)
        bases = tangent_bases(manifold, pts)
    d = manifold.dim
    unit = jac[:, 0, :] / np.linalg.norm(jac[:, 0, :], axis=-1, keepdims=True)
    gram = bases @ np.swapaxes(bases, -1, -2)
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-15
    assert np.max(np.abs(np.einsum("njm,nm->nj", bases, unit))) <= 1e-15
    frames = np.concatenate([unit[:, None, :], bases], axis=1)
    assert np.all(np.linalg.det(frames) > 0)
    _, _, vh = np.linalg.svd(jac)
    svd_bases = vh[:, 1:, :]
    gap = (np.swapaxes(bases, -1, -2) @ bases
           - np.swapaxes(svd_bases, -1, -2) @ svd_bases)
    assert np.max(np.abs(gap)) <= 1e-14


@pytest.mark.parametrize("manifold", [
    unit_sphere(4), unit_sphere(6), product_with_torus(unit_sphere(4)),
    hypersurface_build(weinstein_disk_domain()).rep.manifold],
    ids=["S^3", "S^5", "S^3xT^2", "hypersurface"])
def test_householder_signs_equal_the_determinant_signs(manifold, monkeypatch):
    from openbooks.manifolds import complement_frames
    assert manifold.oriented
    pts = sample(manifold, 300, seed=33)
    # u_0 = 0 at the first point: the first gradient coordinate of each of
    # these manifolds vanishes with the first coordinate
    pts[0, 0] = 0.0
    pts = project_to_constraints(manifold, pts)
    grad = manifold.jacobian(pts)[:, 0, :]
    assert grad[0, 0] == 0.0
    assert 0 < np.count_nonzero(grad[:, 0] < 0) < len(pts) - 1
    frames, signs = complement_frames(grad)
    unit = grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    full = np.concatenate([unit[:, None, :], frames], axis=1)
    assert np.array_equal(signs, np.sign(np.linalg.det(full)))
    want = frames.copy()
    want[signs < 0, -1] = -want[signs < 0, -1]

    calls = []
    jacobian = Submanifold.jacobian

    def counting(self, p):
        if self is manifold:
            calls.append(len(p))
        return jacobian(self, p)

    monkeypatch.setattr(Submanifold, "jacobian", counting)
    assert np.array_equal(tangent_bases(manifold, pts), want)
    assert calls == [len(pts)]


def test_householder_frames_keep_torus_directions_exact():
    product = product_with_torus(unit_sphere(4))
    bases = tangent_bases(product, sample(product, 200, seed=32))
    assert np.all(bases[:, :3, 4:] == 0.0)
    assert np.array_equal(bases[:, 3], np.broadcast_to(np.eye(6)[4],
                                                       (200, 6)))
    assert np.array_equal(np.abs(bases[:, 4]),
                          np.broadcast_to(np.eye(6)[5], (200, 6)))


def _polynomial_cusp():
    # the cusp x^3 = y^2 (times the z axis): the gradient (3x^2, -2y, 0)
    # vanishes along the cusp line x = y = 0 and nowhere else on the set
    def constraints(p):
        return (p[..., 0] ** 3 - p[..., 1] ** 2)[..., None]

    def jac(p):
        zero = np.zeros_like(p[..., 0])
        return np.stack([3.0 * p[..., 0] ** 2, -2.0 * p[..., 1], zero],
                        axis=-1)[..., None, :]

    return Submanifold(3, constraints, 1, name="cusp", constraint_jac=jac)


def _root_cusp():
    # the same cusp as x = y^(2/3): the gradient (1, -2 y^(1/3) / 3 y^(2/3),
    # 0) is 0/0 = NaN along the cusp line, where the residual is 0
    def constraints(p):
        return (p[..., 0] - np.cbrt(p[..., 1]) ** 2)[..., None]

    def jac(p):
        root = np.cbrt(p[..., 1])
        with np.errstate(invalid="ignore"):
            dy = -2.0 * root / (3.0 * root ** 2)
        return np.stack([np.ones_like(dy), dy, np.zeros_like(dy)],
                        axis=-1)[..., None, :]

    return Submanifold(3, constraints, 1, name="cusp", constraint_jac=jac)


@pytest.mark.parametrize("cusp", [_polynomial_cusp(), _root_cusp()],
                         ids=["zero_gradient", "nan_gradient"])
def test_vanishing_gradient_in_a_batch_rejected(cusp):
    # (1, 1, 0) is a regular point and (0, 0, 0) a degenerate one; both
    # have residual 0, so the gradient gate of either route is reached
    pts = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.all(cusp.residual(pts) == 0.0)
    for route in (tangent_bases, tangent_pluecker):
        with pytest.raises(DegenerateSystem) as err:
            route(cusp, pts)
        assert err.value.singular_values.shape == (2, 1)


@pytest.mark.parametrize("manifold, regular", [
    (unit_sphere(4), [1.0, 0.0, 0.0, 0.0]),
    (_polynomial_cusp(), [1.0, 1.0, 0.0])], ids=["S^3", "cusp"])
def test_nan_point_is_off_the_manifold(manifold, regular):
    # a NaN point has a NaN residual, which is not at most the bound: both
    # routes reject it as off the manifold before any gradient is read
    pts = np.array([regular, [np.nan] + regular[1:]])
    for route in (tangent_bases, tangent_pluecker):
        with pytest.raises(OffManifold, match="worst residual nan at "
                                              "sample 1"):
            route(manifold, pts)


def test_sampler_returning_a_nan_row_rejected():
    def sampler(rng, n):
        pts = _scaled_sphere_points(1.0, n)
        pts[n // 2] = np.nan
        return pts

    with pytest.raises(OffManifold, match="max residual nan"):
        sample(replace(unit_sphere(4), sampler=sampler), 20, seed=0)


# the one-constraint "normal_first" manifolds whose top forms the suites
# evaluate
HYPERSURFACES = {
    "S^3": unit_sphere(4), "S^5": unit_sphere(6), "S^7": unit_sphere(8),
    "S^3 x T^2": product_with_torus(unit_sphere(4)),
    "S^5 x T^2": product_with_torus(unit_sphere(6)),
    "V[weinstein]": hypersurface_build(weinstein_disk_domain()).rep.manifold,
    "V[quartic]": hypersurface_build(quartic_disk_domain(1)).rep.manifold}

# Every coordinate of an orthonormal frame has modulus <= 1 (it is u_j, or
# a minor of an orthonormal frame), so both routes err in ulps of 1.  The
# normal route rounds u_j twice (the norm and the division); the frame
# route's Householder entries carry a few ulps each and its (m-1)-minors
# add a few more through the chain of m - 2 wedges.  8 ulps of 1 bounds
# both for m <= 8; the largest gap seen on 2000 points of each manifold
# was 2.5 ulps.
ROUTE_GAP = 8 * np.finfo(float).eps


@pytest.mark.parametrize("manifold", list(HYPERSURFACES.values()),
                         ids=list(HYPERSURFACES))
def test_tangent_pluecker_is_the_hodge_dual_of_the_normal(manifold):
    pts = sample(manifold, 500, seed=29)
    coords = tangent_pluecker(manifold, pts)
    generic = pluecker(tangent_bases(manifold, pts))
    assert coords.shape == generic.shape == (500, manifold.ambient_dim)
    assert np.max(np.abs(coords - generic)) <= ROUTE_GAP
    # control: the inward normal reverses the orientation, so every
    # coordinate changes sign, on both routes
    c, jac = manifold.constraints, manifold.jacobian
    inward = replace(manifold, constraints=lambda p: -c(p),
                     constraint_jac=lambda p: -jac(p), newton_step=None)
    flipped = tangent_pluecker(inward, pts)
    assert np.array_equal(flipped, -coords)
    assert np.max(np.abs(flipped
                         - pluecker(tangent_bases(inward, pts)))) <= ROUTE_GAP


@pytest.mark.parametrize("manifold", [
    binding_manifold(quadric_open_book(3)),
    real_circle_torus_prelagrangian().submanifold],
    ids=["K in S^5", "L x T^2"])
def test_tangent_pluecker_of_higher_codimension_is_the_frames(manifold):
    assert manifold.n_constraints >= 2
    pts = sample(manifold, 300, seed=30)
    assert np.array_equal(tangent_pluecker(manifold, pts),
                          pluecker(tangent_bases(manifold, pts)))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_complement_frames_are_orthonormal_complements(m):
    from openbooks.manifolds import complement_frames
    rng = rng_for(40 + m)
    vectors = rng.normal(size=(500, m)) * 10.0 ** rng.uniform(
        -3, 3, size=(500, 1))
    vectors[0, 0] = 0.0                                  # u_0 = 0
    assert 100 < np.count_nonzero(vectors[:, 0] < 0) < 400
    frames, signs = complement_frames(vectors)
    assert frames.shape == (500, m - 1, m)
    unit = vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)
    gram = frames @ np.swapaxes(frames, -1, -2)
    assert np.max(np.abs(gram - np.eye(m - 1))) <= 1e-15
    assert np.max(np.abs(np.einsum("njm,nm->nj", frames, unit))) <= 1e-15
    assert np.array_equal(signs, np.where(unit[:, 0] >= 0, 1.0, -1.0))
    full = np.concatenate([unit[:, None, :], frames], axis=1)
    np.testing.assert_allclose(np.linalg.det(full), signs, rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("site", ["spinning_definition", "inverse_form"])
def test_page_frames_of_each_site_are_annihilated_by_mu(site, monkeypatch):
    """Each page frame is the complement of mu inside T_p V: mu, taken in
    ambient space, vanishes on the frame's rows mapped through the
    tangent frame."""
    from openbooks import bourgeois, manifolds, monodromy
    rep = quadric_open_book(2)
    pts = sample(rep.manifold, 600, seed=41)
    # every point is at |f| >= 0.1, so no site drops any of them
    pts = pts[rep.f.modulus(pts) >= 0.1][:200]
    seen = []

    def recording(vectors):
        out = manifolds.complement_frames(vectors)
        seen.append(out[0])
        return out

    if site == "inverse_form":
        rep = bourgeois.profiled_representation(rep)
        monkeypatch.setattr(bourgeois, "complement_frames", recording)
        bind = sample(rep.binding, 20, seed=42)
        assert bourgeois.verify_inverse_form(rep, 10.0, pts, bind).passed
    else:
        monkeypatch.setattr(monodromy, "complement_frames", recording)
        y = monodromy.quadric_spinning_field(rep)
        monodromy.spinning_definition_check(rep, y, pts)
    assert len(seen) == 1
    bases = tangent_bases(rep.manifold, pts)
    mu = rep.f.mu_form().coeffs(pts)
    page = seen[0] @ bases                               # (N, d-1, m)
    assert page.shape == (len(pts), rep.manifold.dim - 1, 4)
    scale = np.linalg.norm(np.einsum("nm,njm->nj", mu, bases), axis=-1)
    assert np.max(np.abs(np.einsum("nm,npm->np", mu, page))
                  / scale[:, None]) <= 1e-14


# ---------------------------------------------------------------------------
# sampling


def test_sphere_sampler_residual_and_determinism():
    sphere = unit_sphere(4)
    pts = sample(sphere, 1000, seed=7)
    assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-12
    again = sample(sphere, 1000, seed=7)
    assert np.array_equal(pts, again)
    other = sample(sphere, 1000, seed=8)
    assert not np.array_equal(pts, other)


def test_product_sampler():
    sphere = unit_sphere(4)
    product = product_with_torus(sphere)
    pts = sample(product, 1000, seed=7)
    assert product.dim == 5
    assert np.max(product.residual(pts)) < 1e-12
    angles = pts[:, 4:]
    assert np.all((angles >= 0.0) & (angles < 2 * np.pi))


def test_hypersurface_sampler():
    from openbooks.liouville import hypersurface_build, weinstein_disk_domain
    hs = hypersurface_build(weinstein_disk_domain())
    pts = sample(hs.rep.manifold, 500, seed=7)
    base = pts[:, :2]
    u = 1.0 - np.sum(base * base, axis=-1)
    direct = u - (pts[:, 2] ** 2 + pts[:, 3] ** 2)
    assert np.max(np.abs(direct)) < 1e-10


def _scaled_sphere_points(scale, count=20):
    # points of S^3 scaled by `scale`: the residual of |x|^2 - 1 is
    # about 2 (scale - 1)
    return scale * sample(unit_sphere(4), count, seed=3)


def test_tangent_bases_reads_residuals_against_on_manifold_tol():
    sphere = unit_sphere(4)
    near = _scaled_sphere_points(1.0 + 0.25 * ON_MANIFOLD_TOL)
    assert tangent_bases(sphere, near).shape == (20, 3, 4)
    with pytest.raises(OffManifold):
        tangent_bases(sphere, _scaled_sphere_points(1.0 + ON_MANIFOLD_TOL))


def test_sampler_off_its_manifold_by_more_than_1e_10_rejected():
    def sampler(scale):
        return replace(unit_sphere(4), sampler=lambda rng, n:
                       _scaled_sphere_points(scale, n))

    assert sample(sampler(1.0 + 0.25e-10), 20, seed=0).shape == (20, 4)
    with pytest.raises(OffManifold):
        sample(sampler(1.0 + 1e-10), 20, seed=0)


def test_projection_that_needs_more_than_60_steps_raises():
    # c = 1e20 x_0^50: each Gauss-Newton step is x_0 -> 0.98 x_0, so the
    # residual falls by e^(-1.01) a step and reaches 1e-12 after about 73
    # steps from x_0 = 1, and after about 53 from x_0 = 0.98^20
    def constraints(p):
        return 1e20 * p[..., :1] ** 50

    def jac(p):
        out = np.zeros(p.shape[:-1] + (1, 2))
        out[..., 0, 0] = 5e21 * p[..., 0] ** 49
        return out

    slow = Submanifold(2, constraints, 1, name="slow", constraint_jac=jac)
    with pytest.raises(OffManifold):
        project_to_constraints(slow, np.array([[1.0, 0.0]]))
    assert np.all(slow.residual(project_to_constraints(
        slow, np.array([[0.98 ** 20, 0.0]]))) <= 1e-12)


def test_no_sampler_registered():
    bare = Submanifold(3, lambda p: (np.sum(p * p, -1) - 1)[..., None], 1)
    with pytest.raises(OffManifold):
        sample(bare, 5, seed=0)


def test_disk_bundle_sampler():
    bundle = disk_cotangent_bundle(3)
    pts = sample(bundle, 300, seed=9)
    assert np.max(bundle.residual(pts)) < 1e-12
    assert np.all(np.linalg.norm(pts[:, 3:], axis=-1) <= 1.0)


def test_projection_converges():
    rep = quadric_open_book(2)
    target = rep.binding
    pts = sample(target, 50, seed=11)
    assert np.max(np.abs(rep.f.value(pts))) < 1e-10


def _solve_step(manifold, p):
    # the Gauss-Newton step through the Gram-matrix solve, for any number
    # of constraints
    c = manifold.constraints(p)
    jac = manifold.jacobian(p)
    gram = jac @ np.swapaxes(jac, -1, -2)
    lam = np.linalg.solve(gram, c[..., None])[..., 0]
    return p - np.einsum("...cm,...c->...m", jac, lam)


@pytest.mark.parametrize("manifold", [
    unit_sphere(4), unit_sphere(6), product_with_torus(unit_sphere(4)),
    hypersurface_build(weinstein_disk_domain()).rep.manifold],
    ids=["S^3", "S^5", "S^3xT^2", "hypersurface"])
def test_one_constraint_step_matches_the_solve(manifold):
    pts = sample(manifold, 200, seed=21)
    for scale in (1e-9, 1e-3, 1e-1):
        off = pts + scale * rng_for(22).normal(size=pts.shape)
        c = manifold.constraints(off)
        got = gauss_newton_step(manifold, off, c)
        # |J|^2 by vecdot is bit for bit the 1 x 1 Gram matrix J J^T
        jac = manifold.jacobian(off)
        gram = jac @ np.swapaxes(jac, -1, -2)
        assert np.array_equal(got, off - jac[..., 0, :] * (c / gram[..., 0]))
        want = _solve_step(manifold, off)
        rel = np.abs(got - want) / np.max(np.abs(want), axis=-1,
                                          keepdims=True)
        assert np.max(rel) <= 1e-15
        assert np.max(manifold.residual(got)) < np.max(
            manifold.residual(off))


def test_projection_onto_three_constraint_quadric_binding():
    f = quadric_open_book(2).f

    def constraints(p):
        fx, fy = f.parts(p)
        return np.stack([np.sum(p * p, axis=-1) - 1.0, fx, fy], axis=-1)

    def jac(p):
        return np.concatenate([2.0 * p[..., None, :], f.grad(p)], axis=-2)

    binding = Submanifold(4, constraints, 3, name="quadric binding",
                          constraint_jac=jac)
    start = sample(unit_sphere(4), 50, seed=23)
    pts = project_to_constraints(binding, start)
    assert np.max(binding.residual(pts)) <= 1e-12
    assert np.max(np.abs(pts - start)) < 1.0
    # one step of the shared helper is the Gram-matrix solve
    np.testing.assert_allclose(
        gauss_newton_step(binding, start, constraints(start)),
        _solve_step(binding, start), rtol=0, atol=1e-15)


@pytest.mark.parametrize("manifold", [
    unit_sphere(4), hypersurface_build(weinstein_disk_domain()).rep.manifold,
    binding_manifold(quadric_open_book(2)),
    binding_manifold(quadric_open_book(3))],
    ids=["S^3", "hypersurface", "quadric_binding_n2", "quadric_binding_n3"])
def test_step_written_into_out_has_the_same_bits(manifold):
    # the one-constraint branch (flow writes its step into the state, out=p)
    # and the three-constraint branch, on the quadric binding K
    start = sample(unit_sphere(manifold.ambient_dim), 60, seed=24)
    off = start + 1e-3 * rng_for(25).normal(size=start.shape)
    c = manifold.constraints(off)
    want = gauss_newton_step(manifold, off, c)
    into = np.full_like(off, np.nan)
    assert gauss_newton_step(manifold, off, c, out=into) is into
    assert np.array_equal(into, want)
    same = off.copy()
    assert gauss_newton_step(manifold, same, c, out=same) is same
    assert np.array_equal(same, want)


# the manifolds that carry a newton_step; the Weinstein-disk hypersurface
# (u = 1 - |p|^2) is the unit S^3 and takes the round-sphere step
NEWTON_STEPS = {
    "S^3": unit_sphere(4), "S^5": unit_sphere(6), "S^7": unit_sphere(8),
    "hypersurface": hypersurface_build(weinstein_disk_domain()).rep.manifold}


def _check_newton_step_bits(manifold):
    # the manifold's closed-form step against gauss_newton_step through its
    # Jacobian, at points pushed 1e-6 to 1e-3 off the manifold, for a batch
    # and a single point, returned, into a separate out and into p itself
    pts = sample(manifold, 200, seed=26)
    rng = rng_for(27)
    push = 10.0 ** rng.uniform(-6.0, -3.0, size=(len(pts), 1))
    off = pts + push * rng.normal(size=pts.shape)
    for p in (off, off[7]):
        want = gauss_newton_step(manifold, p, manifold.constraints(p))
        assert not np.array_equal(want, p)
        assert np.array_equal(manifold.newton_step(p), want)
        into = np.full_like(p, np.nan)
        assert manifold.newton_step(p, into) is into
        assert np.array_equal(into, want)
        same = p.copy()
        assert manifold.newton_step(same, same) is same
        assert np.array_equal(same, want)


@pytest.mark.parametrize("manifold", list(NEWTON_STEPS.values()),
                         ids=list(NEWTON_STEPS))
def test_newton_step_has_the_bits_of_the_generic_step(manifold):
    _check_newton_step_bits(manifold)


def test_only_the_radial_hypersurface_has_a_newton_step():
    # the round-sphere step holds where -du(p) is 2p; the quartic disk
    # (u = 1 - |p|^4) has none, so flow projects its V by gauss_newton_step
    assert hypersurface_build(
        quartic_disk_domain(1)).rep.manifold.newton_step is None


def _tangent_pluecker_digest():
    # SHA-256 of the normal route's coordinates on S^3, S^5 and S^3 x T^2
    digest = hashlib.sha256()
    for name in ("S^3", "S^5", "S^3 x T^2"):
        manifold = HYPERSURFACES[name]
        digest.update(tangent_pluecker(manifold,
                                       sample(manifold, 300, seed=31)).data)
    return digest.hexdigest()


def _closed_form_digest():
    # SHA-256 of the quadric binding samples (n = 2, 3), of the Reeb
    # vectors and of the spinning-field vectors on S^3 and S^5, of the
    # Householder-chain frames of the quadric and coordinate bindings
    # (n = 2, 3) and of D(T*S^1), and of the two-row margins of
    # representation_conditions (regular_value at the binding samples,
    # theta_submersion's rank-2 margin at samples of V), all taken without
    # a BLAS or LAPACK call
    digest = hashlib.sha256()
    for n in (2, 3):
        rep = quadric_open_book(n)
        digest.update(sample(rep.binding, 200, seed=32).data)
        pts = sample(rep.manifold, 300, seed=33)
        reeb, _ = reeb_fields(rep.contact, pts)
        digest.update(reeb.data)
        digest.update(spinning_field(rep, pts[rep.f.modulus(pts) > 1e-3]).data)
    for rep in (quadric_open_book(2), quadric_open_book(3),
                coordinate_open_book(2), coordinate_open_book(3)):
        bind = sample(rep.binding, 200, seed=34)
        digest.update(tangent_bases(binding_manifold(rep), bind).data)
        for pts in (bind, sample(rep.manifold, 300, seed=35)):
            rows = np.einsum("ncm,ndm->ncd", rep.f.grad(pts),
                             tangent_bases(rep.manifold, pts))
            digest.update(two_row_min_singular_value(rows).data)
    bundle = disk_cotangent_bundle(2)
    digest.update(tangent_bases(bundle, sample(bundle, 300, seed=36)).data)
    return digest.hexdigest()


def _dynamic_arch_openblas():
    # Sandybridge and Nehalem are x86-64 core names; OpenBLAS on another
    # architecture ignores them
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration")))


# run in a child process: OpenBLAS reads OPENBLAS_CORETYPE once, at load
_CORE_CHILD = """
import ctypes, glob, os, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_manifolds import (NEWTON_STEPS, _check_newton_step_bits,
                            _closed_form_digest, _tangent_pluecker_digest)

for name in ("S^3", "S^5", "hypersurface"):
    _check_newton_step_bits(NEWTON_STEPS[name])
print(_tangent_pluecker_digest())
print(_closed_form_digest())
core = None
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
print(core)
"""


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not an x86-64 OpenBLAS "
                           "DYNAMIC_ARCH build")
@pytest.mark.parametrize("core", ["Sandybridge", "Nehalem"])
def test_newton_step_has_the_bits_of_the_generic_step_on_each_core(core):
    # the closed-form steps and gauss_newton_step both take their squared
    # norms by np.vecdot, whose bits depend on the BLAS kernel: the bit
    # equality must hold on every core, not only on the default one.  The
    # normal route of tangent_pluecker, the quadric binding sampler, the
    # sub-Pfaffian Reeb field, the kernel-form spinning field, the
    # Householder-chain frames and the two-row margins take no BLAS call,
    # so their bits on each core are those of this process
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, "-c", _CORE_CHILD, str(root / "tests")], cwd=root,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    digest, closed_form, reported = proc.stdout.split()[-3:]
    assert digest == _tangent_pluecker_digest()
    assert closed_form == _closed_form_digest()
    # the core the child ran on, where this numpy build lets it be read
    assert reported in (core, "None")


def test_tangent_basis_after_sample_never_errors():
    # rank safety margin across every registered manifold used in checks
    manifolds = [unit_sphere(4), unit_sphere(6),
                 product_with_torus(unit_sphere(4)),
                 disk_cotangent_bundle(2), disk_cotangent_bundle(3),
                 flat_torus(3)]
    for mf in manifolds:
        pts = sample(mf, 200, seed=13)
        bases = tangent_bases(mf, pts)
        assert bases.shape == (200, mf.dim, mf.ambient_dim)


def test_philox_generator_is_splittable():
    rng = rng_for(42)
    a, b = rng.spawn(2)
    assert not np.array_equal(a.normal(size=4), b.normal(size=4))
    again = rng_for(42)
    c, _ = again.spawn(2)
    assert np.array_equal(a.normal(size=0), c.normal(size=0))
