"""Ideal Liouville completions, the two model domains, the
trivial-monodromy hypersurface, Weinstein checks and the subcritical
coordinate change.

A classical Liouville domain (F, lambda_c) is completed to an ideal one by
choosing u >= 0 with u^{-1}(0) = boundary(F) regular and du(X) < u, and
rescaling: omega = d(lambda_c / u) is symplectic on the interior and
u * (lambda_c / u) extends to a contact form on the boundary.
Every structure here is its Liouville form lambda and field X: omega is
d lambda, exact for the model forms alpha_0 and lambda_can, and
:func:`liouville_relation_residual` checks iota_X d lambda = lambda for
the completions and the Weinstein structures alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .contact import (ContactForm, Representation,
                      coordinate_defining_function, standard_contact_form)
from .errors import DomainError
from .forms import (KForm, SmoothMap, VecField, ext_deriv,
                    form_from_components, interior, place_form, pluecker,
                    pullback, scale_form, wedge_power)
from .manifolds import (Submanifold, _sum, boxed, disk_cotangent_bundle,
                        flat_torus, rng_for, tangent_bases, unit_sphere)
from .report import CheckReport, make_report, merge_reports, timed

# the interior checks use the points with u >= INTERIOR_BAND
INTERIOR_BAND = 0.05
_HALF, _ONE, _MINUS_TWO = boxed(0.5), boxed(1.0), boxed(-2.0)


def canonical_one_form(n: int) -> KForm:
    """lambda_can = - sum p_j dq_j on R^n x R^n (q first, then p), with its
    exact d lambda_can = sum dq_j ^ dp_j, a constant form."""
    def coeffs(x):
        out = np.zeros_like(x)
        out[..., :n] = -x[..., n:]
        return out

    return KForm(1, 2 * n, coeffs, lambda: form_from_components(
        2 * n, 2, {(j, n + j): 1.0 for j in range(n)}))


@dataclass(frozen=True)
class LiouvilleDomain:
    """Compact domain F cut out by ``inside`` >= 0, its Liouville form,
    Liouville field, and a completion function u."""

    manifold: Submanifold          # equality constraints of the ambient model
    lambda_c: KForm
    liouville_field: VecField
    u: Callable
    du: Callable                   # analytic gradient of u, (..., m)
    name: str = ""

    def du_along_field(self, p):
        return np.einsum("...m,...m->...", self.du(p),
                         self.liouville_field(p))


def _full_ambient(m, name, sampler):
    return Submanifold(ambient_dim=m, constraints=None, n_constraints=0,
                       name=name, sampler=sampler)


def quartic_disk_domain(n: int) -> LiouvilleDomain:
    """Closed unit disk in C^n with u = 1 - |z|^4 (the quartic choice makes
    the completed interior match the zero page of the z_1 open book)."""
    m = 2 * n

    def sampler(rng, count):
        g = unit_sphere(m).sampler(rng, count)
        r = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / m)
        return r * g

    manifold = _full_ambient(m, f"D^{m}", sampler)

    def u(p):
        return 1.0 - _sum(p * p) ** 2

    def du(p):
        return -4.0 * _sum(p * p)[..., None] * p

    field = VecField(m, lambda p: 0.5 * p)
    return LiouvilleDomain(manifold, standard_contact_form(n), field, u, du,
                           name=f"quartic disk D^{m}")


def disk_bundle_domain(n: int) -> LiouvilleDomain:
    """Unit-disk cotangent bundle of S^(n-1) with u = 1 - |p|^2."""
    manifold = disk_cotangent_bundle(n)
    m = 2 * n

    def u(x):
        return 1.0 - _sum(x[..., n:] * x[..., n:])

    def du(x):
        out = np.zeros_like(x)
        out[..., n:] = -2.0 * x[..., n:]
        return out

    def field_eval(x):
        out = np.zeros_like(x)
        out[..., n:] = x[..., n:]
        return out

    return LiouvilleDomain(manifold, canonical_one_form(n),
                           VecField(m, field_eval), u, du,
                           name=f"disk bundle D(T*S^{n - 1})")


def _disk_u(p):
    """u = 1 - a^2 - b^2 of the Weinstein disk: the bits of
    ``1.0 - np.add.reduce(p * p, axis=-1)``, which adds the two squares
    in this order, without a reduce loop over rows or a boxed 1.0."""
    a, b = p[..., 0], p[..., 1]
    return np.subtract(_ONE, a * a + b * b)


def _radial_du(p):
    """du = -2p of the radial completion u = 1 - |p|^2.  -du(p) is 2p bit
    for bit, so `hypersurface_build` gives a domain with this du the
    round-sphere Newton step."""
    return np.multiply(_MINUS_TWO, p)


def weinstein_disk_domain() -> LiouvilleDomain:
    """The unit 2-disk with its radial Weinstein structure and the
    completion u = C - f = 1 - a^2 - b^2."""
    def sampler(rng, count):
        ang = rng.uniform(0.0, 2 * np.pi, size=count)
        r = np.sqrt(rng.uniform(0.0, 1.0, size=count))
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)

    manifold = _full_ambient(2, "D^2", sampler)
    return LiouvilleDomain(manifold, standard_contact_form(1),
                           VecField(2, lambda p: 0.5 * p), _disk_u,
                           _radial_du, name="Weinstein 2-disk")


# ---------------------------------------------------------------------------
# completion checks


def _leading_pluecker(manifold: Submanifold, pts, k):
    """Pluecker coordinates of the first k vectors of the oriented tangent
    frames at pts (N, m).  A constraint-free domain oriented by the
    ambient order has the identity frame, whose first k vectors have the
    one-hot row of the index set (0, ..., k-1), index 0 in lexicographic
    order, broadcast to (N, C): a form takes its coefficient c_I on it
    exactly, which is the value its minors gave, and no frame is built.  Other domains get the
    minors of their :func:`tangent_bases` frames."""
    if manifold.constraints is None and manifold.oriented:
        row = np.zeros(comb(manifold.ambient_dim, k))
        row[0] = 1.0
        return np.broadcast_to(row, (len(pts), row.size))
    return pluecker(tangent_bases(manifold, pts)[:, :k, :])


def liouville_relation_residual(manifold: Submanifold, field: VecField,
                                lam: KForm, pts):
    """|iota_X d(lambda) - lambda| (N, d) for X = field and lambda = lam,
    on the tangent frames of manifold at the float points pts (N, m)."""
    bases = tangent_bases(manifold, pts)
    contracted = interior(field, ext_deriv(lam))
    return np.abs(contracted.restrict(pts, bases) - lam.restrict(pts, bases))


@timed
def completion_check(ld: LiouvilleDomain, samples, boundary_samples,
                     seed=0) -> CheckReport:
    """Admissibility of u for the completion: du(X) < u strictly in the
    interior and du(X) < 0 on the boundary, plus nondegeneracy of
    omega = d(lambda_c/u) through the contraction identity

        iota_X omega^n = u^(-n) (1 - X(ln u)) iota_X omega_c^n .
    """
    pts = np.asarray(samples, float)
    details = []

    details.append(make_report(
        "liouville_relation", n_samples=len(pts),
        max_residual=liouville_relation_residual(
            ld.manifold, ld.liouville_field, ld.lambda_c, pts),
        tolerance=1e-8, seed=seed,
        note="iota_X d(lambda_c) = lambda_c"))

    details.append(make_report(
        "interior_inequality", n_samples=len(pts),
        min_margin=ld.u(pts) - ld.du_along_field(pts), tolerance=1e-9,
        seed=seed, note="du(X) < u on the interior"))

    bpts = np.asarray(boundary_samples, float)
    details.append(make_report(
        "boundary_inequality", n_samples=len(bpts),
        min_margin=-ld.du_along_field(bpts),
        tolerance=1e-9, seed=seed,
        note="du(X) < 0 where u = 0"))

    # nondegeneracy identity at interior points away from the boundary
    inner = pts[ld.u(pts) >= INTERIOR_BAND]
    n = ld.manifold.dim // 2
    lam_over_u = scale_form(lambda p: 1.0 / ld.u(p), ld.lambda_c)
    omega = ext_deriv(lam_over_u, step_scale=lambda p: np.maximum(
        ld.u(p), 1e-6))
    lhs_form = interior(ld.liouville_field, wedge_power(omega, n))
    omega_c = ext_deriv(ld.lambda_c)
    rhs_form = interior(ld.liouville_field, wedge_power(omega_c, n))
    coords = _leading_pluecker(ld.manifold, inner, 2 * n - 1)
    lhs = lhs_form.on_pluecker(inner, coords)
    factor = (1.0 - ld.du_along_field(inner) / ld.u(inner)) \
        / ld.u(inner) ** n
    rhs = factor * rhs_form.on_pluecker(inner, coords)
    scale = np.maximum(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    details.append(make_report(
        "rescaled_nondegeneracy", n_samples=len(inner),
        max_residual=np.abs(lhs - rhs) / scale,
        min_margin=1.0 - ld.du_along_field(inner) / ld.u(inner),
        tolerance=1e-9, residual_tolerance=1e-8, seed=seed,
        note="iota_X omega^n = u^-n (1 - X(ln u)) iota_X omega_c^n, "
             "with 1 - X(ln u) > 0"))

    return merge_reports(f"completion[{ld.name}]", details, seed=seed,
                         note="u admissible for the ideal completion")


# ---------------------------------------------------------------------------
# identification of the completed interior with the model spaces


def interior_identification(example_id: str, p):
    """Diffeomorphism from the open interior onto the completed model:

      - "disk":        z -> z / sqrt(1 - |z|^4)        (onto C^n)
      - "disk_bundle": (q, p) -> (q, p / (1 - |p|^2))  (onto T*S^(n-1))

    Boundary points are rejected.
    """
    p = np.asarray(p, float)
    if example_id == "disk":
        w = 1.0 - _sum(p * p) ** 2
        if np.any(w <= 1e-12):
            raise DomainError("identification only defined on the open "
                              "interior", point=p)
        return p / np.sqrt(w)[..., None]
    if example_id == "disk_bundle":
        n = p.shape[-1] // 2
        w = 1.0 - _sum(p[..., n:] * p[..., n:])
        if np.any(w <= 1e-12):
            raise DomainError("identification only defined on the open "
                              "interior", point=p)
        out = p.copy()
        out[..., n:] = p[..., n:] / w[..., None]
        return out
    raise DomainError(f"unknown identification {example_id!r}")


def identification_jacobian(example_id: str, x):
    """The Jacobian (..., m, m) of :func:`interior_identification` at x:
    "disk" s I + 2 |z|^2 s^3 z z^T with s = 1 / sqrt(1 - |z|^4), and
    "disk_bundle" I on q and I / w + 2 p p^T / w^2 on p, w = 1 - |p|^2."""
    m = x.shape[-1]
    if example_id == "disk":
        r2 = _sum(x * x)
        s = 1.0 / np.sqrt(1.0 - r2 ** 2)
        eye = np.zeros(np.shape(x)[:-1] + (m, m))
        idx = np.arange(m)
        eye[..., idx, idx] = s[..., None]
        return eye + 2.0 * (r2 * s ** 3)[..., None, None] \
            * x[..., :, None] * x[..., None, :]
    if example_id == "disk_bundle":
        n = m // 2
        p = x[..., n:]
        w = 1.0 - _sum(p * p)
        out = np.zeros(np.shape(x)[:-1] + (m, m))
        idx = np.arange(n)
        out[..., idx, idx] = 1.0
        out[..., n + idx, n + idx] = (1.0 / w)[..., None]
        out[..., n:, n:] += 2.0 / (w ** 2)[..., None, None] \
            * p[..., :, None] * p[..., None, :]
        return out
    raise DomainError(f"unknown identification {example_id!r}")


@timed
def identification_check(example_id: str, ld: LiouvilleDomain, samples,
                         seed=0) -> CheckReport:
    """The identification pulls the model Liouville form back to
    lambda_c / u (the completed interior is exact-symplectomorphic to the
    model)."""
    pts = np.asarray(samples, float)
    m = ld.manifold.ambient_dim
    target = (standard_contact_form if example_id == "disk"
              else canonical_one_form)(m // 2)
    phi = SmoothMap(m, m, lambda x: interior_identification(example_id, x),
                    jac=lambda x: identification_jacobian(example_id, x))
    pulled = pullback(phi, target)
    expected = scale_form(lambda x: 1.0 / ld.u(x), ld.lambda_c)
    bases = tangent_bases(ld.manifold, pts)
    return make_report(
        f"interior_identification[{example_id}]", n_samples=len(pts),
        max_residual=np.abs(pulled.restrict(pts, bases)
                            - expected.restrict(pts, bases)),
        tolerance=1e-8, seed=seed,
        note="pullback of the model Liouville form equals lambda_c / u")


# ---------------------------------------------------------------------------
# trivial-monodromy hypersurface


@dataclass(frozen=True)
class HypersurfaceData:
    """Contact hypersurface V = {|z|^2 = u(p)} in F x C, as the manifold
    of its representation (restriction of lambda_c + 1/2(x dy - y dx), z)."""

    rep: Representation
    transversality_margin: float


def hypersurface_build(ld: LiouvilleDomain) -> HypersurfaceData:
    """Build the hypersurface V in F x C carrying an open book with page F
    and trivial monodromy; certifies the Liouville-field transversality
    du(X) - u < 0 that makes V contact.

    V = {|z|^2 = u(p)} has the constraint c = |z|^2 - u(p) and the
    Jacobian row (-du(p), 2z).  For a domain whose du is the radial
    ``_radial_du`` (the Weinstein disk, u = 1 - |p|^2), -du(p) is 2p bit
    for bit, so the row is 2x: V is the unit S^3, |2x|^2 = 4|x|^2 exactly
    and 2x (c / 4s) = x (1/2 (c / s)) exactly, since every factor is a
    power of two.  V then gets the round sphere's ``newton_step``,
    x - x (1/2 (c / s)) with s = |x|^2 but with V's own constraint value
    c, which has the bits of `manifolds.gauss_newton_step`.  Every other
    domain gets no ``newton_step``, and `monodromy.flow` projects its V
    through `gauss_newton_step` itself.

    V is ``rep.manifold`` of the returned data.  Its contact form is
    lambda_c on F plus alpha_0 = 1/2 (x dy - y dx) on C (`place_form`),
    with the exact d lambda_c + dx ^ dy when lambda_c carries its d (both
    model disks do), and its f is the coordinate z = x + i y.

    F must be a full-dimensional domain of its ambient space: V has
    dimension dim F + 1 only if F has no constraints of its own, so a
    constrained domain (such as `disk_bundle_domain`) raises DomainError.
    """
    if ld.manifold.n_constraints > 0:
        raise DomainError(
            f"{ld.name}: the hypersurface needs a domain without "
            f"constraints, this one has {ld.manifold.n_constraints}")
    mf = ld.manifold.ambient_dim
    m = mf + 2

    def constraints(x):
        z = x[..., mf:]
        return (np.vecdot(z, z) - ld.u(x[..., :mf]))[..., None]

    def jac(x):
        out = np.empty(np.shape(x)[:-1] + (1, m))
        out[..., 0, :mf] = -ld.du(x[..., :mf])
        out[..., 0, mf:] = 2.0 * x[..., mf:]
        return out

    def newton_step(x, out=None):
        # the Jacobian row (-du, 2z) is 2x: the round-sphere step with V's
        # own constraint value c
        z = x[..., mf:]
        c = np.vecdot(z, z) - ld.u(x[..., :mf])
        return np.subtract(
            x, x * (_HALF * (c / np.vecdot(x, x)))[..., None], out)

    base_sampler = ld.manifold.sampler

    def sampler(rng, count):
        r1, r2 = rng.spawn(2)
        base = base_sampler(r1, count)
        ang = r2.uniform(0.0, 2 * np.pi, size=count)
        r = np.sqrt(np.maximum(ld.u(base), 0.0))
        z = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
        return np.concatenate([base, z], axis=-1)

    manifold = Submanifold(
        ambient_dim=m, constraints=constraints, n_constraints=1,
        name=f"V[{ld.name}]", sampler=sampler, constraint_jac=jac,
        newton_step=newton_step if ld.du is _radial_du else None)

    # transversality of the ambient Liouville field X_L + (x dx + y dy)/2
    probe = sampler(rng_for(0), 400)
    margin = ld.u(probe[..., :mf]) - ld.du_along_field(probe[..., :mf])
    if np.min(margin) <= 1e-9:
        raise DomainError("ambient Liouville field is not transverse to V: "
                          f"margin {np.min(margin):.3e}")

    alpha = (place_form(ld.lambda_c, m, 0)
             + place_form(standard_contact_form(1), m, mf))
    f = coordinate_defining_function(m // 2, mf // 2)

    def binding_sampler(rng, count):
        ang = rng.uniform(0.0, 2 * np.pi, size=count)
        out = np.zeros((count, m))
        out[:, 0] = np.cos(ang)
        out[:, 1] = np.sin(ang)
        return out

    rep = Representation(ContactForm(alpha, manifold), f, binding_sampler,
                         name=f"hypersurface[{ld.name}]")
    return HypersurfaceData(rep, float(np.min(margin)))


def angle_spinning_field(rep: Representation):
    """2 pi d/d(theta) in the normal-disk coordinates of the hypersurface
    open book: 2 pi (x d/dy - y d/dx) on the last two coordinates, whose
    complex coordinate x + i y is the book's f; a binding form makes this
    a spinning field with identity monodromy."""
    # a local import: monodromy imports this module
    from .monodromy import plane_rotation_field
    return plane_rotation_field(rep, rep.manifold.ambient_dim // 2 - 1)


@timed
def page_volume_identity(ld: LiouvilleDomain, samples, seed=0
                         ) -> CheckReport:
    """Two-sided check of the page-volume identity on F:

        r^(n+2) [d(lambda_c / r)]^n = 1/2 (2u - du(X)) (d lambda_c)^n

    with r = sqrt(u) and 2n = dim F; both sides are positive volume forms
    on the interior."""
    pts = np.asarray(samples, float)
    pts = pts[ld.u(pts) >= INTERIOR_BAND]
    n = ld.manifold.dim // 2

    def r_fn(p):
        return np.sqrt(np.maximum(ld.u(p), 1e-300))

    lam_over_r = scale_form(lambda p: 1.0 / r_fn(p), ld.lambda_c)
    d_quot = ext_deriv(lam_over_r, step_scale=lambda p: np.maximum(
        ld.u(p), 1e-6))
    lhs_form = wedge_power(d_quot, n)
    rhs_form = wedge_power(ext_deriv(ld.lambda_c), n)
    coords = _leading_pluecker(ld.manifold, pts, 2 * n)
    lhs = r_fn(pts) ** (n + 2) * lhs_form.on_pluecker(pts, coords)
    rhs = 0.5 * (2.0 * ld.u(pts) - ld.du_along_field(pts)) \
        * rhs_form.on_pluecker(pts, coords)
    scale = np.maximum(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return make_report(
        f"page_volume[{ld.name}]", n_samples=len(pts),
        max_residual=np.abs(lhs - rhs) / scale, min_margin=rhs,
        tolerance=1e-12, residual_tolerance=1e-8, seed=seed,
        note="r^(n+2) [d(lambda/r)]^n = 1/2 (2u - du(X)) (d lambda)^n, "
             "positive on the interior")


# ---------------------------------------------------------------------------
# Weinstein structures


@dataclass(frozen=True)
class WeinsteinStructure:
    """Exact symplectic manifold (manifold, d lam) with Liouville field and
    Lyapunov data; omega is d lam, so it cannot disagree with lam."""

    manifold: Submanifold
    field: VecField
    dlyapunov: Callable            # gradient of the Lyapunov function
    lam: KForm                     # the Liouville form, iota_X d lam
    name: str = ""


def complex_plane_weinstein() -> WeinsteinStructure:
    """(C, alpha_0 = (x dy - y dx)/2, (x dx + y dy)/2, x^2 + y^2), whose
    d alpha_0 = dx ^ dy is exact."""
    def sampler(rng, count):
        ang = rng.uniform(0.0, 2 * np.pi, size=count)
        r = rng.uniform(0.1, 2.0, size=count)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)

    manifold = _full_ambient(2, "C", sampler)
    return WeinsteinStructure(
        manifold, VecField(2, lambda p: 0.5 * p), lambda p: 2.0 * p,
        standard_contact_form(1), name="C")


def torus_cotangent_weinstein() -> WeinsteinStructure:
    """(T* T^2, lambda_can, p d/dp, p_1^2 + p_2^2), coordinates
    (q_1, q_2, p_1, p_2) with periodic q."""
    def sampler(rng, count):
        q = flat_torus(2).sampler(rng, count)
        p = rng.uniform(-2.0, 2.0, size=(count, 2))
        return np.concatenate([q, p], axis=-1)

    manifold = _full_ambient(4, "T*T^2", sampler)

    def field_eval(x):
        out = np.zeros_like(x)
        out[..., 2:] = x[..., 2:]
        return out

    def dlyap(x):
        out = np.zeros_like(x)
        out[..., 2:] = 2.0 * x[..., 2:]
        return out

    return WeinsteinStructure(
        manifold, VecField(4, field_eval), dlyap, canonical_one_form(2),
        name="T*T^2")


@timed
def weinstein_check(w: WeinsteinStructure, samples, delta,
                    seed=0) -> CheckReport:
    """Lyapunov inequality df(X) >= delta (|X|^2 + |df|^2) in the ambient
    Euclidean metric, and the Liouville relation iota_X d(lambda) = lambda
    (:func:`liouville_relation_residual`).  The inequality is non-strict,
    so the margin is allowed to touch zero, up to a rounding slack of
    1e-12."""
    pts = np.asarray(samples, float)
    x_vals = w.field(pts)
    df = w.dlyapunov(pts)
    lyap_margin = np.einsum("...m,...m->...", df, x_vals) - delta * (
        _sum(x_vals * x_vals) + _sum(df * df))
    return make_report(
        f"weinstein[{w.name}]", n_samples=len(pts),
        min_margin=lyap_margin,
        max_residual=liouville_relation_residual(w.manifold, w.field, w.lam,
                                                 pts),
        tolerance=-1e-12, residual_tolerance=1e-8, seed=seed,
        note=f"df(X) >= {delta} (|X|^2 + |df|^2); iota_X omega = lambda")


def lyapunov_ratio(w: WeinsteinStructure, samples):
    """Pointwise sup of admissible delta: df(X) / (|X|^2 + |df|^2)."""
    pts = np.asarray(samples, float)
    x_vals = w.field(pts)
    df = w.dlyapunov(pts)
    return np.einsum("...m,...m->...", df, x_vals) / (
        _sum(x_vals * x_vals) + _sum(df * df))


# ---------------------------------------------------------------------------
# subcritical coordinate change


def subcritical_coordinates(p):
    """Diffeomorphism W x C x T^2 -> W x T*T^2 used to fill the product of
    a trivial-monodromy contact manifold with the torus:

        (x, y; phi1, phi2) -> (q1, q2; p1, p2)
                            = (-phi1 - y, phi2 + x; x, y)

    keeping the W factor (the leading coordinates) unchanged.  Input
    points carry W first, then (x, y, phi1, phi2)."""
    p = np.asarray(p, float)
    mw = p.shape[-1] - 4
    x, y = p[..., mw], p[..., mw + 1]
    phi1, phi2 = p[..., mw + 2], p[..., mw + 3]
    out = p.copy()
    out[..., mw] = -phi1 - y
    out[..., mw + 1] = phi2 + x
    out[..., mw + 2] = x
    out[..., mw + 3] = y
    return out


def subcritical_map(mw: int) -> SmoothMap:
    m = mw + 4
    block = np.zeros((4, 4))
    block[0, 1] = -1.0
    block[0, 2] = -1.0
    block[1, 0] = 1.0
    block[1, 3] = 1.0
    block[2, 0] = 1.0
    block[3, 1] = 1.0
    mat = np.eye(m)
    mat[mw:, mw:] = block

    def jac(p):
        return np.broadcast_to(mat, np.shape(p)[:-1] + (m, m)).copy()

    return SmoothMap(m, m, subcritical_coordinates, jac=jac)


@timed
def subcritical_check(samples, seed=0) -> CheckReport:
    """Certify the coordinate change with W = C:

      - the pullback of lambda_W + lambda_can, with the paper's
        cotangent convention lambda_can = -sum p dq, equals
        lambda_W + x dy - y dx + x dphi1 - y dphi2;
      - it pulls f + f_T2 = f + p1^2 + p2^2 back to f + x^2 + y^2 exactly;
      - the Jacobian on the (x, y, phi1, phi2) block has determinant -1
        (the map is orientation reversing and measure preserving on those
        slices).

    The T*T^2 coordinates (q1, q2, p1, p2) follow (w1, w2) on the target.
    lambda_W + lambda_can is alpha_0 on W plus lambda_can on T*T^2
    (`place_form`), with its exact d; the expected form is hand-written.
    """
    pts = np.asarray(samples, float)
    mw = 2
    m = mw + 4
    phi = subcritical_map(mw)
    details = []
    lam = (place_form(standard_contact_form(1), m, 0)
           + place_form(canonical_one_form(2), m, mw))

    expected = form_from_components(
        m, 1,
        {(0,): lambda p: -0.5 * p[..., 1],
         (1,): lambda p: 0.5 * p[..., 0],
         (2,): lambda p: -p[..., 3],
         (3,): lambda p: p[..., 2],
         (4,): lambda p: p[..., 2],
         (5,): lambda p: -p[..., 3]})

    pulled = pullback(phi, lam)
    details.append(make_report(
        "one_form_pullback", n_samples=len(pts),
        max_residual=np.abs(pulled.coeffs(pts) - expected.coeffs(pts)),
        tolerance=1e-10, seed=seed,
        note="pullback of lambda_W + lambda_can matches the product form "
             "(lambda_can = -p dq)"))

    img = phi(pts)
    base = _sum(pts[..., :2] * pts[..., :2])
    f_target = base + _sum(img[..., 4:] * img[..., 4:])
    f_source = base + _sum(pts[..., 2:4] * pts[..., 2:4])
    details.append(make_report(
        "lyapunov_pullback", n_samples=len(pts),
        max_residual=np.abs(f_target - f_source),
        tolerance=0.0, seed=seed,
        note="f + f_T2 pulls back to f + f_0 exactly"))

    jac = phi.jacobian(pts[:1])[0]
    det_block = float(np.linalg.det(jac[mw:, mw:]))
    details.append(make_report(
        "slice_measure", n_samples=1,
        max_residual=abs(det_block + 1.0), tolerance=0.0, seed=seed,
        note=f"(x, y, phi) slice Jacobian determinant = {det_block:+.0f}"))

    return merge_reports("subcritical_coordinates", details, seed=seed,
                         note="explicit filling coordinate change")
