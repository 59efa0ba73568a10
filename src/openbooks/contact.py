"""Contact forms, Reeb fields, contact open books and their checks.

Conventions.  A contact manifold V here has dim V = 2n + 1 and the contact
condition is positivity of alpha ^ (d alpha)^n on oriented orthonormal
tangent bases, which makes the recorded margins comparable across points.
An open book is encoded by a representation (alpha, f) with
f = f_x + i f_y = rho e^{i theta}; every expression that divides by |f| is
replaced, before evaluation, by the identities

    rho^2 d(theta)      = f_x df_y - f_y df_x
    rho d(rho)^d(theta) = df_x ^ df_y

both of which are smooth across the binding.  The raw quotient forms are
used only as independent cross-check oracles away from the binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateSystem, DimensionMismatch, OffManifold
from .forms import (DEFAULT_FD_STEP, KForm, central_difference,
                    constant_form, contact_volume, ext_deriv,
                    increasing_indices, scale_form, wedge, wedge_all,
                    wedge_power, zero_form)
from .manifolds import (FD_STEP, Submanifold, _sum, singular_values,
                        tangent_bases, tangent_pluecker,
                        two_row_min_singular_value, unit_sphere)
from .report import CheckReport, make_report, merge_reports, timed

BINDING_BAND = 1e-3      # |f| below this counts as "near binding"

# Margin bound of the contact and adapted checks.  On the stock books the
# margins are constants of order one (1/2 on S^3, 1 on S^5), d alpha_0 is
# exact and a stencil's error on a form without d is below 1e-11, so a
# margin above 1e-3 cannot come from rounding or stencil error.
CONTACT_MARGIN_TOL = 1e-3


@dataclass(frozen=True)
class ContactForm:
    """A 1-form on an ambient space together with the odd-dimensional
    submanifold on which its contact property is asserted."""

    alpha: KForm
    manifold: Submanifold

    @property
    def n(self) -> int:
        return (self.manifold.dim - 1) // 2

    def d_alpha(self) -> KForm:
        return ext_deriv(self.alpha)


class Regularized(NamedTuple):
    """f_x, f_y and the gradient (..., 2, m) of f at a batch of points,
    and the regularized quantities built from them when they are read."""

    fx: np.ndarray
    fy: np.ndarray
    grad: np.ndarray

    @property
    def rho2(self):                 # f_x^2 + f_y^2
        return self.fx * self.fx + self.fy * self.fy

    @property
    def mu(self):                   # f_x df_y - f_y df_x = rho^2 d(theta)
        return (self.fx[..., None] * self.grad[..., 1, :]
                - self.fy[..., None] * self.grad[..., 0, :])

    @property
    def rho_drho(self):             # f_x df_x + f_y df_y = rho d(rho)
        return (self.fx[..., None] * self.grad[..., 0, :]
                + self.fy[..., None] * self.grad[..., 1, :])


@dataclass(frozen=True)
class DefiningFunction:
    """Complex-valued function f = f_x + i f_y cutting out an open book.

    value maps (..., m) -> complex (...,); gradient, when supplied, maps
    (..., m) -> (..., 2, m) holding the ambient gradients of (f_x, f_y).
    """

    ambient_dim: int
    value: Callable
    gradient: Callable | None = None

    def __call__(self, p):
        return self.value(np.asarray(p, float))

    def parts(self, p):
        v = self.value(np.asarray(p, float))
        return np.real(v), np.imag(v)

    def modulus(self, p):
        return np.abs(self.value(np.asarray(p, float)))

    def theta(self, p):
        return np.angle(self.value(np.asarray(p, float)))

    def grad(self, p):
        p = np.asarray(p, float)
        if self.gradient is not None:
            return self.gradient(p)
        g = central_difference(self.value, p, FD_STEP)
        return np.stack([np.real(g), np.imag(g)], axis=-2)

    def conjugate(self) -> "DefiningFunction":
        val = self.value
        grad = self.gradient

        def conj_grad(p):
            g = grad(p)
            return np.stack([g[..., 0, :], -g[..., 1, :]], axis=-2)

        return DefiningFunction(
            self.ambient_dim,
            lambda p: np.conj(val(p)),
            gradient=None if grad is None else conj_grad)

    def _gradient_form(self, i) -> KForm:
        m = self.ambient_dim
        return KForm(1, m, lambda p: self.grad(p)[..., i, :],
                     lambda: zero_form(m, 2))

    def dfx_form(self) -> KForm:
        """df_x, which is closed."""
        return self._gradient_form(0)

    def dfy_form(self) -> KForm:
        """df_y, which is closed."""
        return self._gradient_form(1)

    def regularized(self, p) -> Regularized:
        """rho^2, mu and rho d(rho) at p (see :class:`Regularized`), from
        one evaluation of f and one of its gradient."""
        return Regularized(*self.parts(p), self.grad(p))

    def mu_form(self) -> KForm:
        """The regularized 1-form rho^2 d(theta) = f_x df_y - f_y df_x,
        whose exterior derivative is 2 df_x ^ df_y, twice the area form."""
        return KForm(1, self.ambient_dim, lambda p: self.regularized(p).mu,
                     lambda: 2.0 * self.area_form())

    def area_form(self) -> KForm:
        """The regularized 2-form rho d(rho) ^ d(theta) = df_x ^ df_y."""
        return wedge(self.dfx_form(), self.dfy_form())


@dataclass(frozen=True)
class Representation:
    """Pair (contact form, defining function) encoding a contact open book;
    binding_sampler(rng, count) draws points of its :attr:`binding`."""

    contact: ContactForm
    f: DefiningFunction
    binding_sampler: Callable | None = None
    name: str = ""

    @property
    def binding(self) -> Submanifold:
        """K = f^{-1}(0) inside V, by :func:`binding_manifold`."""
        return binding_manifold(self)

    @property
    def manifold(self) -> Submanifold:
        return self.contact.manifold

    @property
    def n(self) -> int:
        return self.contact.n

    def quotient_form(self) -> KForm:
        """lambda = alpha / |f|; only valid away from the binding."""
        alpha = self.contact.alpha
        f = self.f
        return scale_form(lambda p: 1.0 / f.modulus(p), alpha)


# ---------------------------------------------------------------------------
# Reeb field


def _pfaffian(pair, idx, memo):
    """Pf of pair (N, d, d) restricted to the rows and columns idx (an
    even-length tuple), expanded along its first row; memo holds the
    Pfaffians of the index tuples met so far."""
    if len(idx) < 3:
        return pair[:, idx[0], idx[1]] if idx else np.ones(len(pair))
    if idx not in memo:
        head, rest = idx[0], idx[1:]
        total = None
        for r, j in enumerate(rest):
            term = pair[:, head, j] * _pfaffian(
                pair, rest[:r] + rest[r + 1:], memo)
            total = term if total is None else (
                total - term if r % 2 else total + term)
        memo[idx] = total
    return memo[idx]


def _sub_pfaffians(pair):
    """k (N, d) with k_i = (-1)^i Pf(pair without row and column i), for
    antisymmetric pair (N, d, d) of odd d: pair k = 0, and a . k is the
    Pfaffian of pair bordered by the row a."""
    d = pair.shape[-1]
    memo = {}
    full = tuple(range(d))
    return np.stack([_pfaffian(pair, full[:i] + full[i + 1:], memo)
                     * (-1.0) ** i for i in range(d)], axis=-1)


def reeb_fields(cf: ContactForm, points):
    """Batched Reeb vectors: unique R with alpha(R) = 1, d(alpha)(R, .) = 0.

    points (N, m) give (vectors (N, m), residuals (N,)); a single point
    (m,) gives its vector (m,) and its residual.  On the oriented frame
    e of each tangent space (d = 2n + 1) take a_i = alpha(e_i) and the
    antisymmetric P_ij = d(alpha)(e_i, e_j).  The kernel of P is spanned
    by the sub-Pfaffians

        k_i = (-1)^i Pf(P without row and column i),

    and a . k = (alpha ^ (d alpha)^n)(e) / n!, so R = sum_i k_i / (a . k)
    e_i, which does not change when k flips sign.  Past the frame, only
    elementwise products, sums and einsum contractions are taken, no BLAS
    or LAPACK call; a hypersurface frame takes none either, so there the
    vectors do not depend on the BLAS kernel.

    Gates, each raising DegenerateSystem that carries the singular values
    of the (d+1) x d system [a; P] at the offending point (computed only
    then, NaN where that system is not finite):
      - an even d: there is no Reeb field;
      - |a . k| <= 1e-6 |a| |P|_F^n, or NaN: alpha ^ (d alpha)^n vanishes
        against its scale, so the form is not contact there.  Both sides
        have degree n + 1 in alpha, so the gate does not depend on the
        scale of alpha;
      - a residual |[a; P] R - e_0| above 1e-8, which is what catches a
        wrong sub-Pfaffian sign.
    """
    pts = np.asarray(points, float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    bases = tangent_bases(cf.manifold, pts)
    d = bases.shape[1]
    arow = cf.alpha.restrict(pts, bases)                     # (N, d)
    pair = cf.d_alpha().restrict(pts, bases)    # [i, j] = d(alpha)(e_i, e_j)

    def degenerate(message, worst):
        mat = np.concatenate([arow[worst, None, :], pair[worst]], axis=0)
        svals = (singular_values(mat.T) if np.all(np.isfinite(mat))
                 else np.full(d, np.nan))
        return DegenerateSystem(message, singular_values=svals)

    if d % 2 == 0:
        raise degenerate(f"no Reeb field on an even-dimensional ({d}) "
                         f"manifold", 0)
    kernel = _sub_pfaffians(pair)
    volume = np.einsum("nd,nd->n", arow, kernel)      # (alpha^(dalpha)^n)/n!
    scale = np.sqrt(_sum(arow * arow)) * np.linalg.norm(
        pair, axis=(-2, -1)) ** (d // 2)
    nondegenerate = np.abs(volume) > 1e-6 * scale
    if not np.all(nondegenerate):
        worst = int(np.argmin(nondegenerate))
        raise degenerate("Reeb system drops rank: alpha ^ (d alpha)^n "
                         f"= {volume[worst]:.3e} against the scale "
                         f"{scale[worst]:.3e}", worst)
    reeb = kernel / volume[:, None]
    # [a; P] R - e_0: only the first row has a right-hand side
    gap = np.concatenate([np.einsum("nd,nd->n", arow, reeb)[:, None] - 1.0,
                          np.einsum("nij,nj->ni", pair, reeb)], axis=-1)
    residual = np.sqrt(_sum(gap * gap))
    if not np.all(residual <= 1e-8):
        worst = int(np.argmax(residual))       # the first NaN, if any
        raise degenerate(
            f"Reeb field degenerate: residual {residual[worst]:.3e}", worst)
    vectors = np.einsum("nd,ndm->nm", reeb, bases)
    return (vectors[0], residual[0]) if single else (vectors, residual)


# ---------------------------------------------------------------------------
# checks


def contact_volume_values(cf: ContactForm, points):
    """alpha ^ (d alpha)^n evaluated on oriented orthonormal bases, from
    their :func:`tangent_pluecker` coordinates."""
    return contact_volume(cf.alpha, cf.n).on_pluecker(
        points, tangent_pluecker(cf.manifold, points))


@timed
def verify_contact(cf: ContactForm, samples, seed=0) -> CheckReport:
    """Contact condition alpha ^ (d alpha)^n > 0 at the sampled points."""
    return make_report(
        f"contact[{cf.manifold.name}]",
        n_samples=len(samples),
        min_margin=contact_volume_values(cf, samples),
        tolerance=CONTACT_MARGIN_TOL,
        seed=seed,
        note="alpha ^ (d alpha)^n positive on oriented orthonormal bases")


@timed
def verify_adapted(cf: ContactForm, h: DefiningFunction, samples,
                   binding_samples, seed=0) -> CheckReport:
    """Sufficient conditions for a contact form to be adapted to the open
    book cut out by h:

      (i)  alpha ^ (d alpha)^(n-1) ^ dh_x ^ dh_y > 0 along the binding,
      (ii) h_x dh_y(R) - h_y dh_x(R) > 0 off the binding (R = Reeb field).
    """
    if binding_samples is None or len(binding_samples) == 0:
        raise OffManifold("binding sample set is empty; the binding of an "
                          "open book must be non-empty")
    n = cf.n
    form_i = wedge_all(cf.alpha, wedge_power(cf.d_alpha(), n - 1),
                       h.dfx_form(), h.dfy_form())
    vals_i = form_i.on_pluecker(
        binding_samples, tangent_pluecker(cf.manifold, binding_samples))

    off = samples[h.modulus(samples) >= BINDING_BAND]
    reeb, _ = reeb_fields(cf, off)
    reg = h.regularized(off)
    d_on_reeb = np.einsum("ncm,nm->nc", reg.grad, reeb)
    vals_ii = reg.fx * d_on_reeb[:, 1] - reg.fy * d_on_reeb[:, 0]
    # the raw value of (ii) is |h|^2 d(theta)(R) and degenerates toward the
    # binding; normalizing by |h|^2 (> 0 off the band) gives a
    # scale-invariant margin of the same sign
    scaled_ii = vals_ii / reg.rho2
    return make_report(
        f"adapted[{cf.manifold.name}]",
        n_samples=len(binding_samples) + len(off),
        min_margin=[vals_i, scaled_ii],
        tolerance=CONTACT_MARGIN_TOL,
        seed=seed,
        note=("(i) alpha^(d alpha)^(n-1)^dh_x^dh_y > 0 on the binding; "
              "(ii) h_x dh_y(R) - h_y dh_x(R) > 0 off it, margin recorded "
              "as (ii)/|h|^2"))


def openbook_volume_form(rep: Representation) -> KForm:
    """Volume form induced by the open book, in the regularized shape

        Omega_V = n * (df_x ^ df_y) ^ alpha ^ (d alpha)^(n-1)
                  + (f_x df_y - f_y df_x) ^ (d alpha)^n

    which is smooth across the binding (the first factor is
    rho d(rho) ^ d(theta), the second rho^2 d(theta))."""
    n = rep.n
    alpha = rep.contact.alpha
    dalpha = rep.contact.d_alpha()
    second = wedge(rep.f.mu_form(), wedge_power(dalpha, n))
    if n == 0:
        raise DimensionMismatch("open books need dim V >= 3")
    first = wedge_all(rep.f.area_form(), alpha, wedge_power(dalpha, n - 1))
    return float(n) * first + second


def quotient_volume_values(rep: Representation, points, coords):
    """Independent oracle |f|^(n+2) d(theta) ^ (d(alpha/|f|))^n, evaluated
    with quotient forms and finite differences only; valid off the binding.

    The differentiation step, DEFAULT_FD_STEP, is scaled by |f| so the
    truncation error stays relative to the blowing-up coefficients of the
    quotient form.  ``coords`` are the Pluecker coordinates of the
    oriented frames at the points (:func:`tangent_pluecker`).
    """
    f = rep.f
    n = rep.n
    m = rep.manifold.ambient_dim
    lam = rep.quotient_form()

    def dtheta_coeffs(p):
        # angle derivative via arg(f(p+h)/f(p-h)) to dodge the branch cut
        return central_difference(
            f.value, p, DEFAULT_FD_STEP * np.maximum(f.modulus(p), 1e-12),
            diff=lambda a, b: np.angle(a * np.conj(b)))

    dtheta = KForm(1, m, dtheta_coeffs)
    dlam = ext_deriv(lam, step_scale=lambda p: np.maximum(
        f.modulus(p), 1e-12))
    top = wedge(dtheta, wedge_power(dlam, n))
    vals = top.on_pluecker(points, coords)
    return f.modulus(points) ** (n + 2) * vals


def binding_manifold(rep: Representation) -> Submanifold:
    """The binding K = f^{-1}(0) of V as a submanifold of ambient space,
    with the representation's binding sampler.  Its constraint rows are
    V's, then f_x and f_y, and it is oriented when V is, by the rule
    "constraint rows first" of :func:`tangent_bases`.

    That rule is K's orientation from V and (df_x, df_y): a basis W of
    T_p K is positive when (u1, u2, W) is positively oriented in T_p V,
    where (u1, u2) spans the normal of K inside T_p V with positive
    (df_x, df_y)-frame determinant.  With n the unit normal of V, each
    grad f_i is a_i n + P_i1 u1 + P_i2 u2 + (a vector in span W),
    P_ij = <grad f_i, u_j>; the n and W parts drop out of
    det[J_V; grad f_x; grad f_y; W], which is therefore
    |J_V| det P det[n, u1, u2, W], and det P > 0 by the choice of
    (u1, u2).  Without constraints on V the same holds without J_V, and
    no frame of T_p V or determinant is needed.
    """
    base = rep.manifold
    f = rep.f

    def constraints(p):
        rows = [base.constraints(p)] if base.constraints is not None else []
        return np.concatenate(rows + [np.stack(f.parts(p), axis=-1)], axis=-1)

    def jac(p):
        rows = [base.jacobian(p)] if base.constraints is not None else []
        return np.concatenate(rows + [f.grad(p)], axis=-2)

    return Submanifold(
        ambient_dim=base.ambient_dim,
        constraints=constraints,
        n_constraints=base.n_constraints + 2,
        name=f"binding[{rep.name or base.name}]",
        oriented=base.oriented,
        sampler=rep.binding_sampler,
        constraint_jac=jac if base.constraint_jac is not None else None,
    )


def binding_contact_values(rep: Representation, binding_samples):
    """alpha restricted to the binding, evaluated on oriented bases of K."""
    bind = rep.binding
    nk = (bind.dim - 1) // 2
    return contact_volume(rep.contact.alpha, nk).on_pluecker(
        binding_samples, tangent_pluecker(bind, binding_samples))


def _rank_two_margins(f: DefiningFunction, points, bases):
    """The smaller singular value (N,) of (df_x, df_y) restricted to the
    frames bases (N, d, m) of T_p V at points (N, m): how far the pair is
    from dropping rank."""
    return two_row_min_singular_value(
        np.einsum("ncm,ndm->ncd", f.grad(points), bases))


def representation_conditions(rep: Representation, samples, binding_samples,
                              seed=0):
    """The four conditions making (alpha, f) a representation, each as its
    own report: regular value, non-empty binding, theta submersion, and
    ideal Liouville structure on the pages (volume-form positivity),
    plus positivity of alpha on the binding."""
    reports = []
    manifold = rep.manifold
    f = rep.f
    n_bind = 0 if binding_samples is None else len(binding_samples)
    # one frame call for the samples and the binding samples (a chain frame
    # does not depend on its batch); (4) needs only Pluecker coordinates
    pts = np.vstack([samples, binding_samples]) if n_bind else samples
    bases, bind_bases = np.split(tangent_bases(manifold, pts), [len(samples)])

    # (1) 0 is a regular value: (df_x, df_y) restricted to TV has rank 2
    if n_bind > 0:
        margins = _rank_two_margins(f, binding_samples, bind_bases)
    else:
        margins = -1.0
    reports.append(make_report(
        "regular_value", n_samples=n_bind,
        min_margin=margins, tolerance=1e-6, seed=seed,
        note="rank of (df_x, df_y) on TV equals 2 along f = 0"))

    # (2) binding non-empty
    reports.append(make_report(
        "binding_nonempty", n_samples=n_bind,
        min_margin=n_bind, tolerance=0.5, seed=seed,
        note="the zero set of f on V is non-empty"))

    # (3) theta submersion: off the binding the restricted
    # rho^2 d(theta) is nonzero; near it, (df_x, df_y) has rank 2.
    mu = rep.f.mu_form()
    mu_restricted = mu.restrict(samples, bases)
    mu_norm = np.sqrt(_sum(mu_restricted * mu_restricted))
    rho = f.modulus(samples)
    margins = mu_norm / np.maximum(rho, BINDING_BAND) ** 2
    near = ~(rho >= BINDING_BAND)                  # a NaN modulus is near
    margins[near] = _rank_two_margins(f, samples[near], bases[near])
    reports.append(make_report(
        "theta_submersion", n_samples=len(samples),
        min_margin=margins, tolerance=1e-6, seed=seed,
        note="d(theta) nonzero off the binding (f/|f| is a submersion)"))

    # (4) ideal Liouville structure on pages: positivity of the smooth
    # volume form (the regularized rho^(n+2) d(theta)^(d(alpha/rho))^n).
    omega = openbook_volume_form(rep)
    reports.append(make_report(
        "page_liouville", n_samples=len(pts),
        min_margin=omega.on_pluecker(pts, tangent_pluecker(manifold, pts)),
        tolerance=1e-9, seed=seed,
        note=("n rho drho^dtheta^alpha^(d alpha)^(n-1) + "
              "rho^2 dtheta^(d alpha)^n positive incl. binding")))

    # (5) alpha restricts to a positive contact form on the binding
    if n_bind > 0 and reports[0].passed:
        margins = binding_contact_values(rep, binding_samples)
    else:
        margins = -1.0
    reports.append(make_report(
        "binding_contact", n_samples=n_bind,
        min_margin=margins, tolerance=1e-9, seed=seed,
        note="alpha positive contact form on the binding"))

    return reports


@timed
def verify_representation(rep: Representation, samples, binding_samples,
                          seed=0) -> CheckReport:
    """Full representation check; failures are reported per condition."""
    reports = representation_conditions(rep, samples, binding_samples,
                                        seed=seed)
    return merge_reports(
        f"representation[{rep.name or rep.manifold.name}]",
        reports, seed=seed,
        note="(alpha, f) represents a contact open book")


@timed
def volume_form_cross_check(rep: Representation, samples,
                            seed=0) -> CheckReport:
    """Two-sided check of the volume-form identity: the regularized
    expression against |f|^(n+2) d(theta) ^ (d(alpha/|f|))^n computed from
    raw quotient forms, at points with |f| >= the binding band."""
    pts = samples[rep.f.modulus(samples) >= BINDING_BAND]
    coords = tangent_pluecker(rep.manifold, pts)
    lhs = openbook_volume_form(rep).on_pluecker(pts, coords)
    rhs = quotient_volume_values(rep, pts, coords)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    return make_report(
        f"volume_identity[{rep.name or rep.manifold.name}]",
        n_samples=len(pts),
        max_residual=rel, min_margin=lhs,
        tolerance=1e-12, residual_tolerance=1e-8, seed=seed,
        note=("regularized volume form agrees with "
              "|f|^(n+2) dtheta ^ (d(alpha/|f|))^n off the binding"))


# ---------------------------------------------------------------------------
# the standard sphere and its two open books


def standard_contact_form(n: int) -> KForm:
    """alpha_0 = 1/2 sum (x_j dy_j - y_j dx_j) on R^(2n), coordinates
    interleaved as (x_1, y_1, ..., x_n, y_n); d alpha_0 = sum dx_j ^ dy_j."""
    m = 2 * n
    pairs = increasing_indices(m, 2)
    omega = np.zeros(len(pairs))
    omega[[pairs.index((2 * j, 2 * j + 1)) for j in range(n)]] = 1.0

    def coeffs(p):
        out = np.empty_like(p)
        out[..., 0::2] = -0.5 * p[..., 1::2]
        out[..., 1::2] = 0.5 * p[..., 0::2]
        return out

    return KForm(1, m, coeffs, lambda: constant_form(m, 2, omega))


def standard_sphere(n: int) -> Submanifold:
    """Unit sphere S^(2n-1) in C^n = R^(2n)."""
    return unit_sphere(2 * n)


def coordinate_defining_function(n: int) -> DefiningFunction:
    """f(z) = z_1; its zero set in the sphere is an equatorial subsphere."""
    m = 2 * n

    def value(p):
        return p[..., 0] + 1j * p[..., 1]

    def gradient(p):
        g = np.zeros(np.shape(p)[:-1] + (2, m))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0
        return g

    return DefiningFunction(m, value, gradient)


def quadric_defining_function(n: int) -> DefiningFunction:
    """f(z) = z_1^2 + ... + z_n^2 (the complex quadric)."""
    m = 2 * n

    def value(p):
        # separate real ufuncs (no single-rounding multiply-add) so the exact
        # cancellations along the binding survive in floating point
        x = p[..., 0::2]
        y = p[..., 1::2]
        fx = _sum(x * x - y * y)
        fy = 2.0 * _sum(x * y)
        return fx + 1j * fy

    def gradient(p):
        # d f = 2 sum z_j dz_j: f_x gradient (2x, -2y), f_y gradient (2y, 2x)
        g = np.empty(np.shape(p)[:-1] + (2, m))
        g[..., 0, 0::2] = 2.0 * p[..., 0::2]
        g[..., 0, 1::2] = -2.0 * p[..., 1::2]
        g[..., 1, 0::2] = 2.0 * p[..., 1::2]
        g[..., 1, 1::2] = 2.0 * p[..., 0::2]
        return g

    return DefiningFunction(m, value, gradient)


def _coordinate_binding(n: int):
    """Sampler of the binding of the z_1 open book, the subsphere z_1 = 0."""
    def sampler(rng, count):
        g = rng.normal(size=(count, 2 * n - 2))
        g /= np.sqrt(_sum(g * g))[:, None]
        out = np.zeros((count, 2 * n))
        out[:, 2:] = g
        return out

    return sampler


def _quadric_binding(n: int):
    """Sampler of the binding of the quadric open book, in closed form.

    With z = x + i y, |z|^2 = |x|^2 + |y|^2 and sum z_j^2 = |x|^2 - |y|^2
    + 2i x . y, so the binding {|z| = 1, sum z_j^2 = 0} is exactly
    {(x + i y) / sqrt 2 : x, y orthonormal in R^n}.  The sampler reads its
    one Gaussian draw (count, 2n) as two vectors a, b of R^n, Gram-Schmidts
    them (b is orthogonalized against a twice, so x . y stays at rounding
    when b is nearly parallel to a) and returns (a_hat + i b_hat) / sqrt 2,
    interleaved as (x_j, y_j).  The frame (a_hat, b_hat) is Haar on the
    Stiefel manifold of orthonormal 2-frames, so the samples are invariant
    under O(n) and under the phase z -> e^{i theta} z.  No Newton step or
    linear solve is taken."""
    def sampler(rng, count):
        g = rng.normal(size=(count, 2 * n))
        a = g[:, :n] / np.sqrt(_sum(g[:, :n] * g[:, :n]))[:, None]
        b = g[:, n:]
        for _ in range(2):
            b = b - _sum(a * b)[:, None] * a
        out = np.empty((count, 2 * n))
        out[:, 0::2] = a * np.sqrt(0.5)
        out[:, 1::2] = b * (np.sqrt(0.5) / np.sqrt(_sum(b * b))[:, None])
        return out

    return sampler


def coordinate_open_book(n: int) -> Representation:
    """Open book on S^(2n-1) cut out by z_1 (page: a ball, trivial
    monodromy)."""
    sphere = standard_sphere(n)
    return Representation(
        contact=ContactForm(standard_contact_form(n), sphere),
        f=coordinate_defining_function(n),
        binding_sampler=_coordinate_binding(n),
        name=f"z1 book on S^{2 * n - 1}")


def quadric_open_book(n: int) -> Representation:
    """Open book on S^(2n-1) cut out by the quadric sum of squares (page:
    disk cotangent bundle of S^(n-1), monodromy a Dehn twist)."""
    sphere = standard_sphere(n)
    return Representation(
        contact=ContactForm(standard_contact_form(n), sphere),
        f=quadric_defining_function(n),
        binding_sampler=_quadric_binding(n),
        name=f"quadric book on S^{2 * n - 1}")
