"""Spinning vector fields, monodromy flows, the closed-form flow of the
quadric open book, and the comparison with a Dehn twist.

The spinning field of a representation (alpha, f) is the unique Y with

    d(theta)(Y) = 2 pi      and      iota_Y d(alpha/|f|) |_page = 0 .

Both equations are assembled in regularized form so the linear system has
polynomial coefficients whenever f does:

    (f_x df_y - f_y df_x)(Y) = 2 pi rho^2
    [rho^2 d(alpha) - (f_x df_x + f_y df_y) ^ alpha](Y, e_i) = 0

over a basis {e_i} of the page tangent space (the second line is
rho^3 d(alpha/rho) evaluated on page vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contact import Representation, openbook_volume_form
from .errors import (BindingPoint, DegenerateSystem, DomainError,
                     FlowAborted, NonConvergence)
from .forms import (KForm, SmoothMap, VecField, central_difference,
                    ext_deriv, interior, pullback, scale_form, wedge_all,
                    wedge_power)
from .liouville import canonical_one_form
from .manifolds import (FD_STEP, complement_frames, disk_cotangent_bundle,
                        gauss_newton_step, project_to_constraints,
                        singular_values, tangent_bases)
from .report import CheckReport, make_report, merge_reports, timed

FLOW_BINDING_BAND = 1e-6
COMPARE_BINDING_BAND = 1e-3
# bound on every residual of the monodromy-vs-twist comparison
TWIST_TOL = 1e-5
# slack of |q| = 1, q . p = 0 and |p| <= 1 when a twist checks its input
TWIST_DOMAIN_TOL = 1e-10


@dataclass(frozen=True)
class SpinningField:
    """Vector field whose time-1 flow realizes the monodromy.

    `eval_with_f` is the entry point for the first RK4 stage of `flow`: it
    returns Y(p) together with the defining function f(p), which feeds the
    binding-band test.  A field that computes f on its way to Y passes that
    computation as ``fused`` (p -> (Y(p), f(p))); otherwise f is evaluated
    separately by ``rep.f.value``.
    """

    rep: Representation
    eval: Callable[[np.ndarray], np.ndarray]
    fused: Callable | None = None

    def __call__(self, p):
        return self.eval(np.asarray(p, float))

    def eval_with_f(self, p):
        """(Y(p), f(p)) for points p (N, m)."""
        if self.fused is not None:
            return self.fused(p)
        return self.eval(p), self.rep.f.value(p)


def _spinning_solve_batch(rep: Representation, pts):
    """Solve the square regularized system for Y at each point."""
    alpha = rep.contact.alpha
    dalpha = rep.contact.d_alpha()
    bases = tangent_bases(rep.manifold, pts)
    d = bases.shape[1]
    reg = rep.f.regularized(pts)
    rho2 = reg.rho2
    if np.any(rho2 < FLOW_BINDING_BAND ** 2):
        raise BindingPoint("spinning field requested inside the binding band")
    # tangent-space components
    mu_t = np.einsum("nm,njm->nj", reg.mu, bases)
    drho2_t = np.einsum("nm,njm->nj", reg.rho_drho, bases)
    alpha_t = alpha.restrict(pts, bases)
    da_t = dalpha.restrict(pts, bases)
    # page basis: orthonormal kernel of mu_t
    page = complement_frames(mu_t)[0]                  # (N, d-1, d)
    # rows: mu(Y) = 2 pi rho^2 ; for each page vector e:
    #   rho^2 da(e, Y)... careful with slot order: iota_Y dlam(e) = dlam(Y, e)
    rows = [mu_t[:, None, :]]
    rhs = [2 * np.pi * rho2[:, None]]
    # lam_rows[p] applied to Y gives rho^3 d(alpha/rho)(Y, e_p)
    #   = rho^2 d(alpha)(Y, e_p) - alpha(e_p) (rho drho)(Y)
    #     + (rho drho)(e_p) alpha(Y)
    lam_rows = (rho2[:, None, None] * np.einsum("npj,njk->npk", page, -da_t)
                - np.einsum("npj,nj->np", page, alpha_t)[:, :, None]
                * drho2_t[:, None, :]
                + np.einsum("npj,nj->np", page, drho2_t)[:, :, None]
                * alpha_t[:, None, :])
    rows.append(lam_rows)
    rhs.append(np.zeros((len(pts), d - 1)))
    mat = np.concatenate(rows, axis=1)
    b = np.concatenate(rhs, axis=1)
    svals = singular_values(mat)
    # 1e-6, not the 1e-9 an SVD could resolve: the Gram route reads a
    # rank-deficient system as s_min up to ~3e-8 s_max
    bad = svals[:, -1] < 1e-6 * svals[:, 0]
    if np.any(bad):
        worst = int(np.argmax(bad))
        raise DegenerateSystem("spinning-field system is rank deficient",
                               singular_values=svals[worst])
    sol = np.linalg.solve(mat, b[..., None])[..., 0]
    residual = np.linalg.norm(mat @ sol[..., None] - b[..., None],
                              axis=(-2, -1))
    scale = np.linalg.norm(mat, axis=(-2, -1)) * np.linalg.norm(
        sol, axis=-1) + 1.0
    if np.any(residual / scale > 1e-8):
        raise DegenerateSystem(
            f"spinning solve residual {np.max(residual / scale):.3e}",
            singular_values=svals[int(np.argmax(residual / scale))])
    return np.einsum("nj,njm->nm", sol, bases), residual / scale


def spinning_field(rep: Representation, p):
    """Spinning vector at one point (or a batch) by the linear solve."""
    pts = np.asarray(p, float)
    single = pts.ndim == 1
    vec, _ = _spinning_solve_batch(rep, pts[None] if single else pts)
    return vec[0] if single else vec


# -- analytic spinning fields for the stock open books ----------------------


def coordinate_spinning_field(rep: Representation) -> SpinningField:
    """Y = 2 pi (x_1 d/dy_1 - y_1 d/dx_1) for the z_1 open book: a
    spinning field by definition (it rotates the z_1 plane, preserving the
    rescaled binding form outright) whose time-1 flow is the identity, so
    the monodromy is trivial.

    Note this is not the kernel-normalized field of the linear solve: it
    satisfies iota_Y d(lambda) = -pi d|f| rather than 0, which still
    preserves d(lambda) because the correction is exact.  The solve's
    field for this book is :func:`coordinate_kernel_field`.
    """
    return plane_rotation_field(rep, 0, 1)


def plane_rotation_field(rep: Representation, i: int, j: int
                         ) -> SpinningField:
    """The analytic field 2 pi (x_i d/dx_j - x_j d/dx_i), which turns the
    (x_i, x_j) plane once per unit time.  It is linear: each evaluation is
    the single product p @ G with the (m, m) generator G, whose only
    entries are G[i, j] = 2 pi and G[j, i] = -2 pi."""
    m = rep.manifold.ambient_dim
    gen = np.zeros((m, m))
    gen[i, j] = 2 * np.pi
    gen[j, i] = -2 * np.pi

    def eval(p):
        return np.dot(p, gen)

    return SpinningField(rep, eval)


def coordinate_kernel_field(rep: Representation) -> SpinningField:
    """The kernel-normalized spinning field of the z_1 open book
    (iota_Y d(alpha/|f|) = 0 and d(theta)(Y) = 2 pi):

        Y = 2 pi (x_1 d/dy_1 - y_1 d/dx_1)
            + 2 pi |z_1|^2 / (1 + |z_1|^2) *
              sum_{j >= 2} (x_j d/dy_j - y_j d/dx_j) .
    """
    def eval(p):
        rho2 = p[..., 0] ** 2 + p[..., 1] ** 2
        out = np.empty_like(p)
        out[..., 0::2] = -p[..., 1::2]
        out[..., 1::2] = p[..., 0::2]
        factor = 2 * np.pi * rho2 / (1.0 + rho2)
        out[..., 2:] *= factor[..., None]
        out[..., 0] *= 2 * np.pi
        out[..., 1] *= 2 * np.pi
        return out

    return SpinningField(rep, eval)


def quadric_spinning_field(rep: Representation) -> SpinningField:
    """The quadric book's spinning field: with f = sum z_j^2,

        Y = pi i f zbar      (as complex velocity)

    equivalently pi Re(f) (y d/dx + x d/dy) + pi Im(f) (y d/dy - x d/dx).
    """
    def fused(p):
        # interleaved (x_j, y_j) pairs are the complex z_j: a zero-copy view
        z = np.ascontiguousarray(p, dtype=np.float64).view(np.complex128)
        zz = z * z
        # f = sum z_j^2 column by column, left to right: a reduction over a
        # short complex axis costs several times more.  For n <= 3 this is
        # bit for bit np.add.reduce(zz, axis=-1); from n = 4 on the two sum
        # in different orders.
        fval = zz[..., 0]
        for j in range(1, zz.shape[-1]):
            fval = fval + zz[..., j]
        vel = np.pi * 1j * fval[..., None] * np.conj(z)
        return vel.view(np.float64), fval

    def eval(p):
        return fused(p)[0]

    return SpinningField(rep, eval, fused=fused)


@timed
def contraction_identity_check(rep: Representation, y: SpinningField,
                               samples, seed=0) -> CheckReport:
    """Independent certificate for a spinning field: contraction into the
    open-book volume form must satisfy

        iota_Y Omega_V = 2 pi |f|^2 (d alpha)^n
                         - pi n d(|f|^2) ^ alpha ^ (d alpha)^(n-1)

    which is smooth across the binding and pins Y uniquely."""
    n = rep.n
    pts = np.asarray(samples, float)
    omega = openbook_volume_form(rep)
    field = VecField(rep.manifold.ambient_dim, y.eval)
    lhs_form = interior(field, omega)
    f = rep.f
    dalpha = rep.contact.d_alpha()

    drho2 = KForm(1, rep.manifold.ambient_dim,
                  lambda p: 2 * f.regularized(p).rho_drho)
    rho2_fn = lambda p: np.abs(f.value(p)) ** 2
    rhs_form = (2 * np.pi) * scale_form(rho2_fn, wedge_power(dalpha, n)) \
        - (np.pi * n) * wedge_all(drho2, rep.contact.alpha,
                                  wedge_power(dalpha, n - 1))
    bases = tangent_bases(rep.manifold, pts)
    # evaluate both 2n-forms on the first 2n tangent basis vectors
    args = bases[:, : 2 * n, :]
    lhs = lhs_form.at_basis(pts, args)
    rhs = rhs_form.at_basis(pts, args)
    scale = np.maximum(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return make_report(
        f"spinning_contraction[{rep.name}]", n_samples=len(pts),
        max_residual=np.abs(lhs - rhs) / scale, tolerance=1e-12,
        residual_tolerance=1e-7, seed=seed,
        note="iota_Y Omega_V = 2 pi |f|^2 (d alpha)^n - pi n d|f|^2 ^ alpha "
             "^ (d alpha)^(n-1)")


def kernel_defect_form(rep: Representation, y: SpinningField) -> KForm:
    """The 1-form iota_Y d(alpha/|f|), assembled without differentiating
    the quotient:

        rho^3 iota_Y d(alpha/rho) = rho^2 iota_Y d(alpha)
                                    - (rho drho)(Y) alpha
                                    + alpha(Y) (rho drho)

    with rho drho = f_x df_x + f_y df_y.  Vanishes identically for the
    kernel-normalized spinning field; exact for any spinning field.
    """
    f = rep.f
    alpha = rep.contact.alpha
    dalpha = rep.contact.d_alpha()
    m = rep.manifold.ambient_dim
    field = VecField(m, y.eval)
    contracted = interior(field, dalpha)

    def coeffs(p):
        reg = f.regularized(p)
        rho2, rho_drho = reg.rho2, reg.rho_drho
        yv = y.eval(np.asarray(p, float))
        alpha_c = alpha.coeffs(p)
        alpha_of_y = np.einsum("...m,...m->...", alpha_c, yv)
        drho_of_y = np.einsum("...m,...m->...", rho_drho, yv)
        num = (rho2[..., None] * contracted.coeffs(p)
               - drho_of_y[..., None] * alpha_c
               + alpha_of_y[..., None] * rho_drho)
        return num / np.maximum(rho2, 1e-300)[..., None] ** 1.5

    return KForm(1, m, coeffs)


@timed
def spinning_definition_check(rep: Representation, y: SpinningField, samples,
                              near_binding_samples=None, seed=0
                              ) -> CheckReport:
    """Definition-level certificate valid for any spinning field (not just
    the kernel-normalized one):

      - d(theta)(Y) = 2 pi off the binding (via the regularized pairing
        rho^2 d(theta)(Y) = 2 pi rho^2);
      - Y vanishes along the binding: |Y| <= K |f| on binding-approaching
        samples;
      - the flow preserves the page structures: the 2-form
        d(iota_Y d(alpha/|f|)) vanishes on page-tangent pairs.
    """
    pts = np.asarray(samples, float)
    f = rep.f
    details = []

    reg = f.regularized(pts)
    vals = np.einsum("nm,nm->n", reg.mu, y(pts))
    details.append(make_report(
        "theta_pairing", n_samples=len(pts),
        max_residual=np.abs(vals / reg.rho2 - 2 * np.pi),
        tolerance=1e-8, seed=seed, note="d(theta)(Y) = 2 pi"))

    if near_binding_samples is not None and len(near_binding_samples):
        nb = np.asarray(near_binding_samples, float)
        speed = np.linalg.norm(y(nb), axis=-1)
        rho = f.modulus(nb)
        details.append(make_report(
            "binding_vanishing", n_samples=len(nb),
            max_residual=speed / np.maximum(rho, 1e-300), tolerance=1e3,
            seed=seed,
            note="|Y| <= K |f| approaching the binding (K recorded as the "
                 "residual)"))

    # page-structure preservation: d(iota_Y d(lambda)) restricted to pages,
    # with iota_Y d(lambda) assembled from the regularized contraction
    lie_two_form = ext_deriv(kernel_defect_form(rep, y),
                             step_scale=lambda p: np.maximum(
                                 f.modulus(p), 1e-12))
    far = pts[f.modulus(pts) >= 0.1]
    bases = tangent_bases(rep.manifold, far)
    mu_t = np.einsum("nm,njm->nj", f.regularized(far).mu, bases)
    page = complement_frames(mu_t)[0] @ bases
    details.append(make_report(
        "page_structure_preserved", n_samples=len(far),
        max_residual=np.max(np.abs(lie_two_form.restrict(far, page)),
                            initial=0.0),
        tolerance=1e-5, seed=seed,
        note="Lie derivative of the page symplectic structure vanishes: "
             "d(iota_Y d(lambda)) = 0 on page pairs"))

    return merge_reports(f"spinning_definition[{rep.name}]", details,
                         seed=seed, note="definition-level spinning checks")


# ---------------------------------------------------------------------------
# flows


def flow(y: SpinningField, p0, t_end: float, step: float = 1e-3,
         min_abs_f: float = FLOW_BINDING_BAND, check_halving: bool = False,
         halving_tol: float = 1e-5):
    """Classical RK4 flow of a spinning field, projected back to the
    manifold after every step by one `manifolds.gauss_newton_step`.  The
    first stage of each step calls `SpinningField.eval_with_f`, whose f(p)
    is the binding-band test: the flow aborts if |f| drops below
    ``min_abs_f``.  Stages 2-4 call `SpinningField.eval`.  A final
    residual above 1e-10 triggers a full `project_to_constraints`.

    Accepts a single point (m,) or a batch (N, m); time may be negative.
    ``check_halving`` re-runs with half the step and raises NonConvergence
    if the endpoints differ by more than halving_tol.  No suite flow sets
    it, since each has an exact oracle (the identity, the closed form or
    the twist).  It stays as tested API: the benchmark tracer
    (`benchmarks/tracer.py`) reads ``check_halving`` by name to count the
    point steps, and two tests of `tests/test_monodromy.py` set both
    arguments.
    """
    def run(step_size):
        pts = np.array(p0, float, copy=True)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        manifold = y.rep.manifold
        constrained = manifold.constraints is not None
        n_steps = int(round(abs(t_end) / step_size))
        h = np.sign(t_end) * abs(step_size)
        half, sixth = 0.5 * h, h / 6.0
        for i in range(n_steps):
            k1, fval = y.eval_with_f(pts)
            if (np.abs(fval) < min_abs_f).any():
                raise FlowAborted(
                    f"trajectory entered the binding band at step {i}")
            k2 = y.eval(pts + half * k1)
            k3 = y.eval(pts + half * k2)
            k4 = y.eval(pts + h * k3)
            pts = pts + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            if constrained:
                pts = gauss_newton_step(manifold, pts,
                                        manifold.constraints(pts))
        res = manifold.residual(pts)
        if np.any(res > 1e-10):
            pts = project_to_constraints(manifold, pts, tol=1e-12)
        return pts[0] if single else pts

    end = run(step)
    if check_halving:
        end_half = run(step / 2)
        gap = np.max(np.abs(end - end_half))
        if gap > halving_tol:
            raise NonConvergence(
                f"step halving changed the endpoint by {gap:.3e}")
    return end


# ---------------------------------------------------------------------------
# closed-form flow for the quadric open book


def closed_form_quadric_flow(z0, t):
    """Exact trajectory of the quadric book's spinning field on the unit
    sphere, as complex vectors: with g0 = |f(z0)| and c = sqrt(1 - g0^2),

        z(t) = A_+ e^{i pi (c+1) t} + A_- e^{-i pi (c-1) t}
        A_+- = 1/2 (1 -+ sqrt((1-g0)/(1+g0))) x(0)
               + i/2 (1 -+ sqrt((1+g0)/(1-g0))) y(0)

    displayed for trajectories starting on the zero page; a general start
    is handled by the phase equivariance z -> e^{i delta} z of the field,
    which rotates the start onto that page.  Limit branches: at g0 = 0 the
    point is fixed; as g0 -> 1 the formula degenerates to
    z(1) = -(z0 + 2 pi y(0)) (= -z0 on the sphere, where g0 = 1 forces the
    rotated start to be real).

    Returns (z_t, flagged) where ``flagged`` marks samples whose
    1 - g0 is small enough that the square-root coefficients lose more
    than six digits to cancellation.
    """
    z0 = np.asarray(z0, complex)
    single = z0.ndim == 1
    if single:
        z0 = z0[None, :]
    t = np.broadcast_to(np.asarray(t, float), z0.shape[:-1])
    fval = np.sum(z0 * z0, axis=-1)
    g0 = np.abs(fval)
    if np.any(g0 > 1.0 + 1e-9):
        raise DomainError("|f| exceeds 1; the start is not on the unit "
                          "sphere", point=z0[np.argmax(g0)])
    g0 = np.minimum(g0, 1.0)
    theta0 = np.angle(fval)
    w0 = np.exp(-0.5j * theta0)[..., None] * z0
    x0, y0 = np.real(w0), np.imag(w0)

    one_minus = 1.0 - g0
    flagged = one_minus < 1e-6
    degenerate = one_minus < 1e-12
    safe = np.where(degenerate, 0.5, one_minus)

    c = np.sqrt(np.maximum(0.0, 1.0 - g0 ** 2))
    a_coef = np.sqrt(np.where(degenerate, 0.0, one_minus) / (1.0 + g0))
    b_coef = np.sqrt((1.0 + g0) / safe)
    s = np.sin(np.pi * c * t)
    co = np.cos(np.pi * c * t)
    u = (w0 * co[..., None]
         + (-1j * a_coef[..., None] * x0 + b_coef[..., None] * y0)
         * s[..., None])
    u_lim = w0 + 2 * np.pi * t[..., None] * y0
    u = np.where(degenerate[..., None], u_lim, u)
    out = np.exp(1j * np.pi * t)[..., None] * u
    out = np.exp(0.5j * theta0)[..., None] * out
    if single:
        return out[0], bool(flagged[0])
    return out, flagged


def complex_to_real(z):
    z = np.asarray(z, complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = np.real(z)
    out[..., 1::2] = np.imag(z)
    return out


def real_to_complex(p):
    p = np.asarray(p, float)
    return p[..., 0::2] + 1j * p[..., 1::2]


# ---------------------------------------------------------------------------
# Dehn twist


@dataclass(frozen=True)
class DehnTwist:
    """Twist on the unit-disk cotangent bundle of a sphere, rotating each
    fiber by the angle rho(r) = r g(r^2) - pi of the fiber radius r = |p|;
    g(1) = pi makes it the identity on the boundary."""

    g: Callable[[np.ndarray], np.ndarray]

    def angle(self, r):
        return r * self.g(r * r) - np.pi

    def sin_over_r(self, r):
        """sin(rho(r)) / r, evaluated through the smooth even extension
        sin(r g(r^2))/r = g(r^2) sinc(r g(r^2) / pi) near the zero section
        and directly elsewhere (the direct path makes rho(1) = 0 exact on
        the boundary)."""
        a = r * self.g(r * r)
        smooth = -self.g(r * r) * np.sinc(a / np.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = np.where(r > 0.5, np.sin(self.angle(np.maximum(r, 0.5)))
                              / np.maximum(r, 0.5), 0.0)
        return np.where(r > 0.5, direct, smooth)

    def __call__(self, q, p, validate=True):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        r = np.linalg.norm(p, axis=-1)
        if validate and (
                np.any(np.abs(np.linalg.norm(q, axis=-1) - 1.0)
                       > TWIST_DOMAIN_TOL)
                or np.any(np.abs(np.sum(q * p, axis=-1)) > TWIST_DOMAIN_TOL)
                or np.any(r > 1.0 + TWIST_DOMAIN_TOL)):
            raise DomainError("(q, p) violates |q| = 1, q . p = 0, |p| <= 1")
        rho = self.angle(r)
        cos_r = np.cos(rho)[..., None]
        sin_over = self.sin_over_r(r)[..., None]
        q_out = q * cos_r + p * sin_over
        p_out = -(r ** 2)[..., None] * q * sin_over + p * cos_r
        return q_out, p_out


def standard_twist() -> DehnTwist:
    """The twist matching the quadric book's monodromy: g(r) = 2 pi/(1+r),
    so rho(|p|) = 2 pi |p| / (1 + |p|^2) - pi."""
    return DehnTwist(lambda r: 2 * np.pi / (1.0 + r))


@timed
def dehn_twist_pullback_check(twist: DehnTwist, n: int, samples_qp,
                              seed=0) -> CheckReport:
    """Pullback identity Phi^* lambda_can = lambda_can - |p| d(rho) with
    lambda_can = -sum p_j dq_j, evaluated on tangent vectors of the
    bundle; certifies that the twist is an exact symplectomorphism."""
    bundle = disk_cotangent_bundle(n)
    lam = canonical_one_form(n)

    def eval_map(x):
        # the twist formula extends smoothly off the constraint set, which
        # the finite-difference Jacobian needs
        q_out, p_out = twist(x[..., :n], x[..., n:], validate=False)
        return np.concatenate([q_out, p_out], axis=-1)

    phi = SmoothMap(2 * n, 2 * n, eval_map)
    pts = np.asarray(samples_qp, float)
    bases = tangent_bases(bundle, pts)
    lhs = pullback(phi, lam).restrict(pts, bases)

    r = np.linalg.norm(pts[..., n:], axis=-1)

    def rho_of_point(x):
        return twist.angle(np.linalg.norm(x[..., n:], axis=-1))

    drho = central_difference(rho_of_point, pts, FD_STEP)
    lam_vals = lam.restrict(pts, bases)
    drho_t = np.einsum("nm,njm->nj", drho, bases)
    rhs = lam_vals - r[:, None] * drho_t
    return make_report(
        "dehn_twist_pullback", n_samples=len(pts),
        max_residual=np.abs(lhs - rhs), tolerance=1e-7, seed=seed,
        note="Phi^* lambda_can = lambda_can - |p| d(rho)")


# ---------------------------------------------------------------------------
# page embedding for the quadric book and the monodromy comparison


def page_embedding(n: int):
    """Embedding of the disk cotangent bundle of S^(n-1) onto the closure
    of the zero page {theta = 0} of the quadric book:

        (q, p) -> (q + i p) / sqrt(1 + |p|^2).
    """
    def embed(q, p):
        return (q + 1j * p) / np.sqrt(1.0 + np.sum(p * p, axis=-1))[..., None]

    return embed


def page_embedding_inverse(n: int):
    """Inverse of :func:`page_embedding` on the open page."""
    def invert(z):
        w = np.asarray(z, complex)
        g0 = np.abs(np.sum(w * w, axis=-1))
        p_norm_sq = (1.0 - g0) / (1.0 + g0)
        gamma = 1.0 / np.sqrt(1.0 + p_norm_sq)
        return np.real(w) / gamma[..., None], np.imag(w) / gamma[..., None]

    return invert


@timed
def monodromy_vs_dehn_twist(rep: Representation, samples_qp, step=1e-3,
                            seed=0) -> CheckReport:
    """Conjugate the time-1 spinning flow by the zero-page embedding and
    compare it with the positive Dehn twist for g(r) = 2 pi/(1 + r).

    The sign is fixed by the paper, not chosen here: a flow that realizes
    the negated twist fails.  The zero section is kept as a residual of its
    own, since both sides must send (q, 0) to (-q, 0).
    """
    n = rep.manifold.ambient_dim // 2
    qp = np.asarray(samples_qp, float)
    q, p = qp[..., :n], qp[..., n:]
    if np.any(np.linalg.norm(p, axis=-1) > 1.0 - COMPARE_BINDING_BAND):
        raise DomainError("fiber radius too close to 1; the flow would "
                          "approach the binding")
    embed = page_embedding(n)
    invert = page_embedding_inverse(n)
    twist = standard_twist()
    y = quadric_spinning_field(rep)

    # the zero-section anchor (q, 0) flows as row 0 of the sample batch
    anchor_q = np.zeros(n)
    anchor_q[0] = 1.0
    z_anchor = complex_to_real(embed(anchor_q[None], np.zeros((1, n))))
    z0 = complex_to_real(embed(q, p))
    z_end = flow(y, np.concatenate([z_anchor, z0]), 1.0, step)
    z1 = z_end[1:]

    qa, pa = invert(real_to_complex(z_end[:1]))
    tq, tp = twist(anchor_q[None], np.zeros((1, n)))
    anchor_gap = np.max(np.abs(np.concatenate([qa - tq, pa - tp], axis=-1)))

    q_flow, p_flow = invert(real_to_complex(z1))
    q_tw, p_tw = twist(q, p)
    gap = np.max(np.abs(np.concatenate([q_flow - q_tw, p_flow - p_tw],
                                       axis=-1)), axis=-1)

    details = [make_report(
        "zero_section_anchor", n_samples=1, max_residual=anchor_gap,
        tolerance=TWIST_TOL, seed=seed,
        note="(q, 0) -> (-q, 0) on both sides")]
    details.append(make_report(
        "page_monodromy_vs_twist", n_samples=len(qp),
        max_residual=gap, tolerance=TWIST_TOL, seed=seed,
        note="embedded time-1 flow equals the Dehn twist with "
             "g(r) = 2 pi/(1+r)",
        rows=[{"sample": int(i),
               "fiber_radius": float(np.linalg.norm(p[i])),
               "endpoint_gap": float(gap[i])} for i in range(len(qp))]))

    # inverse flow: -Y for time 1, i.e. Y for time -1, undoes the monodromy
    z_back = flow(y, z1, -1.0, step)
    details.append(make_report(
        "inverse_flow", n_samples=len(qp), max_residual=np.abs(z_back - z0),
        tolerance=TWIST_TOL, seed=seed,
        note="flowing -Y for time 1 inverts the monodromy"))

    return merge_reports(f"monodromy_vs_twist[{rep.name}]", details,
                         seed=seed,
                         note="time-1 spinning flow conjugated to the page "
                              "is the standard twist")
