"""Spinning vector fields, monodromy flows, the closed-form flow of the
quadric open book, and the comparison with a Dehn twist.

The spinning field of a representation (alpha, f) is the unique Y with

    d(theta)(Y) = 2 pi      and      iota_Y d(alpha/|f|) |_page = 0 .

Both are written in regularized form, with polynomial coefficients
whenever f has them:

    (f_x df_y - f_y df_x)(Y) = 2 pi rho^2
    iota_Y [rho^2 d(alpha) - (f_x df_x + f_y df_y) ^ alpha] = 0 on T_p V

The bracket is rho^3 d(alpha/rho), :func:`page_two_form`; Y is read off
its n-th power, :func:`spinning_kernel_form`, with no linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contact import (Representation, openbook_volume_form, verify_contact,
                      verify_representation)
from .errors import (BindingPoint, DegenerateSystem, DimensionMismatch,
                     DomainError, FlowAborted, NonConvergence)
from .forms import (DEFAULT_FD_STEP, KForm, VecField, _column_sum,
                    _contract, central_difference, ext_deriv_on_frame,
                    interior, pluecker, scale_form, wedge, wedge_all,
                    wedge_power)
from .liouville import (HypersurfaceData, angle_spinning_field,
                        canonical_one_form)
from .manifolds import (FD_STEP, _sum, boxed, complement_frames,
                        disk_cotangent_bundle, frame_product,
                        gauss_newton_step, project_to_constraints,
                        singular_values, tangent_bases)
from .report import CheckReport, make_report, merge_reports, timed

FLOW_BINDING_BAND = 1e-6
# step of every RK4 flow the checks run, and the starts each flow check takes
FLOW_STEP = 1e-3
FLOW_STARTS = 100
COMPARE_BINDING_BAND = 1e-3
# bound on every residual of the monodromy-vs-twist comparison
TWIST_TOL = 1e-5
# slack of |q| = 1, q . p = 0 and |p| <= 1 when a twist checks its input
TWIST_DOMAIN_TOL = 1e-10
# constant operands of the field evaluations and the RK4 sum
_PI_I, _TWO_PI_I, _TWO = boxed(np.pi * 1j), boxed(2j * np.pi), boxed(2.0)


@dataclass(frozen=True)
class SpinningField:
    """Vector field whose time-1 flow realizes the monodromy, given by its
    formula on complex coordinates.

    ``eval(z, out) -> f`` reads z, a complex (N, m/2) array whose entries
    are the interleaved pairs (x_j, y_j) of the points, writes Y, as
    complex velocities, into the complex (N, m/2) array ``out``, and returns
    the book's f (N,), which `flow` reads for its binding-band test.  It
    writes every entry of ``out``, never reads what ``out`` held, and never
    writes ``z``; ``out`` does not overlap ``z``.  `flow` runs it on complex
    views of its workspace rows.  Calling the field on real points p, (N, m)
    or (m,), returns Y(p) as a real array of the same shape.
    """

    rep: Representation
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, p):
        # interleaved (x_j, y_j) pairs are the complex z_j: a zero-copy view
        z = np.ascontiguousarray(p, dtype=np.float64).view(np.complex128)
        out = np.empty_like(z)
        self.eval(z, out)
        return out.view(np.float64)


def page_two_form(rep: Representation) -> KForm:
    """rho^3 d(alpha/rho) = rho^2 d(alpha) - rho drho ^ alpha, with
    rho^2 = f_x^2 + f_y^2 and rho drho = f_x df_x + f_y df_y: smooth
    across the binding.  On T_p V its kernel is the spinning direction."""
    f = rep.f
    rho_drho = KForm(1, rep.manifold.ambient_dim,
                     lambda p: f.regularized(p).rho_drho)
    return (scale_form(lambda p: f.regularized(p).rho2, rep.contact.d_alpha())
            - wedge(rho_drho, rep.contact.alpha))


def spinning_kernel_form(rep: Representation) -> KForm:
    """K = 2 pi [rho^2 (d alpha)^n - n rho drho ^ alpha ^ (d alpha)^(n-1)],
    the power 2 pi (rho^3 d lambda)^n / rho^(2n-2) expanded exactly, as
    (rho drho ^ alpha)^2 = 0: no product of two such terms, which cancels
    only in exact arithmetic, is formed.  iota_Y Omega_V = K for the
    spinning field Y."""
    n = rep.n
    f = rep.f
    dalpha = rep.contact.d_alpha()
    drho2 = KForm(1, rep.manifold.ambient_dim,
                  lambda p: 2 * f.regularized(p).rho_drho)
    rho2_fn = lambda p: np.abs(f.value(p)) ** 2
    return (2 * np.pi) * scale_form(rho2_fn, wedge_power(dalpha, n)) \
        - (np.pi * n) * wedge_all(drho2, rep.contact.alpha,
                                  wedge_power(dalpha, n - 1))


def spinning_field(rep: Representation, p):
    """Spinning vector at one point (m,) or a batch (N, m).

    On the oriented frame e of T_p V (d = 2n + 1), k_i = (-1)^i K(e
    without e_i) for K = :func:`spinning_kernel_form`, from one
    :func:`pluecker` of the d sub-frames.  As K = iota_Y Omega_V, k is
    Omega_V(e) Y in frame coordinates, so Y = 2 pi rho^2 k / mu(k),
    mu = rho^2 d(theta).  Past the frame no BLAS or LAPACK call is taken.

    |f| below FLOW_BINDING_BAND raises BindingPoint.  DegenerateSystem,
    carrying the singular values of [mu; P] (P = :func:`page_two_form` on
    the frame) at the point, NaN where a value is not finite, is raised
    on a value that is not finite, on |mu(k)| <= 1e-6 |mu| |k|, and on a
    residual of [mu; P] Y = (2 pi rho^2, 0) above 1e-8 of
    |[mu; P]| |Y| + 2 pi rho^2.
    """
    pts = np.asarray(p, float)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    reg = rep.f.regularized(pts)
    if np.any(reg.rho2 < FLOW_BINDING_BAND ** 2):
        raise BindingPoint("spinning field requested inside the binding band")
    bases = tangent_bases(rep.manifold, pts)
    d = bases.shape[1]
    drop = [[j for j in range(d) if j != i] for i in range(d)]
    k = spinning_kernel_form(rep).on_pluecker(
        pts[:, None, :], pluecker(bases[:, drop, :])) * (-1.0) ** np.arange(d)
    mu_t = np.einsum("nm,njm->nj", reg.mu, bases)
    mat = np.concatenate([mu_t[:, None, :],
                          page_two_form(rep).restrict(pts, bases)], axis=1)
    finite = np.isfinite(k).all(axis=-1) & np.isfinite(mat).all(axis=(-2, -1))

    def degenerate(message, worst):
        svals = (singular_values(mat[worst].T) if finite[worst]
                 else np.full(d, np.nan))
        return DegenerateSystem(f"spinning-field {message} at sample {worst}",
                                singular_values=svals)

    if not np.all(finite):
        raise degenerate("system is not finite", int(np.argmin(finite)))
    mu_k = np.einsum("nd,nd->n", mu_t, k)
    pinned = np.abs(mu_k) > 1e-6 * np.sqrt(_sum(mu_t * mu_t)) \
        * np.sqrt(_sum(k * k))
    if not np.all(pinned):
        raise degenerate("kernel is not pinned by mu", int(np.argmin(pinned)))
    rhs = 2 * np.pi * reg.rho2
    y_t = (rhs / mu_k)[:, None] * k
    gap = np.einsum("nij,nj->ni", mat, y_t)
    gap[:, 0] -= rhs
    rel = np.sqrt(_sum(gap * gap)) / (
        np.linalg.norm(mat, axis=(-2, -1)) * np.sqrt(_sum(y_t * y_t))
        + rhs)
    if not np.all(rel <= 1e-8):
        worst = int(np.argmax(rel))
        raise degenerate(f"residual {rel[worst]:.3e}", worst)
    vec = np.einsum("nj,njm->nm", y_t, bases)
    return vec[0] if single else vec


@timed
def spinning_solve_check(rep: Representation, samples, seed=0
                         ) -> CheckReport:
    """The quadric book's spinning field from the page form's kernel
    (:func:`spinning_field`) equals :func:`quadric_spinning_field` at the
    first 200 samples off |f| <= 1e-3."""
    pts = np.asarray(samples, float)
    pts = pts[rep.f.modulus(pts) > 1e-3][:200]
    solved = spinning_field(rep, pts)
    analytic = quadric_spinning_field(rep)(pts)
    return make_report(
        "spinning_solve", n_samples=len(pts),
        max_residual=np.abs(solved - analytic), tolerance=1e-7, seed=seed,
        note="page-form kernel spinning field matches the closed form")


# -- analytic spinning fields for the stock open books ----------------------


def coordinate_spinning_field(rep: Representation) -> SpinningField:
    """Y = 2 pi (x_1 d/dy_1 - y_1 d/dx_1) for the z_1 open book: a
    spinning field by definition (it rotates the z_1 plane, preserving the
    rescaled binding form outright) whose time-1 flow is the identity, so
    the monodromy is trivial.

    Note this is not the kernel-normalized field of :func:`spinning_field`:
    it satisfies iota_Y d(lambda) = -pi d|f| rather than 0, which still
    preserves d(lambda) because the correction is exact.  The closed form
    of the kernel field for this book is ``coordinate_kernel_field`` in
    ``tests/test_monodromy.py``.
    """
    return plane_rotation_field(rep, 0)


def plane_rotation_field(rep: Representation, k: int) -> SpinningField:
    """The analytic field 2 pi (x_k d/dy_k - y_k d/dx_k), which turns the
    complex coordinate z_k once per unit time: its complex velocity is
    2 pi i z_k in coordinate k and 0 in every other.  It returns z_k as f,
    so it serves only books whose f is z_k."""
    def eval(z, out):
        out[...] = 0
        np.multiply(_TWO_PI_I, z[..., k], out[..., k])
        return z[..., k]

    return SpinningField(rep, eval)


def quadric_spinning_field(rep: Representation) -> SpinningField:
    """The quadric book's spinning field: with f = sum z_j^2,

        Y = pi i f zbar      (as complex velocity)

    equivalently pi Re(f) (y d/dx + x d/dy) + pi Im(f) (y d/dy - x d/dx).
    """
    def eval(z, out):
        fval = _column_sum(z * z)
        np.multiply(_PI_I * fval[..., None], np.conj(z, out), out)
        return fval

    return SpinningField(rep, eval)


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
    field = VecField(rep.manifold.ambient_dim, y)
    lhs_form = interior(field, omega)
    rhs_form = spinning_kernel_form(rep)
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
    """The 1-form iota_Y d(alpha/|f|) = iota_Y (:func:`page_two_form`) /
    rho^3, assembled without differentiating the quotient.  Vanishes
    identically for the kernel-normalized spinning field; exact for any
    spinning field.
    """
    f = rep.f
    m = rep.manifold.ambient_dim
    contracted = interior(VecField(m, y), page_two_form(rep))

    def coeffs(p):
        rho3 = np.maximum(f.regularized(p).rho2, 1e-300) ** 1.5
        return contracted.coeffs(p) / rho3[..., None]

    return KForm(1, m, coeffs)


@timed
def spinning_definition_check(rep: Representation, y: SpinningField, samples,
                              seed=0) -> CheckReport:
    """Definition-level certificate valid for any spinning field (not just
    the kernel-normalized one):

      - d(theta)(Y) = 2 pi off the binding (via the regularized pairing
        rho^2 d(theta)(Y) = 2 pi rho^2);
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

    # page-structure preservation: d(iota_Y d(lambda)) on page pairs, with
    # iota_Y d(lambda) assembled from the regularized contraction
    far = pts[f.modulus(pts) >= 0.1]
    bases = tangent_bases(rep.manifold, far)
    mu_t = np.einsum("nm,njm->nj", f.regularized(far).mu, bases)
    page = frame_product(complement_frames(mu_t)[0], bases)
    lie_on_pages = ext_deriv_on_frame(
        kernel_defect_form(rep, y), far, page,
        step_scale=lambda p: np.maximum(f.modulus(p), 1e-12))
    details.append(make_report(
        "page_structure_preserved", n_samples=len(far),
        max_residual=np.max(np.abs(lie_on_pages), initial=0.0),
        tolerance=1e-5, seed=seed,
        note="Lie derivative of the page symplectic structure vanishes: "
             "d(iota_Y d(lambda)) = 0 on page pairs"))

    return merge_reports(f"spinning_definition[{rep.name}]", details,
                         seed=seed, note="definition-level spinning checks")


# ---------------------------------------------------------------------------
# flows


def flow(y: SpinningField, p0, t_end: float, step: float = FLOW_STEP,
         check_halving: bool = False, halving_tol: float = 1e-5):
    """Classical RK4 flow of a spinning field, projected back to the
    manifold after every step by one Gauss-Newton step: the manifold's
    own closed form `Submanifold.newton_step` when it has one (the unit
    spheres, and the Weinstein-disk hypersurface, which is the unit S^3
    and takes the round-sphere step), else the generic
    `manifolds.gauss_newton_step`, which gives the same bits through the
    constraint Jacobian.  The step is picked once per call.

    One step dispatches four evaluations of the field
    (`SpinningField.eval`), the binding-band test (two numpy calls),
    thirteen ufunc calls for the stage arguments and the RK4 combination,
    and one projection.  The arrays on which these run hold at most a few
    hundred numbers, so a step costs what numpy spends per call, and the
    loop keeps that low: it binds its ufuncs to local names, passes every
    ``out`` positionally, and takes h/2, h, 2 and h/6 as 0-d float64
    arrays made once per run, since numpy boxes a Python float into an
    array again on every call (the fields and the Newton steps take
    their constants as read-only module-level 0-d arrays for the same
    reason).  Each run allocates one workspace, a (7, N, m) array whose
    rows are the state, the stage argument, the RK4 sum and k1-k4, and
    makes complex views of them once; the field evaluates from and into
    those views, and the stage arguments, the RK4 combination and the
    projection write into the rows.  The f that the first stage returns
    is the binding-band test: its modulus goes into an (N,) buffer of the
    run, and the flow aborts if the least |f| of the batch drops below
    FLOW_BINDING_BAND, read when the flow is called.  The least |f| is
    ``np.fmin.reduce`` with no ``initial``, which only an empty batch
    would need, and an empty batch returns before the loop; fmin skips a
    NaN |f|, so the test reads the least finite |f|.  The RK4 combination
    takes the operations of the textbook
    ``pts + sixth * (k1 + 2 k2 + 2 k3 + k4)`` in their written order: any
    regrouping rounds differently, and the tests pin these bits against a
    reference loop with Python-float operands.  A final residual above
    1e-10 triggers a full `project_to_constraints`.

    Accepts a single point (m,) or a batch (N, m) of real points, m the
    manifold's ambient dimension, in any memory layout, and leaves it
    unchanged.  Time may be negative; ``step`` must be positive and
    ``t_end`` a whole number of steps (0 is the identity).
    ``check_halving`` re-runs with half the step and raises NonConvergence
    if the endpoints differ by more than halving_tol.  No suite flow sets
    it, since each has an exact oracle (the identity, the closed form or
    the twist).  It stays as tested API: the benchmark tracer
    (`benchmarks/tracer.py`) reads ``check_halving`` by name to count the
    point steps, and two tests of `tests/test_monodromy.py` set both
    arguments.  A start of another shape raises DimensionMismatch.  A
    complex start point, a start point that is not finite, a step that is
    not a positive finite number, a time that is not finite or a time
    that is not a whole number of steps raises DomainError.  The start is
    validated once per call, before any step.
    """
    manifold = y.rep.manifold
    start = np.asarray(p0)
    if np.iscomplexobj(start):
        raise DomainError("flow start point is complex", point=start)
    start = np.asarray(start, float)
    m = manifold.ambient_dim
    if start.ndim not in (1, 2) or start.shape[-1] != m:
        raise DimensionMismatch(
            f"flow start has shape {start.shape}, but {manifold.name!r} "
            f"needs a point ({m},) or a batch (N, {m})")
    if not np.isfinite(start).all():
        raise DomainError("flow start point is not finite", point=start)
    if not (0.0 < step < np.inf and np.isfinite(t_end)):
        raise DomainError(f"flow needs a positive finite step and a finite "
                          f"time, got step {step!r} and time {t_end!r}")
    ratio = abs(t_end) / step
    if abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise DomainError(f"flow time {t_end!r} is not a whole number of "
                          f"steps {step!r}")
    single = start.ndim == 1
    batch = start[None, :] if single else start
    if len(batch) == 0:
        return batch.copy()

    constraints = manifold.constraints
    project = manifold.newton_step
    if project is None and constraints is not None:
        def project(p, out):
            return gauss_newton_step(manifold, p, constraints(p), out=out)
    eval, band, two = y.eval, FLOW_BINDING_BAND, _TWO
    add, multiply = np.add, np.multiply
    fmin, absolute = np.fmin.reduce, np.abs

    def run(step_size):
        n_steps = int(round(abs(t_end) / step_size))
        h = np.sign(t_end) * step_size
        half, full, sixth = np.array(0.5 * h), np.array(h), np.array(h / 6.0)
        work = np.empty((7,) + batch.shape)
        pts, arg, acc, k1, k2, k3, k4 = work
        zpts, zarg, _, zk1, zk2, zk3, zk4 = work.view(np.complex128)
        modulus = np.empty(len(batch))
        pts[...] = batch
        for i in range(n_steps):
            if fmin(absolute(eval(zpts, zk1), modulus)) < band:
                raise FlowAborted(
                    f"trajectory entered the binding band at step {i}")
            add(pts, multiply(half, k1, arg), arg)
            eval(zarg, zk2)
            add(pts, multiply(half, k2, arg), arg)
            eval(zarg, zk3)
            add(pts, multiply(full, k3, arg), arg)
            eval(zarg, zk4)
            # pts + sixth * (k1 + 2 * k2 + 2 * k3 + k4), one operation at
            # a time in that order: a regrouped sum changes the endpoint bits
            add(k1, multiply(two, k2, acc), acc)
            add(acc, multiply(two, k3, arg), acc)
            add(acc, k4, acc)
            add(pts, multiply(sixth, acc, acc), pts)
            if project is not None:
                project(pts, pts)
        if np.any(manifold.residual(pts) > 1e-10):
            end = project_to_constraints(manifold, pts)
        else:
            end = pts.copy()
        return end[0] if single else end

    end = run(step)
    if check_halving:
        end_half = run(step / 2)
        gap = np.max(np.abs(end - end_half))
        if gap > halving_tol:
            raise NonConvergence(
                f"step halving changed the endpoint by {gap:.3e}")
    return end


@timed
def trivial_monodromy_check(rep: Representation, samples, seed=0
                            ) -> CheckReport:
    """The z_1 book's monodromy is trivial: the time-1 flow of its spinning
    field returns the first FLOW_STARTS samples off |f| <= 1e-2."""
    pts = np.asarray(samples, float)
    pts = pts[rep.f.modulus(pts) > 1e-2][:FLOW_STARTS]
    end = flow(coordinate_spinning_field(rep), pts, 1.0, FLOW_STEP)
    return make_report(
        "trivial_monodromy", n_samples=len(pts),
        max_residual=np.abs(end - pts), tolerance=1e-7, seed=seed,
        note="time-1 flow of the spinning field returns every start")


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
    fval = _sum(z0 * z0)
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


@timed
def closed_form_flow_check(rep: Representation, samples, seed=0
                           ) -> CheckReport:
    """RK4 and :func:`closed_form_quadric_flow` end at the same points, from
    the first FLOW_STARTS samples with 0.05 < |f| < 0.95."""
    pts = np.asarray(samples, float)
    g0 = rep.f.modulus(pts)
    pts = pts[(g0 > 0.05) & (g0 < 0.95)][:FLOW_STARTS]
    end_rk = flow(quadric_spinning_field(rep), pts, 1.0, FLOW_STEP)
    end_cf, _ = closed_form_quadric_flow(real_to_complex(pts), 1.0)
    drift = np.abs(np.abs(_sum(end_cf * end_cf))
                   - rep.f.modulus(pts))
    return make_report(
        "closed_form_flow", n_samples=len(pts),
        max_residual=np.abs(real_to_complex(end_rk) - end_cf),
        tolerance=1e-6, seed=seed,
        note=f"RK4 matches the closed-form trajectory; |f| drift "
             f"{np.max(drift):.2e}")


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
        r = np.sqrt(_sum(p * p))
        if validate and (
                np.any(np.abs(np.sqrt(_sum(q * q)) - 1.0)
                       > TWIST_DOMAIN_TOL)
                or np.any(np.abs(_sum(q * p)) > TWIST_DOMAIN_TOL)
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
    bundle; certifies that the twist is an exact symplectomorphism.  D Phi
    and d rho are read only on the bundle's tangent frame, so each is one
    central difference along that frame."""
    bundle = disk_cotangent_bundle(n)
    lam = canonical_one_form(n)

    def eval_map(x):
        # the twist formula extends smoothly off the constraint set, which
        # the stencil steps onto
        q_out, p_out = twist(x[..., :n], x[..., n:], validate=False)
        return np.concatenate([q_out, p_out], axis=-1)

    pts = np.asarray(samples_qp, float)
    bases = tangent_bases(bundle, pts)
    # D Phi and d rho along the frame: column j is the derivative along e_j
    dphi = central_difference(eval_map, pts, DEFAULT_FD_STEP, frame=bases)
    lhs = _contract(lam.coeffs(eval_map(pts))[:, None, :],
                    np.swapaxes(dphi, -1, -2))

    r = np.sqrt(_sum(pts[..., n:] * pts[..., n:]))

    def rho_of_point(x):
        return twist.angle(np.sqrt(_sum(x[..., n:] * x[..., n:])))

    drho_t = central_difference(rho_of_point, pts, FD_STEP, frame=bases)
    rhs = lam.restrict(pts, bases) - r[:, None] * drho_t
    return make_report(
        "dehn_twist_pullback", n_samples=len(pts),
        max_residual=np.abs(lhs - rhs), tolerance=1e-7, seed=seed,
        note="Phi^* lambda_can = lambda_can - |p| d(rho)")


@timed
def dehn_twist_identities_check(q, g, radii, seed=0) -> CheckReport:
    """:func:`standard_twist` at unit q, unit covectors g at q and p =
    radii g: it preserves |p|, fixes (q, g) on the boundary and passes
    :func:`dehn_twist_pullback_check` at (q, p)."""
    q, g = np.asarray(q, float), np.asarray(g, float)
    p = radii * g
    twist = standard_twist()
    _, p2 = twist(q, p)
    norm_gap = np.abs(np.sqrt(_sum(p2 * p2)) - np.sqrt(_sum(p * p)))
    qb, pb = twist(q, g)
    boundary_gap = np.abs(np.concatenate([qb - q, pb - g], axis=-1))
    pull = dehn_twist_pullback_check(
        twist, q.shape[-1], np.concatenate([q, p], axis=-1), seed=seed)
    return make_report(
        "dehn_twist_identities", n_samples=3 * len(q),
        max_residual=[norm_gap, boundary_gap, pull.max_residual],
        tolerance=1e-7, seed=seed,
        note=f"|p| preserved ({np.max(norm_gap):.1e}), boundary fixed "
             f"({np.max(boundary_gap):.1e}), pullback identity "
             f"({pull.max_residual:.1e})")


# ---------------------------------------------------------------------------
# page embedding for the quadric book and the monodromy comparison


def page_embedding(q, p):
    """Embedding of the disk cotangent bundle of S^(n-1) onto the closure
    of the zero page {theta = 0} of the quadric book:

        (q, p) -> (q + i p) / sqrt(1 + |p|^2).
    """
    return (q + 1j * p) / np.sqrt(1.0 + _sum(p * p))[..., None]


def page_embedding_inverse(z):
    """Inverse (q, p) of :func:`page_embedding` on the open page."""
    w = np.asarray(z, complex)
    g0 = np.abs(_sum(w * w))
    p_norm_sq = (1.0 - g0) / (1.0 + g0)
    gamma = 1.0 / np.sqrt(1.0 + p_norm_sq)
    return np.real(w) / gamma[..., None], np.imag(w) / gamma[..., None]


@timed
def monodromy_vs_dehn_twist(rep: Representation, samples_qp, seed=0
                            ) -> CheckReport:
    """Conjugate the time-1 spinning flow by the zero-page embedding E and
    compare it with the positive Dehn twist Phi for g(r) = 2 pi/(1 + r).
    For n >= 3 (the books of S^5 and up) Phi is the Dehn-Seidel twist of
    the disk cotangent bundle of S^(n-1), which is not isotopic to the
    identity among symplectomorphisms.

    The sign is fixed by the paper, not chosen here: a flow that realizes
    the negated twist fails.  The zero section is kept as a residual of its
    own, since both sides must send (q, 0) to (-q, 0).  The third residual
    is the time -1 flow of the twist images, which must give back the
    samples: flow_{-1}(E(Phi(q, p))) = E(q, p).

    Both directions run in one time-1 `flow` call, over the batch of the
    anchor, the samples z0 = E(q, p) and the conjugates c E(Phi(q, p)),
    where c is complex conjugation.  f = sum z_j^2 has real coefficients,
    so f(c z) = conj f(z) and the spinning field is reversed by c:
    Y(c z) = -c Y(z).  The flow of a field reversed by a linear involution
    satisfies c phi_t c = phi_{-t}, and the discrete flow keeps this bit
    for bit: c is linear and only flips signs, so every stage argument and
    update of a step h from c z is c times that of a step -h from z, the
    band test reads the same |f|, and the sphere's Newton step commutes
    with c (|c p|^2 = |p|^2).  Conjugating the last rows back therefore
    gives exactly ``flow(y, E(Phi(q, p)), -1.0)``.
    """
    n = rep.manifold.ambient_dim // 2
    qp = np.asarray(samples_qp, float)
    q, p = qp[..., :n], qp[..., n:]
    if np.any(np.sqrt(_sum(p * p)) > 1.0 - COMPARE_BINDING_BAND):
        raise DomainError("fiber radius too close to 1; the flow would "
                          "approach the binding")
    twist = standard_twist()
    y = quadric_spinning_field(rep)
    # complex conjugation on the real coordinates (x_j, y_j) -> (x_j, -y_j)
    conj = np.tile([1.0, -1.0], n)

    # one time-1 batch: the zero-section anchor (q, 0), the samples, and
    # the conjugated twist images, whose flow is the time -1 flow
    anchor_q = np.zeros(n)
    anchor_q[0] = 1.0
    z_anchor = complex_to_real(page_embedding(anchor_q[None],
                                               np.zeros((1, n))))
    z0 = complex_to_real(page_embedding(q, p))
    q_tw, p_tw = twist(q, p)
    z_twisted = complex_to_real(page_embedding(q_tw, p_tw))
    z_end = flow(y, np.concatenate([z_anchor, z0, conj * z_twisted]), 1.0,
                 FLOW_STEP)
    z1 = z_end[1:1 + len(qp)]
    z_back = conj * z_end[1 + len(qp):]

    qa, pa = page_embedding_inverse(real_to_complex(z_end[:1]))
    tq, tp = twist(anchor_q[None], np.zeros((1, n)))
    anchor_gap = np.max(np.abs(np.concatenate([qa - tq, pa - tp], axis=-1)))

    q_flow, p_flow = page_embedding_inverse(real_to_complex(z1))
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
    details.append(make_report(
        "inverse_flow", n_samples=len(qp), max_residual=np.abs(z_back - z0),
        tolerance=TWIST_TOL, seed=seed,
        note="the time -1 flow undoes the twist: "
             "flow_{-1}(E(Phi(q, p))) = E(q, p)"))

    return merge_reports(f"monodromy_vs_twist[{rep.name}]", details,
                         seed=seed,
                         note="time-1 spinning flow conjugated to the page "
                              "is the standard twist")


@timed
def hypersurface_check(hs: HypersurfaceData, samples, binding_samples,
                       seed=0) -> CheckReport:
    """The book of :func:`liouville.hypersurface_build` is contact, is
    represented (first 500 samples), and its angle field is a spinning
    field whose time-1 flow is the identity (samples off |f| <= 1e-2)."""
    pts = np.asarray(samples, float)
    rep = hs.rep
    rep_report = verify_representation(rep, pts[:500], binding_samples,
                                       seed=seed)
    contact_report = verify_contact(rep.contact, pts, seed=seed)
    off = pts[rep.f.modulus(pts) > 1e-2][:200]
    y = angle_spinning_field(rep)
    spin = spinning_definition_check(rep, y, off, seed=seed)
    end = flow(y, off[:50], 1.0, FLOW_STEP)
    identity = make_report(
        "identity_monodromy", n_samples=len(end),
        max_residual=np.abs(end - off[:50]), tolerance=1e-7, seed=seed,
        note="time-1 flow of 2 pi d/d(theta) is the identity")
    return merge_reports(
        "hypersurface", [contact_report, rep_report, spin, identity],
        seed=seed,
        note=f"hypersurface in F x C; transversality margin "
             f"{hs.transversality_margin:.3f}")
