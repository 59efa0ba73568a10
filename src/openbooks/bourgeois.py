"""The torus construction: contact forms alpha_V + f_x dphi1 - f_y dphi2
on V x T^2, their contact characterization, the inverse-monodromy forms and
isotopy, and the weak-filling polynomial.

Throughout, V has dim 2n+1 and the product V x T^2 is embedded in
R^(m+2) with the two angle coordinates appended last; top-degree checks on
the product use alpha ^ (d alpha)^(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contact import (ContactForm, DefiningFunction, Representation,
                      openbook_volume_form, page_frames,
                      representation_conditions)
from .errors import DegenerateSystem
from .forms import (KForm, SmoothMap, bind_line, contact_volume,
                    coordinate_differential, ext_deriv, on_batch,
                    place_form, pullback, wedge, wedge_all, wedge_power)
from .manifolds import (Submanifold, product_with_torus, sample,
                        tangent_bases, tangent_pluecker)
from .report import (CheckReport, SweepRow, make_report, merge_reports,
                     timed)

# the eps values of the scaling identity in verify_product_contact
EPS_VALUES = (0.1, 0.5, 1.0)
# the constants C that find_inverse_constant tries, in order
C_GRID = tuple(2.0 ** k for k in range(11))
# reversed-orientation margin that alpha - C mu must beat at C and 2C
INVERSE_MARGIN_TOL = 1e-3
# the tau values isotopy_check runs
TAU_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
# the eps and T values of filling_polynomial's sweep; Python floats (0.25 k
# is exact), so that each report row's float(T) is the grid's own object,
# not a new one per row
FILLING_EPS_GRID = (0.0, 0.01, 0.05, 0.1, 1.0)
FILLING_T_GRID = tuple(sorted(set(
    [0.0] + [10.0 ** k for k in range(-2, 3)]
    + [0.25 * k for k in range(41)])))
# the radial profile is the identity below R0 and constant above R1
R0, R1 = 0.2, 0.4
# |f| below which a sample of verify_inverse_form counts as a binding point,
# which has no page frame; the value of monodromy.FLOW_BINDING_BAND
PAGE_BINDING_BAND = 1e-6


@dataclass(frozen=True)
class BourgeoisForm:
    """Form alpha_V + f_x dphi1 - f_y dphi2 on V x T^2."""

    rep: Representation
    manifold: Submanifold          # the product V x T^2
    alpha: KForm                   # on R^(m+2)
    beta: KForm                    # f_x dphi1 - f_y dphi2 on R^(m+2)

    @property
    def n(self) -> int:
        return self.rep.n


def _beta_form(rep: Representation) -> KForm:
    """beta = f_x dphi1 - f_y dphi2, with d beta = df_x ^ dphi1 - df_y ^
    dphi2."""
    m = rep.manifold.ambient_dim
    f = rep.f

    def d():
        dphi1 = coordinate_differential(m + 2, m)
        dphi2 = coordinate_differential(m + 2, m + 1)
        return (wedge(place_form(f.dfx_form(), m + 2, 0), dphi1)
                - wedge(place_form(f.dfy_form(), m + 2, 0), dphi2))

    def coeffs(p):
        fx, fy = f.parts(p[..., :m])
        out = np.zeros(np.shape(p)[:-1] + (m + 2,))
        out[..., m] = fx
        out[..., m + 1] = -fy
        return out

    return KForm(1, m + 2, coeffs, d)


def bourgeois_form(rep: Representation) -> BourgeoisForm:
    """Assemble the product contact form from a representation."""
    beta = _beta_form(rep)
    alpha = place_form(rep.contact.alpha, beta.ambient_dim, 0) + beta
    product = product_with_torus(rep.manifold)
    return BourgeoisForm(rep=rep, manifold=product, alpha=alpha, beta=beta)


def _line_volume(line, t, n, pts, coords):
    """alpha_t ^ (d alpha_t)^n on the frames with Pluecker coordinates
    coords, for the member alpha_t of a :func:`bind_line` family."""
    alpha, d_alpha = line(t)
    return contact_volume(alpha, n, d_alpha).on_pluecker(pts, coords)


def _cartesian_expansion(rep: Representation) -> KForm:
    """First line of the product volume expansion:

    (n+1) [ n df_x^df_y^alpha_V^(d alpha_V)^(n-1)
            + (f_x df_y - f_y df_x)^(d alpha_V)^n ] ^ dphi1 ^ dphi2.

    The bracket is exactly the open-book volume form of the slice.
    """
    n = rep.n
    m = rep.manifold.ambient_dim
    bracket = place_form(openbook_volume_form(rep), m + 2, 0)
    dphi1 = coordinate_differential(m + 2, m)
    dphi2 = coordinate_differential(m + 2, m + 1)
    return float(n + 1) * wedge_all(bracket, dphi1, dphi2)


@timed
def verify_product_contact(bf: BourgeoisForm, samples, seed=0
                           ) -> CheckReport:
    """Contact condition on V x T^2, evaluated along two independent
    routes that must agree:

      - direct exterior algebra: alpha ^ (d alpha)^(n+1);
      - the expanded product formula (see :func:`_cartesian_expansion`).

    Additionally certifies the structural conditions (beta kills vectors
    tangent to the V-fibers; its coefficients are torus-independent) and
    the eps-scaling identity alpha_eps ^ (d alpha_eps)^(n+1)
    = eps^2 * alpha ^ (d alpha)^(n+1) for alpha_eps = alpha_V + eps beta
    and eps in EPS_VALUES: every term of the top power takes two factors
    from {beta, d beta}, one for each angle.  It takes the form's own
    alpha and beta: alpha_eps = alpha + (eps - 1) beta is one line through
    alpha, so alpha, beta and their derivatives are evaluated once.
    """
    n = bf.n
    pts = np.asarray(samples, float)
    bases = tangent_bases(bf.manifold, pts)
    coords = tangent_pluecker(bf.manifold, pts)
    line = bind_line(bf.alpha, bf.beta, pts)
    direct = _line_volume(line, 0.0, n + 1, pts, coords)
    expanded = _cartesian_expansion(bf.rep).on_pluecker(pts, coords)
    rel = np.abs(direct - expanded) / np.maximum(np.abs(direct),
                                                 np.abs(expanded))
    details = [make_report(
        "two_route_agreement", n_samples=len(pts),
        min_margin=[direct, expanded], max_residual=rel, tolerance=1e-9,
        residual_tolerance=1e-8, seed=seed,
        note="direct alpha^(d alpha)^(n+1) vs expanded product formula")]

    # beta vanishes on fiber-tangent vectors (exactly: the V-tangent
    # vectors of the product have zero angle components)
    m = bf.rep.manifold.ambient_dim
    fiber_vectors = bases[:, : bf.rep.manifold.dim, :]
    beta_vals = bf.beta.restrict(pts, fiber_vectors)
    details.append(make_report(
        "beta_fiber_vanishing", n_samples=len(pts),
        max_residual=np.abs(beta_vals), tolerance=1e-15,
        seed=seed, note="beta = 0 on vectors tangent to V x {pt}"))

    # torus-independence of the coefficients (slice restriction is closed)
    shifted = pts.copy()
    shifted[:, m:] = shifted[:, m:] + np.pi / 3
    coeff_diff = np.abs(bf.alpha.coeffs(pts) - bf.alpha.coeffs(shifted))
    details.append(make_report(
        "torus_invariance", n_samples=len(pts),
        max_residual=coeff_diff, tolerance=1e-15, seed=seed,
        note="coefficients independent of (phi1, phi2); slice restriction "
             "of beta is closed"))

    # eps-family scaling
    rel_eps = []
    for eps in EPS_VALUES:
        vals = _line_volume(line, eps - 1.0, n + 1, pts, coords)
        rel_eps.append(np.abs(vals - eps ** 2 * direct) / np.maximum(
            np.abs(vals), eps ** 2 * np.abs(direct)))
    details.append(make_report(
        "eps_scaling", n_samples=len(pts) * len(EPS_VALUES),
        max_residual=rel_eps, tolerance=1e-12, residual_tolerance=1e-8,
        seed=seed,
        note="alpha_eps ^ (d alpha_eps)^(n+1) = eps^2 alpha ^ (d alpha)^(n+1)"))

    return merge_reports(
        f"product_contact[{bf.rep.name}]", details, seed=seed,
        note="product form is contact; expansion and scaling identities hold")


@timed
def product_assembly_check(bf: BourgeoisForm, samples, seed=0
                           ) -> CheckReport:
    """The product form evaluated on d/d(phi1) is f_x = Re f, the
    coefficient that beta gives to d(phi1)."""
    pts = np.asarray(samples, float)
    m = bf.rep.manifold.ambient_dim
    phi1 = np.zeros((len(pts), m + 2))
    phi1[:, m] = 1.0
    vals = bf.alpha.restrict(pts, phi1[:, None, :])[:, 0]
    return make_report(
        "product_assembly", n_samples=len(pts),
        max_residual=np.abs(vals - np.real(bf.rep.f.value(pts[:, :m]))),
        tolerance=1e-12, seed=seed,
        note=f"alpha(d/dphi1) reads off Re f on the dim-{bf.manifold.dim} "
             "product")


@timed
def extract_slice_representation(bf: BourgeoisForm, samples=None,
                                 binding_samples=None, seed=0
                                 ) -> CheckReport:
    """Slice the product form and verify that the pair (alpha_V, f) is a
    representation of a contact open book; a failure reports which of the
    four conditions broke (regular value, non-empty binding, theta
    submersion, page Liouville structure).  The slice is the same at every
    torus point, since the coefficients of the product form do not depend
    on the angles, as the ``torus_invariance`` leaf of
    :func:`verify_product_contact` certifies."""
    rep = bf.rep
    if samples is None:
        samples = sample(rep.manifold, 500, seed)
    if binding_samples is None and rep.binding_sampler is not None:
        binding_samples = sample(rep.binding, 100, seed + 1)
    reports = representation_conditions(rep, samples, binding_samples,
                                        seed=seed)
    out = merge_reports(f"slice_representation[{rep.name}]", reports,
                        seed=seed,
                        note="V-slice of the product form represents a "
                             "contact open book")
    if not out.passed:
        failed = [d.name for d in reports if not d.passed]
        out.note += f"; failed conditions: {failed}"
    return out


# ---------------------------------------------------------------------------
# inverse-monodromy construction


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_integral(t):
    t = np.clip(t, 0.0, 1.0)
    return t ** 4 * (2.5 + t * (-3.0 + t))


def radial_profile(s):
    """Monotone C^2 profile: identity (slope 1) below R0, constant above
    R1, quintic blend between; the plateau value is R0 + (R1 - R0)/2."""
    s = np.asarray(s, float)
    t = (s - R0) / (R1 - R0)
    blended = R0 + (s - R0) - (R1 - R0) * _smoothstep_integral(t)
    out = np.where(s <= R0, s, blended)
    return np.where(s >= R1, R0 + (R1 - R0) / 2.0, out)


def radial_profile_slope(s):
    s = np.asarray(s, float)
    t = (s - R0) / (R1 - R0)
    out = np.where(s <= R0, 1.0, 1.0 - _smoothstep(t))
    return np.where(s >= R1, 0.0, out)


def profiled_representation(rep: Representation) -> Representation:
    """Replace f by a version whose modulus increases with slope one near
    the binding and is constant far from it, keeping theta unchanged:
    f_new = w(|f|) f with w = profile(|f|)/|f| (w = 1 near the binding).

    |f| vanishes transversally along the binding, so it serves as the
    radial collar coordinate the construction needs.
    """
    f = rep.f
    m = f.ambient_dim

    def weight(s):
        return np.where(s <= R0, 1.0,
                        radial_profile(s) / np.maximum(s, 1e-300))

    def weight_slope(s):
        safe = np.maximum(s, R0 / 2)
        return np.where(
            s <= R0, 0.0,
            (radial_profile_slope(safe) * safe
             - radial_profile(safe)) / safe ** 2)

    def value(p):
        v = f.value(p)
        return weight(np.abs(v)) * v

    def gradient(p):
        reg = f.regularized(p)
        fx, fy, g = reg
        s = np.hypot(fx, fy)
        w = weight(s)
        dw = weight_slope(s)
        ds = reg.rho_drho / np.maximum(s, 1e-300)[..., None]
        gx = dw[..., None] * fx[..., None] * ds + w[..., None] * g[..., 0, :]
        gy = dw[..., None] * fy[..., None] * ds + w[..., None] * g[..., 1, :]
        return np.stack([gx, gy], axis=-2)

    f_new = DefiningFunction(m, value, gradient)
    return replace(rep, f=f_new, name=f"{rep.name} (radial profile)")


def inverse_form(rep: Representation, c: float) -> ContactForm:
    """alpha_minus = alpha - C (f_x df_y - f_y df_x); for C large enough
    this is a contact form inducing the opposite orientation while its
    restriction to pages and binding agrees with alpha."""
    alpha_minus = rep.contact.alpha - c * rep.f.mu_form()
    return ContactForm(alpha_minus, rep.manifold)


def find_inverse_constant(rep: Representation, samples):
    """Search C in C_GRID = {1, 2, 4, ..., 2^10}, accept the first value
    whose reversed-orientation margin beats INVERSE_MARGIN_TOL, then
    re-verify at 2C (the construction guarantees all sufficiently large C
    work).  The margin at C is -alpha_minus ^ (d alpha_minus)^n on the
    oriented frames (positive when the orientation is reversed), read off
    the line alpha - C mu bound once for every C.  If no C passes, the
    DegenerateSystem names the largest C tried and the best margin."""
    samples = np.asarray(samples, float)
    coords = tangent_pluecker(rep.manifold, samples)
    line = bind_line(rep.contact.alpha, rep.f.mu_form(), samples)
    best = -np.inf
    for c in C_GRID:
        margin = float(np.min(-_line_volume(line, -c, rep.n, samples,
                                            coords)))
        best = max(best, margin)
        if margin > INVERSE_MARGIN_TOL:
            recheck = -_line_volume(line, -2 * c, rep.n, samples, coords)
            if np.min(recheck) > INVERSE_MARGIN_TOL:
                return c, margin, float(np.min(recheck))
    raise DegenerateSystem(
        f"no C up to {max(C_GRID):g} gave a reversed-orientation margin "
        f"above {INVERSE_MARGIN_TOL:g} at C and 2C; the best margin at C "
        f"was {best:.3e}")


@timed
def verify_inverse_form(rep: Representation, c: float, samples,
                        binding_samples, seed=0) -> CheckReport:
    """Certify alpha_minus at a given constant: reversed-orientation
    contact margin, re-verified at 2C, and agreement of the restriction to
    pages and binding with alpha.  A sample with |f| below
    PAGE_BINDING_BAND (or NaN) lies on or next to the binding, where mu
    vanishes on T_p V and no page frame exists, and raises
    DegenerateSystem."""
    details = []
    samples = np.asarray(samples, float)
    rho = rep.f.modulus(samples)
    if not np.all(rho >= PAGE_BINDING_BAND):
        worst = int(np.argmin(rho))            # the first NaN, if any
        raise DegenerateSystem(
            f"sample {worst} has |f| = {rho[worst]:.3e}, inside the binding "
            f"band {PAGE_BINDING_BAND:g}: it has no page frame")
    coords = tangent_pluecker(rep.manifold, samples)
    line = bind_line(rep.contact.alpha, rep.f.mu_form(), samples)
    margins = -_line_volume(line, -c, rep.n, samples, coords)
    margins2 = -_line_volume(line, -2 * c, rep.n, samples, coords)
    details.append(make_report(
        "reversed_contact", n_samples=2 * len(samples),
        min_margin=[margins, margins2],
        tolerance=INVERSE_MARGIN_TOL, seed=seed,
        note=f"alpha_minus contact with reversed orientation at C={c} "
             f"and 2C"))

    # restriction to pages and binding: alpha_minus - alpha, read from
    # inverse_form itself, vanishes on their tangent vectors.  The page
    # frame is the orthonormal complement of mu in the tangent frame, which
    # the band test above keeps away from the binding
    correction = inverse_form(rep, c).alpha - rep.contact.alpha
    page = page_frames(rep, samples, tangent_bases(rep.manifold, samples))
    page_gap = np.max(np.abs(correction.restrict(samples, page)), axis=-1)
    bind_bases = tangent_bases(rep.manifold, binding_samples)
    bind_gap = np.abs(correction.restrict(binding_samples, bind_bases))
    details.append(make_report(
        "restriction_agreement", n_samples=len(samples) + len(binding_samples),
        max_residual=[page_gap, bind_gap],
        tolerance=1e-10, seed=seed,
        note="alpha_minus = alpha on page and binding tangent vectors"))

    return merge_reports(f"inverse_form[{rep.name}]", details, seed=seed,
                         note=f"inverse-monodromy form at C={c}")


# ---------------------------------------------------------------------------
# the isotopy on V x T^2


def shear_map(rep: Representation, tau: float, c: float) -> SmoothMap:
    """(p; phi1, phi2) -> (p; phi1 - tau C f_y, phi2 - tau C f_x)."""
    m = rep.manifold.ambient_dim
    f = rep.f

    def eval(p):
        out = p.copy()
        fx, fy = f.parts(p[..., :m])
        out[..., m] = p[..., m] - tau * c * fy
        out[..., m + 1] = p[..., m + 1] - tau * c * fx
        return out

    def jac(p):
        shape = np.shape(p)[:-1]
        eye = np.zeros(shape + (m + 2, m + 2))
        idx = np.arange(m + 2)
        eye[..., idx, idx] = 1.0
        g = f.grad(p[..., :m])
        eye[..., m, :m] = -tau * c * g[..., 1, :]
        eye[..., m + 1, :m] = -tau * c * g[..., 0, :]
        return eye

    return SmoothMap(m + 2, m + 2, eval, jac=jac)


def angle_flip_map(m: int) -> SmoothMap:
    """(p; phi1, phi2) -> (p; phi1, -phi2) on R^(m+2)."""
    diag = np.ones(m + 2)
    diag[m + 1] = -1.0
    mat = np.diag(diag)

    def eval(p):
        return p * diag

    def jac(p):
        return np.broadcast_to(mat, np.shape(p)[:-1] + (m + 2, m + 2)).copy()

    return SmoothMap(m + 2, m + 2, eval, jac=jac)


def family_form(rep: Representation, tau: float, c: float) -> KForm:
    """alpha_tau = alpha_V + f_x dphi1 - f_y dphi2 - tau C rho^2 d(theta)."""
    bf = bourgeois_form(rep)
    return bf.alpha - (tau * c) * place_form(rep.f.mu_form(),
                                             bf.alpha.ambient_dim, 0)


@timed
def isotopy_check(rep: Representation, c: float, samples, seed=0
                  ) -> CheckReport:
    """For each tau in TAU_GRID: alpha_tau is contact, equals the pullback
    of alpha_0 under the shear map, and has the same volume form as
    alpha_0; at tau = 1, composing with the angle flip reproduces the
    product form of (alpha_minus, conj f) for the reversed torus
    orientation."""
    bf = bourgeois_form(rep)
    product = bf.manifold
    pts = np.asarray(samples, float)
    bases = tangent_bases(product, pts)
    coords = tangent_pluecker(product, pts)
    n = rep.n
    alpha0 = bf.alpha
    # alpha_tau = alpha_0 - tau C mu: one line, two derivatives for all tau
    mu = place_form(rep.f.mu_form(), product.ambient_dim, 0)
    line = bind_line(alpha0, mu, pts)
    vol0 = _line_volume(line, 0.0, n + 1, pts, coords)
    details = []

    pull_gaps, vols, vol_gaps = [], [], []
    for tau in TAU_GRID:
        alpha_tau, d_alpha_tau = line(-tau * c)
        pulled = pullback(shear_map(rep, tau, c), alpha0).restrict(pts, bases)
        pull_gaps.append(np.abs(pulled - alpha_tau.restrict(pts, bases)))
        vol_tau = contact_volume(alpha_tau, n + 1, d_alpha_tau).on_pluecker(
            pts, coords)
        vols.append(vol_tau)
        vol_gaps.append(np.abs(vol_tau - vol0) / np.abs(vol0))
    details.append(make_report(
        "shear_pullback", n_samples=len(pts) * len(TAU_GRID),
        max_residual=pull_gaps, tolerance=1e-6, seed=seed,
        note="alpha_tau equals the shear-map pullback of alpha_0"))
    details.append(make_report(
        "family_contact", n_samples=len(pts) * len(TAU_GRID),
        min_margin=vols, tolerance=1e-9, seed=seed,
        note="every alpha_tau is a positive contact form on the product"))
    details.append(make_report(
        "volume_invariance", n_samples=len(pts) * len(TAU_GRID),
        max_residual=vol_gaps, tolerance=1e-12,
        residual_tolerance=1e-6, seed=seed,
        note="alpha_tau ^ (d alpha_tau)^(n+1) = alpha_0 ^ (d alpha_0)^(n+1)"))

    # tau = 1 endpoint: flip phi2 and compare with the product form of
    # (alpha_minus, conj f)
    alpha1 = family_form(rep, 1.0, c)
    flip = angle_flip_map(rep.manifold.ambient_dim)
    flipped = pullback(flip, alpha1).restrict(pts, bases)
    rep_minus = replace(rep, contact=inverse_form(rep, c),
                        f=rep.f.conjugate(),
                        name=f"{rep.name} (inverse)")
    target = bourgeois_form(rep_minus).alpha
    details.append(make_report(
        "endpoint_flip", n_samples=len(pts),
        max_residual=np.abs(flipped - target.restrict(pts, bases)),
        tolerance=1e-10, seed=seed,
        note="angle flip of alpha_1 is the product form of "
             "(alpha_minus, conj f) with reversed torus orientation"))

    return merge_reports(f"isotopy[{rep.name}]", details, seed=seed,
                         note=f"isotopy family at C={c} over tau grid "
                              f"{list(TAU_GRID)}")


# ---------------------------------------------------------------------------
# weak-filling polynomial


@timed
def filling_polynomial(rep: Representation, samples, seed=0
                       ) -> CheckReport:
    """Positivity of P_eps(T) = alpha_eps ^ (T d alpha_eps + omega +
    vol_T2)^(n+1) over the grid of eps in FILLING_EPS_GRID and T in
    FILLING_T_GRID, plus the leading-coefficient certificates that control
    T -> infinity.  omega = d alpha_V is the restriction to V of the
    filling's symplectic form (the ball's, for the sphere).  The
    certificates:

      - eps = 0: the T^n coefficient (n+1) alpha_V ^ (d alpha_V)^n ^ vol_T2
        is strictly positive (this is the contact condition);
      - eps > 0: the T^(n+1) coefficient alpha_eps ^ (d alpha_eps)^(n+1)
        is strictly positive.

    The polynomial is evaluated through its multinomially expanded
    coefficients, so the grid sweep and the leading terms come from the
    same exact expansion; for eps = 0 the full product expansion is also
    compared against (n+1) alpha_V ^ (T d alpha_V + omega)^n ^ vol_T2.
    """
    n = rep.n
    m = rep.manifold.ambient_dim
    eps_grid, t_grid = FILLING_EPS_GRID, FILLING_T_GRID
    pts = np.asarray(samples, float)
    product = bourgeois_form(rep).manifold
    coords = tangent_pluecker(product, pts)
    # every coefficient below is evaluated once on the batch; the sweep
    # combines the bound values, so no derivative is taken per eps, eps
    # power or T
    omega = on_batch(place_form(ext_deriv(rep.contact.alpha), m + 2, 0), pts)
    dphi1 = coordinate_differential(m + 2, m)
    dphi2 = coordinate_differential(m + 2, m + 1)
    vol_t2 = on_batch(wedge(dphi1, dphi2), pts)

    # the eps-independent factor of the T^a coefficient in the
    # multinomial expansion
    tails = []
    for a in range(n + 2):
        b0 = n + 1 - a
        tail = float(math.comb(n + 1, a)) * wedge_power(omega, b0)
        if b0 - 1 >= 0:
            tail = tail + float(math.comb(n + 1, a) * (n + 1 - a)) * wedge(
                wedge_power(omega, b0 - 1), vol_t2)
        tails.append(on_batch(tail, pts))

    # alpha_eps = alpha_V + eps beta and d alpha_eps, bound for every eps
    line = bind_line(place_form(rep.contact.alpha, m + 2, 0), _beta_form(rep),
                     pts)
    rows = []
    margins, rel_gaps = [], []
    lead_margins = {}
    for eps in eps_grid:
        alpha, dalpha = line(eps)
        coef_vals = np.stack([
            wedge_all(alpha, wedge_power(dalpha, a), tails[a]).on_pluecker(
                pts, coords) for a in range(n + 2)])  # (n+2, N)

        if eps == 0.0:
            lead = coef_vals[n]
            margins.append(lead)
            lead_margins["T^n[eps=0]"] = float(np.min(lead))
            # independent route for P_0(T); omega is d alpha_V, so the
            # two-form T d alpha_V + omega reads its bound values twice
            for t_val in t_grid:
                two_form = t_val * omega + omega
                p0 = float(n + 1) * wedge_all(
                    alpha, wedge_power(two_form, n), vol_t2)
                direct = p0.on_pluecker(pts, coords)
                powers = np.array([t_val ** a for a in range(n + 2)])
                summed = np.einsum("a,an->n", powers, coef_vals)
                scale = np.maximum(np.abs(direct), np.abs(summed))
                rel_gaps.append(np.abs(direct - summed)
                                / np.maximum(scale, 1e-300))
        else:
            margins.append(coef_vals[n + 1])
            lead_margins[f"T^(n+1)[eps={eps}]"] = float(np.min(coef_vals[n + 1]))

        for t_val in t_grid:
            powers = np.array([t_val ** a for a in range(n + 2)])
            vals = np.einsum("a,an->n", powers, coef_vals)
            margins.append(vals)
            rows.append(SweepRow(float(eps), float(t_val),
                                 float(np.min(vals))))

    # without an eps = 0 row there is no second route to compare
    return make_report(
        f"filling_polynomial[{rep.name}]",
        n_samples=len(pts) * len(eps_grid) * len(t_grid),
        min_margin=margins, max_residual=rel_gaps or 0.0,
        tolerance=1e-9, residual_tolerance=1e-8, seed=seed,
        note=("P_eps(T) positive on the grid; leading coefficients "
              f"{lead_margins} certify large T"),
        rows=rows)
