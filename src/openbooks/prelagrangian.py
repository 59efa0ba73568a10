"""Pre-Lagrangian submanifolds of the product contact manifolds, the
Legendrian-times-torus and binding-times-torus constructions, and the
straightening of loops with positive contact-form integral.

P inside a (2N+1)-dimensional contact manifold is pre-Lagrangian when
dim P = N + 1 and some contact form for the structure has d(alpha)|TP = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bourgeois import _smoothstep, bourgeois_form
from .contact import Representation, quadric_open_book
from .errors import DimensionMismatch, DomainError, OffManifold
from .forms import KForm, ext_deriv_on_frame, scale_form
from .manifolds import (Submanifold, _sum, flat_torus, product_with_torus,
                        tangent_bases)
from .report import CheckReport, make_report, merge_reports, timed

# residual of the constraints of P below which a point counts as on P
ON_P_TOL = 1e-8
# intervals of the uniform grid on which Loop.from_function samples a loop
LOOP_GRID = 2048
# the angle coordinates phi_1, phi_2 of S^3 x T^2 in R^6, the periodic_mask
# of a Loop on either pre-Lagrangian
TORUS_ANGLES = np.array([False] * 4 + [True, True])
TORUS_ANGLES.flags.writeable = False


@dataclass(frozen=True)
class PreLagrangian:
    """Candidate pre-Lagrangian P with the contact form certifying it."""

    submanifold: Submanifold
    ambient_contact: Submanifold       # the contact manifold containing P
    alpha_hat: KForm
    name: str = ""


@dataclass(frozen=True)
class Loop:
    """Closed curve [0, 2 pi] -> P, sampled on a uniform grid; values are
    stored unwrapped (angle coordinates may wind)."""

    values: np.ndarray                 # (n_grid + 1, m), endpoint included
    periodic_mask: np.ndarray | None = None

    @property
    def n_grid(self):
        return self.values.shape[0] - 1

    @staticmethod
    def from_function(gamma: Callable, periodic_mask=None) -> "Loop":
        """Sample gamma in one call on LOOP_GRID intervals: gamma maps the
        grid t of shape (LOOP_GRID + 1,) to values of shape
        (LOOP_GRID + 1, m)."""
        size = LOOP_GRID + 1
        raw = gamma(np.linspace(0.0, 2 * np.pi, size))
        try:
            values = np.asarray(raw, float)
        except ValueError as exc:
            raise DimensionMismatch(
                f"gamma must map t ({size},) to one array ({size}, m)"
            ) from exc
        if values.ndim != 2 or values.shape[0] != size:
            raise DimensionMismatch(
                f"gamma maps t ({size},) to values ({size}, m); got "
                f"{values.shape}")
        return Loop(values, periodic_mask)

    def closure_gap(self):
        gap = self.values[-1] - self.values[0]
        if self.periodic_mask is not None:
            wrapped = (gap[self.periodic_mask] + np.pi) % (2 * np.pi) - np.pi
            gap = gap.copy()
            gap[self.periodic_mask] = wrapped
        return float(np.max(np.abs(gap)))

    def derivatives(self):
        """dgamma/dt on the open grid t_0..t_{n-1} by the periodic
        fourth-order stencil (the stored endpoint supplies the winding)."""
        vals = self.values[:-1]
        n = vals.shape[0]
        h = 2 * np.pi / n
        winding = self.values[-1] - self.values[0]

        def shifted(k):
            rolled = np.roll(vals, -k, axis=0)
            if k > 0:
                rolled[n - k:] += winding
            elif k < 0:
                rolled[: -k] -= winding
            return rolled

        return (-shifted(2) + 8 * shifted(1) - 8 * shifted(-1)
                + shifted(-2)) / (12 * h)


# ---------------------------------------------------------------------------
# constructions on the product of the standard 3-sphere with the torus


def _bump(d):
    """1 within distance 0.1 of the set, 0 beyond 0.3, quintic blend."""
    return 1.0 - _smoothstep((d - 0.1) / (0.3 - 0.1))


def real_circle_distance(p):
    """Ambient Euclidean distance from z in C^2 to the real unit circle
    {(q1, q2, 0, 0)} (interleaved coordinates)."""
    x = p[..., 0::2]
    y = p[..., 1::2]
    x = x[..., :2]
    y = y[..., :2]
    return np.sqrt((np.sqrt(_sum(x * x)) - 1.0) ** 2 + _sum(y * y))


def real_circle_torus_prelagrangian() -> PreLagrangian:
    """L x T^2 for L the real unit circle in S^3 (the zero section of the
    quadric book's zero page), built by `product_with_torus` from
    :func:`real_circle_submanifold`, with the product contact form
    rescaled by a nowhere-vanishing extension of Re f |_L:

        fhat_x = b(d( . , L)) f_x + (1 - b(d( . , L)))

    where b is a bump equal to 1 within distance 0.1 of L and 0 beyond
    0.3.  On L the rescaled form restricts to dphi1 (f_x = 1, f_y = 0 and
    the circle is Legendrian).
    """
    rep = quadric_open_book(2)
    bf = bourgeois_form(rep)

    def fhat_x(p):
        fx = np.real(rep.f.value(p[..., :4]))
        b = _bump(real_circle_distance(p[..., :4]))
        return b * fx + (1.0 - b)

    alpha_hat = scale_form(lambda p: 1.0 / fhat_x(p), bf.alpha)
    return PreLagrangian(product_with_torus(real_circle_submanifold()),
                         bf.manifold, alpha_hat, name="real circle x T^2")


def binding_torus_prelagrangian() -> PreLagrangian:
    """K x T^2 for K the binding of the quadric book on S^3, built by
    `product_with_torus` from ``rep.binding`` (both defining functions
    vanish along K x T^2, so the product form itself certifies the
    pre-Lagrangian).  Its sampler parametrizes the two binding circles
    z = (e^{ia}, +- i e^{ia})/sqrt(2) exactly, so f = 0 holds exactly at
    its points, where the binding's own sampler is off by a few ulps."""
    rep = quadric_open_book(2)
    bf = bourgeois_form(rep)

    def sampler(rng, count):
        a = rng.uniform(0.0, 2 * np.pi, size=count)
        sign = np.where(rng.uniform(size=count) < 0.5, 1.0, -1.0)
        ang = flat_torus(2).sampler(rng, count)
        inv = 1.0 / np.sqrt(2.0)
        out = np.zeros((count, 6))
        out[:, 0] = np.cos(a) * inv
        out[:, 1] = np.sin(a) * inv
        out[:, 2] = -sign * np.sin(a) * inv
        out[:, 3] = sign * np.cos(a) * inv
        out[:, 4:] = ang
        return out

    sub = replace(product_with_torus(rep.binding), sampler=sampler)
    return PreLagrangian(sub, bf.manifold, bf.alpha, name="binding x T^2")


# ---------------------------------------------------------------------------
# checks


@timed
def verify_prelagrangian(pl: PreLagrangian, samples, seed=0) -> CheckReport:
    """Dimension identity and vanishing of d(alpha_hat) on TP, taken by a
    stencil along the tangent frame of P."""
    pts = np.asarray(samples, float)
    dim_v = pl.ambient_contact.dim
    dim_p = pl.submanifold.dim
    dim_ok = (2 * dim_p == dim_v + 1)
    bases = tangent_bases(pl.submanifold, pts)
    worst = np.max(np.abs(ext_deriv_on_frame(pl.alpha_hat, pts, bases)),
                   initial=0.0)
    return make_report(
        f"prelagrangian[{pl.name}]", n_samples=len(pts),
        max_residual=worst, tolerance=1e-7, seed=seed,
        # a wrong dimension fails; otherwise the residual rule decides
        passed=None if dim_ok else False,
        note=(f"dim P = (dim V + 1)/2 ({'ok' if dim_ok else 'VIOLATED'}); "
              "d(alpha_hat) = 0 on TP"))


def restricted_form_values(pl: PreLagrangian, samples):
    """alpha_hat paired with each tangent basis vector at the samples;
    used to compare the restriction against coordinate forms."""
    pts = np.asarray(samples, float)
    bases = tangent_bases(pl.submanifold, pts)
    return bases, pl.alpha_hat.restrict(pts, bases)


@timed
def legendrian_check(l_sub: Submanifold, rep: Representation, samples,
                     seed=0) -> CheckReport:
    """L is Legendrian (alpha vanishes on TL) and contained in the
    interior of a single page (theta constant, |f| > 0)."""
    pts = np.asarray(samples, float)
    bases = tangent_bases(l_sub, pts)
    vals = rep.contact.alpha.restrict(pts, bases)
    details = [make_report(
        "alpha_vanishing", n_samples=len(pts),
        max_residual=np.abs(vals), tolerance=1e-9,
        seed=seed, note="alpha = 0 on TL")]
    rho = rep.f.modulus(pts)
    spread = 0.0
    if np.min(rho) > 0:
        ref = np.exp(1j * rep.f.theta(pts))
        spread = np.abs(np.angle(ref / ref[0]))
    details.append(make_report(
        "page_containment", n_samples=len(pts),
        min_margin=rho, max_residual=spread,
        tolerance=1e-6, residual_tolerance=1e-9, seed=seed,
        note="|f| > 0 and theta constant: L sits inside one page"))
    return merge_reports(f"legendrian[{l_sub.name}]", details, seed=seed,
                         note="closed Legendrian contained in one page")


def real_circle_submanifold() -> Submanifold:
    """The real unit circle inside S^3 (interleaved coordinates): the
    constraints |p|^2 - 1, y_1 and y_2, with Jacobian rows 2p, e_1, e_3."""
    def constraints(p):
        return np.stack([_sum(p * p) - 1.0, p[..., 1], p[..., 3]],
                        axis=-1)

    def jac(p):
        out = np.zeros(np.shape(p)[:-1] + (3, 4))
        out[..., 0, :] = 2.0 * p
        out[..., 1, 1] = 1.0
        out[..., 2, 3] = 1.0
        return out

    def sampler(rng, count):
        t = rng.uniform(0.0, 2 * np.pi, size=count)
        out = np.zeros((count, 4))
        out[:, 0] = np.cos(t)
        out[:, 2] = np.sin(t)
        return out

    return Submanifold(4, constraints, 3, name="real circle",
                       oriented=False, sampler=sampler, constraint_jac=jac)


def hopf_circle_submanifold() -> Submanifold:
    """A Hopf fiber fixture {(e^{ia}, e^{ia})/sqrt 2}: transverse to the
    contact structure, so the Legendrian check must fail."""
    def constraints(p):
        return np.stack([p[..., 0] - p[..., 2], p[..., 1] - p[..., 3],
                         np.sum(p * p, axis=-1) - 1.0], axis=-1)

    def sampler(rng, count):
        a = rng.uniform(0.0, 2 * np.pi, size=count)
        inv = 1.0 / np.sqrt(2.0)
        out = np.stack([np.cos(a) * inv, np.sin(a) * inv,
                        np.cos(a) * inv, np.sin(a) * inv], axis=-1)
        return out

    return Submanifold(4, constraints, 3, name="Hopf circle",
                       oriented=False, sampler=sampler)


# ---------------------------------------------------------------------------
# loop straightening


def desk_loop(wobble):
    """The loop gamma(t) = (cos t, 0, sin t, 0, t + wobble sin t, 0) on
    the real circle x T^2, array-valued: t (n,) -> values (n, 6).  It winds
    once through phi1 with alpha_hat(gamma') = 1 + wobble cos t."""
    def gamma(t):
        zero = np.zeros_like(t)
        return np.stack([np.cos(t), zero, np.sin(t), zero,
                         t + wobble * np.sin(t), zero], axis=-1)

    return gamma


def simpson(y, dx: float) -> float:
    """Composite Simpson rule for samples y (n + 1,) on a uniform grid of
    spacing dx.  For an odd number n of intervals the last interval takes
    the quadratic through the last three samples."""
    y = np.asarray(y, float)
    n = len(y) - 1
    if n < 2:
        raise ValueError("Simpson's rule needs at least two intervals")
    even = y[: n - n % 2 + 1]
    total = dx / 3.0 * (even[0] + 4.0 * np.sum(even[1:-1:2])
                        + 2.0 * np.sum(even[2:-1:2]) + even[-1])
    if n % 2:
        total += dx / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    return float(total)


def cumulative_simpson(y, dx: float):
    """Running Simpson integral (n + 1,) of samples y (n + 1,) on a uniform
    grid, 0 at the first sample.  Interval [i, i+1] integrates the quadratic
    through samples i, i+1, i+2 when i is even and through i-1, i, i+1 when
    i is odd or last, so every even-indexed value is the composite rule."""
    y = np.asarray(y, float)
    if len(y) < 3:
        raise ValueError("Simpson's rule needs at least two intervals")
    f0, f1, f2 = y[:-2], y[1:-1], y[2:]
    ahead = dx / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)      # interval [i, i+1]
    behind = dx / 12.0 * (-f0 + 8.0 * f1 + 5.0 * f2)    # interval [i+1, i+2]
    parts = np.empty(len(y) - 1)
    parts[:-1:2] = ahead[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    return np.concatenate([[0.0], np.cumsum(parts)])


def loop_integral(pl: PreLagrangian, loop: Loop):
    """Integral of alpha_hat over the loop by composite Simpson."""
    vals = loop.values[:-1]
    der = loop.derivatives()
    g = pl.alpha_hat.restrict(vals, der[:, None, :])[:, 0]
    g = np.append(g, g[0])
    t = np.linspace(0.0, 2 * np.pi, loop.n_grid + 1)
    return simpson(g, 2 * np.pi / loop.n_grid), g, t


@timed
def straighten_loop(loop: Loop, pl: PreLagrangian, direction, seed=0):
    """Reparametrize a loop with positive contact integral into one
    positively transverse to the Legendrian foliation of P:

        g(t) = alpha_hat(gamma'(t)),  C = integral of g,
        f(t) = C t / (2 pi) - int_0^t g,
        straightened(t) = gamma(t) + f(t) Y

    for a constant direction Y, a finite array (m,) tangent to P with
    alpha_hat(Y) = 1 along the loop.  The output satisfies
    alpha_hat(gamma'(t)) = C / (2 pi) and closes up since f(0) = f(2 pi)
    = 0.  Y is constant because the time-s flow of a constant field is the
    translation x -> x + s Y, so no integrator is needed, and the paper's
    Y = d/d(phi_1) is one: alpha_hat does not depend on the torus angles,
    so its flow preserves alpha_hat.  A direction that leaves P raises
    OffManifold.  Returns (straightened Loop, CheckReport).
    """
    vals = loop.values[:-1]
    direction = np.asarray(direction, float)
    if direction.shape != vals.shape[1:]:
        raise DimensionMismatch(
            f"direction must have shape {vals.shape[1:]}; "
            f"got {direction.shape}")
    if not loop.closure_gap() <= 1e-10:
        raise DomainError(f"loop endpoint gap {loop.closure_gap():.2e}")
    res = np.max(pl.submanifold.residual(vals))
    if not res <= ON_P_TOL:
        raise OffManifold(f"loop leaves P: residual {res:.2e}")

    c_val, g, t = loop_integral(pl, loop)
    if not c_val > 0:
        raise DomainError(f"loop integral C = {c_val:.3e} is not positive")

    # Y must be tangent to P with alpha_hat(Y) = 1 along the loop; the
    # negated comparisons send NaN to the error branch
    pairing = pl.alpha_hat.restrict(
        vals, np.broadcast_to(direction, vals.shape)[:, None, :])[:, 0]
    gap = np.max(np.abs(pairing - 1.0))
    if not gap <= 1e-8:
        raise DomainError(f"alpha_hat(Y) != 1 along the loop: gap {gap:.2e}")

    f_t = (c_val * t / (2 * np.pi)
           - cumulative_simpson(g, 2 * np.pi / loop.n_grid))
    new_vals = vals + f_t[:-1, None] * direction
    drift = float(np.max(pl.submanifold.residual(new_vals)))
    if not drift <= ON_P_TOL:
        raise OffManifold(f"translating along Y left P: drift {drift:.2e}")

    closing = new_vals[0] + (loop.values[-1] - loop.values[0])
    out = Loop(np.vstack([new_vals, closing[None, :]]), loop.periodic_mask)

    c_out, g_out, _ = loop_integral(pl, out)
    report = merge_reports(
        f"straighten[{pl.name}]",
        [make_report("transverse_speed", n_samples=loop.n_grid,
                     max_residual=np.abs(g_out - c_val / (2 * np.pi)),
                     tolerance=1e-5, seed=seed,
                     note="alpha_hat(gamma') = C / (2 pi) uniformly"),
         make_report("integral_conserved", n_samples=loop.n_grid,
                     max_residual=abs(c_out - c_val), tolerance=1e-6,
                     seed=seed,
                     note="loop integral of alpha_hat is flow invariant")],
        seed=seed, note=f"straightening with C = {c_val:.6f}")
    return out, report
