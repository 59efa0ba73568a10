"""Constraint-defined submanifolds: tangent bases, orientation, sampling.

A submanifold of R^m is given by c constraint functions whose joint zero
set it is.  Tangent spaces are kernels of the constraint Jacobian, sampled
points are produced by registered samplers driven by a counter-based
(Philox) generator so that runs are reproducible given a seed.

:func:`tangent_bases` takes no SVD, QR, eigenvalue or determinant.  Its
frame is a chain of Householder reflections over the constraint rows:
the first row's unit vector is reflected to a coordinate axis and the
other rows of the reflection span its complement; each further row is
written in the frame built so far, and the complement of that vector
inside the frame is composed into it.  With one constraint (every
sphere and sphere x torus) the chain is the single reflection.  The
lengths of the projected rows are the pivots |r_ii| of a QR factor of
J^T, so the rank test reads their product, and the orientation sign
is the product of the reflections' signs.  Every contraction is a sum
in a fixed order of elementwise products (:func:`frame_product` for
frames), so a point's frame does not depend on the batch it came in or
on the BLAS kernel.

The Householder reflector, built as a frame by :func:`complement_frames`,
is the one place that takes the orthonormal complement of a vector.
Besides the chain's links it gives the page frames of an open book
(`contact.page_frames`): the complement, inside T_p V, of the covector
(f_x df_y - f_y df_x) restricted to a frame of T_p V.
:func:`two_row_min_singular_value` takes the same reduction of a pair of
rows to a 2 x 2 triangle and reads its smaller singular value in closed
form.

A top form needs only the Pluecker coordinates of a frame, and
:func:`tangent_pluecker` returns them.  On an oriented hypersurface the
tangent (m-1)-vector e_1 ^ ... ^ e_(m-1) of a frame with
det[u; e_1; ...; e_(m-1)] = +1 is the Hodge dual of the unit normal
u = grad / |grad|: expanding that determinant along u, the cofactor of
u_j is u_j, so the minor that leaves out index j is (-1)^j u_j.  No frame,
sort or minor is computed there.  Every other manifold gets
``pluecker(tangent_bases(...))``.

A :class:`Submanifold` holds only what :func:`tangent_bases`,
:func:`sample` and `monodromy.flow` read.
Every Gaussian sphere draw is the sampler of :func:`unit_sphere`, every
pair of torus angles that of :func:`flat_torus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSystem, OffManifold
from .forms import _column_sum, _contract, central_difference, pluecker

ON_MANIFOLD_TOL = 1e-8
RANK_RATIO = 1e-6
FD_STEP = 1e-6


def boxed(value) -> np.ndarray:
    """value as a read-only 0-d array, for a constant operand of a ufunc
    called in a loop: numpy boxes a Python scalar into an array again on
    every call, and takes a 0-d array as it is.  Read-only, because a
    stray ``out=`` into a shared constant would change every later
    result."""
    box = np.array(value)
    box.flags.writeable = False
    return box


_HALF, _ONE = boxed(0.5), boxed(1.0)


def rng_for(seed) -> np.random.Generator:
    """Counter-based generator; splittable and reproducible given the seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True)
class Submanifold:
    """Zero set of `constraints` inside R^m, with its orientation flag.

    constraints maps points (..., m) to values (..., n_constraints), and
    constraint_jac, when given, to the Jacobian (..., n_constraints, m).

    oriented means "constraint rows first": a tangent basis e is positive
    when det[J; e] > 0, J the constraint Jacobian with its rows in order.
    With one constraint that is the outward gradient first (also correct
    for hypersurface x torus products, where the gradient has zero angle
    components); with no constraints it is the ambient coordinate order.
    An unoriented manifold (oriented=False) accepts every basis.

    newton_step, when given, is the manifold's own closed form of one
    Gauss-Newton step: newton_step(p, out) must return exactly the bits of
    ``gauss_newton_step(self, p, self.constraints(p), out=out)``, for a
    batch (N, m) or a single point (m,), written into ``out`` when given
    (which may be p itself).  It builds no Jacobian: `monodromy.flow`
    projects every RK4 step with it and falls back to the generic
    `gauss_newton_step` without it.  The manifolds that the checks flow
    on supply one, each in the form that its Jacobian allows with the same
    bits: `unit_sphere` (Jacobian 2p, so every factor is a power of two)
    and `liouville.hypersurface_build` of the Weinstein disk (its
    Jacobian row (-du, 2z) is 2x, so it takes the sphere's form); the
    hypersurfaces of other domains have none.  A manifold made with
    ``replace(..., constraints=...)`` must drop it or supply its own.
    """

    ambient_dim: int
    constraints: Callable | None
    n_constraints: int
    name: str = ""
    oriented: bool = True
    sampler: Callable | None = None
    constraint_jac: Callable | None = None
    newton_step: Callable | None = None

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.n_constraints

    def residual(self, p):
        if self.constraints is None:
            return np.zeros(np.shape(p)[:-1])
        c = np.atleast_1d(self.constraints(p))
        return np.sqrt(_sum(c * c))

    def jacobian(self, p):
        """Constraint Jacobian (..., c, m)."""
        if self.constraint_jac is not None:
            return self.constraint_jac(p)
        return central_difference(self.constraints, p, FD_STEP)


def singular_values(mat):
    """Singular values (..., k) of matrices (..., k, m) with k <= m, in
    descending order, as the square roots of the eigenvalues of the Gram
    matrix mat mat^T (rounding below zero is clipped to 0).  Squaring
    limits the resolution to about 1e-8 of the largest value, and the
    bits follow the BLAS kernel; the package computes them only for the
    diagnostics of a DegenerateSystem."""
    gram = mat @ np.swapaxes(mat, -1, -2)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., ::-1], 0.0))


def frame_product(a, b):
    """Batched matrix product (..., p, q) x (..., q, m) -> (..., p, m),
    summed over q in a fixed order (:func:`_contract`) instead of by
    ``@``: a frame expressed in a tangent frame, mapped to ambient space."""
    return _contract(a[..., :, None, :],
                     np.swapaxes(b, -1, -2)[..., None, :, :])


def _sum(a):
    """``np.add.reduce(a, axis=-1)``, and so ``np.sum(a, axis=-1)``, with
    numpy's bits, for sample batches; ``np.sqrt(_sum(x * x))`` is
    ``np.linalg.norm(x, axis=-1)`` for real x.  numpy reduces a short
    trailing axis with one inner loop per row, so on a batch the columns
    are cheaper.  Below 8 float64 terms (4 complex128 ones) numpy adds left
    to right, and so does this, by :func:`_column_sum`; the only
    difference is that numpy sums a row of -0.0 terms to +0.0.  From 8
    float64 terms (8 reals) numpy unrolls a pairwise sum, which adds in
    another order, and this is numpy's reduction."""
    if a.shape[-1] * (2 if a.dtype.kind == "c" else 1) >= 8:
        return np.add.reduce(a, axis=-1)
    return _column_sum(a)


def _unit_vectors(vectors):
    """vectors (N, m) / their norms; a zero or non-finite vector raises
    DegenerateSystem."""
    norm = np.sqrt(_sum(vectors * vectors))
    if not np.all((norm > 0) & np.isfinite(norm)):
        raise DegenerateSystem("vanishing or non-finite vector in batch",
                               singular_values=norm[:, None])
    return vectors / norm[:, None]


def _reflector(u):
    """The Householder vectors w = u + s e_0, scales 1 + |u_0| and signs s
    of unit vectors u (N, m); see :func:`complement_frames`."""
    s = np.where(u[:, 0] >= 0, 1.0, -1.0)
    w = u.copy()
    w[:, 0] += s
    return w, 1.0 + np.abs(u[:, 0]), s


def _householder(u):
    """Rows 1.. of the reflection that maps unit vectors u (N, m) to a
    coordinate axis, and their signs (N,); see :func:`complement_frames`."""
    w, scale, s = _reflector(u)
    return np.eye(u.shape[-1])[1:] - w[:, 1:, None] * (
        w[:, None, :] / scale[:, None, None]), s


def complement_frames(vectors):
    """Orthonormal bases (N, m-1, m) of the complements of vectors (N, m),
    and their "constraint rows first" orientation signs (N,).

    Rows 1..m-1 of the Householder reflection H = I - w w^T / (1 + |u_0|),
    w = u + s e_0 with s = sign(u_0) (u_0 = 0 counting as +), which maps
    the unit vector u = v / |v| to -s e_0: no SVD or eigh, and the rows are
    computed point by point.  Row 0 of H is -s u and det H = -1, so
    det[u; H[1:]] = s is the orientation sign.  On a product with a torus
    the angle coordinates of a constraint gradient vanish, so the torus
    directions come out exactly as coordinate vectors, after the base's
    tangent vectors.  A zero or non-finite vector has no complement frame
    and raises DegenerateSystem.
    """
    return _householder(_unit_vectors(vectors))


def _kernel_frames(jac):
    """Frames (N, m-k, m) of the kernels of Jacobians (N, k, m), their
    "constraint rows first" signs (N,) and the pivots (N, k).

    Link i writes row i in the frame F built so far, v = F J_i, takes the
    complement H of v inside it and composes F <- H F, applying the
    reflection to F without forming H; the first link is
    :func:`complement_frames` of row 0, bit for bit.  |v| is the pivot
    |r_ii| of a QR factor of J^T.  With q_i = v F / |v| the orthonormal
    rows that the links reflect away, J_i = sum_(j <= i) r_ij q_j with
    r_ii > 0, and det[q_i; H] = s_i inside the frame of link i, so
    det[J; F] = prod r_ii prod s_i: the sign is the product of the links'
    signs.  A zero or non-finite pivot makes the rest NaN (without a
    warning); the caller's rank test rejects it.
    """
    frame = sign = None
    pivots = np.empty(jac.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(jac.shape[-2]):
            row = jac[:, i, :]
            v = row if frame is None else _contract(frame, row[:, None, :])
            pivots[:, i] = np.sqrt(_sum(v * v))
            u = v / pivots[:, i, None]
            if frame is None:
                frame, sign = _householder(u)
                continue
            w, scale, s = _reflector(u)
            wf = _contract(w[:, None, :], np.swapaxes(frame, -1, -2))
            frame = frame[:, 1:, :] - w[:, 1:, None] * (
                wf / scale[:, None])[:, None, :]
            sign = sign * s
    return frame, sign, pivots


def _check_on_manifold(manifold: Submanifold, pts):
    """OffManifold unless every residual at pts is at most ON_MANIFOLD_TOL;
    a NaN residual is not."""
    res = manifold.residual(pts)
    if not np.all(res <= ON_MANIFOLD_TOL):
        bad = int(np.argmax(res))         # the first NaN, if there is one
        raise OffManifold(
            f"{manifold.name or 'manifold'}: worst residual {res[bad]:.3e} "
            f"at sample {bad}")


def tangent_bases(manifold: Submanifold, points):
    """Batched oriented bases: points (N, m) -> vectors (N, d, m).

    The frame is the Householder chain of :func:`_kernel_frames` over the
    k constraint rows, for every k >= 1, and the identity frame without
    constraints.  A point whose constraint residual exceeds
    ON_MANIFOLD_TOL, or is NaN, raises OffManifold.  The rank test is
    prod |r_ii| > RANK_RATIO |J|_F^k on the chain's pivots; since
    sigma_min / sigma_max >= prod |r_ii| / |J|_F^k, it never passes a
    Jacobian that sigma_min > RANK_RATIO sigma_max would reject.  A
    Jacobian that fails it, or is not finite, raises DegenerateSystem
    with its singular values (N, k), computed only then.

    An oriented manifold's bases are flipped by the chain's sign, so
    det[J; e] > 0 and no determinant is taken (the identity frame of a
    constraint-free manifold needs no flip); an unoriented one's are not
    flipped.  On an oriented hypersurface the frame e satisfies
    det[u; e] = +1 for the unit normal u, so its Pluecker coordinate that
    leaves out index j is (-1)^j u_j (the Hodge dual of u), which
    :func:`tangent_pluecker` returns without building e.
    """
    pts = np.asarray(points, float)
    _check_on_manifold(manifold, pts)
    n, m = pts.shape[0], manifold.ambient_dim
    if manifold.constraints is None:
        return np.broadcast_to(np.eye(m), (n, m, m)).copy()
    jac = manifold.jacobian(pts)
    bases, signs, pivots = _kernel_frames(jac)
    scale = np.linalg.norm(jac, axis=(-2, -1)) ** jac.shape[-2]
    if not np.all(np.prod(pivots, axis=-1) > RANK_RATIO * scale):
        svals = (singular_values(jac) if np.all(np.isfinite(jac))
                 else np.full(jac.shape[:-1], np.nan))
        raise DegenerateSystem(
            "rank-deficient constraint Jacobian in batch",
            singular_values=svals)
    if manifold.oriented:
        flip = signs < 0
        bases[flip, -1, :] = -bases[flip, -1, :]
    return bases


def two_row_min_singular_value(rows):
    """The smaller singular value (N,) of each pair of rows (N, 2, d).

    One Householder reduction: with a = row 0, u = a / |a| and H the
    complement frame of u, the pair is, in the orthonormal frame [u; H],
    the triangle R = [[|a|, u . b], [0, |H b|]], which has its singular
    values.  Those come from the closed form of LAPACK's DLAS2 (Demmel &
    Kahan, SIAM J. Sci. Stat. Comput. 11, 1990), accurate to a few ulps
    relative to the larger value also when the two are equal, where a
    formula in |a|^2 + |b|^2 and |a ^ b| loses half the digits.  Only
    elementwise operations and fixed-order sums: a point gives the bits
    of its row in a batch, on every BLAS kernel.  A zero first row gives
    0; a non-finite pair gives NaN.
    """
    a, b = rows[..., 0, :], rows[..., 1, :]
    f = np.sqrt(_sum(a * a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w, scale, _ = _reflector(a / f[..., None])
        # the reflection of b: -s (u . b), then H b
        y = b - w * (_contract(w, b) / scale)[..., None]
        g = np.abs(y[..., 0])
        h = np.sqrt(_sum(y[..., 1:] * y[..., 1:]))
        lo, hi = np.minimum(f, h), np.maximum(f, h)
        big_as = 1.0 + lo / hi
        big_at = (hi - lo) / hi
        # |g| < max(|f|, |h|)
        au = (g / hi) ** 2
        small_g = lo * (2.0 / (np.sqrt(big_as * big_as + au)
                               + np.sqrt(big_at * big_at + au)))
        # |g| >= max(|f|, |h|)
        au = hi / g
        c = 1.0 / (np.sqrt(1.0 + (big_as * au) ** 2)
                   + np.sqrt(1.0 + (big_at * au) ** 2))
        large_g = (lo * c) * au
        large_g = np.where(au == 0, (lo * hi) / g, large_g + large_g)
    smin = np.where(g < hi, small_g, large_g)
    return np.where((f == 0) | (lo == 0), 0.0, smin)


def tangent_pluecker(manifold: Submanifold, points):
    """Pluecker coordinates (N, C(m, d)) of the oriented frames that
    :func:`tangent_bases` returns at points (N, m).

    On an oriented one-constraint manifold (the spheres, sphere x
    torus, the hypersurface V of a Liouville domain) coordinate r leaves
    out index j = m-1-r and is (-1)^j u_j, u = grad / |grad| the unit
    normal: only elementwise operations, a sum and a square root, so the
    values do not depend on the BLAS kernel.  The gates are those of
    :func:`tangent_bases`: a residual above ON_MANIFOLD_TOL or NaN raises
    OffManifold, a zero or non-finite gradient DegenerateSystem.  Every
    other manifold gets ``pluecker(tangent_bases(manifold, points))``.
    """
    if manifold.n_constraints != 1 or not manifold.oriented:
        return pluecker(tangent_bases(manifold, points))
    pts = np.asarray(points, float)
    _check_on_manifold(manifold, pts)
    u = _unit_vectors(manifold.jacobian(pts)[:, 0, :])
    m = manifold.ambient_dim
    return u[:, ::-1] * (-1.0) ** np.arange(m - 1, -1, -1)


def sample(manifold: Submanifold, n: int, seed):
    """n points on the manifold, deterministic given the seed; a sampler
    whose points have a constraint residual above 1e-10, or NaN, raises
    OffManifold."""
    if manifold.sampler is None:
        raise OffManifold(f"no sampler registered for {manifold.name!r}")
    pts = manifold.sampler(rng_for(seed), n)
    res = manifold.residual(pts)
    if not np.all(res <= 1e-10):
        raise OffManifold(
            f"sampler for {manifold.name!r} violated constraints: "
            f"max residual {res.max():.3e}")
    return pts


def gauss_newton_step(manifold: Submanifold, p, c, out=None):
    """One Gauss-Newton step p - J^T (J J^T)^-1 c towards the constraint
    set, for points p (N, m) with constraint values c (N, k).

    This is the generic step, for any manifold with constraints, and the
    reference that a manifold's own `Submanifold.newton_step` must equal
    bit for bit.  With one constraint the Gram matrix J J^T is the scalar
    |J|^2, and the step p - J (c / |J|^2) needs no LAPACK solve.  |J|^2 is
    one ``np.vecdot`` of the Jacobian (N, 1, m) with itself, which gives
    the same bits as the batched matmul J J^T of N (1, m) x (m, 1)
    products at a fraction of its dispatch cost.  `monodromy.flow` runs it
    once per RK4 step, with ``out=p``, on a manifold without a
    ``newton_step``.  The step is written into ``out`` when given (which
    may be p itself) and returned.
    """
    jac = manifold.jacobian(p)
    if manifold.n_constraints == 1:
        return np.subtract(p, jac[..., 0, :] * (c / np.vecdot(jac, jac)),
                           out=out)
    gram = jac @ np.swapaxes(jac, -1, -2)
    lam = np.linalg.solve(gram, c[..., None])[..., 0]
    return np.subtract(p, np.einsum("...cm,...c->...m", jac, lam), out=out)


def project_to_constraints(manifold: Submanifold, points):
    """Gauss-Newton projection of points onto the constraint set (batched):
    at most 60 steps, until every residual is at most 1e-12, else
    OffManifold."""
    p = np.array(points, float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    for _ in range(60):
        c = np.atleast_2d(np.asarray(manifold.constraints(p)))
        res = np.sqrt(_sum(c * c))
        if np.all(res <= 1e-12):
            break
        p = gauss_newton_step(manifold, p, c)
    else:
        raise OffManifold(
            f"projection to {manifold.name!r} did not converge: residual "
            f"{res.max():.3e}")
    return p[0] if single else p


# ---------------------------------------------------------------------------
# stock manifolds and samplers


def unit_sphere(dim_ambient: int) -> Submanifold:
    """Unit sphere in R^m; constraint |x|^2 - 1 so the gradient is outward.

    Its Newton step is p - p (1/2 (s - 1) / s) with s = |p|^2: the
    Jacobian is 2p, so |J|^2 = 4s exactly and 2p ((s - 1) / 4s) =
    p (1/2 ((s - 1) / s)) exactly, since 2 and 4 are powers of two.  It
    gives the bits of `gauss_newton_step` with one ``np.vecdot``
    instead of two and no Jacobian."""

    def constraints(p):
        return (np.vecdot(p, p) - 1.0)[..., None]

    def jac(p):
        return 2.0 * p[..., None, :]

    def newton_step(p, out=None):
        s = np.vecdot(p, p)
        return np.subtract(p, p * (_HALF * ((s - _ONE) / s))[..., None], out)

    def sampler(rng, n):
        g = rng.normal(size=(n, dim_ambient))
        return g / np.sqrt(_sum(g * g))[:, None]

    return Submanifold(
        ambient_dim=dim_ambient,
        constraints=constraints,
        n_constraints=1,
        name=f"S^{dim_ambient - 1}",
        sampler=sampler,
        constraint_jac=jac,
        newton_step=newton_step,
    )


def flat_torus(k: int) -> Submanifold:
    """k-torus as R^k with all coordinates angles, oriented by coordinates."""
    def sampler(rng, n):
        return rng.uniform(0.0, 2 * np.pi, size=(n, k))

    return Submanifold(
        ambient_dim=k,
        constraints=None,
        n_constraints=0,
        name=f"T^{k}",
        sampler=sampler,
    )


def product_with_torus(base: Submanifold) -> Submanifold:
    """base x T^2 embedded in R^(m+2); the last 2 coordinates are angles."""
    m = base.ambient_dim

    def constraints(p):
        return base.constraints(p[..., :m])

    def jac(p):
        jb = base.jacobian(p[..., :m])
        pad = np.zeros(jb.shape[:-1] + (2,))
        return np.concatenate([jb, pad], axis=-1)

    def sampler(rng, n):
        base_rng, angle_rng = rng.spawn(2)
        pts = base.sampler(base_rng, n)
        return np.concatenate([pts, flat_torus(2).sampler(angle_rng, n)],
                              axis=-1)

    return Submanifold(
        ambient_dim=m + 2,
        constraints=constraints,
        n_constraints=base.n_constraints,
        name=f"{base.name} x T^2",
        oriented=base.oriented,
        sampler=sampler if base.sampler is not None else None,
        constraint_jac=jac if base.constraint_jac is not None else None,
    )


def disk_bundle_draw(rng, count, n):
    """Unit vectors q (count, n), unit covectors g at q and radii r
    (count, 1) in [0, 1), drawn in this order: the draw whose points
    (q, r g) the sampler of :func:`disk_cotangent_bundle` returns."""
    q = unit_sphere(n).sampler(rng, count)
    g = rng.normal(size=(count, n))
    g -= _sum(g * q)[:, None] * q
    g /= np.sqrt(_sum(g * g))[:, None]
    return q, g, rng.uniform(0.0, 1.0, size=(count, 1))


def disk_cotangent_bundle(n: int) -> Submanifold:
    """Unit-disk cotangent bundle of S^(n-1) embedded in R^n x R^n:
    |q| = 1, q . p = 0, |p| <= 1."""

    def constraints(x):
        q, p = x[..., :n], x[..., n:]
        return np.stack([_sum(q * q) - 1.0, _sum(q * p)], axis=-1)

    def jac(x):
        q, p = x[..., :n], x[..., n:]
        row1 = np.concatenate([2 * q, np.zeros_like(p)], axis=-1)
        row2 = np.concatenate([p, q], axis=-1)
        return np.stack([row1, row2], axis=-2)

    def sampler(rng, count):
        q, g, r = disk_bundle_draw(rng, count, n)
        return np.concatenate([q, r * g], axis=-1)

    return Submanifold(
        ambient_dim=2 * n,
        constraints=constraints,
        n_constraints=2,
        name=f"D(T*S^{n - 1})",
        oriented=False,
        sampler=sampler,
        constraint_jac=jac,
    )
