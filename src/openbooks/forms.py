"""Exterior calculus over ambient Euclidean coordinates.

Differential forms are stored as coefficient functions over the ambient
coordinates and evaluated pointwise on tangent vectors; restriction to a
submanifold happens at evaluation time by feeding in tangent bases.  All
coefficient functions, vector fields and maps are batched: they accept
arrays of shape ``(..., m)`` and return arrays with matching leading axes.

A k-form with coefficients ``c_I`` relative to the increasing multi-indices
``I = (i_1 < ... < i_k)`` evaluates on vectors ``v_1, ..., v_k`` as

    sum_I  c_I * det( [v_b[i_a]]_{a,b} ) .

Every wedge is one kernel, :func:`_shuffle`.  Each output index of a
ka ^ kb wedge has s = C(ka+kb, ka) splits into a left and a right index,
so its :func:`_wedge_table` is three (C(m, ka+kb), s) arrays: left
positions, right positions and merge signs.  The kernel sums the s signed
products column by column; a +-1 sign multiplies exactly, there is no
dense scatter matrix and no BLAS call, and a NaN coefficient reaches only
the outputs whose splits use it.  The minors det(...) are the Pluecker
coordinates of the vectors, the iterated wedge v_1 ^ ... ^ v_k of 1-forms.
No LAPACK determinant is taken, so the values carry this expansion's
rounding, not that of an LU factorisation; the two agree to about 1e-15
relative to the product of the vector norms.

:func:`pluecker` sorts three or more argument vectors lexicographically
and folds the permutation sign into the minors (two need no sort, as
a_i b_j - a_j b_i is exactly antisymmetric), which makes the alternation
property exact: swapping two arguments flips the sign bit-for-bit.  There
is one evaluation path: :meth:`KForm.at_basis` is the dot product of the
coefficients with ``pluecker(vectors)``, and :meth:`KForm.on_pluecker`
takes the coordinates directly, so that a check evaluating several top
forms on one frame sorts it and takes its minors once.  Callers that
evaluate a top form on a hypersurface pass the coordinates of
:func:`manifolds.tangent_pluecker`, which there come from the unit normal
(the Hodge dual of the tangent frame), with no frame, sort or minor.
:meth:`KForm.restrict` is the batched restriction of a 1- or 2-form to a
frame: the row ``(N, d)`` or antisymmetric matrix ``(N, d, d)`` that the
checks build their identities from.

Forms are lazy coefficient closures, so an expression evaluates each
sub-form once per occurrence.  A constant form returns one row of
coefficients, not one per point, and every operation broadcasts it, so a
wedge of constants (d alpha_0 ^ d alpha_0, dphi_1 ^ dphi_2) costs the
same at any batch size.  :func:`wedge_power` evaluates its base once
and chains the shuffle tables on the array, :func:`contact_volume` builds
alpha ^ (d alpha)^n from one alpha and one d alpha evaluation, and
:func:`on_batch` binds a form's coefficients to one sample batch, for
expressions that reuse a sub-form many times on the same points.
:func:`bind_line` binds a family a + t b that is linear in a constant:
since d(a + t b) = da + t db, it binds a, b, da and db once, and each
member and its derivative is a combination of those bound values, so a
sweep over t takes each derivative once in all, not once per t.

A form may carry its exact exterior derivative, :attr:`KForm.d`, built
lazily from the rules of the exterior algebra: constant forms are closed,
d is linear, and a wedge of two forms that carry d follows Leibniz.  The
modules that build the contact, Bourgeois and open-book forms give their
pieces d by the same rules (d alpha_0 = sum dx_j ^ dy_j, d(df) = 0,
d(f_x df_y - f_y df_x) = 2 df_x ^ df_y).  :func:`ext_deriv` returns it
when it is there.  Every other derivative of an ambient coefficient, map,
constraint or defining function, e.g. of a quotient form, a scaled form,
a pullback or an interior product, is taken by one stencil,
:func:`central_difference`, which is thereby also an independent route
against which the exact derivatives are checked.  A derivative that is
only read on a tangent frame steps along that frame, not along the m
coordinate axes, with 2d evaluations on a d-frame: d of a 1-form on frame
pairs is :func:`ext_deriv_on_frame`, a map's differential on a frame one
``central_difference(..., frame=)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import DimensionMismatch

# Points are plain float arrays of shape (..., m).  Coordinates flagged as
# periodic by a manifold are ordinary reals during evaluation and
# differentiation.
Point = np.ndarray

DEFAULT_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# multi-index combinatorics


@lru_cache(maxsize=None)
def increasing_indices(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing multi-indices of length k in range(m)."""
    return tuple(combinations(range(m), k))


@lru_cache(maxsize=None)
def _index_positions(m: int, k: int) -> dict:
    return {idx: i for i, idx in enumerate(increasing_indices(m, k))}


def _merge_sign(left: tuple, right: tuple) -> int:
    # left and right are individually increasing and disjoint; the sign of
    # the merge permutation is (-1)^(number of cross inversions).
    inv = sum(1 for i in left for j in right if i > j)
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _wedge_table(m: int, ka: int, kb: int):
    pos_a, pos_b = _index_positions(m, ka), _index_positions(m, kb)
    ia, ib, sg = [], [], []
    for idx in increasing_indices(m, ka + kb):
        splits = [(left, tuple(j for j in idx if j not in left))
                  for left in combinations(idx, ka)]
        ia.append([pos_a[left] for left, _ in splits])
        ib.append([pos_b[right] for _, right in splits])
        sg.append([_merge_sign(left, right) for left, right in splits])
    return np.asarray(ia), np.asarray(ib), np.asarray(sg, float)


def _shuffle(ca, cb, table):
    """Wedge coefficients: per output, sum of sign * ca[left] * cb[right].

    A factor of a constant form is one row (C,).  A row ca needs nothing
    apart: the products run left to right, so sign * ca[left] is already
    one small row.  A row cb has its signed gathers w = sign * cb[idx]
    formed once, and each split costs one gather of ca, one multiply and
    one add.  The bits are those of the broadcast row: sign is +-1, so
    sign * x is exact and (a * sign) * b = a * (sign * b), and ca stays
    the left operand, so a NaN passes through as before.
    """
    ia, ib, sg = table
    if cb.ndim == 1 and ca.ndim > 1:
        w = sg * cb[ib]
        out = ca[..., ia[:, 0]] * w[:, 0]
        for j in range(1, sg.shape[1]):
            out += ca[..., ia[:, j]] * w[:, j]
        return out
    out = sg[:, 0] * ca[..., ia[:, 0]] * cb[..., ib[:, 0]]
    for j in range(1, sg.shape[1]):
        out += sg[:, j] * ca[..., ia[:, j]] * cb[..., ib[:, j]]
    return out


@lru_cache(maxsize=None)
def _ext_deriv_table(m: int, k: int):
    pos_src = _index_positions(m, k)
    out = increasing_indices(m, k + 1)
    axes = np.empty((len(out), k + 1), int)
    pos = np.empty((len(out), k + 1), int)
    sign = np.empty((len(out), k + 1))
    for r, idx in enumerate(out):
        for a, j in enumerate(idx):
            axes[r, a] = j
            pos[r, a] = pos_src[idx[:a] + idx[a + 1:]]
            sign[r, a] = (-1.0) ** a
    return axes, pos, sign


@lru_cache(maxsize=None)
def _interior_table(m: int, k: int):
    pos_src = _index_positions(m, k)
    out = increasing_indices(m, k - 1)
    width = m - (k - 1)
    comp = np.empty((len(out), width), int)
    pos = np.empty((len(out), width), int)
    sign = np.empty((len(out), width))
    for r, idx in enumerate(out):
        c = 0
        for j in range(m):
            if j in idx:
                continue
            merged = tuple(sorted((j,) + idx))
            comp[r, c] = j
            pos[r, c] = pos_src[merged]
            sign[r, c] = (-1.0) ** merged.index(j)
            c += 1
    return comp, pos, sign


def _minors(vectors):
    """All k x k minors of vectors (..., k, m): the Pluecker coordinates
    (..., C(m, k)) in the order of :func:`increasing_indices`, entry I
    being det([v_b[i_a]]_{a,b}).  Built as v_1 ^ ... ^ v_k, one wedge with
    a 1-form per step."""
    k, m = vectors.shape[-2:]
    w = vectors[..., 0, :]
    for j in range(1, k):
        w = _shuffle(w, vectors[..., j, :], _wedge_table(m, j, 1))
    return w


def _lex_order_sign(vectors):
    """Lexicographic ordering of argument vectors and its permutation sign.

    vectors : (..., k, m).  Returns (order, sign) with order (..., k) and
    sign (...,).  Sorting canonicalises evaluation so that permuting the
    arguments flips the result sign exactly.
    """
    v = np.asarray(vectors, float)
    k, m = v.shape[-2], v.shape[-1]
    keys = tuple(v[..., :, i] for i in range(m - 1, -1, -1))
    order = np.lexsort(keys, axis=-1)
    gt = order[..., :, None] > order[..., None, :]
    upper = np.triu(np.ones((k, k), bool), 1)
    inversions = np.count_nonzero(gt & upper, axis=(-2, -1))
    sign = 1.0 - 2.0 * (inversions % 2)
    return order, sign


def pluecker(vectors):
    """Signed Pluecker coordinates of vectors (..., k, m): (..., C(m, k)).

    Three or more vectors are sorted lexicographically, their minors taken
    by :func:`_minors`, and the sort's permutation sign multiplied in,
    which is exact.  A k-form evaluates on the vectors as the dot product
    of its coefficients with these coordinates (:meth:`KForm.on_pluecker`),
    so a frame shared by several forms needs its coordinates only once.
    """
    v = np.asarray(vectors, float)
    if v.shape[-2] <= 2:        # a_i b_j - a_j b_i is exactly antisymmetric
        return _minors(v)
    order, sign = _lex_order_sign(v)
    vs = np.take_along_axis(v, order[..., None], axis=-2)
    return sign[..., None] * _minors(vs)


# ---------------------------------------------------------------------------
# the finite-difference stencil


def central_difference(fn: Callable, p, step, diff: Callable = np.subtract,
                       frame=None):
    """Central differences of fn at points p (..., m).

    Returns (..., *out, m) for fn mapping (..., m) to (..., *out); entry
    [..., i] is diff(fn(p + h e_i), fn(p - h e_i)) / 2h.  step is a scalar
    or a per-point array (...,).  diff replaces the subtraction where the
    values live on a circle, e.g. the angle of a ratio of complex values.

    frame (..., d, m) replaces the coordinate axes by d directions per
    point, so the result is (..., *out, d), the derivatives along e_1..e_d,
    from 2d evaluations of fn instead of 2m.  The coordinate stencil is the
    case of the identity frame, bit for bit.
    """
    p = np.asarray(p, float)
    h = np.asarray(step, float)
    directions = (np.eye(p.shape[-1]) if frame is None
                  else np.moveaxis(np.asarray(frame, float), -2, 0))
    cols = []
    for e in directions:
        hp = h[..., None] * e
        d = diff(fn(p + hp), fn(p - hp))
        two_h = (2 * h).reshape(h.shape + (1,) * (np.ndim(d) - h.ndim))
        cols.append(d / two_h)
    return np.stack(cols, axis=-1)


def _column_sum(a):
    """a[..., 0] + a[..., 1] + ..., added column by column, left to right."""
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    out = a[..., 0] + a[..., 1]
    for j in range(2, a.shape[-1]):
        out += a[..., j]
    return out


def _contract(a, b):
    """sum_j a[..., j] b[..., j] (a and b broadcast), added in the order
    j = 0, 1, ... at every length: only elementwise products and sums, so
    the bits of a row depend neither on the batch it came in nor on the
    BLAS kernel."""
    return _column_sum(a * b)


# ---------------------------------------------------------------------------
# forms, vector fields, maps


@dataclass(frozen=True)
class KForm:
    """Degree-k differential form on an ambient Euclidean space.

    coeffs maps points (..., m) to coefficients in the order of
    :func:`increasing_indices`, as an array that broadcasts to
    (..., n_idx): a constant form returns its one row (n_idx,) at any
    batch, and every operation broadcasts it, so a wedge of constants is
    taken once, not once per point.  The degree-0 exits, :meth:`__call__`
    and :meth:`at_basis`, broadcast the value to the batch shape.

    d, when known, is the exact exterior derivative: a zero-argument
    callable that builds it on each call, so that a form is built without
    its chain of derivatives.
    :func:`ext_deriv` returns d() when it is set and runs the stencil
    otherwise.
    """

    degree: int
    ambient_dim: int
    coeffs: Callable[[np.ndarray], np.ndarray]
    d: Callable[[], "KForm"] | None = None

    @property
    def n_indices(self) -> int:
        return math.comb(self.ambient_dim, self.degree)

    def __call__(self, p, *vectors):
        if len(vectors) != self.degree:
            raise DimensionMismatch(
                f"{self.degree}-form applied to {len(vectors)} vectors")
        if self.degree == 0:
            return self._function_values(np.asarray(p, float))
        basis = np.stack([np.asarray(v, float) for v in vectors], axis=-2)
        return self.at_basis(p, basis)

    def at_basis(self, p, vectors):
        """Evaluate on a stack of vectors: p (..., m), vectors (..., k, m)."""
        p = np.asarray(p, float)
        v = np.asarray(vectors, float)
        if v.shape[-1] != self.ambient_dim:
            raise DimensionMismatch("vector dimension does not match form")
        if self.degree == 0:
            return self._function_values(p)
        return self.on_pluecker(p, pluecker(v))

    def _function_values(self, p):
        """A 0-form's values at the points p (..., m), shape (...,)."""
        c = self.coeffs(p)[..., 0]
        if c.shape == p.shape[:-1] and c.flags.writeable:
            return c
        return np.broadcast_to(c, p.shape[:-1]).copy()

    def on_pluecker(self, p, coords):
        """Evaluate on vectors given by their :func:`pluecker` coordinates
        coords (..., C(m, k)); bit-identical to :meth:`at_basis`."""
        coords = np.asarray(coords, float)
        if coords.shape[-1] != self.n_indices:
            raise DimensionMismatch(
                f"{self.degree}-form on R^{self.ambient_dim} needs "
                f"{self.n_indices} Pluecker coordinates, got {coords.shape[-1]}")
        return np.einsum("...i,...i->...", self.coeffs(np.asarray(p, float)),
                         coords)

    def restrict(self, p, frame):
        """Restriction to a frame: p (..., m), frame (..., d, m).

        A 1-form gives (..., d) with [..., j] = form(e_j); a 2-form gives
        the antisymmetric (..., d, d) with [..., i, j] = form(e_i, e_j).
        The coefficients are evaluated once; each entry is bit-identical to
        :meth:`at_basis` on that vector or pair.
        """
        p = np.asarray(p, float)
        e = np.asarray(frame, float)
        if self.degree not in (1, 2):
            raise DimensionMismatch(
                f"restrict needs a 1- or 2-form, got degree {self.degree}")
        if e.shape[-1] != self.ambient_dim:
            raise DimensionMismatch("frame dimension does not match form")
        c = self.coeffs(p)
        d = e.shape[-2]
        if self.degree == 1:
            return np.stack([np.einsum("...i,...i->...", c, e[..., j, :])
                             for j in range(d)], axis=-1)
        out = np.zeros(e.shape[:-2] + (d, d))
        # pair by pair: stacking all P pairs made P-fold temporaries, slower
        for i, j in zip(*np.triu_indices(d, 1)):
            val = np.einsum("...i,...i->...", c, pluecker(e[..., [i, j], :]))
            out[..., i, j] = val
            out[..., j, i] = -val
        return out

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if (other.degree, other.ambient_dim) != (self.degree, self.ambient_dim):
            raise DimensionMismatch("cannot add forms of different type")
        f, g = self.coeffs, other.coeffs
        da, db = self.d, other.d
        d = None if da is None or db is None else (lambda: da() + db())
        return KForm(self.degree, self.ambient_dim, lambda p: f(p) + g(p), d)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        f, da = self.coeffs, self.d
        d = None if da is None else (lambda: scalar * da())
        return KForm(self.degree, self.ambient_dim, lambda p: scalar * f(p), d)


def scale_form(fn: Callable, form: KForm) -> KForm:
    """Multiply a form by a scalar function of the point."""
    return KForm(form.degree, form.ambient_dim,
                 lambda p: fn(p)[..., None] * form.coeffs(p))


def constant_form(m: int, k: int, values) -> KForm:
    """The k-form on R^m with constant coefficients values; d = 0.

    values is copied once and the copy made read-only; coeffs returns that
    one row (C(m, k),) at every batch, which the operations broadcast.  A
    later change to the caller's array does not reach the form."""
    values = np.array(values, float)
    values.flags.writeable = False
    return KForm(k, m, lambda p: values, lambda: zero_form(m, k + 1))


def zero_form(m: int, k: int) -> KForm:
    """The zero k-form on R^m (no coefficients when k > m)."""
    return constant_form(m, k, np.zeros(math.comb(m, k)))


def coordinate_differential(m: int, i: int) -> KForm:
    """The 1-form dx_i on R^m."""
    e = np.zeros(m)
    e[i] = 1.0
    return constant_form(m, 1, e)


def form_from_components(m: int, k: int, components: dict) -> KForm:
    """Build a k-form from a dict {increasing index: coefficient}.

    Coefficients may be numbers or functions of the point batch.  With
    numbers only, the form is a :func:`constant_form`.
    """
    pos = _index_positions(m, k)
    items = []
    for idx, c in components.items():
        idx = tuple(idx)
        if tuple(sorted(idx)) != idx or len(set(idx)) != len(idx):
            raise DimensionMismatch(f"index {idx} is not strictly increasing")
        items.append((pos[idx], c))
    n = math.comb(m, k)
    if all(not callable(c) and np.ndim(c) == 0 for _, c in items):
        values = np.zeros(n)
        for position, c in items:
            values[position] = c
        return constant_form(m, k, values)

    def coeffs(p):
        p = np.asarray(p, float)
        out = np.zeros(p.shape[:-1] + (n,))
        for position, c in items:
            out[..., position] = c(p) if callable(c) else c
        return out

    return KForm(k, m, coeffs)


@dataclass(frozen=True)
class VecField:
    """Vector field on ambient space: eval maps (..., m) to (..., m)."""

    ambient_dim: int
    eval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, p):
        return self.eval(np.asarray(p, float))


@dataclass(frozen=True)
class SmoothMap:
    """Map between ambient spaces with an optional analytic Jacobian."""

    source_dim: int
    target_dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, p):
        return self.eval(np.asarray(p, float))

    def jacobian(self, p):
        """Jacobian (..., target_dim, source_dim), by central differences
        unless an analytic one was supplied."""
        p = np.asarray(p, float)
        if self.jac is not None:
            return self.jac(p)
        return central_difference(self.eval, p, DEFAULT_FD_STEP)


# ---------------------------------------------------------------------------
# operations


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product; the coefficient formula is the shuffle sum with signs."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("wedge of forms on different ambient spaces")
    m = a.ambient_dim
    k = a.degree + b.degree
    if k > m:
        raise DimensionMismatch(
            f"wedge degree {k} exceeds ambient dimension {m}")
    table = _wedge_table(m, a.degree, b.degree)
    fa, fb = a.coeffs, b.coeffs

    def coeffs(p):
        return _shuffle(fa(p), fb(p), table)

    def d():
        # Leibniz: d(a ^ b) = da ^ b + (-1)^deg(a) a ^ db
        if k == m:
            return zero_form(m, k + 1)
        return wedge(a.d(), b) + (-1.0) ** a.degree * wedge(a, b.d())

    exact = a.d is not None and b.d is not None
    return KForm(k, m, coeffs, d if exact else None)


def wedge_all(*forms: KForm) -> KForm:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def wedge_power(a: KForm, n: int) -> KForm:
    """n-th wedge power a ^ ... ^ a (n = 0 gives the constant 0-form 1).

    The coefficients of a are evaluated once per call; the power is the
    chain ((a ^ a) ^ a) ^ ..., bit-identical to repeated :func:`wedge`.
    """
    m, k = a.ambient_dim, a.degree
    if n == 0:
        return constant_form(m, 0, [1.0])
    if n == 1:
        return a
    if n * k > m:
        raise DimensionMismatch(
            f"wedge degree {n * k} exceeds ambient dimension {m}")
    tables = [_wedge_table(m, j * k, k) for j in range(1, n)]
    fa = a.coeffs

    def coeffs(p):
        out = c = fa(p)
        for table in tables:
            out = _shuffle(out, c, table)
        return out

    return KForm(n * k, m, coeffs)


def contact_volume(alpha: KForm, n: int, d_alpha: KForm | None = None
                   ) -> KForm:
    """The top form alpha ^ (d alpha)^n of a contact condition (alpha
    itself when n = 0); alpha and d alpha are each evaluated once.  A
    d_alpha computed beforehand, e.g. from :func:`bind_line`, is used as
    given; otherwise it is ext_deriv(alpha)."""
    if n == 0:
        return alpha
    if d_alpha is None:
        d_alpha = ext_deriv(alpha)
    return wedge(alpha, wedge_power(d_alpha, n))


def on_batch(form: KForm, points) -> KForm:
    """form with its coefficients evaluated once, at the batch points.

    The result is bound to that array: it returns the stored, read-only
    coefficients when evaluated at the very same array object and raises
    ValueError at any other argument, so that a derivative or a shifted
    stencil can never read the batch's values.  Pass the float array that
    the later evaluations receive.
    """
    c = form.coeffs(points)
    c.flags.writeable = False

    def coeffs(p):
        if p is not points:
            raise ValueError("form bound to a sample batch was evaluated "
                             "at other points")
        return c

    return KForm(form.degree, form.ambient_dim, coeffs)


def bind_line(a: KForm, b: KForm, points) -> Callable:
    """The family a + t b and its exterior derivatives, bound to a batch.

    d(a + t b) = da + t db, so a, da, b and db are each evaluated once, by
    :func:`on_batch`, and every member of the family is a combination of
    the four bound arrays: each derivative is taken once (exactly where the
    form carries d, otherwise by one stencil call) however many t are
    taken.
    Returns line with line(t) = (a + t b, da + t db), each combined once
    and bound to points like :func:`on_batch` (they raise ValueError at
    any other argument), so pass the float array that the evaluations
    receive.  A bound form has no derivative; pass line(t)[1] on, e.g. to
    :func:`contact_volume`.
    """
    a0, b0, da, db = (on_batch(f, points) for f in
                      (a, b, ext_deriv(a), ext_deriv(b)))

    def line(t):
        return on_batch(a0 + t * b0, points), on_batch(da + t * db, points)

    return line


def _stencil_inputs(a: KForm, p, step_scale: Callable | None):
    """The coefficients of a as the stencil reads them, and its per-point
    step DEFAULT_FD_STEP * step_scale(p) at the points p (...,)."""
    n_src, fc = a.n_indices, a.coeffs

    def fa(q):
        # the stencil divides per point, so one row is spread over the batch
        c = fc(q)
        if c.ndim == q.ndim:
            return c
        return np.broadcast_to(c, q.shape[:-1] + (n_src,))

    step = np.full(p.shape[:-1], DEFAULT_FD_STEP)
    if step_scale is not None:
        step = step * np.asarray(step_scale(p), float)
    return fa, step


def ext_deriv(a: KForm, step_scale: Callable | None = None) -> KForm:
    """Exterior derivative: a.d() when the form carries its exact one,
    otherwise central differences of the coefficients, with step
    DEFAULT_FD_STEP.

    d(sum c_I dx_I) = sum_i d_i c_I dx_i ^ dx_I.  ``step_scale`` gives a
    per-point multiplier for the stencil's step, used to differentiate
    quotient forms whose derivatives blow up near a singular locus.  The
    stencil's result carries no d, so a second ext_deriv differentiates it
    by the stencil again.  A derivative that is only read on a frame is
    cheaper by :func:`ext_deriv_on_frame`.
    """
    if a.d is not None:
        return a.d()
    m = a.ambient_dim
    axes, pos, sign = _ext_deriv_table(m, a.degree)

    def coeffs(p):
        p = np.asarray(p, float)
        fa, step = _stencil_inputs(a, p, step_scale)
        d = central_difference(fa, p, step)    # (..., n_src, m)
        terms = d[..., pos, axes]              # (..., n_out, k+1)
        return np.einsum("...oa,oa->...o", terms, sign)

    return KForm(a.degree + 1, m, coeffs)


def ext_deriv_on_frame(a: KForm, p, frame,
                       step_scale: Callable | None = None):
    """ext_deriv(a).restrict(p, frame) for a 1-form a: p (..., m), frame
    (..., d, m), the antisymmetric (..., d, d) of da(e_i, e_j).

    A form that carries its exact d gives a.d().restrict(p, frame).
    Otherwise the stencil of :func:`ext_deriv`, with its step, runs along
    the frame: with D_e c the derivative of the coefficients along e,
    da(e_i, e_j) = <D_{e_i} c, e_j> - <D_{e_j} c, e_i>, from 2d
    evaluations of a where the axes take 2m.  The pairings are summed in
    a fixed order (:func:`_contract`), so a point alone gives the bits of
    its row in a batch.
    """
    if a.d is not None:
        return a.d().restrict(p, frame)
    if a.degree != 1:
        raise DimensionMismatch(
            f"ext_deriv_on_frame needs a 1-form, got degree {a.degree}")
    p = np.asarray(p, float)
    e = np.asarray(frame, float)
    if e.shape[-1] != a.ambient_dim:
        raise DimensionMismatch("frame dimension does not match form")
    fa, step = _stencil_inputs(a, p, step_scale)
    dc = central_difference(fa, p, step, frame=e)      # (..., m, d)
    g = _contract(np.swapaxes(dc, -1, -2)[..., :, None, :],
                  e[..., None, :, :])                  # <D_{e_i} c, e_j>
    return g - np.swapaxes(g, -1, -2)


def interior(x: VecField, a: KForm) -> KForm:
    """Interior product (contraction in the first slot)."""
    if a.degree < 1:
        raise DimensionMismatch("interior product needs degree >= 1")
    if x.ambient_dim != a.ambient_dim:
        raise DimensionMismatch("field and form on different ambient spaces")
    m = a.ambient_dim
    comp, pos, sign = _interior_table(m, a.degree)
    fa = a.coeffs

    def coeffs(p):
        c = fa(p)
        v = x(p)
        terms = v[..., comp] * c[..., pos]      # (..., n_out, width)
        return np.einsum("...ow,ow->...o", terms, sign)

    return KForm(a.degree - 1, m, coeffs)


def pullback(phi: SmoothMap, a: KForm) -> KForm:
    """Pullback phi^* a, with (phi^*a)(v_1..v_k) = a(Dphi v_1, ..)."""
    if a.ambient_dim != phi.target_dim:
        raise DimensionMismatch("form not defined on the map target")
    k = a.degree
    if k > phi.source_dim:
        raise DimensionMismatch("pullback degree exceeds source dimension")
    if k == 0:
        return KForm(0, phi.source_dim, lambda p: a.coeffs(phi(p)))
    cols = np.asarray(increasing_indices(phi.source_dim, k))
    fa = a.coeffs

    def coeffs(p):
        q = phi(p)
        c = fa(q)
        jac = phi.jacobian(p)
        # the Jacobian columns of each source multi-index, as vectors
        vecs = np.moveaxis(jac[..., :, cols], -3, -1)   # (..., n_src, k, m_tgt)
        return np.einsum("...t,...st->...s", c, _minors(vecs))

    return KForm(k, phi.source_dim, coeffs)
