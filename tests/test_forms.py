"""Exterior-calculus kernel: wedge, d, interior product, pullback, and
the central-difference stencil."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openbooks.forms as forms
from openbooks.bourgeois import extend_form
from openbooks.contact import (DefiningFunction, quadric_open_book,
                               standard_contact_form, standard_sphere)
from openbooks.errors import DimensionMismatch
from openbooks.forms import (KForm, SmoothMap, VecField, _ext_deriv_table,
                             _lex_order_sign, _merge_sign, _minors,
                             _shuffle, _wedge_table, bind_line,
                             central_difference,
                             constant_form,
                             contact_volume, coordinate_differential,
                             ext_deriv, form_from_components,
                             increasing_indices, interior, on_batch,
                             pluecker, pullback, wedge, wedge_power)
from openbooks.manifolds import FD_STEP, sample, tangent_bases, unit_sphere

RNG = np.random.default_rng(20240211)


def _random_one_form(m, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    b = rng.normal(size=m)

    def coeffs(p):
        return np.sin(p @ a.T) + p * b

    return KForm(1, m, coeffs)


def _random_two_form(m, seed=1):
    rng = np.random.default_rng(seed)
    n_idx = m * (m - 1) // 2
    a = rng.normal(size=(n_idx, m))

    def coeffs(p):
        return np.cos(p @ a.T)

    return KForm(2, m, coeffs)


def _random_form(m, k, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(increasing_indices(m, k)), m))

    def coeffs(p):
        return np.cos(p @ a.T)

    return KForm(k, m, coeffs)


def _det_minors(vectors):
    """Reference minors: LAPACK det of every k x k column selection."""
    k, m = vectors.shape[-2:]
    idx = np.asarray(increasing_indices(m, k))
    return np.linalg.det(np.moveaxis(vectors[..., :, idx], -2, -3))


# ---------------------------------------------------------------------------
# minors


@pytest.mark.parametrize("m", range(1, 9))
def test_minors_match_det_for_every_degree(m):
    rng = np.random.default_rng(100 + m)
    for k in range(1, m + 1):
        v = rng.normal(size=(30, k, m)) * rng.uniform(0.1, 10.0, (30, k, 1))
        got = _minors(v)
        assert got.shape == (30, len(increasing_indices(m, k)))
        # relative to the largest a minor can be (Hadamard's bound)
        scale = np.prod(np.linalg.norm(v, axis=-1), axis=-1)[:, None]
        np.testing.assert_allclose(got / scale, _det_minors(v) / scale,
                                   rtol=0, atol=1e-12)


def test_minors_of_single_frame_and_coordinate_vectors():
    m, k = 5, 3
    e = np.eye(m)
    for i, idx in enumerate(increasing_indices(m, k)):
        got = _minors(e[list(idx)])
        assert got.shape == (len(increasing_indices(m, k)),)
        assert got[i] == 1.0 and np.count_nonzero(got) == 1


# ---------------------------------------------------------------------------
# restriction to frames


def _points_and_frame(m, d, n=40, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, m)), rng.normal(size=(n, d, m))


def test_restrict_one_form_matches_vector_loop():
    eta = _random_one_form(5, seed=6)
    pts, frame = _points_and_frame(5, 3)
    loop = np.stack([eta.at_basis(pts, frame[:, None, j, :])
                     for j in range(3)], axis=-1)
    assert np.array_equal(eta.restrict(pts, frame), loop)


def test_restrict_two_form_matches_pair_loop_and_is_antisymmetric():
    omega = _random_two_form(5, seed=7)
    pts, frame = _points_and_frame(5, 4)
    out = omega.restrict(pts, frame)
    assert out.shape == (40, 4, 4)
    for i in range(4):
        for j in range(4):
            if i != j:
                pair = np.stack([frame[:, i, :], frame[:, j, :]], axis=1)
                assert np.array_equal(out[:, i, j], omega.at_basis(pts, pair))
    assert np.array_equal(out, -np.swapaxes(out, -1, -2))
    assert np.all(np.diagonal(out, axis1=-2, axis2=-1) == 0.0)


def test_restrict_evaluates_coefficients_once():
    calls = []
    omega = _random_two_form(4, seed=8)
    counted = KForm(2, 4, lambda p: calls.append(1) or omega.coeffs(p))
    pts, frame = _points_and_frame(4, 3)
    counted.restrict(pts, frame)
    assert len(calls) == 1


def _counted(form, calls):
    """form, with each evaluation of its coefficients appended to calls;
    it keeps form's exact derivative, if any."""
    return KForm(form.degree, form.ambient_dim,
                 lambda p: calls.append(1) or form.coeffs(p), form.d)


@pytest.mark.parametrize("m, k, n", [(4, 2, 2), (6, 2, 3), (7, 2, 3),
                                     (6, 3, 2), (5, 1, 3), (6, 2, 1)])
def test_wedge_power_evaluates_once_and_equals_chained_wedge(m, k, n):
    base = _random_form(m, k, seed=m + k + n)
    pts = RNG.normal(size=(30, m))
    calls = []
    got = wedge_power(_counted(base, calls), n).coeffs(pts)
    assert len(calls) == 1
    chained = base
    for _ in range(n - 1):
        chained = wedge(chained, base)
    assert np.array_equal(got, chained.coeffs(pts))


def test_wedge_power_degree_bounds():
    two = _random_two_form(4)
    assert wedge_power(two, 0).degree == 0
    with pytest.raises(DimensionMismatch):
        wedge_power(two, 3)


def test_contact_volume_evaluates_alpha_and_d_alpha_once():
    alpha = standard_contact_form(2)
    pts = RNG.normal(size=(20, 4))
    calls = []
    top = contact_volume(_counted(alpha, calls), 1)
    expected = wedge(alpha, ext_deriv(alpha)).coeffs(pts)
    assert np.array_equal(top.coeffs(pts), expected)
    # one evaluation at the points; d alpha_0 is exact and reads no alpha
    assert len(calls) == 1
    # without d: one evaluation at the points, two per coordinate for the
    # stencil
    stencil = _counted(replace(alpha, d=None), calls)
    top = contact_volume(stencil, 1)
    expected = wedge(stencil, ext_deriv(stencil)).coeffs(pts)
    calls.clear()
    assert np.array_equal(top.coeffs(pts), expected)
    assert len(calls) == 1 + 2 * 4
    assert contact_volume(alpha, 0) is alpha


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_at_basis_is_the_dot_product_with_pluecker(k):
    form = _random_form(6, k, seed=20 + k)
    pts, vecs = _points_and_frame(6, k)
    coords = pluecker(vecs)
    assert coords.shape == (40, len(increasing_indices(6, k)))
    got = form.at_basis(pts, vecs)
    assert np.array_equal(got, form.on_pluecker(pts, coords))
    assert np.array_equal(got, np.einsum("ni,ni->n", form.coeffs(pts),
                                         coords))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_pluecker_swap_flips_the_sign_exactly(k):
    _, vecs = _points_and_frame(6, k)
    for a in range(k):
        for b in range(a + 1, k):
            swapped = vecs.copy()
            swapped[:, [a, b]] = swapped[:, [b, a]]
            assert np.array_equal(pluecker(swapped), -pluecker(vecs))


def test_on_pluecker_rejects_wrong_coordinate_count():
    form = _random_two_form(5)
    pts, vecs = _points_and_frame(5, 4)
    with pytest.raises(DimensionMismatch):
        form.on_pluecker(pts, pluecker(vecs))


def test_on_batch_evaluates_once_and_is_bound_to_its_batch():
    base = _random_two_form(5, seed=9)
    pts = RNG.normal(size=(25, 5))
    calls = []
    bound = on_batch(_counted(base, calls), pts)
    square = wedge_power(bound, 2)
    assert np.array_equal(square.coeffs(pts), wedge_power(base, 2).coeffs(pts))
    assert np.array_equal(bound.coeffs(pts), base.coeffs(pts))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="bound to a sample batch"):
        bound.coeffs(pts.copy())
    with pytest.raises(ValueError, match="bound to a sample batch"):
        ext_deriv(bound).coeffs(pts)
    with pytest.raises(ValueError):
        bound.coeffs(pts)[0, 0] = 1.0     # the stored values are read-only


@pytest.mark.parametrize("k", [1, 2])
def test_bind_line_matches_the_derivative_of_each_member(k):
    a, b = _random_form(6, k, seed=40 + k), _random_form(6, k, seed=50 + k)
    pts = RNG.normal(size=(30, 6))
    calls = []
    line = bind_line(_counted(a, calls), b, pts)
    for t in (-1024.0, -16.0, -0.5, 0.0, 0.3, 1.0, 7.0):
        member, d_member = line(t)
        assembled = a + t * b
        assert np.array_equal(member.coeffs(pts), assembled.coeffs(pts))
        fd = ext_deriv(assembled).coeffs(pts)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(d_member.coeffs(pts) - fd)) <= 1e-9 * scale
    # a once at the points and twice per coordinate for its stencil, for
    # all seven t together
    assert len(calls) == 1 + 2 * 6


def test_bind_line_is_bound_to_its_batch():
    pts = RNG.normal(size=(20, 4))
    alpha = standard_contact_form(2)
    line = bind_line(alpha, _random_one_form(4, seed=3), pts)
    member, d_member = line(2.0)
    for form in (member, d_member):
        with pytest.raises(ValueError, match="bound to a sample batch"):
            form.coeffs(pts.copy())
    with pytest.raises(ValueError, match="bound to a sample batch"):
        ext_deriv(member).coeffs(pts)
    # the precomputed derivative is what contact_volume then takes
    top = contact_volume(member, 1, d_member)
    moving = alpha + 2.0 * _random_one_form(4, seed=3)
    np.testing.assert_allclose(top.coeffs(pts),
                               contact_volume(moving, 1).coeffs(pts),
                               rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError, match="bound to a sample batch"):
        contact_volume(member, 1).coeffs(pts)


def test_restrict_rejects_other_degrees_and_frame_widths():
    pts, frame = _points_and_frame(4, 3)
    three_form = wedge(_random_two_form(4), _random_one_form(4))
    for form in (constant_form(4, 0, [1.0]), three_form):
        with pytest.raises(DimensionMismatch):
            form.restrict(pts, frame)
    with pytest.raises(DimensionMismatch):
        _random_one_form(4).restrict(pts, frame[..., :3])


# ---------------------------------------------------------------------------
# wedge


def test_coordinate_two_form_on_coordinate_vectors():
    m = 4
    w = wedge(coordinate_differential(m, 0), coordinate_differential(m, 1))
    e = np.eye(m)
    assert w(np.zeros(m), e[0], e[1]) == 1.0
    assert w(np.zeros(m), e[1], e[0]) == -1.0
    assert w(np.zeros(m), e[0], e[2]) == 0.0


def test_wedge_of_one_form_with_itself_vanishes():
    m = 5
    eta = _random_one_form(m)
    sq = wedge(eta, eta)
    pts = RNG.normal(size=(100, m))
    vecs = RNG.normal(size=(100, 2, m))
    assert np.max(np.abs(sq.at_basis(pts, vecs))) == 0.0


def test_wedge_graded_commutativity():
    m = 5
    eta = _random_one_form(m, seed=3)
    beta = _random_two_form(m, seed=4)
    ab = wedge(eta, beta)
    ba = wedge(beta, eta)
    pts = RNG.normal(size=(50, m))
    vecs = RNG.normal(size=(50, 3, m))
    # 1-form ^ 2-form commutes (sign (-1)^{1*2} = +1)
    np.testing.assert_allclose(ab.at_basis(pts, vecs),
                               ba.at_basis(pts, vecs), atol=1e-13)


def test_wedge_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        wedge(coordinate_differential(3, 0), coordinate_differential(4, 0))
    with pytest.raises(DimensionMismatch):
        wedge(_random_two_form(3), _random_two_form(3))


def _alpha0_dalpha0_oracle(p):
    """Hand-expanded coefficients of alpha_0 ^ d(alpha_0) on R^4:

        1/2 (x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2) ^ (dx1^dy1 + dx2^dy2)

    in the increasing-index order (012), (013), (023), (123) of the
    coordinates (x1, y1, x2, y2)."""
    x1, y1, x2, y2 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    return np.stack([-0.5 * y2, 0.5 * x2, -0.5 * y1, 0.5 * x1], axis=-1)


def test_alpha0_wedge_dalpha0_matches_expanded_polynomial():
    # oracle: the hand expansion above; compare coefficients and values
    n = 2
    alpha = standard_contact_form(n)
    top = wedge(alpha, ext_deriv(alpha))
    sphere = standard_sphere(n)
    pts = sample(sphere, 100, seed=5)
    np.testing.assert_allclose(top.coeffs(pts), _alpha0_dalpha0_oracle(pts),
                               atol=1e-12)
    bases = tangent_bases(sphere, pts)
    expected = KForm(3, 4, _alpha0_dalpha0_oracle).at_basis(pts, bases)
    np.testing.assert_allclose(top.at_basis(pts, bases), expected,
                               atol=1e-12)


# ---------------------------------------------------------------------------
# shuffle tables


def _wedge_grid(m):
    return [(ka, kb) for ka in range(1, m) for kb in range(1, m - ka + 1)]


def _dense_scatter(m, ka, kb):
    """Reference: every disjoint (left, right) pair as a row of a dense
    0/+-1 matrix onto the output indices, the wedge being
    (ca[..., ia] * cb[..., ib]) @ scatter."""
    out = {idx: i for i, idx in enumerate(increasing_indices(m, ka + kb))}
    ia, ib, rows, signs = [], [], [], []
    for a_i, left in enumerate(increasing_indices(m, ka)):
        for b_i, right in enumerate(increasing_indices(m, kb)):
            if set(left) & set(right):
                continue
            ia.append(a_i)
            ib.append(b_i)
            rows.append(out[tuple(sorted(left + right))])
            signs.append(_merge_sign(left, right))
    scatter = np.zeros((len(rows), len(out)))
    scatter[np.arange(len(rows)), rows] = signs
    return np.asarray(ia), np.asarray(ib), scatter


def _dense_wedge(ca, cb, m, ka, kb):
    ia, ib, scatter = _dense_scatter(m, ka, kb)
    return (ca[..., ia] * cb[..., ib]) @ scatter


def _dense_scale(ca, cb, m, ka, kb):
    """Sum of |terms| per output: the scale the rounding is relative to."""
    ia, ib, scatter = _dense_scatter(m, ka, kb)
    return np.abs(ca[..., ia] * cb[..., ib]) @ np.abs(scatter)


@pytest.mark.parametrize("m", range(2, 9))
def test_wedge_table_is_index_and_sign_arrays(m):
    for ka, kb in _wedge_grid(m):
        table = _wedge_table(m, ka, kb)
        shape = (math.comb(m, ka + kb), math.comb(ka + kb, ka))
        assert len(table) == 3
        assert all(t.shape == shape for t in table)
        ia, ib, sg = table
        assert ia.dtype.kind == ib.dtype.kind == "i"
        assert set(np.unique(sg)) <= {-1.0, 1.0}


@pytest.mark.parametrize("m", range(2, 9))
def test_wedge_table_rows_list_each_split_once_with_merge_sign(m):
    for ka, kb in _wedge_grid(m):
        ia, ib, sg = _wedge_table(m, ka, kb)
        lefts = increasing_indices(m, ka)
        rights = increasing_indices(m, kb)
        for r, idx in enumerate(increasing_indices(m, ka + kb)):
            splits = [(lefts[a], rights[b]) for a, b in zip(ia[r], ib[r])]
            expected = [(left, tuple(j for j in idx if j not in left))
                        for left in combinations(idx, ka)]
            assert sorted(splits) == sorted(expected)
            assert len(set(splits)) == len(splits)
            for (left, right), sign in zip(splits, sg[r]):
                assert sign == _merge_sign(left, right)


@pytest.mark.parametrize("m", range(2, 9))
def test_wedge_matches_the_dense_scatter_reference(m):
    rng = np.random.default_rng(300 + m)
    for ka, kb in _wedge_grid(m):
        a, b = _random_form(m, ka, seed=m + ka), _random_form(m, kb, seed=kb)
        pts = rng.normal(size=(50, m))
        ca, cb = a.coeffs(pts), b.coeffs(pts)
        got = wedge(a, b).coeffs(pts)
        ref = _dense_wedge(ca, cb, m, ka, kb)
        scale = _dense_scale(ca, cb, m, ka, kb)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)


@pytest.mark.parametrize("m, k, n", [(4, 1, 3), (6, 2, 3), (7, 2, 3),
                                     (8, 2, 4), (8, 3, 2), (8, 1, 5)])
def test_wedge_power_matches_the_dense_scatter_reference(m, k, n):
    base = _random_form(m, k, seed=40 + m + k)
    pts = RNG.normal(size=(50, m))
    c = base.coeffs(pts)
    ref, scale = c, np.abs(c)
    for j in range(1, n):
        ref = _dense_wedge(ref, c, m, j * k, k)
        scale = _dense_scale(scale, c, m, j * k, k)
    got = wedge_power(base, n).coeffs(pts)
    assert np.all(np.abs(got - ref) <= 1e-15 * scale)


def test_nan_in_one_coefficient_stays_in_its_outputs():
    m, ka, kb = 6, 2, 2
    a, b = _random_form(m, ka, seed=1), _random_form(m, kb, seed=2)
    pts = RNG.normal(size=(10, m))
    q = 4                                  # the coefficient of dx_0 ^ dx_5
    ca = a.coeffs(pts)
    ca[:, q] = np.nan
    poisoned = wedge(KForm(ka, m, lambda p: ca), b).coeffs(pts)
    ia, _, _ = _wedge_table(m, ka, kb)
    uses_q = np.any(ia == q, axis=1)
    assert 0 < np.count_nonzero(uses_q) < len(uses_q)
    assert np.all(np.isnan(poisoned[:, uses_q]))
    clean = wedge(a, b).coeffs(pts)
    assert np.array_equal(poisoned[:, ~uses_q], clean[:, ~uses_q])


# ---------------------------------------------------------------------------
# constant forms: one row of coefficients at any batch

_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _with_specials(c, rng):
    """c with about one entry in twenty replaced by +-0, +-inf or NaN."""
    c = c.copy()
    hit = rng.random(c.shape) < 0.05
    c[hit] = rng.choice(_SPECIALS, size=np.count_nonzero(hit))
    return c


def _materialised(form):
    """form with its coefficients copied out to the batch shape."""
    n = form.n_indices
    return replace(form, coeffs=lambda p: np.broadcast_to(
        form.coeffs(p), p.shape[:-1] + (n,)).copy())


@pytest.mark.parametrize("m, ka, kb", [(4, 1, 2), (6, 2, 2), (6, 3, 2),
                                       (8, 2, 2)])
@pytest.mark.parametrize("row_first", [True, False])
def test_shuffle_with_one_row_keeps_the_bits_of_the_broadcast_row(
        m, ka, kb, row_first):
    rng = np.random.default_rng(m * 10 + ka + kb + row_first)
    n_rows = 300
    k_row, k_batch = (ka, kb) if row_first else (kb, ka)
    row = _with_specials(rng.normal(size=math.comb(m, k_row)), rng)
    batch = _with_specials(
        rng.normal(size=(n_rows, math.comb(m, k_batch))), rng)
    full = np.broadcast_to(row, (n_rows, row.size)).copy()
    table = _wedge_table(m, ka, kb)
    args, ref_args = ((row, batch), (full, batch)) if row_first else (
        (batch, row), (batch, full))
    with np.errstate(invalid="ignore"):       # inf - inf, 0 * inf
        got, ref = _shuffle(*args, table), _shuffle(*ref_args, table)
    assert got.shape == ref.shape
    assert np.isnan(ref).any() and np.isinf(ref).any()
    assert np.isfinite(ref).any()
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("row_first", [True, False])
def test_nan_in_the_batch_factor_reaches_outputs_of_zero_row_partners(
        row_first):
    m = 6
    d_alpha0 = ext_deriv(standard_contact_form(3))   # 3 of 15 nonzero
    b = _random_form(m, 2, seed=5)
    pts = RNG.normal(size=(10, m))
    q = 4                                  # the coefficient of dx_0 ^ dx_5
    cb = b.coeffs(pts)
    cb[:, q] = np.nan
    poisoned_b = KForm(2, m, lambda p: cb)
    pair = (d_alpha0, poisoned_b) if row_first else (poisoned_b, d_alpha0)
    poisoned = wedge(*pair).coeffs(pts)
    ia, ib, _ = _wedge_table(m, 2, 2)
    uses_q = np.any((ib if row_first else ia) == q, axis=1)
    assert 0 < np.count_nonzero(uses_q) < len(uses_q)
    # the row coefficient paired with dx_0 ^ dx_5 is 0, and 0 * NaN = NaN
    assert d_alpha0.coeffs(pts)[q] == 0.0
    assert np.all(np.isnan(poisoned[:, uses_q]))
    clean = wedge(*((d_alpha0, b) if row_first else (b, d_alpha0)))
    assert np.array_equal(poisoned[:, ~uses_q], clean.coeffs(pts)[:, ~uses_q])


def test_degree_zero_constants_take_the_batch_shape():
    pts = RNG.normal(size=(40, 4))
    for form in (constant_form(4, 0, [2.5]), wedge_power(
            coordinate_differential(4, 1), 0)):
        assert form.coeffs(pts).shape == (1,)
        for vals in (form(pts), form.at_basis(pts, np.empty((40, 0, 4)))):
            assert vals.shape == (40,)
            assert np.all(vals == form.coeffs(pts)[0])
            vals[0] = -1.0                  # a fresh array, not the row
        for val in (form(pts[0]), form.at_basis(pts[0], np.empty((0, 4)))):
            assert val.shape == ()
            val[()] = -1.0                  # fresh at one point too
        assert np.all(form(pts) == form.coeffs(pts)[0])
    assert np.all(constant_form(4, 0, [2.5])(pts) == 2.5)


def test_constant_form_owns_a_read_only_copy_of_its_values():
    values = np.array([1.0, 2.0, -1.0, 0.5])
    form = constant_form(4, 1, values)
    pts = RNG.normal(size=(20, 4))
    values[0] = 7.0
    c = form.coeffs(pts)
    assert np.array_equal(c, [1.0, 2.0, -1.0, 0.5])
    with pytest.raises(ValueError):
        c[0] = 3.0
    with pytest.raises(ValueError):
        c += 1.0
    assert np.array_equal(form.coeffs(pts), [1.0, 2.0, -1.0, 0.5])


def test_form_from_numbers_only_is_constant():
    pts = RNG.normal(size=(20, 4))
    omega = form_from_components(4, 2, {(0, 2): 1.0, (1, 3): 1.0})
    assert omega.coeffs(pts).shape == (6,)
    assert np.array_equal(omega.coeffs(pts), [0, 1, 0, 0, 1, 0])
    assert ext_deriv(omega).coeffs(pts).shape == (4,)
    mixed = form_from_components(4, 2, {(0, 2): 1.0,
                                        (1, 3): lambda p: p[..., 0]})
    assert mixed.coeffs(pts).shape == (20, 6)


def test_constant_wedges_pass_only_rows_to_the_shuffle(monkeypatch):
    seen = []

    def recording(ca, cb, table):
        seen.append((ca.ndim, cb.ndim))
        return _shuffle(ca, cb, table)

    monkeypatch.setattr(forms, "_shuffle", recording)
    pts = RNG.normal(size=(2000, 6))
    vol = wedge_power(standard_contact_form(3).d(), 2).coeffs(pts)
    assert vol.shape == (15,)
    dphi = wedge(coordinate_differential(6, 4), coordinate_differential(6, 5))
    assert dphi.coeffs(pts).shape == (15,)
    assert len(seen) == 2 and set(seen) == {(1, 1)}


@pytest.mark.parametrize("n", [2, 3])
def test_contact_volume_on_pluecker_equals_the_materialised_route(n):
    m = 2 * n
    alpha = standard_contact_form(n)
    pts = RNG.normal(size=(500, m))
    coords = pluecker(RNG.normal(size=(500, m - 1, m)))
    d_alpha = ext_deriv(alpha)
    assert d_alpha.coeffs(pts).ndim == 1
    got = contact_volume(alpha, n - 1).on_pluecker(pts, coords)
    ref = contact_volume(alpha, n - 1, _materialised(d_alpha))
    assert np.array_equal(got, ref.on_pluecker(pts, coords))


def test_stencil_spreads_a_row_over_the_batch():
    pts = RNG.normal(size=(20, 4))
    row = replace(constant_form(4, 1, [1.0, 2.0, -1.0, 0.5]), d=None)
    for form in (row, wedge_power(row, 2)):
        d = ext_deriv(form).coeffs(pts)
        assert d.shape == (20, math.comb(4, form.degree + 1))
        assert np.all(d == 0.0)


@pytest.mark.parametrize("m, k", [(4, 0), (4, 1), (4, 2), (6, 3), (6, 4)])
def test_extend_form_equals_the_zero_one_product(m, k):
    form = _random_form(m, k, seed=m + k) if k else constant_form(m, 0, [2.5])
    src = increasing_indices(m, k)
    tgt = increasing_indices(m + 2, k)
    scatter = np.zeros((len(src), len(tgt)))
    for j, idx in enumerate(tgt):
        if not idx or idx[-1] < m:
            scatter[src.index(idx), j] = 1.0
    pts = RNG.normal(size=(30, m + 2))
    got = extend_form(form).coeffs(pts)
    assert np.array_equal(got, form.coeffs(pts[:, :m]) @ scatter)


def _sorted_pluecker(vectors):
    """Reference: lex-sort the vectors, take their minors, fold in the
    sort's sign."""
    order, sign = _lex_order_sign(vectors)
    vs = np.take_along_axis(vectors, order[..., None], axis=-2)
    return sign[..., None] * _minors(vs)


def test_pluecker_of_two_vectors_needs_no_sort():
    rng = np.random.default_rng(11)
    v = rng.normal(size=(500, 2, 6))
    v[:50, 1] = v[:50, 0]                   # equal vectors
    v[50:100, 1, :3] = v[50:100, 0, :3]     # ties in the leading entries
    assert np.array_equal(pluecker(v), _sorted_pluecker(v))


def _pair_loop(omega, pts, frame):
    """Reference: the restriction built one pair at a time, each pair's
    coordinates taken with the lex sort."""
    c = omega.coeffs(pts)
    d = frame.shape[-2]
    out = np.zeros(frame.shape[:-2] + (d, d))
    for i in range(d):
        for j in range(i + 1, d):
            pair = np.stack([frame[..., i, :], frame[..., j, :]], axis=-2)
            val = np.einsum("...i,...i->...", c, _sorted_pluecker(pair))
            out[..., i, j] = val
            out[..., j, i] = -val
    return out


@pytest.mark.parametrize("m, d", [(4, 3), (6, 5), (8, 7)])
@pytest.mark.parametrize("n", [2000, 1])
def test_restrict_two_form_equals_the_per_pair_loop(m, d, n):
    omega = _random_two_form(m, seed=m + d)
    pts, frame = _points_and_frame(m, d, n=n, seed=m)
    assert np.array_equal(omega.restrict(pts, frame),
                          _pair_loop(omega, pts, frame))


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_of_constant_form_is_zero():
    m = 4
    c = constant_form(m, 1, [1.0, 2.0, -1.0, 0.5])
    d = ext_deriv(c)
    pts = RNG.normal(size=(20, m))
    vecs = RNG.normal(size=(20, 2, m))
    assert np.max(np.abs(d.at_basis(pts, vecs))) < 1e-11


def test_d_of_x_dy():
    m = 3
    xdy = form_from_components(m, 1, {(1,): lambda p: p[..., 0]})
    d = ext_deriv(xdy)
    e = np.eye(m)
    p = RNG.normal(size=m)
    assert abs(d(p, e[0], e[1]) - 1.0) < 1e-10
    assert abs(d(p, e[0], e[2])) < 1e-10


def test_d_alpha0_is_sum_of_coordinate_area_forms():
    n = 2
    alpha = standard_contact_form(n)
    d = ext_deriv(alpha)
    expected = form_from_components(4, 2, {(0, 1): 1.0, (2, 3): 1.0})
    pts = sample(standard_sphere(n), 100, seed=6)
    vecs = RNG.normal(size=(100, 2, 4))
    np.testing.assert_allclose(d.at_basis(pts, vecs),
                               expected.at_basis(pts, vecs), atol=1e-9)


def test_domain_error_propagates_with_offending_point():
    from openbooks.errors import DomainError
    m = 2

    def coeffs(p):
        if np.any(p[..., 0] > 1.0):
            raise DomainError("outside the unit strip", point=p)
        return p

    form = KForm(1, m, coeffs)
    d = ext_deriv(form)
    with pytest.raises(DomainError) as err:
        d(np.array([1.0, 0.0]), np.eye(m)[0], np.eye(m)[1])
    assert err.value.point is not None


# ---------------------------------------------------------------------------
# interior product


def test_interior_on_coordinate_forms():
    m = 3
    w = wedge(coordinate_differential(m, 0), coordinate_differential(m, 1))
    dx = VecField(m, lambda p: np.broadcast_to(np.eye(m)[0], p.shape).copy())
    contracted = interior(dx, w)
    p = RNG.normal(size=m)
    assert abs(contracted(p, np.eye(m)[1]) - 1.0) == 0.0
    assert abs(contracted(p, np.eye(m)[2])) == 0.0


def test_double_interior_vanishes():
    m = 5
    omega = _random_two_form(m)
    x = VecField(m, lambda p: np.sin(p))
    twice = interior(x, interior(x, wedge(omega, _random_one_form(m))))
    pts = RNG.normal(size=(100, m))
    vecs = RNG.normal(size=(100, 1, m))
    assert np.max(np.abs(twice.at_basis(pts, vecs))) < 1e-12


def test_interior_rejects_degree_zero():
    with pytest.raises(DimensionMismatch):
        interior(VecField(3, lambda p: p), constant_form(3, 0, [1.0]))


def test_liouville_field_contracts_to_standard_form():
    # oracle: direct coefficient comparison on C^n
    n = 3
    m = 2 * n
    omega_c = form_from_components(
        m, 2, {(2 * j, 2 * j + 1): 1.0 for j in range(n)})
    field = VecField(m, lambda p: 0.5 * p)
    lam = interior(field, omega_c)
    alpha0 = standard_contact_form(n)
    pts = RNG.normal(size=(100, m))
    np.testing.assert_allclose(lam.coeffs(pts), alpha0.coeffs(pts),
                               atol=1e-9)


# ---------------------------------------------------------------------------
# pullback


def test_pullback_along_identity():
    m = 4
    eta = _random_one_form(m)
    phi = SmoothMap(m, m, lambda p: p.copy())
    pulled = pullback(phi, eta)
    pts = RNG.normal(size=(50, m))
    vecs = RNG.normal(size=(50, 1, m))
    np.testing.assert_allclose(pulled.at_basis(pts, vecs),
                               eta.at_basis(pts, vecs), atol=1e-9)


def test_stereographic_page_pullback():
    """Pulling the sphere's contact form back by the inverse-stereographic
    page embedding gives 4 lambda_0 / (1 + |w|^2)^2 on the disk; dividing
    by |z_1| along the embedding then yields 4 lambda_0 / (1 - |w|^4), the
    page Liouville form up to the dilation w -> 2w.

    The coefficient is pinned by hand at w = (1/2, 0): the p-velocity
    pushes to (2/(1+s)) d/dy_2 and alpha_0 there has dy_2-coefficient
    x_2/2 = q/(1+s), so the pullback pairs to 2q/(1+s)^2 = 0.64, which is
    4/(1+s)^2 * lambda_0(d/dp).
    """
    n = 2
    alpha0 = standard_contact_form(n)

    def embed(w):
        # (q + i p) -> ((1 - |w|^2) e^{i 0}; 2 (q + ip)) / (1 + |w|^2)
        q, p = w[..., 0], w[..., 1]
        s = q * q + p * p
        out = np.stack([(1.0 - s), np.zeros_like(q), 2.0 * q, 2.0 * p],
                       axis=-1)
        return out / (1.0 + s)[..., None]

    phi = SmoothMap(2, 4, embed)
    pulled = pullback(phi, alpha0)
    rng = np.random.default_rng(8)
    ang = rng.uniform(0, 2 * np.pi, 100)
    r = np.sqrt(rng.uniform(0, 0.96, 100))
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    s = np.sum(pts * pts, axis=-1)
    lam0 = form_from_components(2, 1, {(0,): lambda w: -0.5 * w[..., 1],
                                       (1,): lambda w: 0.5 * w[..., 0]})
    vecs = rng.normal(size=(100, 1, 2))
    lam_vals = lam0.at_basis(pts, vecs)
    np.testing.assert_allclose(pulled.at_basis(pts, vecs),
                               (4.0 / (1.0 + s) ** 2) * lam_vals, atol=1e-9)

    # anchor at w = (1/2, 0) against the hand computation
    anchor = np.array([0.5, 0.0])
    ep = np.array([0.0, 1.0])
    assert abs(pulled(anchor, ep) - 0.64) < 1e-9

    # the rescale by |z_1| closes the chain onto the page Liouville form
    mod_z1 = (1.0 - s) / (1.0 + s)
    np.testing.assert_allclose(
        pulled.at_basis(pts, vecs) / mod_z1,
        4.0 * lam_vals / (1.0 - s ** 2), atol=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_disk_bundle_page_pullback(n):
    """The rescaled form alpha_0 / |f| pulls back along the page embedding
    of the quadric book to -sum p dq / (1 - |p|^2)."""
    from openbooks.contact import quadric_open_book
    from openbooks.liouville import canonical_one_form
    from openbooks.manifolds import disk_cotangent_bundle

    rep = quadric_open_book(n)
    lam = rep.quotient_form()

    def embed(x):
        q, p = x[..., :n], x[..., n:]
        scale = 1.0 / np.sqrt(1.0 + np.sum(p * p, axis=-1))
        w = np.empty(x.shape[:-1] + (2 * n,))
        w[..., 0::2] = q * scale[..., None]
        w[..., 1::2] = p * scale[..., None]
        return w

    phi = SmoothMap(2 * n, 2 * n, embed)
    pulled = pullback(phi, lam)
    bundle = disk_cotangent_bundle(n)
    pts = sample(bundle, 100, seed=9)
    # 1 / (1 - |p|^2) grows without bound at the rim; keep |p| <= 0.95
    pts = pts[np.sum(pts[:, n:] ** 2, axis=-1) <= 0.95 ** 2]
    bases = tangent_bases(bundle, pts)
    lam_can = canonical_one_form(n)
    denom = 1.0 - np.sum(pts[..., n:] ** 2, axis=-1)
    for j in range(bases.shape[1]):
        v = bases[:, None, j, :]
        np.testing.assert_allclose(
            pulled.at_basis(pts, v),
            lam_can.at_basis(pts, v) / denom, atol=1e-9)


def test_pullback_matches_det_of_jacobian_minors():
    """phi^* a has coefficients sum_I a_I(phi(p)) det(Dphi[I, J]); checked
    against LAPACK det on a nonlinear map R^4 -> R^5 in degrees 1-4."""
    rng = np.random.default_rng(21)
    mat = rng.normal(size=(5, 4))

    def curved(p):
        return np.tanh(p @ mat.T) + 0.3 * np.sin(p @ mat.T) ** 2

    def jac(p):
        u = p @ mat.T
        du = 1.0 - np.tanh(u) ** 2 + 0.6 * np.sin(u) * np.cos(u)
        return du[..., :, None] * mat

    phi = SmoothMap(4, 5, curved, jac=jac)
    pts = rng.normal(size=(60, 4))
    for k in range(1, 5):
        a = _random_form(5, k, seed=30 + k)
        rows = np.asarray(increasing_indices(5, k))
        cols = np.asarray(increasing_indices(4, k))
        sub = jac(pts)[:, rows[:, None, :, None], cols[None, :, None, :]]
        want = np.einsum("nt,nts->ns", a.coeffs(curved(pts)),
                         np.linalg.det(sub))
        np.testing.assert_allclose(pullback(phi, a).coeffs(pts), want,
                                   rtol=1e-12, atol=1e-13)


def test_pullback_dimension_mismatch_rejected():
    phi = SmoothMap(2, 3, lambda p: np.concatenate(
        [p, p[..., :1]], axis=-1))
    with pytest.raises(DimensionMismatch):
        pullback(phi, _random_one_form(2))      # form lives on the source


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 4),
       st.randoms(use_true_random=False))
def test_alternation_is_exact(k, i, j, rnd):
    """Swapping two arguments flips the sign bit-for-bit, in degrees 2-5
    (degree 3 built as a wedge, the others with random coefficients)."""
    m = 6
    seed = rnd.randrange(2 ** 31)
    rng = np.random.default_rng(seed)
    if k == 3:
        form = wedge(_random_two_form(m, seed=seed),
                     _random_one_form(m, seed=seed + 1))
    else:
        form = _random_form(m, k, seed=seed)
    p = rng.normal(size=m)
    vecs = rng.normal(size=(k, m))
    base = form.at_basis(p, vecs)
    a, b = i % k, j % k
    swapped = vecs.copy()
    swapped[[a, b]] = swapped[[b, a]]
    flipped = form.at_basis(p, swapped)
    if a == b:
        assert flipped == base
    else:
        assert flipped == -base


def test_d_squared_is_small():
    m = 4
    eta = _random_one_form(m, seed=11)
    dd = ext_deriv(ext_deriv(eta))
    pts = RNG.normal(size=(300, m))
    vecs = RNG.normal(size=(300, 3, m))
    assert np.max(np.abs(dd.at_basis(pts, vecs))) < 1e-6


def test_leibniz_rule():
    m = 4
    a = _random_one_form(m, seed=12)
    b = _random_two_form(m, seed=13)
    lhs = ext_deriv(wedge(a, b))
    rhs = wedge(ext_deriv(a), b) + (-1.0) * wedge(a, ext_deriv(b))
    pts = RNG.normal(size=(200, m))
    vecs = RNG.normal(size=(200, 4, m))
    np.testing.assert_allclose(lhs.at_basis(pts, vecs),
                               rhs.at_basis(pts, vecs), atol=1e-6)


def test_pullback_naturality():
    m = 3
    a = _random_one_form(m, seed=14)
    mat = np.array([[1.0, 0.3, 0.0], [0.1, 0.9, 0.2], [0.0, -0.4, 1.1]])

    def curved(p):
        return p @ mat.T + 0.1 * np.sin(p)

    phi = SmoothMap(m, m, curved)
    lhs = pullback(phi, ext_deriv(a))
    rhs = ext_deriv(pullback(phi, a))
    pts = RNG.normal(size=(200, m))
    vecs = RNG.normal(size=(200, 2, m))
    np.testing.assert_allclose(lhs.at_basis(pts, vecs),
                               rhs.at_basis(pts, vecs), atol=1e-6)


def test_pullback_functoriality():
    m = 3
    a = _random_two_form(m, seed=15)
    inner = SmoothMap(m, m, lambda p: np.tanh(p) + 0.2 * p)
    outer = SmoothMap(m, m, lambda p: p + 0.1 * np.sin(p))
    # the composite's Jacobian is taken by the stencil, not by the chain rule
    lhs = pullback(SmoothMap(m, m, lambda p: outer(inner(p))), a)
    rhs = pullback(inner, pullback(outer, a))
    pts = RNG.normal(size=(50, m))
    vecs = RNG.normal(size=(50, 2, m))
    np.testing.assert_allclose(lhs.at_basis(pts, vecs),
                               rhs.at_basis(pts, vecs), atol=1e-6)


def test_fd_jacobian_converges_quadratically():
    m = 3
    phi = SmoothMap(m, m, lambda p: np.sin(p) + 0.5 * p ** 2)
    p = np.array([0.3, -0.2, 0.7])
    j1 = central_difference(phi, p, 1e-4)
    j2 = central_difference(phi, p, 5e-5)
    exact = np.diag(np.cos(p) + p)
    e1 = np.max(np.abs(j1 - exact))
    e2 = np.max(np.abs(j2 - exact))
    # halving h divides the truncation error by about 4
    assert e2 < e1 / 2.5


# ---------------------------------------------------------------------------
# central_difference against the hand-written loops it replaced; each
# reference below is the loop as it stood at its call site


def _loop_columns(fn, p, h):
    m = p.shape[-1]
    cols = []
    for i in range(m):
        dp = np.zeros(m)
        dp[i] = h
        cols.append((fn(p + dp) - fn(p - dp)) / (2 * h))
    return np.stack(cols, axis=-1)


def test_stencil_matches_smooth_map_loop():
    phi = SmoothMap(4, 3, lambda p: np.stack(
        [np.sin(p[..., 0] * p[..., 1]), np.exp(0.3 * p[..., 2]),
         p[..., 3] ** 3 - p[..., 0]], axis=-1))
    pts = RNG.normal(size=(40, 4))
    assert np.array_equal(phi.jacobian(pts),
                          _loop_columns(phi.eval, pts, 1e-5))


def test_stencil_matches_constraint_jacobian_loop():
    sphere = replace(unit_sphere(4), constraint_jac=None)
    pts = sample(sphere, 50, seed=3)
    ref = _loop_columns(lambda x: np.asarray(sphere.constraints(x)),
                        pts, FD_STEP)
    assert ref.shape == (50, 1, 4)
    assert np.array_equal(sphere.jacobian(pts), ref)


def test_stencil_matches_defining_function_grad_loop():
    rep = quadric_open_book(2)
    f = DefiningFunction(4, rep.f.value)
    pts = sample(rep.manifold, 50, seed=4)
    g = _loop_columns(f.value, pts, 1e-6)
    ref = np.stack([np.real(g), np.imag(g)], axis=-2)
    assert np.array_equal(f.grad(pts), ref)


@pytest.mark.parametrize("scaled", [False, True])
def test_stencil_matches_ext_deriv_loop(scaled):
    m = 5
    a = _random_two_form(m, seed=21)
    scale = (lambda p: 0.5 + np.abs(p[..., 0])) if scaled else None
    pts = RNG.normal(size=(30, m))
    axes, pos, sign = _ext_deriv_table(m, a.degree)
    step = np.full(pts.shape[:-1], 1e-5)
    if scaled:
        step = step * scale(pts)
    cols = []
    for i in range(m):
        dp = np.zeros(m)
        dp[i] = 1.0
        hp = step[..., None] * dp
        cols.append((a.coeffs(pts + hp) - a.coeffs(pts - hp))
                    / (2 * step[..., None]))
    d = np.stack(cols, axis=-2)
    ref = np.einsum("...oa,oa->...o", d[..., axes, pos], sign)
    assert np.array_equal(ext_deriv(a, step_scale=scale).coeffs(pts), ref)


def test_stencil_matches_angle_ratio_loop():
    rep = quadric_open_book(2)
    f = rep.f
    pts = sample(rep.manifold, 60, seed=5)
    h = 1e-5 * np.maximum(f.modulus(pts), 1e-12)
    cols = []
    for i in range(4):
        dp = np.zeros(4)
        dp[i] = 1.0
        ratio = f.value(pts + h[..., None] * dp) * np.conj(
            f.value(pts - h[..., None] * dp))
        cols.append(np.angle(ratio) / (2 * h))
    ref = np.stack(cols, axis=-1)
    got = central_difference(f.value, pts, h,
                             diff=lambda a, b: np.angle(a * np.conj(b)))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("out", [(), (3,), (2, 3)])
def test_stencil_shapes_for_scalar_and_per_point_steps(out):
    m = 4
    w = RNG.normal(size=(int(np.prod(out)), m))

    def fn(p):
        # elementwise, so a batch and its rows round the same way
        lin = sum(p[..., j, None] * w[:, j] for j in range(m))
        return np.sin(lin).reshape(p.shape[:-1] + out)

    pts = RNG.normal(size=(7, m))
    steps = 1e-5 * (1.0 + RNG.random(7))
    assert central_difference(fn, pts, 1e-5).shape == (7,) + out + (m,)
    assert central_difference(fn, pts[0], 1e-5).shape == out + (m,)
    per_point = central_difference(fn, pts, steps)
    assert per_point.shape == (7,) + out + (m,)
    # a per-point step is the scalar stencil at each point with its own step
    for k in range(7):
        assert np.array_equal(per_point[k],
                              central_difference(fn, pts[k], steps[k]))
    exact = (np.cos(pts @ w.T)[..., None] * w).reshape(per_point.shape)
    np.testing.assert_allclose(per_point, exact, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_interior_is_an_antiderivation(seed):
    # iota_X(a ^ b) = (iota_X a) ^ b + (-1)^deg(a) a ^ (iota_X b)
    m = 5
    rng = np.random.default_rng(seed)
    a = _random_one_form(m, seed=seed)
    b = _random_two_form(m, seed=seed + 1)
    x = VecField(m, lambda p: np.tanh(p) + 0.1)
    lhs = interior(x, wedge(a, b))
    rhs = wedge(interior(x, a), b) + (-1.0) * wedge(a, interior(x, b))
    p = rng.normal(size=m)
    vecs = rng.normal(size=(2, m))
    np.testing.assert_allclose(lhs.at_basis(p, vecs),
                               rhs.at_basis(p, vecs), atol=1e-10)
