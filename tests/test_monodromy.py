"""Spinning fields, flows, the closed-form quadric trajectory, and the
Dehn twist comparison."""

from dataclasses import replace

import numpy as np
import pytest

from openbooks import cli, contact
from openbooks.bourgeois import profiled_representation
from openbooks.contact import (ContactForm, coordinate_open_book,
                               quadric_open_book)
from openbooks.errors import (BindingPoint, DegenerateSystem,
                              DimensionMismatch, DomainError, FlowAborted,
                              NonConvergence)
from openbooks.forms import KForm
from openbooks.liouville import (hypersurface_build, quartic_disk_domain,
                                 weinstein_disk_domain)
from openbooks.manifolds import (complement_frames, project_to_constraints,
                                 rng_for, sample, tangent_bases)
from openbooks.monodromy import (FLOW_STARTS, DehnTwist, SpinningField,
                                 closed_form_flow_check,
                                 closed_form_quadric_flow, complex_to_real,
                                 contraction_identity_check,
                                 coordinate_spinning_field,
                                 dehn_twist_identities_check,
                                 dehn_twist_pullback_check, flow,
                                 hypersurface_check, kernel_defect_form,
                                 monodromy_vs_dehn_twist, page_embedding,
                                 page_embedding_inverse,
                                 quadric_spinning_field, real_to_complex,
                                 spinning_definition_check, spinning_field,
                                 spinning_solve_check, standard_twist,
                                 trivial_monodromy_check)

QUADRIC = quadric_open_book(2)
COORDINATE = coordinate_open_book(2)


def coordinate_kernel_field(rep):
    """The kernel-normalized spinning field of the z_1 open book
    (iota_Y d(alpha/|f|) = 0 and d(theta)(Y) = 2 pi), derived in polar
    coordinates: the closed-form oracle of spinning_field,

        Y = 2 pi (x_1 d/dy_1 - y_1 d/dx_1)
            + 2 pi |z_1|^2 / (1 + |z_1|^2) *
              sum_{j >= 2} (x_j d/dy_j - y_j d/dx_j) .
    """
    def eval(z, out):
        z1 = z[..., 0]
        rho2 = z1.real ** 2 + z1.imag ** 2
        factor = 2 * np.pi * rho2 / (1.0 + rho2)
        np.multiply(1j * factor[..., None], z, out=out)
        np.multiply(2j * np.pi, z1, out[..., 0])
        return z1

    return SpinningField(rep, eval)


def _off_binding(rep, count, seed, band=1e-2, lo=None, hi=None):
    pts = sample(rep.manifold, 8 * count, seed)
    rho = rep.f.modulus(pts)
    keep = rho > band
    if lo is not None:
        keep &= rho > lo
    if hi is not None:
        keep &= rho < hi
    return pts[keep][:count]


def _bundle_samples(n, count, seed, r_max=1.0):
    rng = rng_for(seed)
    q = rng.normal(size=(count, n))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    g = rng.normal(size=(count, n))
    g -= np.sum(g * q, axis=-1, keepdims=True) * q
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    r = rng.uniform(0.0, r_max, size=(count, 1))
    return q, r * g


# ---------------------------------------------------------------------------
# spinning fields


def test_quadric_solve_matches_wirtinger_expression():
    pts = _off_binding(QUADRIC, 200, seed=1, band=1e-3)
    solved = spinning_field(QUADRIC, pts)
    analytic = quadric_spinning_field(QUADRIC)(pts)
    np.testing.assert_allclose(solved, analytic, atol=1e-7)


def test_spinning_solve_check_matches_the_closed_form():
    report = spinning_solve_check(QUADRIC, sample(QUADRIC.manifold, 400, 1))
    assert report.passed and report.n_samples == 200
    assert report.max_residual <= 1e-7


def _nan_alpha_quadric():
    """The quadric S^3 book with alpha NaN where x_0 > 0.9."""
    alpha = QUADRIC.contact.alpha

    def coeffs(p):
        c = alpha.coeffs(p)
        return np.where(p[..., :1] > 0.9, np.nan, c)

    return replace(QUADRIC, contact=ContactForm(KForm(1, 4, coeffs),
                                                QUADRIC.manifold))


def test_spinning_solve_with_a_nan_coefficient_raises_degenerate_system():
    rep = _nan_alpha_quadric()
    pts = sample(rep.manifold, 400, 3)
    pts = pts[rep.f.modulus(pts) > 1e-3]
    assert np.any(pts[:, 0] > 0.9)
    with pytest.raises(DegenerateSystem, match="not finite") as info:
        spinning_field(rep, pts)
    assert np.all(np.isnan(info.value.singular_values))
    assert info.value.singular_values.shape == (3,)


def test_spinning_solve_nan_fails_through_run_suite_as_degenerate_system(
        monkeypatch):
    # the g2_s3 spinning_solve row alone, on the NaN book at seed 3: its
    # 400 samples put NaN points among the first 200 off |f| <= 1e-3
    row = dict(cli.SUITES["g2_s3"]())["spinning_solve"]
    monkeypatch.setattr(contact, "quadric_open_book",
                        lambda n: _nan_alpha_quadric())
    monkeypatch.setitem(cli.SUITES, "g2_s3",
                        lambda: [("spinning_solve", row)])
    report, = cli.run_suite(cli.SuiteConfig(suite="g2_s3", seed=3))
    assert report.name == "g2_s3/spinning_solve"
    assert not report.passed
    assert "check raised DegenerateSystem" in report.note
    assert "LinAlgError" not in report.note


def test_coordinate_solve_matches_kernel_field():
    # the kernel-normalized field of the z_1 book carries an extra
    # rotation of the remaining coordinates (coordinate_kernel_field)
    pts = _off_binding(COORDINATE, 200, seed=2, band=1e-3)
    solved = spinning_field(COORDINATE, pts)
    np.testing.assert_allclose(solved, coordinate_kernel_field(COORDINATE)(pts),
                               atol=1e-7)


def test_theta_pairing_row():
    pts = _off_binding(QUADRIC, 100, seed=3)
    y = spinning_field(QUADRIC, pts)
    mu = QUADRIC.f.mu_form()
    vals = np.array([mu(pts[i], y[i]) for i in range(len(pts))])
    np.testing.assert_allclose(vals, 2 * np.pi * QUADRIC.f.modulus(pts) ** 2,
                               rtol=1e-8)


def _strided_quadric_field(p):
    # the quadric field written with strided real/imaginary slices, kept as
    # the reference for the complex-view evaluation
    z = p[..., 0::2] + 1j * p[..., 1::2]
    fval = np.sum(z * z, axis=-1)
    vel = np.pi * 1j * fval[..., None] * np.conj(z)
    out = np.empty_like(p)
    out[..., 0::2] = np.real(vel)
    out[..., 1::2] = np.imag(vel)
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("layout", ["contiguous", "every_other_row",
                                    "column_slice", "single_point"])
def test_view_quadric_field_equals_strided_formula(n, layout):
    rep = quadric_open_book(n)
    pts = sample(rep.manifold, 40, seed=40 + n)
    m = 2 * n
    if layout == "every_other_row":
        pts = pts[::2]
    elif layout == "column_slice":
        wide = rng_for(3).normal(size=(len(pts), m + 3))
        wide[:, 1:m + 1] = pts
        pts = wide[:, 1:m + 1]
    elif layout == "single_point":
        pts = pts[7]
    assert layout == "contiguous" or layout == "single_point" \
        or not pts.flags.c_contiguous
    got = quadric_spinning_field(rep)(pts)
    assert got.shape == pts.shape and got.dtype == np.float64
    assert np.array_equal(got, _strided_quadric_field(pts))


def test_spinning_field_rejects_binding_band():
    bind = sample(QUADRIC.binding, 5, seed=4)
    with pytest.raises(BindingPoint):
        spinning_field(QUADRIC, bind)


def _bordered_solve(rep, pts):
    """Y from the square system [mu; rho^3 d(alpha/rho)(., e_p)] Y =
    (2 pi rho^2, 0) over a page frame {e_p} (the complement of mu in
    T_p V), with the page rows written out by hand: solved by pinv and one
    step of iterative refinement, which takes the pinv route's own ~1e-14
    rounding off the reference."""
    bases = tangent_bases(rep.manifold, pts)
    reg = rep.f.regularized(pts)
    mu_t = np.einsum("nm,njm->nj", reg.mu, bases)
    rho_drho_t = np.einsum("nm,njm->nj", reg.rho_drho, bases)
    alpha_t = rep.contact.alpha.restrict(pts, bases)
    da_t = rep.contact.d_alpha().restrict(pts, bases)
    page = complement_frames(mu_t)[0]
    rows = (reg.rho2[:, None, None] * np.einsum("npj,njk->npk", page, -da_t)
            - np.einsum("npj,nj->np", page, alpha_t)[:, :, None]
            * rho_drho_t[:, None, :]
            + np.einsum("npj,nj->np", page, rho_drho_t)[:, :, None]
            * alpha_t[:, None, :])
    mat = np.concatenate([mu_t[:, None, :], rows], axis=1)
    rhs = np.zeros(mat.shape[:2])
    rhs[:, 0] = 2 * np.pi * reg.rho2
    inv = np.linalg.pinv(mat)
    sol = np.einsum("nij,nj->ni", inv, rhs)
    sol += np.einsum("nij,nj->ni", inv,
                     rhs - np.einsum("nij,nj->ni", mat, sol))
    return np.einsum("nj,njm->nm", sol, bases)


@pytest.mark.parametrize("name", ["quadric S^3", "quadric S^5",
                                  "coordinate S^5", "profiled quadric S^3",
                                  "Weinstein-disk V", "quartic-D^4 V"])
def test_spinning_field_equals_the_bordered_solve(name):
    rep = {"quadric S^3": lambda: QUADRIC,
           "quadric S^5": lambda: quadric_open_book(3),
           "coordinate S^5": lambda: coordinate_open_book(3),
           "profiled quadric S^3": lambda: profiled_representation(QUADRIC),
           "Weinstein-disk V": lambda: hypersurface_build(
               weinstein_disk_domain()).rep,
           "quartic-D^4 V": lambda: hypersurface_build(
               quartic_disk_domain(2)).rep}[name]()
    pts = _off_binding(rep, 200, seed=16, band=1e-3)
    assert len(pts) == 200
    got = spinning_field(rep, pts)
    assert np.max(np.abs(got - _bordered_solve(rep, pts))) <= 1e-14
    assert np.array_equal(spinning_field(rep, pts[7]), got[7])


@pytest.mark.parametrize("n", [3, 4])
def test_spinning_field_next_to_the_binding(n):
    # binding samples pushed off by 2e-6 and projected back: |f| reaches
    # about 1.3e-6, just outside the band, where the page form's rho drho ^
    # alpha part outweighs its rho^2 d(alpha) part by 1/|f|
    rep = quadric_open_book(n)
    bind = sample(rep.binding, 200, seed=17)
    pts = project_to_constraints(
        rep.manifold, bind + 2e-6 * rng_for(18).normal(size=bind.shape))
    pts = pts[rep.f.modulus(pts) > 1e-6]
    assert len(pts) > 150 and np.min(rep.f.modulus(pts)) < 1.5e-6
    got = spinning_field(rep, pts)
    want = quadric_spinning_field(rep)(pts)
    assert np.max(np.linalg.norm(got - want, axis=-1)
                  / np.linalg.norm(want, axis=-1)) <= 1e-9


@pytest.mark.parametrize("rep,field_maker", [
    (QUADRIC, quadric_spinning_field),
    (COORDINATE, coordinate_kernel_field)])
def test_contraction_identity(rep, field_maker):
    pts = sample(rep.manifold, 400, seed=5)
    report = contraction_identity_check(rep, field_maker(rep), pts)
    assert report.passed
    assert report.max_residual < 1e-7


def test_kernel_defect_vanishes_only_for_kernel_field():
    # iota_Y d(lambda) = 0 holds on tangent vectors for the normalized
    # field; the rotation field's defect is -pi d|f| instead
    pts = _off_binding(COORDINATE, 50, seed=6, band=0.2)
    bases = tangent_bases(COORDINATE.manifold, pts)
    kernel = kernel_defect_form(COORDINATE,
                                coordinate_kernel_field(COORDINATE))
    rotation = kernel_defect_form(COORDINATE,
                                  coordinate_spinning_field(COORDINATE))
    k_vals, r_vals = [], []
    rho = COORDINATE.f.modulus(pts)
    g = COORDINATE.f.grad(pts)
    fx, fy = COORDINATE.f.parts(pts)
    drho = (fx[:, None] * g[:, 0, :] + fy[:, None] * g[:, 1, :]) \
        / rho[:, None]
    for j in range(bases.shape[1]):
        v = bases[:, None, j, :]
        k_vals.append(kernel.at_basis(pts, v))
        r_vals.append(rotation.at_basis(pts, v)
                      + np.pi * np.einsum("nm,nm->n", drho, bases[:, j, :]))
    assert np.max(np.abs(np.stack(k_vals))) < 1e-9
    np.testing.assert_allclose(np.stack(r_vals), 0.0, atol=1e-9)


def test_definition_check_accepts_both_spinning_fields():
    pts = _off_binding(COORDINATE, 200, seed=8)
    for field in (coordinate_spinning_field(COORDINATE),
                  coordinate_kernel_field(COORDINATE)):
        report = spinning_definition_check(COORDINATE, field, pts)
        assert report.passed


def _scaled_by_re_z2(y):
    # g Y with g = 1 + Re(z_2) / 2, through y's own formula
    def eval(z, out):
        fval = y.eval(z, out)
        out *= (1.0 + 0.5 * z[..., 1].real)[..., None]
        return fval

    return SpinningField(y.rep, eval)


def test_scaled_coordinate_field_fails_page_structure():
    # negative control: iota_{gY} d(lambda) = g iota_Y d(lambda), so on
    # page pairs d(iota_{gY} d(lambda)) = dg ^ iota_Y d(lambda), which the
    # scaling g = 1 + Re(z_2) / 2 leaves nonzero; d(theta)(gY) = 2 pi g
    # fails the pairing as well
    pts = _off_binding(COORDINATE, 200, seed=8)
    y = _scaled_by_re_z2(coordinate_spinning_field(COORDINATE))
    report = spinning_definition_check(COORDINATE, y, pts)
    assert not report.passed
    leaves = {d.name: d for d in report.details}
    assert not leaves["theta_pairing"].passed
    page = leaves["page_structure_preserved"]
    assert not page.passed
    assert 1.54 < page.max_residual < 1.55, page.max_residual


@pytest.mark.parametrize("rep", [COORDINATE, QUADRIC],
                         ids=["coordinate", "quadric"])
def test_kernel_defect_form_is_evaluated_twice_per_page_direction(
        monkeypatch, rep):
    # d(iota_Y d(lambda)) on page pairs is a stencil along the page frame:
    # pages of S^3 are surfaces, so 4 evaluations of kernel_defect_form,
    # where the coordinate stencil on R^4 takes 8
    import openbooks.monodromy as monodromy_module
    made = monodromy_module.kernel_defect_form
    calls = []

    def counted(rep, y):
        form = made(rep, y)

        def coeffs(p):
            calls.append(p.shape)
            return form.coeffs(p)
        return replace(form, coeffs=coeffs)

    pts = _off_binding(rep, 100, seed=9)
    y = (coordinate_spinning_field if rep is COORDINATE
         else quadric_spinning_field)(rep)
    reference = spinning_definition_check(rep, y, pts)
    monkeypatch.setattr(monodromy_module, "kernel_defect_form", counted)
    report = spinning_definition_check(rep, y, pts)
    assert report.passed
    assert report.max_residual == reference.max_residual
    assert len(calls) == 4


def _negated(y, rep=None):
    # -Y on the book `rep` (y's own by default), through y's own formula
    def eval(z, out):
        fval = y.eval(z, out)
        np.negative(out, out=out)
        return fval

    return SpinningField(y.rep if rep is None else rep, eval)


def test_negated_field_spins_the_conjugate_book():
    # d(conj theta)(-Y) = +2 pi: the negated field is the spinning field
    # of the conjugate open book
    from dataclasses import replace
    rep_bar = replace(QUADRIC, f=QUADRIC.f.conjugate(),
                      name="conjugate quadric")
    y = quadric_spinning_field(QUADRIC)
    y_minus = _negated(y, rep_bar)
    pts = _off_binding(QUADRIC, 100, seed=11)
    mu_bar = rep_bar.f.mu_form()
    vals = np.array([mu_bar(pts[i], y_minus(pts[i]))
                     for i in range(len(pts))])
    np.testing.assert_allclose(
        vals, 2 * np.pi * rep_bar.f.modulus(pts) ** 2, rtol=1e-8)


# ---------------------------------------------------------------------------
# flows


def test_trivial_monodromy_of_coordinate_book():
    pts = _off_binding(COORDINATE, 200, seed=12)
    end = flow(coordinate_spinning_field(COORDINATE), pts, 1.0, 1e-3)
    assert np.max(np.abs(end - pts)) < 1e-7


def test_trivial_monodromy_check_returns_every_start():
    report = trivial_monodromy_check(COORDINATE,
                                     sample(COORDINATE.manifold, 400, 12))
    assert report.passed and report.n_samples == FLOW_STARTS
    assert report.max_residual <= 1e-7


def test_half_speed_field_fails_trivial_monodromy(monkeypatch):
    # control: half the field turns the z_1 plane by pi in unit time, so
    # the time-1 flow sends z_1 to -z_1
    import openbooks.monodromy as mono

    def half(rep):
        y = coordinate_spinning_field(rep)

        def eval(z, out):
            fval = y.eval(z, out)
            np.multiply(0.5, out, out=out)
            return fval

        return SpinningField(rep, eval)

    monkeypatch.setattr(mono, "coordinate_spinning_field", half)
    report = trivial_monodromy_check(COORDINATE,
                                     sample(COORDINATE.manifold, 400, 12))
    assert not report.passed
    assert report.max_residual > 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flow_rejects_a_start_that_is_not_finite(bad):
    pts = _off_binding(QUADRIC, 3, seed=13, band=0.1)
    pts[1, 0] = bad
    with pytest.raises(DomainError):
        flow(quadric_spinning_field(QUADRIC), pts, 0.1, 1e-2,
             check_halving=True)


def test_flow_step_halving_agreement():
    pts = _off_binding(QUADRIC, 20, seed=13, band=0.1)
    end = flow(quadric_spinning_field(QUADRIC), pts, 1.0, 1e-3,
               check_halving=True, halving_tol=1e-6)
    assert end.shape == pts.shape


def test_flow_aborts_inside_binding_band():
    bind = sample(QUADRIC.binding, 5, seed=14)
    nudged = bind + 1e-8 * rng_for(15).normal(size=bind.shape)
    nudged /= np.linalg.norm(nudged, axis=-1, keepdims=True)
    with pytest.raises(FlowAborted):
        flow(quadric_spinning_field(QUADRIC), nudged, 1.0, 1e-3)


def _stage_one(y, pts):
    # the first stage of a flow step: Y and f from one call of y.eval
    z = np.ascontiguousarray(pts).view(np.complex128)
    out = np.full_like(z, np.nan)
    fval = y.eval(z, out)
    return out.view(np.float64), fval


@pytest.mark.parametrize("n", [2, 3])
def test_fused_stage_one_matches_eval_and_modulus(n):
    # the stage-1 f of the quadric field, near the binding too, is |f| of
    # the book to rounding, and its Y is the field's
    rep = quadric_open_book(n)
    y = quadric_spinning_field(rep)
    near = sample(rep.binding, 20, seed=50 + n)
    near = near + 1e-4 * rng_for(52).normal(size=near.shape)
    near /= np.linalg.norm(near, axis=-1, keepdims=True)
    pts = np.concatenate([sample(rep.manifold, 200, seed=50), near])
    vel, fval = _stage_one(y, pts)
    assert np.array_equal(vel, y(pts))
    assert np.max(np.abs(np.abs(fval) - rep.f.modulus(pts))) <= 1e-15


def test_unfused_stage_one_is_eval_and_f_value():
    # the rotation field's stage-1 f is the book's f.value, bit for bit
    y = coordinate_spinning_field(COORDINATE)
    pts = sample(COORDINATE.manifold, 50, seed=53)
    vel, fval = _stage_one(y, pts)
    assert np.array_equal(vel, y(pts))
    assert np.array_equal(fval, COORDINATE.f.value(pts))


def _modulus_band_flow(y, p0, t_end, step, min_abs_f):
    # the textbook RK4 loop, with its band test on rep.f.modulus ahead of
    # stage 1 and fresh arrays at every stage: the reference for the band
    # tests and the bits of flow; returns the step that aborts (or None)
    # and the endpoint
    from openbooks.manifolds import gauss_newton_step
    pts = np.array(p0, float)
    manifold = y.rep.manifold
    h = np.sign(t_end) * step
    half, sixth = 0.5 * h, h / 6.0
    for i in range(int(round(abs(t_end) / step))):
        if (y.rep.f.modulus(pts) < min_abs_f).any():
            return i, pts
        k1 = y(pts)
        k2 = y(pts + half * k1)
        k3 = y(pts + half * k2)
        k4 = y(pts + h * k3)
        pts = pts + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        pts = gauss_newton_step(manifold, pts, manifold.constraints(pts))
    return None, pts


def test_fused_band_test_aborts_at_the_reference_step(monkeypatch):
    # nudged binding points, on the sphere (abort at step 0) and pushed
    # off it by 5%: the projection then shrinks |f| over the first steps,
    # so the abort comes later and depends on the threshold
    import openbooks.monodromy as mono
    y = quadric_spinning_field(QUADRIC)
    bind = sample(QUADRIC.binding, 5, seed=14)
    nudged = bind + 1e-8 * rng_for(15).normal(size=bind.shape)
    nudged /= np.linalg.norm(nudged, axis=-1, keepdims=True)
    low = np.min(QUADRIC.f.modulus(nudged))
    far = _off_binding(QUADRIC, 5, seed=54, band=0.1)
    cases = [(nudged, 1e-6), (1.05 * nudged, 1.0001 * low),
             (1.05 * nudged, 1.01 * low)]
    steps = []
    for start, band in cases:
        pts = np.concatenate([far, start])
        want, _ = _modulus_band_flow(y, pts, 1.0, 1e-3, band)
        monkeypatch.setattr(mono, "FLOW_BINDING_BAND", band)
        with pytest.raises(FlowAborted, match=f"at step {want}$"):
            flow(y, pts, 1.0, 1e-3)
        steps.append(want)
    assert steps == [0, 2, 1]
    monkeypatch.undo()
    want, end = _modulus_band_flow(y, far, 0.05, 1e-3, 1e-6)
    assert want is None
    assert np.array_equal(flow(y, far, 0.05, 1e-3), end)


def _hypersurface_rep():
    from openbooks.liouville import hypersurface_build, weinstein_disk_domain
    return hypersurface_build(weinstein_disk_domain()).rep


def _rotation_field(kind):
    y = _package_field(kind)
    m = y.rep.manifold.ambient_dim
    return y, (0, 1) if kind == "coordinate" else (m - 2, m - 1)


@pytest.mark.parametrize("kind", ["coordinate", "angle"])
def test_rotation_fields_equal_their_column_formula(kind):
    # the complex product 2 pi i z_k gives the same numbers as writing the
    # two rotated columns, 2 pi (-x_j, x_i), into zeros
    y, (i, j) = _rotation_field(kind)
    pts = sample(y.rep.manifold, 50, seed=57)
    want = np.zeros_like(pts)
    want[:, i] = -2 * np.pi * pts[:, j]
    want[:, j] = 2 * np.pi * pts[:, i]
    assert np.array_equal(y(pts), want)
    assert np.array_equal(y(pts[0]), want[0])


def test_unfused_band_test_aborts_at_the_reference_step(monkeypatch):
    # the band test on the rotation field's f = z_1: coordinate-field
    # points nudged toward z_1 = 0, on the sphere and pushed off it by 5%,
    # as in the quadric test above
    import openbooks.monodromy as mono
    y = coordinate_spinning_field(COORDINATE)
    bind = sample(COORDINATE.binding, 5, seed=58)
    nudged = bind + 1e-8 * rng_for(59).normal(size=bind.shape)
    nudged /= np.linalg.norm(nudged, axis=-1, keepdims=True)
    low = np.min(COORDINATE.f.modulus(nudged))
    far = _off_binding(COORDINATE, 5, seed=60, band=0.1)
    cases = [(nudged, 1e-6), (1.05 * nudged, 1.0001 * low),
             (1.05 * nudged, 1.01 * low)]
    steps = []
    for start, band in cases:
        pts = np.concatenate([far, start])
        want, _ = _modulus_band_flow(y, pts, 1.0, 1e-3, band)
        monkeypatch.setattr(mono, "FLOW_BINDING_BAND", band)
        with pytest.raises(FlowAborted, match=f"at step {want}$"):
            flow(y, pts, 1.0, 1e-3)
        steps.append(want)
    assert steps == [0, 2, 1]


@pytest.mark.parametrize("seed", [55, 56])
def test_negative_time_flow_equals_flowing_minus_y(seed):
    y = quadric_spinning_field(QUADRIC)
    minus_y = _negated(y)
    pts = _off_binding(QUADRIC, 50, seed=seed, band=0.05)
    assert np.array_equal(flow(y, pts, -1.0, 1e-3),
                          flow(minus_y, pts, 1.0, 1e-3))


def test_flow_nonconvergence_error():
    # a deliberately coarse step: the truncation error (~1e-4) exceeds the
    # step-halving budget by orders of magnitude
    pts = _off_binding(QUADRIC, 5, seed=16, band=0.3)
    with pytest.raises(NonConvergence):
        flow(quadric_spinning_field(QUADRIC), pts, 1.0, 0.05,
             check_halving=True, halving_tol=1e-8)


def test_monodromy_maps_page_to_itself():
    pts = _off_binding(QUADRIC, 100, seed=17, band=5e-2)
    end = flow(quadric_spinning_field(QUADRIC), pts, 1.0, 1e-3)
    dtheta = np.angle(QUADRIC.f.value(end) / QUADRIC.f.value(pts))
    assert np.max(np.abs(dtheta)) < 1e-6


@pytest.mark.parametrize("kind", ["quadric", "coordinate"])
def test_flow_of_an_empty_batch_is_empty(kind):
    # 0 point-steps are 0 evaluations: an empty batch returns before the
    # loop, so the band test never reduces zero rows, forward or backward
    from dataclasses import replace
    rep, field = {"quadric": (QUADRIC, quadric_spinning_field),
                  "coordinate": (COORDINATE, coordinate_spinning_field)}[kind]
    y = field(rep)
    calls = []

    def counted(z, out):
        calls.append(len(z))
        return y.eval(z, out)

    empty = np.empty((0, rep.manifold.ambient_dim))
    for t_end in (1.0, -1.0):
        end = flow(replace(y, eval=counted), empty, t_end)
        assert end.shape == (0, rep.manifold.ambient_dim)
    assert calls == []


@pytest.mark.parametrize("inside", [True, False])
def test_band_test_skips_a_nan_but_not_the_points_beside_it(inside):
    # stage 1 reports |f| = NaN at the first point and, with `inside`,
    # 1e-9 at the last: a NaN never trips the band test, and it does not
    # hide a point inside the band
    def eval(z, out):
        out[...] = 0
        fval = np.full(len(z), 0.5 + 0j)
        fval[0] = np.nan
        if inside:
            fval[-1] = 1e-9
        return fval

    y = SpinningField(QUADRIC, eval)
    pts = _off_binding(QUADRIC, 3, seed=13, band=0.1)
    if inside:
        with pytest.raises(FlowAborted, match="at step 0$"):
            flow(y, pts, 0.1, 1e-2)
    else:
        assert flow(y, pts, 0.1, 1e-2).shape == pts.shape


@pytest.mark.parametrize("shape", [(3, 3), (3, 6), (6,), (2, 3, 4), ()],
                         ids=["narrow", "wide", "wide_point", "three_axes",
                              "scalar"])
def test_flow_rejects_a_start_of_another_shape(shape):
    # on S^3 a width-6 batch used to flow silently, and a width-3 batch
    # raised numpy's ValueError from the complex view of the workspace
    with pytest.raises(DimensionMismatch):
        flow(quadric_spinning_field(QUADRIC), np.full(shape, 0.5), 0.1, 1e-2)


def test_flow_rejects_a_complex_start():
    # a complex start used to warn (ComplexWarning) and flow its real part;
    # it is refused before anything is converted, even with no imaginary part
    import warnings
    pts = _off_binding(QUADRIC, 3, seed=13, band=0.1)
    for start in (pts + 1e-3j, pts.astype(complex), pts[0].astype(complex)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="complex"):
                flow(quadric_spinning_field(QUADRIC), start, 0.1, 1e-2)


@pytest.mark.parametrize("t_end, step", [
    (1.0, -1e-3), (-1.0, -1e-3), (1.0, 0.0), (1.0, np.nan), (1.0, np.inf),
    (np.nan, 1e-3), (np.inf, 1e-3), (-np.inf, 1e-3), (1e-4, 1e-3),
    (1.0005, 1e-3)],
    ids=["negative_step", "negative_step_and_time", "zero_step", "nan_step",
         "inf_step", "nan_time", "inf_time", "minus_inf_time",
         "time_below_one_step", "time_between_steps"])
def test_flow_rejects_a_step_or_time_it_cannot_integrate(t_end, step):
    # each of these used to return the start unflowed, round the time to
    # another number of steps or raise an arithmetic error
    pts = _off_binding(QUADRIC, 3, seed=13, band=0.1)
    with pytest.raises(DomainError):
        flow(quadric_spinning_field(QUADRIC), pts, t_end, step)


@pytest.mark.parametrize("kind", ["quadric", "coordinate"])
def test_zero_time_flow_is_the_identity(kind):
    rep, field = {"quadric": (QUADRIC, quadric_spinning_field),
                  "coordinate": (COORDINATE, coordinate_spinning_field)}[kind]
    pts = _off_binding(rep, 5, seed=57, band=0.1)
    assert np.array_equal(flow(field(rep), pts, 0.0), pts)


@pytest.mark.parametrize("t_end", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_kernel_flow_has_the_bits_of_the_flow_without_kernel(n, t_end):
    # flow runs the field on views of its workspace rows; a field that
    # evaluates from and into fresh arrays, and the textbook loop of
    # _modulus_band_flow, allocate
    from dataclasses import replace
    rep = quadric_open_book(n)
    y = quadric_spinning_field(rep)
    pts = _off_binding(rep, 12, seed=60 + n, band=0.1)
    end = flow(y, pts, t_end, 1e-3, check_halving=True)

    def fresh(z, out):
        vel = np.empty_like(out)
        fval = y.eval(z.copy(), vel)
        out[...] = vel
        return fval.copy()

    plain = replace(y, eval=fresh)
    assert np.array_equal(end, flow(plain, pts, t_end, 1e-3,
                                    check_halving=True))
    want, reference = _modulus_band_flow(y, pts, t_end, 1e-3, 0.0)
    assert want is None
    assert np.array_equal(end, reference)


@pytest.mark.parametrize("layout", ["batch", "single_point"])
@pytest.mark.parametrize("n", [2, 3])
def test_quadric_kernel_on_a_complex_view_equals_eval(n, layout):
    rep = quadric_open_book(n)
    y = quadric_spinning_field(rep)
    pts = sample(rep.manifold, 40, seed=62 + n)
    if layout == "single_point":
        pts = pts[5]
    held = pts.copy()
    z = pts.view(np.complex128)
    # NaN in out: eval writes every entry and reads none
    out = np.full_like(z, np.nan)
    fval = y.eval(z, out)
    assert np.array_equal(out.view(np.float64), _strided_quadric_field(pts))
    # for n <= 3 the column sum is np.add.reduce's order
    assert np.array_equal(fval, np.add.reduce(z * z, axis=-1))
    assert np.array_equal(pts, held)


def test_flow_runs_the_kernel_four_times_a_step_and_never_eval(monkeypatch):
    # flow evaluates on its workspace views only: never through the
    # real-array entry point SpinningField.__call__, which allocates
    from dataclasses import replace
    calls = {"eval": 0, "__call__": 0}
    y = quadric_spinning_field(QUADRIC)

    def counted(*args):
        calls["eval"] += 1
        return y.eval(*args)

    real_entry = SpinningField.__call__

    def entry(field, p):
        calls["__call__"] += 1
        return real_entry(field, p)

    monkeypatch.setattr(SpinningField, "__call__", entry)
    pts = _off_binding(QUADRIC, 6, seed=58, band=0.1)
    held = pts.copy()
    end = flow(replace(y, eval=counted), pts, 0.007, 1e-3)
    assert calls == {"eval": 4 * 7, "__call__": 0}
    assert np.array_equal(end, flow(y, pts, 0.007, 1e-3))
    assert np.array_equal(pts, held)


def _package_field(kind):
    # every spinning field the package builds, each on its own book, and
    # the kernel-normalized oracle of the z_1 book
    from openbooks.liouville import angle_spinning_field
    if kind == "coordinate":
        return coordinate_spinning_field(COORDINATE)
    if kind == "coordinate_kernel":
        return coordinate_kernel_field(COORDINATE)
    if kind == "angle":
        return angle_spinning_field(_hypersurface_rep())
    return quadric_spinning_field(quadric_open_book(int(kind[-1])))


@pytest.mark.parametrize("kind", ["coordinate", "coordinate_kernel", "angle",
                                  "quadric_2", "quadric_3"])
def test_every_package_field_returns_its_books_f(kind):
    # flow's binding-band test reads the f that eval returns
    y = _package_field(kind)
    pts = np.ascontiguousarray(sample(y.rep.manifold, 60, seed=63))
    z = pts.view(np.complex128)
    fval = y.eval(z, np.empty_like(z))
    if kind.startswith("quadric"):
        # the column sum of z_j^2 against the book's real formula, which
        # keeps the cancellations along the binding
        assert np.max(np.abs(np.abs(fval) - y.rep.f.modulus(pts))) <= 1e-15
    else:
        assert np.array_equal(fval, y.rep.f.value(pts))


@pytest.mark.parametrize("kind", ["coordinate", "coordinate_kernel",
                                  "quadric_2", "angle"])
def test_flow_calls_eval_four_times_a_step(kind):
    # one call of eval per RK4 stage: the benchmark tracer counts the
    # field evaluations of a flow by replacing eval the same way
    from dataclasses import replace
    y = _package_field(kind)
    calls = []

    def counted(z, out):
        calls.append(len(z))
        return y.eval(z, out)

    pts = _off_binding(y.rep, 6, seed=64, band=0.1)
    end = flow(replace(y, eval=counted), pts, 0.007, 1e-3)
    assert calls == [len(pts)] * (4 * 7)
    assert np.array_equal(end, flow(y, pts, 0.007, 1e-3))


def _without_newton_step(y):
    # the same field on the same book, on a manifold that projects through
    # the generic gauss_newton_step
    from dataclasses import replace
    rep = y.rep
    contact = replace(rep.contact,
                      manifold=replace(rep.manifold, newton_step=None))
    return replace(y, rep=replace(rep, contact=contact))


@pytest.mark.parametrize("kind", ["quadric_2", "coordinate", "angle"])
def test_flow_with_the_newton_step_has_the_bits_of_the_generic_step(
        kind, monkeypatch):
    # S^3 and the hypersurface project with their own closed-form step,
    # which builds no Jacobian; the generic step builds one per RK4 step
    from openbooks.manifolds import Submanifold
    y = _package_field(kind)
    generic = _without_newton_step(y)
    assert y.rep.manifold.newton_step is not None
    pts = _off_binding(y.rep, 12, seed=65, band=0.1)
    off = pts + 1e-4 * rng_for(66).normal(size=pts.shape)
    for start, t_end in ((pts, 1.0), (off, -1.0), (off[3], 0.1)):
        assert np.array_equal(flow(y, start, t_end),
                              flow(generic, start, t_end))
    calls = []
    jacobian = Submanifold.jacobian

    def counting(self, p):
        calls.append(len(p))
        return jacobian(self, p)

    monkeypatch.setattr(Submanifold, "jacobian", counting)
    flow(y, off, 0.007, 1e-3)
    assert calls == []
    flow(generic, off, 0.007, 1e-3)
    assert calls == [len(off)] * 7


@pytest.mark.parametrize("kind", ["quadric", "coordinate"])
@pytest.mark.parametrize("layout", ["column_slice", "fortran", "single_point"])
def test_flow_of_a_strided_start_equals_its_contiguous_copy(kind, layout):
    rep, field = {"quadric": (QUADRIC, quadric_spinning_field),
                  "coordinate": (COORDINATE, coordinate_spinning_field)}[kind]
    y = field(rep)
    pts = _off_binding(rep, 8, seed=59, band=0.1)
    m = rep.manifold.ambient_dim
    if layout == "column_slice":
        wide = rng_for(61).normal(size=(len(pts), m + 3))
        wide[:, 2:m + 2] = pts
        start = wide[:, 2:m + 2]
    elif layout == "fortran":
        start = np.asfortranarray(pts)
    else:
        start = np.stack([pts[3], pts[3]], axis=-1)[:, 0]
    assert not start.flags.c_contiguous
    held = start.copy()
    end = flow(y, start, 0.05, 1e-3)
    assert np.array_equal(end, flow(y, np.ascontiguousarray(start), 0.05,
                                    1e-3))
    assert np.array_equal(start, held)


@pytest.mark.parametrize("layout", ["batch", "single_point"])
@pytest.mark.parametrize("t_end, step", [(-0.05, 5e-3), (0.05, 1e-3)])
@pytest.mark.parametrize("kind", ["coordinate", "coordinate_kernel",
                                  "quadric_2", "angle"])
def test_flow_has_the_bits_of_the_python_float_loop(kind, t_end, step,
                                                     layout):
    # flow takes h/2, h, 2 and h/6 as 0-d arrays made once per run, and
    # its fields and Newton steps take module-level 0-d constants; the
    # reference loop takes Python floats and the generic Gauss-Newton step
    y = _package_field(kind)
    pts = _off_binding(y.rep, 12, seed=67, band=0.1)
    start = pts[4] if layout == "single_point" else pts
    want, reference = _modulus_band_flow(y, start, t_end, step, 0.0)
    assert want is None
    assert np.array_equal(flow(y, start, t_end, step), reference)


def test_shared_constant_operands_are_read_only():
    # every module-level 0-d array of the package is a constant operand
    # shared by every flow: a stray out= into one must raise, not change
    # every later flow
    import importlib
    import pkgutil
    import openbooks
    shared = {}
    for info in pkgutil.iter_modules(openbooks.__path__):
        module = importlib.import_module(f"openbooks.{info.name}")
        shared.update({f"{info.name}.{name}": value
                       for name, value in vars(module).items()
                       if isinstance(value, np.ndarray) and value.ndim == 0})
    assert {"manifolds._HALF", "manifolds._ONE", "liouville._HALF",
            "liouville._ONE", "liouville._MINUS_TWO", "monodromy._PI_I",
            "monodromy._TWO_PI_I", "monodromy._TWO"} <= set(shared)
    for name, value in shared.items():
        assert not value.flags.writeable, name
        held = value.copy()
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(value, 2.0, out=value)
        assert value == held, name


# ---------------------------------------------------------------------------
# closed-form flow


def test_closed_form_binding_fixed():
    bind = sample(QUADRIC.binding, 50, seed=18)
    z0 = real_to_complex(bind)
    z1, flagged = closed_form_quadric_flow(z0, 1.0)
    np.testing.assert_allclose(z1, z0, atol=1e-12)
    assert not np.any(flagged)


def test_closed_form_real_start_antipode():
    rng = rng_for(19)
    q = rng.normal(size=(20, 2))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    z0 = q.astype(complex)
    z1, _ = closed_form_quadric_flow(z0, 1.0)
    np.testing.assert_allclose(z1, -z0, atol=1e-9)


def test_closed_form_matches_rk4():
    pts = _off_binding(QUADRIC, 200, seed=20, lo=0.05, hi=0.95)
    z0 = real_to_complex(pts)
    end_rk = flow(quadric_spinning_field(QUADRIC), pts, 1.0, 1e-4)
    end_cf, flagged = closed_form_quadric_flow(z0, 1.0)
    assert np.max(np.abs(real_to_complex(end_rk) - end_cf)) < 1e-6
    assert not np.any(flagged)


def test_modulus_conserved_along_trajectory():
    pts = _off_binding(QUADRIC, 200, seed=21, lo=0.05, hi=0.95)
    z0 = real_to_complex(pts)
    g0 = np.abs(np.sum(z0 * z0, axis=-1))
    for t in (0.25, 0.5, 0.75, 1.0):
        zt, _ = closed_form_quadric_flow(z0, t)
        drift = np.abs(np.abs(np.sum(zt * zt, axis=-1)) - g0)
        assert np.max(drift) < 1e-9


def test_closed_form_flow_check():
    report = closed_form_flow_check(QUADRIC,
                                    sample(QUADRIC.manifold, 800, 15))
    assert report.passed and report.n_samples == FLOW_STARTS
    assert report.max_residual <= 1e-6


def test_closed_form_flags_cancellation():
    q = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 1e-4]])
    z0 = q + 1j * y
    z0 /= np.linalg.norm(z0, axis=-1, keepdims=True)
    _, flagged = closed_form_quadric_flow(z0, 1.0)
    assert np.all(flagged)


def test_closed_form_rejects_bad_modulus():
    with pytest.raises(DomainError):
        closed_form_quadric_flow(np.array([[2.0 + 0j, 0.0 + 0j]]), 1.0)


# ---------------------------------------------------------------------------
# the Dehn twist


def test_twist_boundary_identity_and_zero_section():
    twist = standard_twist()
    q, p = _bundle_samples(3, 100, seed=22)
    unit = p / np.linalg.norm(p, axis=-1, keepdims=True)
    qb, pb = twist(q, unit)
    np.testing.assert_allclose(qb, q, atol=1e-12)
    np.testing.assert_allclose(pb, unit, atol=1e-12)
    q0, p0 = twist(q, np.zeros_like(p))
    np.testing.assert_allclose(q0, -q, atol=0)
    np.testing.assert_allclose(p0, 0.0, atol=0)


def test_twist_preserves_fiber_radius_and_constraints():
    twist = standard_twist()
    q, p = _bundle_samples(3, 200, seed=23)
    q2, p2 = twist(q, p)
    assert np.max(np.abs(np.linalg.norm(p2, axis=-1)
                         - np.linalg.norm(p, axis=-1))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(q2, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.sum(q2 * p2, axis=-1))) < 1e-12


def test_twist_smooth_across_zero_section():
    # the even-function evaluation sin(rho(r))/r stays finite, so the
    # image deviates from the antipodal map only linearly in r
    twist = standard_twist()
    q = np.tile(np.eye(3)[0], (5, 1))
    direction = np.tile(np.eye(3)[1], (5, 1))
    radii = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.0])[:, None]
    q2, p2 = twist(q, radii * direction)
    assert np.all(np.linalg.norm(q2 + q, axis=-1) <= 2 * np.pi * radii[:, 0]
                  + 1e-12)
    assert np.all(np.linalg.norm(p2, axis=-1) <= radii[:, 0] + 1e-15)
    assert np.all(np.isfinite(q2)) and np.all(np.isfinite(p2))


def test_twist_rejects_invalid_input():
    twist = standard_twist()
    with pytest.raises(DomainError):
        twist(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))


def test_twist_pullback_identity():
    twist = standard_twist()
    q, p = _bundle_samples(3, 200, seed=24)
    report = dehn_twist_pullback_check(twist, 3,
                                       np.concatenate([q, p], axis=-1))
    assert report.passed
    assert report.max_residual < 1e-7


# ---------------------------------------------------------------------------
# monodromy against the twist


def _twist_frames(seed):
    q, p = _bundle_samples(3, 200, seed)
    radii = np.linalg.norm(p, axis=-1, keepdims=True)
    return q, p / radii, radii


def test_dehn_twist_identities_check():
    report = dehn_twist_identities_check(*_twist_frames(30))
    assert report.passed and report.n_samples == 600
    assert report.max_residual <= 1e-7


def test_negated_twist_fails_the_identities(monkeypatch):
    # control: composed with (q, p) -> (-q, -p), the twist still preserves
    # |p| and lambda_can, but sends each boundary point (q, g) to (-q, -g)
    import openbooks.monodromy as mono

    class Negated(DehnTwist):
        def __call__(self, q, p, validate=True):
            q_out, p_out = super().__call__(q, p, validate)
            return -q_out, -p_out

    monkeypatch.setattr(mono, "standard_twist",
                        lambda: Negated(standard_twist().g))
    report = dehn_twist_identities_check(*_twist_frames(30))
    assert not report.passed
    assert 1.5 < report.max_residual <= 2.0 + 1e-12


def test_page_embedding_round_trip():
    q, p = _bundle_samples(2, 100, seed=25, r_max=0.99)
    z = page_embedding(q, p)
    assert np.max(np.abs(np.linalg.norm(z, axis=-1) - 1.0)) < 1e-12
    q2, p2 = page_embedding_inverse(z)
    np.testing.assert_allclose(q2, q, atol=1e-10)
    np.testing.assert_allclose(p2, p, atol=1e-10)


def test_zero_section_maps_to_antipode():
    rep = QUADRIC
    rng = rng_for(26)
    q = rng.normal(size=(10, 2))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    z0 = complex_to_real(page_embedding(q, np.zeros_like(q)))
    z1 = flow(quadric_spinning_field(rep), z0, 1.0, 1e-3)
    q1, p1 = page_embedding_inverse(real_to_complex(z1))
    np.testing.assert_allclose(q1, -q, atol=1e-8)
    np.testing.assert_allclose(p1, 0.0, atol=1e-8)


def test_monodromy_is_standard_twist():
    q, p = _bundle_samples(2, 100, seed=27, r_max=0.99)
    report = monodromy_vs_dehn_twist(QUADRIC,
                                     np.concatenate([q, p], axis=-1))
    assert report.passed
    named = {d.name: d for d in report.details}
    assert named["page_monodromy_vs_twist"].max_residual < 1e-5
    assert named["inverse_flow"].max_residual < 1e-5


def test_inverse_twist_fails_the_monodromy_comparison(monkeypatch):
    # negative control: -Y flows the inverse twist, which agrees with the
    # positive twist on the zero section only
    import openbooks.monodromy as mono

    q, p = _bundle_samples(2, 100, seed=27, r_max=0.99)
    inverse = _negated(quadric_spinning_field(QUADRIC))
    monkeypatch.setattr(mono, "quadric_spinning_field", lambda rep: inverse)
    report = monodromy_vs_dehn_twist(QUADRIC,
                                     np.concatenate([q, p], axis=-1))
    named = {d.name: d for d in report.details}
    assert not report.passed
    assert not named["page_monodromy_vs_twist"].passed
    assert named["page_monodromy_vs_twist"].max_residual > 1.0
    # the time -1 flow of -Y twists the twist images once more
    assert not named["inverse_flow"].passed
    assert named["inverse_flow"].max_residual > 1.0
    assert named["zero_section_anchor"].passed


def test_negated_twist_fails_the_monodromy_comparison(monkeypatch):
    # negative control for the sign: the comparison is with the positive
    # twist only, so a twist composed with (q, p) -> (-q, -p) must fail
    import openbooks.monodromy as mono

    positive = standard_twist()

    def negated(q, p, **kwargs):
        q_out, p_out = positive(q, p, **kwargs)
        return -q_out, -p_out

    monkeypatch.setattr(mono, "standard_twist", lambda: negated)
    q, p = _bundle_samples(2, 100, seed=27, r_max=0.99)
    report = monodromy_vs_dehn_twist(QUADRIC,
                                     np.concatenate([q, p], axis=-1))
    named = {d.name: d for d in report.details}
    assert not report.passed
    assert not named["zero_section_anchor"].passed
    assert not named["page_monodromy_vs_twist"].passed
    # the time -1 flow of -E(Phi(q, p)) is -E(q, p), not E(q, p)
    assert not named["inverse_flow"].passed


def _scrubbed(report):
    out = {k: v for k, v in report.to_dict().items() if k != "wall_time_ms"}
    out["details"] = [_scrubbed(d) for d in report.details]
    return out


def _suite_twist_draw(suite_seed):
    # the samples `verify` hands g2_s3/monodromy_vs_twist at a suite seed
    from openbooks import cli

    index = [name for name, _ in cli.SUITES["g2_s3"]()].index(
        "monodromy_vs_twist")
    seed = suite_seed + 1000 * index
    rep, qp = cli._twist_inputs(cli.SuiteConfig(suite="g2_s3"), seed)
    return rep, qp, seed


@pytest.mark.parametrize("draw", [27, 32, "suite7", "suite8"])
def test_anchor_in_the_batch_matches_a_separate_anchor_flow(monkeypatch,
                                                            draw):
    # the check flows the anchor, the samples and the conjugated twist
    # images in one time-1 call; the reference makes three calls: the
    # anchor alone, the samples at time 1 and the twist images at time -1
    import openbooks.monodromy as mono

    if isinstance(draw, int):
        q, p = _bundle_samples(2, 100, seed=draw, r_max=0.99)
        rep, qp, seed = QUADRIC, np.concatenate([q, p], axis=-1), draw
    else:
        rep, qp, seed = _suite_twist_draw(int(draw[len("suite"):]))
        q, p = qp[:, :2], qp[:, 2:]
    z0 = complex_to_real(page_embedding(q, p))
    w = complex_to_real(page_embedding(*standard_twist()(q, p)))
    conj = np.array([1.0, -1.0, 1.0, -1.0])
    calls = []

    def counting_flow(y, p0, *args, **kwargs):
        calls.append(len(p0))
        return flow(y, p0, *args, **kwargs)

    def three_call_flow(y, p0, t_end, step):
        assert t_end == 1.0 and len(p0) == 201
        assert np.array_equal(p0[1:101], z0)
        assert np.array_equal(p0[101:], conj * w)
        # the check conjugates the last rows back
        return np.concatenate([counting_flow(y, p0[:1], t_end, step),
                               counting_flow(y, z0, t_end, step),
                               conj * counting_flow(y, w, -1.0, step)])

    monkeypatch.setattr(mono, "flow", counting_flow)
    folded = monodromy_vs_dehn_twist(rep, qp, seed=seed)
    assert calls == [201]
    calls.clear()
    monkeypatch.setattr(mono, "flow", three_call_flow)
    reference = monodromy_vs_dehn_twist(rep, qp, seed=seed)
    assert calls == [1, 100, 100]
    assert _scrubbed(folded) == _scrubbed(reference)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("single", [False, True], ids=["batch", "point"])
def test_time_minus_one_flow_is_the_conjugate_time_one_flow(n, single):
    # f = sum z_j^2 has real coefficients, so conjugation c reverses the
    # quadric field, Y(c z) = -c Y(z), and c flow_1 c = flow_{-1} holds bit
    # for bit through RK4 and the sphere step
    rep = quadric_open_book(n)
    y = quadric_spinning_field(rep)
    w = _off_binding(rep, 50, seed=34, band=0.05)
    w = w[0] if single else w
    conj = np.tile([1.0, -1.0], n)
    back = flow(y, w, -1.0, 1e-3)
    assert back.shape == w.shape
    assert np.array_equal(back.view(np.int64),
                          (conj * flow(y, conj * w, 1.0, 1e-3)).view(np.int64))


def test_monodromy_is_the_dehn_seidel_twist_on_s5(monkeypatch):
    import openbooks.monodromy as mono

    rep = quadric_open_book(3)
    # q on S^2, p tangent at q, |p| < 1 - 2e-3
    q, p = _bundle_samples(3, FLOW_STARTS, seed=35, r_max=1.0 - 2e-3)
    qp = np.concatenate([q, p], axis=-1)
    report = monodromy_vs_dehn_twist(rep, qp)
    assert report.passed
    assert [d.name for d in report.details] == [
        "zero_section_anchor", "page_monodromy_vs_twist", "inverse_flow"]
    assert all(d.passed and d.max_residual < 1e-9 for d in report.details)

    # control: -Y flows the inverse twist
    inverse = _negated(quadric_spinning_field(rep))
    monkeypatch.setattr(mono, "quadric_spinning_field", lambda rep: inverse)
    negated = monodromy_vs_dehn_twist(rep, qp)
    named = {d.name: d for d in negated.details}
    assert not negated.passed
    assert named["page_monodromy_vs_twist"].max_residual > 1.0
    assert named["inverse_flow"].max_residual > 1.0


def test_flow_on_one_constraint_manifolds_never_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    pts = _off_binding(QUADRIC, 10, seed=33, band=0.1)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    end = flow(quadric_spinning_field(QUADRIC), pts, 0.1, 1e-3)
    assert np.max(QUADRIC.manifold.residual(end)) < 1e-12


def test_monodromy_compare_rejects_near_boundary_fibers():
    q, p = _bundle_samples(2, 10, seed=28)
    p = 0.9999 * p / np.linalg.norm(p, axis=-1, keepdims=True)
    with pytest.raises(DomainError):
        monodromy_vs_dehn_twist(QUADRIC, np.concatenate([q, p], axis=-1))


def test_rk4_flow_from_real_start_reaches_antipode():
    # oracle: the closed-form limit at g_0 = 1 sends a real start to its
    # antipode; the numerical flow must agree
    rng = rng_for(29)
    q = rng.normal(size=(20, 2))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    pts = complex_to_real(q.astype(complex))
    end = flow(quadric_spinning_field(QUADRIC), pts, 1.0, 1e-3)
    assert np.max(np.abs(end + pts)) < 1e-7


def test_closed_form_satisfies_the_field_equation():
    # differentiate the closed-form trajectory in t by central differences
    # and compare against the spinning field evaluated on it: this checks
    # the solution against the defining equation rather than against RK4
    pts = _off_binding(QUADRIC, 50, seed=30, lo=0.05, hi=0.95)
    z0 = real_to_complex(pts)
    h = 1e-6
    for t in (0.0, 0.3, 0.7):
        plus, _ = closed_form_quadric_flow(z0, t + h)
        minus, _ = closed_form_quadric_flow(z0, t - h)
        velocity = (plus - minus) / (2 * h)
        zt, _ = closed_form_quadric_flow(z0, t)
        field = quadric_spinning_field(QUADRIC)(complex_to_real(zt))
        np.testing.assert_allclose(velocity, real_to_complex(field),
                                   atol=1e-7)


def test_closed_form_coefficients_reconstruct_start():
    # A_+ + A_- must reproduce the (phase-reduced) start; checked through
    # the t = 0 evaluation of the flow
    pts = _off_binding(QUADRIC, 100, seed=31, lo=0.05, hi=0.95)
    z0 = real_to_complex(pts)
    z_at_zero, _ = closed_form_quadric_flow(z0, 0.0)
    np.testing.assert_allclose(z_at_zero, z0, atol=1e-12)


def test_hypersurface_check_has_identity_monodromy():
    hs = hypersurface_build(weinstein_disk_domain())
    report = hypersurface_check(hs, sample(hs.rep.manifold, 2000, 9),
                                sample(hs.rep.binding, 100, 10))
    assert report.passed
    identity = report.details[-1]
    assert identity.name == "identity_monodromy"
    assert identity.n_samples == 50 and identity.max_residual <= 1e-7
