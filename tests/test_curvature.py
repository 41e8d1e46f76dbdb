"""The background tensor, problem validation, and the conformal curvature
tensors."""

import numpy as np
import pytest

from helpers import canonical_problem
from sigmak import Grid, ProblemSpec, ScalarField, parse, sample_text
from sigmak.curvature import (CASES, build_u_tensor, build_v_tensor,
                              build_w_tensor, canonical_background,
                              sample_tensor)
from sigmak.errors import (DomainError, ExprEvalError, ExprSyntaxError,
                           ValidationError)
from sigmak.grid import grad_values, hess, sample_values


def test_background_from_components_and_defaults():
    g = Grid(3, 8)
    bg = sample_tensor(g, {"(1,1)": "-1", "(1,2)": "0.5*sin(x1)"})
    # stored at the broadcast shape of its component values
    assert bg.shape == (3, 3, 8, 1, 1)
    full = np.broadcast_to(bg, (3, 3) + g.shape)
    assert np.array_equal(full[0, 0], np.full(g.shape, -1.0))
    assert np.allclose(full[0, 1], 0.5 * np.sin(g.coords()[0]))
    assert np.array_equal(bg, np.swapaxes(bg, 0, 1))
    # Omitted components are zero, including a whole tensor with none.
    assert np.array_equal(full[2, 2], np.zeros(g.shape))
    assert np.array_equal(sample_tensor(g, {}), np.zeros((3, 3, 1, 1, 1)))


def test_background_component_keys_accept_tuples_and_strings():
    g = Grid(3, 8)
    a = sample_tensor(g, {(1, 2): "2"})
    b = sample_tensor(g, {"(2,1)": "2"})
    assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        sample_tensor(g, {"(0,1)": "1"})
    with pytest.raises(DomainError):
        sample_tensor(g, {"(1,4)": "1"})
    # the same strict "(i,j)" syntax the configuration format accepts
    for malformed in ("1,2", "(1, 2)", "((1,2))", "(a,b)"):
        with pytest.raises(DomainError, match="malformed tensor component"):
            sample_tensor(g, {malformed: "1"})


@pytest.mark.parametrize("n", [3, 4])
def test_sample_tensor_shape_follows_the_axes_it_varies_on(n):
    g = Grid(n, 8)
    constant = sample_tensor(g, canonical_background("A", n))
    assert constant.shape == (n, n) + (1,) * n
    assert np.array_equal(constant[..., *(0,) * n], -np.eye(n))
    # a component in x2 only: N on grid axis 2 only
    x2 = sample_tensor(g, {"(1,1)": "-1", "(1,3)": "0.2*cos(x2)"})
    assert x2.shape == (n, n, 1, 8) + (1,) * (n - 2)
    assert np.array_equal(x2, np.swapaxes(x2, 0, 1))
    assert np.array_equal(x2[0, 2], 0.2 * np.cos(g.coords()[1]))
    # every axis once the components together read every coordinate
    every = sample_tensor(g, {(i, i): f"-1-0.1*sin(x{i})"
                              for i in range(1, n + 1)})
    assert every.shape == (n, n) + g.shape


def test_sample_tensor_error_paths():
    """A malformed key, an out-of-range key, a coordinate beyond n and a
    domain failure raise the typed errors the configuration layer maps to
    exit code 2, directly and through ProblemSpec.build."""
    g = Grid(3, 8)
    bad = (({"1,1": "1"}, DomainError, "malformed tensor component"),
           ({"(1,4)": "1"}, DomainError, "out of range"),
           ({"(1,1)": "x4"}, ExprSyntaxError, "x4"),
           ({"(2,2)": "log(sin(x2))"}, ExprEvalError, "grid index"))
    for components, error, match in bad:
        with pytest.raises(error, match=match):
            sample_tensor(g, components)
        for case in CASES:
            with pytest.raises(error, match=match):
                ProblemSpec.build(case, 3, 3, g, alpha="-0.1", f="1",
                                  background=components)
    with pytest.raises(ExprEvalError) as exc:
        sample_tensor(g, {"(2,2)": "log(sin(x2))"})
    assert exc.value.index == (0, 0, 0)
    # an expression parsed for a larger dimension still names the grid's n
    with pytest.raises(DomainError, match="grid has n=3"):
        sample_values(parse("x4", 4), g)


def test_isotropic_background_admissibility():
    """Each case's background cone condition on the canonical isotropic
    tensors, and on an inadmissible one. None builds the canonical tensor
    of the case, {} the zero tensor."""
    g = Grid(3, 8)
    spec_a = ProblemSpec.build("A", 3, 3, g, alpha="-0.1", f="0.7")
    margins, node, report = spec_a.background_cone()
    # -ric0/(n-2) = +identity for n=3: margin is min over sigma_1..3 = 1.
    assert margins.min() == pytest.approx(1.0)
    assert report.inside and node == (0, 0, 0)
    assert spec_a.validate().background_cone_k == 3
    spec_c = ProblemSpec.build("C", 3, 3, g, alpha="-0.05", f="1")
    margins_s, _, _ = spec_c.background_cone()
    assert margins_s.min() > 0.0
    assert spec_c.validate().background_cone_k == 2
    bad = ProblemSpec.build("A", 3, 3, g, alpha="-0.1", f="0.7",
                            background={(i, i): "1" for i in (1, 2, 3)})
    margins_b, _, report_b = bad.background_cone()
    assert margins_b.min() < 0.0 and not report_b.inside
    # None is the canonical tensor of the case; {} is the zero tensor
    for case in CASES:
        spec = ProblemSpec.build(case, 3, 3, g)
        assert np.array_equal(
            spec.background,
            sample_tensor(g, canonical_background(case, 3)))
    zero = ProblemSpec.build("A", 3, 3, g, background={})
    assert np.array_equal(zero.background, np.zeros((3, 3, 1, 1, 1)))


def test_problem_validation_per_case():
    g = Grid(3, 8)

    def build(case, alpha, f):
        return ProblemSpec.build(case, 3, 3, g, alpha=alpha, f=f)

    # Case A: alpha <= 0 and f > 0.
    build("A", "-0.1", "0.7").validate(strict=True)
    with pytest.raises(ValidationError):
        build("A", "0.1", "0.7").validate(strict=True)
    with pytest.raises(ValidationError):
        build("A", "-0.1", "0").validate(strict=True)
    # Case B: alpha < 0 and f identically zero.
    build("B", "-0.4", "0").validate(strict=True)
    with pytest.raises(ValidationError):
        build("B", "-0.4", "0.1").validate(strict=True)
    with pytest.raises(ValidationError):
        build("B", "0", "0").validate(strict=True)
    # Case C: f positive, alpha <= 0.
    build("C", "-0.05", "1").validate(strict=True)
    with pytest.raises(ValidationError):
        build("C", "0.05", "1").validate(strict=True)
    # Non-strict mode reports instead of raising.
    report = build("A", "0.1", "0.7").validate(strict=False)
    assert not report.ok
    assert any("alpha" in line for line in report.to_lines())


def test_problem_build_rejects_bad_shapes():
    g = Grid(3, 8)
    with pytest.raises(DomainError):
        ProblemSpec.build("D", 3, 3, g)
    with pytest.raises(DomainError):
        ProblemSpec.build("A", 3, 2, g)
    with pytest.raises(DomainError):
        ProblemSpec.build("A", 3, 4, g)


def test_conformal_sign_and_required_cone():
    g = Grid(3, 8)
    a = ProblemSpec.build("A", 3, 3, g, alpha="-0.1", f="0.7")
    b = ProblemSpec.build("B", 3, 3, g, alpha="-0.4", f="0")
    c = ProblemSpec.build("C", 3, 3, g, alpha="-0.05", f="1")
    assert a.conformal_sign == +1 and b.conformal_sign == +1
    assert c.conformal_sign == -1
    assert a.required_cone == 2   # Gamma_{k-1} for the quotient route
    assert b.required_cone == 3   # Gamma_k for the zero-forcing case
    assert c.required_cone == 2
    assert tuple(sorted(CASES)) == ("A", "B", "C")


def _stencil_derivatives(u):
    return hess(u), grad_values(u)


def _unit_batch_zeros(n: int, ndim: int) -> tuple:
    """Zero Hessian and gradient with unit batch axes, which the builders
    broadcast against the background."""
    return np.zeros((n, n) + (1,) * ndim), np.zeros((n,) + (1,) * ndim)


def test_u_tensor_closed_form_at_zero():
    """U(0, t) = -t ric0/(n-2) + ((1-t)/n) I, from grid-sized zero
    derivatives or from one broadcast zero matrix alike."""
    spec = canonical_problem("A", N=8)
    g = spec.grid
    u0 = ScalarField.zeros(g)
    for t in (0.0, 0.3, 1.0):
        mats = build_u_tensor(*_stencil_derivatives(u0), t, spec)
        want = (t * np.eye(3) + ((1.0 - t) / 3.0) * np.eye(3))[:, :, None,
                                                               None, None]
        assert mats.shape == (3, 3) + g.shape
        assert np.abs(mats - want).max() <= 1e-14
        broadcast = build_u_tensor(*_unit_batch_zeros(3, 3), t, spec)
        assert broadcast.shape == (3, 3, 1, 1, 1)
        assert np.array_equal(np.broadcast_to(broadcast, mats.shape), mats)
    with pytest.raises(DomainError):
        build_u_tensor(*_stencil_derivatives(u0), 1.5, spec)


def test_v_tensor_interpolates_trace_weights():
    """V = t U + (1-t) tr(U) I, so tr V = (t + n(1-t)) tr U."""
    spec = canonical_problem("A", N=8)
    g = spec.grid
    u = sample_text("0.05*sin(x1)", g)
    for t in (0.0, 0.4, 1.0):
        ut = build_u_tensor(*_stencil_derivatives(u), t, spec)
        vt = build_v_tensor(ut, t)
        tr_u = np.einsum("ii...->...", ut)
        tr_v = np.einsum("ii...->...", vt)
        assert np.abs(tr_v - (t + 3 * (1 - t)) * tr_u).max() <= 1e-12
        if t == 1.0:
            assert np.abs(vt - ut).max() <= 1e-14


def test_v_tensor_takes_per_matrix_t_and_keeps_dtype():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((4, 4, 5))
    mats = 0.5 * (raw + np.swapaxes(raw, 0, 1))
    ts = rng.uniform(0.0, 1.0, 5)
    stacked = build_v_tensor(mats, ts)
    for i in range(5):
        assert np.array_equal(stacked[..., i],
                              build_v_tensor(mats[..., i], ts[i]))
    ld = build_v_tensor(mats.astype(np.longdouble), ts.astype(np.longdouble))
    assert ld.dtype == np.longdouble
    with pytest.raises(DomainError):
        build_v_tensor(mats, np.array([0.5, 0.5, 1.2, 0.5, 0.5]))


def test_w_tensor_reduces_to_schouten_at_zero():
    g = Grid(3, 8)
    spec = ProblemSpec.build(
        "C", 3, 3, g, alpha="-0.05", f="1",
        background={"(1,1)": "1", "(2,2)": "0.5", "(3,3)": "2",
                    "(1,2)": "0.1"})
    w = build_w_tensor(*_stencil_derivatives(ScalarField.zeros(g)), spec)
    assert w.shape == (3, 3) + g.shape
    assert np.abs(w - spec.background).max() == 0.0
    with pytest.raises(DomainError):
        build_w_tensor(*_unit_batch_zeros(3, 3), canonical_problem("A"))


def test_w_tensor_gradient_terms():
    """W(u) - W(0) = hess u + du x du - 0.5 |grad u|^2 I (stencil ops)."""
    spec = canonical_problem("C", N=16)
    g = spec.grid
    u = sample_text("0.1*sin(x1)*cos(x2)", g)
    w = build_w_tensor(*_stencil_derivatives(u), spec)
    w0 = build_w_tensor(*_unit_batch_zeros(3, 3), spec)
    gv = grad_values(u)
    grad_sq = np.einsum("a...,a...->...", gv, gv)
    want = (hess(u)
            + np.einsum("a...,b...->ab...", gv, gv)
            - 0.5 * grad_sq * np.eye(3)[:, :, None, None, None])
    assert np.abs((w - w0) - want).max() <= 1e-13


def test_with_f_field_swaps_forcing_only():
    spec = canonical_problem("A")
    f2 = sample_text("0.9", spec.grid)
    spec2 = spec.with_f_field(f2)
    assert spec2.f_field.values[0, 0, 0] == 0.9
    assert spec2.alpha_src == spec.alpha_src
    assert spec2.case == spec.case
    # Original spec is untouched.
    assert spec.f_field.values[0, 0, 0] == 0.7


# The builders accumulate in place; these are the plain broadcasting
# expressions they must reproduce bit for bit (signed zeros aside).
def _eye(n, batch_ndim):
    """The identity as a component-major stack with unit batch axes."""
    return np.eye(n).reshape((n, n) + (1,) * batch_ndim)


def _u_reference(hess_m, grad, t, spec):
    n = spec.n
    iso = (np.trace(hess_m, axis1=0, axis2=1) / (n - 2)
           + np.einsum("a...,a...->...", grad, grad) + (1.0 - t) / n)
    outer = grad[:, None] * grad[None, :]
    return hess_m + ((iso * _eye(n, iso.ndim) - outer)
                     - t * spec.background / (n - 2))


def _v_reference(mats, t):
    t = np.asarray(t)
    tr = np.trace(mats, axis1=0, axis2=1)
    return t * mats + ((1.0 - t) * tr) * _eye(mats.shape[0], mats.ndim - 2)


def _w_reference(hess_m, grad, spec):
    grad_sq = np.einsum("a...,a...->...", grad, grad)
    outer = grad[:, None] * grad[None, :]
    return (hess_m + (outer + spec.background)) \
        - (0.5 * grad_sq) * _eye(spec.n, grad_sq.ndim)


def _same(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tensor_builders_equal_the_reference_expressions(n):
    g = Grid(n, 8)
    rng = np.random.default_rng(n)
    u = ScalarField(g, 0.3 * rng.standard_normal(g.shape))
    spec_a = ProblemSpec.build(
        "A", n, 3, g, alpha="-0.1", f="0.7",
        background={(1, 1): "-1+0.2*sin(x1)", (1, 2): "0.1*cos(x2)",
                    (n, n): "-1.5"})
    spec_c = ProblemSpec.build(
        "C", n, 3, g, alpha="-0.05", f="1",
        background={(1, 1): "1", (2, 3): "0.3*sin(x3)", (n, n): "0.5"})
    hm, gv = hess(u), grad_values(u)
    zero_h, zero_g = _unit_batch_zeros(n, n)
    inputs = (hm.copy(), gv.copy())
    for t in (0.0, 0.35, 1.0):
        u_t = build_u_tensor(hm, gv, t, spec_a)
        _same(u_t, _u_reference(hm, gv, t, spec_a))
        _same(build_v_tensor(u_t, t), _v_reference(u_t, t))
        # unit-batch zero derivatives against a background on fewer axes
        _same(build_u_tensor(zero_h, zero_g, t, spec_a),
              _u_reference(zero_h, zero_g, t, spec_a))
    ts = rng.uniform(0.0, 1.0, size=g.shape)
    _same(build_v_tensor(u_t, ts), _v_reference(u_t, ts))
    wide = u_t.astype(np.longdouble)
    _same(build_v_tensor(wide, ts), _v_reference(wide, ts))
    _same(build_w_tensor(hm, gv, spec_c), _w_reference(hm, gv, spec_c))
    _same(build_w_tensor(zero_h, zero_g, spec_c),
          _w_reference(zero_h, zero_g, spec_c))
    # the derivatives and the background are read, never written
    assert np.array_equal(hm, inputs[0]) and np.array_equal(gv, inputs[1])
    assert not np.shares_memory(build_v_tensor(u_t, 0.5), u_t)
