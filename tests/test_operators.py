"""Residuals, linearization, and the certificate machinery."""

import math

import numpy as np
import pytest

from helpers import canonical_problem
from sigmak import (Background, Grid, ProblemSpec, ScalarField, c0_diagnostic,
                    concavity_certificate, ellipticity_certificate, linearize,
                    manufactured_forcing, prepare_state, residual, sample_text)
from sigmak.curvature import build_u_tensor, build_v_tensor, build_w_tensor
from sigmak.errors import (AdmissibilityError, DomainError, SingularityError,
                           ValidationError)
from sigmak.grid import grad_values, hess, random_smooth_field
from sigmak.operators import (SIGMA_FLOOR, C0_SLACK_CONSTANT, LinearOperator,
                              _v_spectrum, line_second_difference,
                              prepare_state)
from sigmak.solver import solve_linear
from sigmak.symfunc import sigma_all_batch


# -- residual oracles --------------------------------------------------------

def test_residual_zero_at_homotopy_start():
    """At t=0 the tensor V(0) is the identity and u = 0 solves exactly."""
    for case in ("A", "B"):
        spec = canonical_problem(case)
        res = residual(ScalarField.zeros(spec.grid), 0.0, spec)
        assert res.max_abs() == 0.0


def test_residual_zero_at_constant_solutions():
    # Case A canonical: sigma_3(I) + alpha sigma_2(I) = 1 - 0.3 = 0.7 = f.
    spec = canonical_problem("A")
    assert residual(ScalarField.zeros(spec.grid), 1.0, spec).max_abs() == 0.0
    # Case B with alpha = -1/3: sigma_3(I) = (1/3) sigma_2(I).
    spec = canonical_problem("B")
    assert residual(ScalarField.zeros(spec.grid), 1.0, spec).max_abs() == 0.0
    # Case B with alpha = -1/(3 e^2): constant solution u = 1.
    spec = canonical_problem("B", alpha=repr(-1.0 / (3.0 * math.e ** 2)))
    u1 = ScalarField(spec.grid, np.ones(spec.grid.shape))
    assert residual(u1, 1.0, spec).max_abs() <= 1e-14
    # Case C with f = 1 + 3 alpha: W(0) = schouten0 = identity.
    spec = canonical_problem("C", alpha="-0.05", f="0.85")
    assert residual(ScalarField.zeros(spec.grid), 1.0, spec).max_abs() == 0.0


def test_quotient_form_is_multiplied_over_sigma():
    spec = canonical_problem("A")
    rng = np.random.default_rng(14)
    u = random_smooth_field(spec.grid, rng, amplitude=0.02)
    sd = prepare_state(u, 0.6, spec)
    mult = residual(u, 0.6, spec, form="multiplied", state=sd)
    quot = residual(u, 0.6, spec, form="quotient", state=sd)
    skm1 = sd.sig[..., spec.k - 1]
    back = quot.values.values * skm1
    assert np.abs(back - mult.values.values).max() <= 1e-12


def test_quotient_form_rejects_states_outside_cone():
    spec = canonical_problem("A")
    u = sample_text("0.5*sin(x1)*cos(x2)", spec.grid)  # exits Gamma_2
    sd = prepare_state(u, 1.0, spec)
    assert sd.cone_margin <= 0.0
    # Multiplied form still evaluates.
    residual(u, 1.0, spec, form="multiplied", state=sd)
    with pytest.raises(AdmissibilityError) as exc:
        residual(u, 1.0, spec, form="quotient", state=sd)
    assert exc.value.margin is not None and exc.value.margin <= 0.0
    with pytest.raises(AdmissibilityError):
        linearize(u, 1.0, spec, state=sd)


def test_residual_rejects_bad_inputs():
    spec = canonical_problem("A")
    u = ScalarField.zeros(spec.grid)
    with pytest.raises(DomainError):
        residual(u, -0.1, spec)
    with pytest.raises(DomainError):
        residual(u, 1.1, spec)
    with pytest.raises(DomainError):
        residual(u, 0.5, spec, form="exotic")
    other = ScalarField.zeros(Grid(3, 8))
    with pytest.raises(DomainError):
        residual(other, 0.5, spec)


# -- linearization ------------------------------------------------------------

def _directional_fd(u, t, spec, phi, eps=1e-6):
    up = ScalarField(spec.grid, u.values + eps * phi.values)
    um = ScalarField(spec.grid, u.values - eps * phi.values)
    rp = residual(up, t, spec).values.values
    rm = residual(um, t, spec).values.values
    return (rp - rm) / (2.0 * eps)


@pytest.mark.parametrize("case,t", [("A", 0.0), ("A", 0.7), ("B", 0.4),
                                    ("B", 1.0), ("C", 1.0)])
def test_linearize_matches_central_differences(case, t):
    spec = canonical_problem(case)
    rng = np.random.default_rng(hash((case, t)) % 2 ** 31)
    u = random_smooth_field(spec.grid, rng, amplitude=0.02)
    phi = random_smooth_field(spec.grid, rng, amplitude=1.0)
    op = linearize(u, t, spec)
    got = op.apply(phi.values)
    want = _directional_fd(u, t, spec, phi)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-6 * scale


def test_linear_operator_routes_agree():
    """The assembled CSR operator against G:hess(phi) + b.grad(phi) + c phi
    built from the grid's own stencils, for general coefficients in every
    supported dimension; apply, matvec and as_csr share the one matrix."""
    rng = np.random.default_rng(15)
    for n in range(3, 7):
        grid = Grid(n, 8)
        second = rng.standard_normal(grid.shape + (n, n))
        second = second + np.swapaxes(second, -1, -2)
        first = rng.standard_normal(grid.shape + (n,))
        zeroth = rng.standard_normal(grid.shape)
        phi = ScalarField(grid, rng.standard_normal(grid.shape))
        want = (np.einsum("...ij,...ij->...", second, hess(phi))
                + np.einsum("...i,...i->...", first, grad_values(phi))
                + zeroth * phi.values)
        op = LinearOperator(grid=grid, second=second, first=first,
                            zeroth=zeroth)
        got = op.apply(phi.values)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n
        assert np.array_equal(op.matvec(phi.values.ravel()), got.ravel())
        assert op.as_csr() is op.as_csr()
        assert op.as_csr().nnz == grid.size * (2 * n * n + 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_preconditioner_inverts_constant_coefficient_operators(n):
    """With constant coefficients (random SPD G, nonzero b, c < 0) the
    frozen-coefficient inverse is the exact inverse of the stencil, so
    L[precondition(r)] = r to roundoff: this pins the symbol, its signs and
    its axis order to the assembled matrix."""
    rng = np.random.default_rng(40 + n)
    grid = Grid(n, 8)
    root = rng.standard_normal((n, n))
    second = np.broadcast_to(root @ root.T + n * np.eye(n),
                             grid.shape + (n, n))
    first = np.broadcast_to(rng.standard_normal(n), grid.shape + (n,))
    zeroth = np.full(grid.shape, -0.5 - rng.random())
    op = LinearOperator(grid=grid, second=second, first=first,
                        zeroth=zeroth)
    r = rng.standard_normal(grid.size)
    got = op.matvec(op.precondition(r))
    assert np.abs(got - r).max() <= 1e-12 * np.abs(r).max()


def _reference_weights(grid, second, first, zeroth):
    """The stencil weights in _stencil_pattern's column order, one column
    block at a time: the fill the assembled values must equal bit for bit."""
    n, h = grid.n, grid.h
    m = n * (n - 1) // 2
    second = second.reshape(grid.size, n, n)
    diag = np.einsum("rii->ri", second) / h ** 2
    bias = first.reshape(grid.size, n) / (2.0 * h)
    vals = np.empty((grid.size, 2 * n * n + 1))
    vals[:, 0] = zeroth.ravel() - 2.0 * diag.sum(axis=1)
    vals[:, 1:1 + n] = diag + bias
    vals[:, 1 + n:1 + 2 * n] = diag - bias
    p = 1 + 2 * n
    iu, ju = np.triu_indices(n, 1)
    vals[:, p:p + m] = second[:, iu, ju] / (2.0 * h ** 2)
    vals[:, p + m:p + 2 * m] = vals[:, p:p + m]
    vals[:, p + 2 * m:p + 3 * m] = -vals[:, p:p + m]
    vals[:, p + 3 * m:] = vals[:, p + 2 * m:p + 3 * m]
    return vals.ravel()


def _reference_coefficients(sd):
    """The plain expressions of the second- and first-order coefficients:
    S = dk + a e^{2su} dkm1, P = V(S, t), second = P + (tr P/(n-2)) I,
    first = 2 tr(P) grad u - 2 P grad u (case C: S, 2 S grad u - tr(S)
    grad u). Defined at every node, inside the cone or not."""
    n, t = sd.spec.n, sd.t
    weight = (sd.a_weight * sd.e2su)[..., None, None]
    S = sd.dk + weight * sd.dkm1
    trS = np.einsum("...ii->...", S)
    if sd.spec.case == "C":
        second = S
        first = 2.0 * np.einsum("...ij,...j->...i", S, sd.gv) \
            - trS[..., None] * sd.gv
    else:
        tr = np.trace(S, axis1=-2, axis2=-1)[..., None, None]
        P = t * S + ((1.0 - t) * tr) * np.eye(n)
        trP = (t + n * (1.0 - t)) * trS
        second = P + (trP / (n - 2.0))[..., None, None] * np.eye(n)
        first = 2.0 * trP[..., None] * sd.gv \
            - 2.0 * np.einsum("...ij,...j->...i", P, sd.gv)
    return second, first


@pytest.mark.parametrize("case, n, k", [("A", 3, 3), ("B", 4, 3),
                                        ("A", 5, 4), ("C", 4, 3)])
def test_linearization_coefficients_and_weights_are_bitwise(case, n, k):
    """The in-place coefficient fields and the blockwise value fill equal
    the plain expressions S = dk + a e^{2su} dkm1, P = V(S, t),
    second = P + (tr P/(n-2)) I (case C: S), first and zeroth as in the
    module docstring."""
    spec = canonical_problem(case, n=n, k=k, N=8)
    u = random_smooth_field(spec.grid, np.random.default_rng(n),
                            amplitude=0.02)
    t = 1.0 if case == "C" else 0.6
    sd = prepare_state(u, t, spec)
    op = linearize(u, t, spec, state=sd)
    second, first = _reference_coefficients(sd)
    assert np.array_equal(op.second, second)
    assert np.array_equal(op.first, first)
    assert np.array_equal(op.as_csr().data, _reference_weights(
        spec.grid, op.second, op.first, op.zeroth))


def test_zeroth_order_sign_matches_case():
    """c < 0 for the positive-sign cases (A, B), c > 0 for case C."""
    for case, sign in (("A", -1.0), ("B", -1.0), ("C", +1.0)):
        spec = canonical_problem(case)
        op = linearize(ScalarField.zeros(spec.grid), 1.0, spec)
        assert np.all(sign * op.zeroth > 0.0)


# -- certificates -------------------------------------------------------------

def test_ellipticity_certificate_closed_form_values():
    spec = canonical_problem("A")
    u0 = ScalarField.zeros(spec.grid)
    cert0 = ellipticity_certificate(u0, 0.0, spec)
    # second = k C(n,k) (2n-2)/(n-2) I at the start: 3*1*4/1 = 12.
    assert cert0.passed
    assert cert0.newton_min_eig == pytest.approx(12.0, rel=1e-12)
    assert cert0.quotient_min_eig == pytest.approx(1.0, rel=1e-12)
    assert cert0.quotient_trace_min == pytest.approx(3.0, rel=1e-12)
    assert cert0.trace_bound == pytest.approx(1.0 / 3.0, rel=1e-15)
    cert1 = ellipticity_certificate(u0, 1.0, spec)
    assert cert1.passed
    assert cert1.newton_min_eig == pytest.approx(3.2, rel=1e-12)
    assert cert1.quotient_min_eig == pytest.approx(4.0 / 15.0, rel=1e-12)
    assert cert1.quotient_trace_min == pytest.approx(0.8, rel=1e-12)


def test_ellipticity_certificate_flags_cone_exit():
    spec = canonical_problem("A")
    u = sample_text("0.5*sin(x1)*cos(x2)", spec.grid)
    cert = ellipticity_certificate(u, 1.0, spec)
    assert not cert.passed
    assert cert.nodes_outside_cone > 0
    assert cert.worst_margin < 0.0


def test_ellipticity_can_fail_inside_cone_for_multiplied_family():
    """The multiplied-form second-order family is not unconditionally
    positive on the cone; a state can sit inside Gamma_2 and still fail
    the Newton-family eigenvalue check while the quotient family stays
    elliptic. The certificate must report this honestly."""
    spec = canonical_problem("A")
    u = sample_text("0.5*sin(x1)", spec.grid)
    cert = ellipticity_certificate(u, 1.0, spec)
    assert cert.nodes_outside_cone == 0
    assert cert.worst_margin > 0.0
    assert not cert.passed
    assert cert.newton_min_eig < 0.0
    assert cert.quotient_min_eig > 0.0


def test_ellipticity_trace_bound_all_cases():
    for case in ("A", "B", "C"):
        spec = canonical_problem(case)
        rng = np.random.default_rng(16)
        u = random_smooth_field(spec.grid, rng, amplitude=0.02)
        cert = ellipticity_certificate(u, 1.0, spec)
        assert cert.passed, (case, cert.to_lines())
        assert cert.quotient_trace_min >= cert.trace_bound - 1e-10


def _varied_problem(case: str, n: int) -> ProblemSpec:
    """A problem on Grid(n, 8), k = max(3, n-1), with non-constant
    coefficients and a non-constant, non-diagonal background tensor (ric0
    near -I for cases A and B, schouten0 near I for case C), so every
    per-node index into the background matters."""
    grid = Grid(n, 8)
    sign = "1" if case == "C" else "-1"
    comps = {(i, i): sign for i in range(1, n + 1)}
    comps[(1, 1)] = f"{sign} - 0.2*sin(x2)"
    comps[(n, n)] = f"{sign} + 0.1*cos(x1)"
    comps[(1, 2)] = "0.1*sin(x3)"
    if case == "C":
        background = Background.from_components(grid, schouten0=comps)
        alpha, f = "-0.05", "1 + 0.3*cos(x1)"
    elif case == "A":
        background = Background.from_components(grid, ric0=comps)
        alpha, f = "-0.1 - 0.05*cos(x2)", "0.7 + 0.2*sin(x1)*cos(x3)"
    else:
        background = Background.from_components(grid, ric0=comps)
        alpha, f = "-0.3 - 0.05*sin(x1)", "0"
    return ProblemSpec.build(case, n, max(3, n - 1), grid, alpha=alpha, f=f,
                             background=background)


def _reference_ellipticity(sd) -> dict:
    """The matrix route: eigvalsh of the assembled second-order family, and
    of the quotient family dk/s_{k-1} - s_k/s_{k-1}^2 dkm1
    + r e^{2ksu}/s_{k-1}^2 dkm1 pushed through V (cases A, B)."""
    spec, k = sd.spec, sd.spec.k
    second, _ = _reference_coefficients(sd)
    newton_eigs = np.linalg.eigvalsh(second)[..., 0]
    valid = (sd.margins > 0.0) & (sd.sig[..., k - 1] >= SIGMA_FLOOR)
    skm1 = np.where(valid, sd.sig[..., k - 1], 1.0)
    sk = sd.sig[..., k]
    d_quot = sd.dk / skm1[..., None, None] \
        - (sk / skm1 ** 2)[..., None, None] * sd.dkm1
    h_field = sd.r_weight * sd.e2ksu
    gq = d_quot + (h_field / skm1 ** 2)[..., None, None] * sd.dkm1
    if spec.case != "C":
        gq = build_v_tensor(gq, sd.t)
    q_eigs = np.where(valid, np.linalg.eigvalsh(gq)[..., 0], np.inf)
    q_traces = np.where(valid, np.einsum("...ii->...", gq), np.inf)
    node = np.unravel_index(int(np.argmin(newton_eigs)), newton_eigs.shape)
    return {"newton_min_eig": float(newton_eigs.min()),
            "newton_min_eig_node": tuple(int(i) for i in node),
            "quotient_min_eig": float(q_eigs.min()),
            "quotient_trace_min": float(q_traces.min()),
            "nodes_outside_cone": int(valid.size - valid.sum())}


def _close(got: float, want: float, rel: float = 1e-13) -> bool:
    return abs(got - want) <= rel * abs(want)


def _reference_c0(u, t, spec, sd) -> dict:
    """The whole-grid comparison route: the state's sigmas from the full
    prepared state sd, the comparison tensor built over the whole grid,
    both read at the extremal nodes of u."""
    n, k = spec.n, spec.k
    node_max = np.unravel_index(int(np.argmax(u.values)), u.values.shape)
    node_min = np.unravel_index(int(np.argmin(u.values)), u.values.shape)
    zero_hess, zero_grad = np.zeros((n, n)), np.zeros(n)
    if spec.case == "C":
        comparison = build_w_tensor(zero_hess, zero_grad, spec)
    else:
        comparison = build_v_tensor(
            build_u_tensor(zero_hess, zero_grad, t, spec), t)

    def quotient(sig):
        if sig[1:k].min() <= 0.0 or sig[k - 1] < SIGMA_FLOOR:
            return float("nan")
        return float(sig[k] / sig[k - 1])

    out = {"max_node": tuple(int(i) for i in node_max),
           "min_node": tuple(int(i) for i in node_min)}
    for end, node in (("max", node_max), ("min", node_min)):
        sig_b = sigma_all_batch(np.linalg.eigvalsh(comparison[node]), k)
        out[f"quotient_at_{end}"] = quotient(sd.sig[node])
        out[f"comparison_at_{end}"] = quotient(sig_b)
        out[f"sig_b_{end}"] = sig_b
    out["gap_at_max"] = out["comparison_at_max"] - out["quotient_at_max"]
    out["gap_at_min"] = out["quotient_at_min"] - out["comparison_at_min"]
    out["a"] = sd.a_weight
    out["r"] = sd.r_weight
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_audit_matches_matrix_routes(case, n):
    """The eigenvalue-form certificate against eigvalsh of the assembled
    coefficient families, and the two-node comparison against the
    whole-grid route: on a random smooth state that leaves the cone at
    some nodes, and on the uniform state u = 0, whose nodes tie exactly
    along the axes the background does not depend on. The random state has
    more modes than axes: with fewer, whole families of nodes share their
    values up to roundoff, and the argmin among such near-ties is not
    defined by either route."""
    spec = _varied_problem(case, n)
    t = 1.0 if case == "C" else 0.6
    k = spec.k
    rough = random_smooth_field(spec.grid, np.random.default_rng(n),
                                amplitude=0.6, modes=8)
    for u, leaves_cone in ((rough, True),
                           (ScalarField.zeros(spec.grid), False)):
        sd = prepare_state(u, t, spec)
        got = ellipticity_certificate(u, t, spec, state=sd)
        want = _reference_ellipticity(sd)
        assert (0 < got.nodes_outside_cone < got.nodes) == leaves_cone
        assert got.nodes_outside_cone == want["nodes_outside_cone"]
        assert got.newton_min_eig_node == want["newton_min_eig_node"]
        for name in ("newton_min_eig", "quotient_min_eig",
                     "quotient_trace_min"):
            assert _close(getattr(got, name), want[name]), (name, got)
        assert got.passed == (got.nodes_outside_cone == 0
                              and want["newton_min_eig"] > 0.0
                              and want["quotient_min_eig"] > 0.0
                              and got.trace_slack >= -1e-10)

        got = c0_diagnostic(u, t, spec)
        want = _reference_c0(u, t, spec, sd)
        del sd
        assert got.max_node == want["max_node"]
        assert got.min_node == want["min_node"]
        for name in ("quotient_at_max", "comparison_at_max", "gap_at_max",
                     "quotient_at_min", "comparison_at_min", "gap_at_min"):
            g, w = getattr(got, name), want[name]
            assert (math.isnan(g) and math.isnan(w)) or _close(g, w), name
        delta = C0_SLACK_CONSTANT * spec.grid.h
        assert got.within_slack == bool(
            want["gap_at_max"] >= -delta and want["gap_at_min"] >= -delta)
        sig_b_max, sig_b_min = want["sig_b_max"], want["sig_b_min"]
        if case == "A":
            node_max, node_min = want["max_node"], want["min_node"]
            sup_est = math.log(sig_b_max[k] / want["r"][node_max]) / (2 * k)
            low = sig_b_min[k] + want["a"][node_min] \
                * math.exp(2.0 * got.u_min) * sig_b_min[k - 1]
            inf_est = math.log(low / want["r"][node_min]) / (2 * k)
            assert _close(got.sup_estimate, sup_est)
            assert _close(got.inf_estimate, inf_est)


def test_v_spectrum_is_the_diagonal_of_v_on_diagonal_tensors():
    """t x + (1-t) sum(x) equals the diagonal of build_v_tensor(diag(x), t)
    bitwise, in float64 and in extended precision, for scalar and per-row
    t."""
    rng = np.random.default_rng(21)
    xs = rng.uniform(-1.0, 3.0, size=(200, 5))
    ts = rng.uniform(0.0, 1.0, size=200)
    for dtype in (np.float64, np.longdouble):
        x = xs.astype(dtype)
        diag = x[..., None] * np.eye(5)
        for t in (ts.astype(dtype), 0.3):
            want = np.einsum("...ii->...i", build_v_tensor(diag, t))
            got = _v_spectrum(x, t)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_concavity_certificate_passes_and_is_deterministic():
    spec = canonical_problem("A")
    a = concavity_certificate(spec, samples=500, seed=3)
    b = concavity_certificate(spec, samples=500, seed=3)
    assert a.passed
    assert a.line_violations == 0 and a.hess_violations == 0
    assert a.line_max_second_diff <= 1e-8
    assert a.hess_min_slack >= -1e-8
    assert a.to_lines() == b.to_lines()


def test_line_second_difference_negative_inside_cone():
    # G restricted to a line through a well-interior point must curve down.
    eta = np.array([1.0, 1.0, 1.0])
    d = np.array([1.0, -0.5, 0.2])
    d = d / np.linalg.norm(d)
    val = line_second_difference(eta, 0.7, 0.5, d, 3, 1e-4)
    assert val < 0.0


# -- manufactured forcing ------------------------------------------------------

def test_manufactured_forcing_constant_oracles():
    # Case A at t=1, u* = 0: f = sigma_3(I) + alpha sigma_2(I) = 0.7.
    spec = canonical_problem("A")
    f = manufactured_forcing(ScalarField.zeros(spec.grid), 1.0, spec)
    assert np.abs(f.values - 0.7).max() <= 1e-14
    # Case C, u* = 0: f = sigma_3(I) + alpha sigma_2(I) = 0.85.
    spec = canonical_problem("C")
    f = manufactured_forcing(ScalarField.zeros(spec.grid), 1.0, spec)
    assert np.abs(f.values - 0.85).max() <= 1e-14


def test_manufactured_forcing_rejections():
    with pytest.raises(DomainError):
        manufactured_forcing(ScalarField.zeros(Grid(3, 16)), 1.0,
                             canonical_problem("B"))
    specA = canonical_problem("A")
    with pytest.raises(DomainError):
        manufactured_forcing(ScalarField.zeros(specA.grid), 0.0, specA)
    big = sample_text("5*sin(x1)*cos(x2)", specA.grid)
    with pytest.raises(ValidationError):
        manufactured_forcing(big, 1.0, specA)


def test_manufactured_forcing_roundtrip_residual():
    """With spectral derivatives the discrete residual at u* is O(h^2),
    not zero; check it shrinks by ~4x under grid doubling."""
    norms = {}
    for N in (16, 32):
        spec = canonical_problem("C", N=N)
        star = sample_text("0.1*sin(x1)*cos(x2)", spec.grid)
        f = manufactured_forcing(star, 1.0, spec)
        spec2 = spec.with_f_field(f)
        norms[N] = residual(star, 1.0, spec2).max_abs()
    assert norms[16] / norms[32] == pytest.approx(4.0, rel=0.35)


@pytest.mark.parametrize("case", ["A", "C"])
def test_stencil_residual_is_second_order_at_n4_k3(case):
    """n=4, k=3: the forcing is manufactured from spectral derivatives, the
    residual from stencil ones, so the residual at u* is the stencil's
    truncation error and falls by ~4x under grid doubling."""
    norms = {}
    for N in (8, 16):
        spec = canonical_problem(case, n=4, k=3, N=N)
        star = sample_text("0.1*sin(x1)*cos(x2)", spec.grid)
        f = manufactured_forcing(star, 1.0, spec)
        norms[N] = residual(star, 1.0, spec.with_f_field(f)).max_abs()
    assert 3.5 <= norms[8] / norms[16] <= 4.5


# -- C0 comparison -------------------------------------------------------------

def test_c0_diagnostic_exact_at_constant_state():
    spec = canonical_problem("A")
    diag = c0_diagnostic(ScalarField.zeros(spec.grid), 1.0, spec)
    assert diag.within_slack
    assert diag.gap_at_max == 0.0 and diag.gap_at_min == 0.0
    # sup estimate: e^{2k u} <= sigma_k(V_B)/f = 1/0.7.
    assert diag.sup_estimate == pytest.approx(math.log(1.0 / 0.7) / 6.0,
                                              rel=1e-12)
    assert diag.inf_estimate == pytest.approx(0.0, abs=1e-12)


def test_c0_diagnostic_case_c_reports_gaps_only():
    spec = canonical_problem("C")
    diag = c0_diagnostic(ScalarField.zeros(spec.grid), 1.0, spec)
    assert diag.within_slack
    assert math.isnan(diag.sup_estimate) and math.isnan(diag.inf_estimate)


def test_c0_diagnostic_holds_along_a_solve():
    from sigmak.solver import Schedule, continue_path
    spec = canonical_problem("A", alpha="-0.1",
                             f="0.7 + 0.05*sin(x1)*cos(x2)")
    spec.validate(strict=True)
    trace = continue_path(spec, Schedule())
    final = trace.final_state
    diag = c0_diagnostic(final.u, final.t, spec)
    assert diag.within_slack, diag.to_lines()
    assert final.u.max_abs() <= diag.sup_estimate + spec.grid.h
