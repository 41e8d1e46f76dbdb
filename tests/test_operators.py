"""Residuals, linearization, and the certificate machinery."""

import dataclasses
import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_sigma_all, canonical_problem, matmul_sigma_and_dsigma
from sigmak import (Grid, ProblemSpec, ScalarField, c0_diagnostic,
                    concavity_certificate, ellipticity_certificate, linearize,
                    manufactured_forcing, prepare_state, residual, sample_text)
from sigmak.curvature import build_u_tensor, build_v_tensor, build_w_tensor
from sigmak.errors import (AdmissibilityError, DomainError, SigmaKError,
                           ValidationError)
from sigmak.grid import derivatives, random_smooth_field
from sigmak.operators import (SIGMA_FLOOR, C0_SLACK_CONSTANT,
                              CONCAVITY_MARGIN, EllipticityReport,
                              LinearOperator, _coefficients,
                              _derivatives_at_zero, _line_nodes, _node_blocks,
                              _tensor_blocks, _v_spectrum, _vander_inverse,
                              line_second_derivative)
from sigmak.solver import solve_linear
from sigmak.symfunc import (pack, sample_gamma, sigma_all_batch,
                            sigma_and_dsigma_batch, unpack)


# -- residual oracles --------------------------------------------------------

def test_residual_zero_at_homotopy_start():
    """At t=0 the tensor V(0) is the identity and u = 0 solves exactly."""
    for case in ("A", "B"):
        spec = canonical_problem(case)
        res = residual(prepare_state(ScalarField.zeros(spec.grid), 0.0, spec))
        assert res.max_abs() == 0.0


def test_residual_zero_at_constant_solutions():
    """The quotient form divides by sigma_{k-1}, so it vanishes to roundoff
    where the multiplied form vanishes exactly."""
    # Case A canonical: sigma_3(I) + alpha sigma_2(I) = 1 - 0.3 = 0.7 = f.
    spec = canonical_problem("A")
    assert residual(prepare_state(ScalarField.zeros(spec.grid), 1.0,
                                   spec)).max_abs() <= 1e-15
    # Case B with alpha = -1/3: sigma_3(I) = (1/3) sigma_2(I).
    spec = canonical_problem("B")
    assert residual(prepare_state(ScalarField.zeros(spec.grid), 1.0,
                                   spec)).max_abs() <= 1e-15
    # Case B with alpha = -1/(3 e^2): constant solution u = 1.
    spec = canonical_problem("B", alpha=repr(-1.0 / (3.0 * math.e ** 2)))
    u1 = ScalarField(spec.grid, np.ones(spec.grid.shape))
    assert residual(prepare_state(u1, 1.0, spec)).max_abs() <= 1e-14
    # Case C with f = 1 + 3 alpha: W(0) = schouten0 = identity.
    spec = canonical_problem("C", alpha="-0.05", f="0.85")
    assert residual(prepare_state(ScalarField.zeros(spec.grid), 1.0,
                                   spec)).max_abs() <= 1e-15


def test_linearize_rejects_states_outside_cone():
    spec = canonical_problem("A")
    u = sample_text("0.5*sin(x1)*cos(x2)", spec.grid)  # exits Gamma_2
    sd = prepare_state(u, 1.0, spec)
    assert sd.cone_margin <= 0.0
    # The residual still evaluates.
    assert np.all(np.isfinite(residual(sd).values))
    with pytest.raises(AdmissibilityError) as exc:
        linearize(sd)
    assert exc.value.margin is not None and exc.value.margin <= 0.0


def test_residual_rejects_bad_inputs():
    spec = canonical_problem("A")
    u = ScalarField.zeros(spec.grid)
    with pytest.raises(DomainError):
        residual(prepare_state(u, -0.1, spec))
    with pytest.raises(DomainError):
        residual(prepare_state(u, 1.1, spec))
    other = ScalarField.zeros(Grid(3, 8))
    with pytest.raises(DomainError):
        residual(prepare_state(other, 0.5, spec))


# -- linearization ------------------------------------------------------------

def _directional_fd(u, t, spec, phi, eps=1e-6):
    up = ScalarField(spec.grid, u.values + eps * phi.values)
    um = ScalarField(spec.grid, u.values - eps * phi.values)
    rp = residual(prepare_state(up, t, spec)).values
    rm = residual(prepare_state(um, t, spec)).values
    return (rp - rm) / (2.0 * eps)


@pytest.mark.parametrize("case,t,n,k,N", [
    pytest.param(case, t, n, k, N,
                 id=f"{case}-{t}" + ("" if n == 3 else f"-n{n}k{k}N{N}"))
    for n, k, N in ((3, 3, 16), (4, 3, 8), (5, 4, 8))
    for case, t in (("A", 0.0), ("A", 0.7), ("B", 0.4), ("B", 1.0),
                    ("C", 1.0))])
def test_linearize_matches_central_differences(case, t, n, k, N):
    spec = canonical_problem(case, n=n, k=k, N=N)
    rng = np.random.default_rng([ord(case), round(10 * t), n, k])
    u = random_smooth_field(spec.grid, rng, amplitude=0.02)
    phi = random_smooth_field(spec.grid, rng, amplitude=1.0)
    op = linearize(prepare_state(u, t, spec))
    got = op.apply(phi.values)
    want = _directional_fd(u, t, spec, phi)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-6 * scale


def test_linear_operator_routes_agree():
    """The matrix-free operator against G:hess(phi) + b.grad(phi) + c phi
    built from the grid's own stencils, for general coefficients in every
    supported dimension; apply reshapes around matvec."""
    rng = np.random.default_rng(15)
    for n in range(3, 7):
        grid = Grid(n, 8)
        second = rng.standard_normal((n, n) + grid.shape)
        second = second + np.swapaxes(second, 0, 1)
        first = rng.standard_normal((n,) + grid.shape)
        zeroth = rng.standard_normal(grid.shape)
        phi = ScalarField(grid, rng.standard_normal(grid.shape))
        grad, hess = derivatives(phi)
        want = (np.einsum("ij...,ij...->...", second, unpack(hess))
                + np.einsum("i...,i...->...", first, grad)
                + zeroth * phi.values)
        op = LinearOperator(grid=grid, second=pack(second), first=first,
                            zeroth=zeroth)
        got = op.apply(phi.values)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n
        assert np.array_equal(op.matvec(phi.values.ravel()), got.ravel())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matvec_is_bitwise_the_assembled_product(n):
    """The operator holds 1 + 2n + n(n-1)/2 weight planes, and its
    matrix-free matvec equals as_csr() @ x, with its 2n^2 + 1 entries a
    row, bit for bit on random elliptic coefficients (G positive definite
    at every node, c < 0) at N=8: it adds each node's terms in the order
    of its CSR row, subtracting a pair plane's product where the row holds
    the plane's negation."""
    rng = np.random.default_rng(70 + n)
    grid = Grid(n, 8)
    root = 0.3 * rng.standard_normal((n, n) + grid.shape)
    second = np.einsum("ik...,jk...->ij...", root, root)
    second += np.eye(n).reshape((n, n) + (1,) * n)
    op = LinearOperator(grid=grid, second=pack(second),
                        first=rng.standard_normal((n,) + grid.shape),
                        zeroth=-0.5 - rng.random(grid.shape))
    del root, second
    x = rng.standard_normal(grid.size)
    csr = op.as_csr()
    assert op.weights.shape == (_planes(n),) + grid.shape
    assert csr.nnz == grid.size * (2 * n * n + 1)
    assert np.array_equal(op.matvec(x), csr @ x)


def _planes(n):
    """Weight planes of an operator in n dimensions: the centre, +-e_i for
    each axis, and one per pair i < j (21 in place of 2n^2 + 1 = 51 at
    n = 5)."""
    return 1 + 2 * n + n * (n - 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_operator_built_into_a_supplied_buffer_keeps_it(n):
    """An operator built into a supplied values array keeps that array as
    its weight planes (no copy), overwrites every entry of it, and equals a
    freshly built operator bit for bit, in its planes and in matvec; so does
    one built by linearize into the previous operator's planes."""
    rng = np.random.default_rng(60 + n)
    grid = Grid(n, 8)
    second = rng.standard_normal((n, n) + grid.shape)
    second = second + np.swapaxes(second, 0, 1)
    coeffs = dict(grid=grid, second=pack(second),
                  first=rng.standard_normal((n,) + grid.shape),
                  zeroth=rng.standard_normal(grid.shape))
    fresh = LinearOperator(**coeffs)
    buf = np.full(grid.size * _planes(n), np.nan)
    op = LinearOperator(**coeffs, values=buf)
    assert np.shares_memory(op.weights, buf)
    assert np.array_equal(op.weights, fresh.weights)
    phi = rng.standard_normal(grid.size)
    assert np.array_equal(op.matvec(phi), fresh.matvec(phi))

    spec = canonical_problem("A", n=n, k=3, N=8)
    u = random_smooth_field(spec.grid, rng, amplitude=0.02)
    want = linearize(prepare_state(u, 0.6, spec))
    refilled = linearize(prepare_state(u, 0.6, spec), values=op.weights)
    assert np.shares_memory(refilled.weights, buf)
    assert np.array_equal(refilled.weights, want.weights)
    assert np.array_equal(refilled.matvec(phi), want.matvec(phi))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_preconditioner_inverts_constant_coefficient_operators(n):
    """With constant coefficients (random SPD G, nonzero b, c < 0) the
    frozen-coefficient inverse is the exact inverse of the stencil, so
    L[precondition(r)] = r to roundoff: this pins the symbol, its signs and
    its axis order to the assembled matrix."""
    rng = np.random.default_rng(40 + n)
    grid = Grid(n, 8)
    root = rng.standard_normal((n, n))
    unit = (1,) * n
    second = np.broadcast_to((root @ root.T + n * np.eye(n)).reshape(
        (n, n) + unit), (n, n) + grid.shape)
    first = np.broadcast_to(rng.standard_normal(n).reshape((n,) + unit),
                            (n,) + grid.shape)
    zeroth = np.full(grid.shape, -0.5 - rng.random())
    op = LinearOperator(grid=grid, second=pack(second), first=first,
                        zeroth=zeroth)
    r = rng.standard_normal(grid.size)
    got = op.matvec(op.precondition(r))
    assert np.abs(got - r).max() <= 1e-12 * np.abs(r).max()


def _reference_weights(grid, second, first, zeroth):
    """The stencil weight planes, (1 + 2n + n(n-1)/2,) + grid.shape, from
    the component-major coefficients: the fill the operator's weights must
    equal bit for bit."""
    n = grid.n
    second = np.moveaxis(second, (0, 1), (-2, -1)).reshape(grid.size, n, n)
    first = np.moveaxis(first, 0, -1).reshape(grid.size, n)
    rows = _weight_rows(grid.h, second, first, zeroth.ravel())
    return rows.T.reshape((-1,) + grid.shape)


def _weight_rows(h, second, first, zeroth):
    """One row of stencil weights per node, one column block at a time, from
    node-major coefficients: second (rows, n, n), first (rows, n), zeroth
    (rows,). The centre, +e_i, -e_i, then one weight per pair i < j."""
    rows, n = first.shape
    diag = np.einsum("rii->ri", second) / h ** 2
    bias = first / (2.0 * h)
    vals = np.empty((rows, _planes(n)))
    vals[:, 0] = zeroth - 2.0 * diag.sum(axis=1)
    vals[:, 1:1 + n] = diag + bias
    vals[:, 1 + n:1 + 2 * n] = diag - bias
    iu, ju = np.triu_indices(n, 1)
    vals[:, 1 + 2 * n:] = second[:, iu, ju] / (2.0 * h ** 2)
    return vals


def _whole_tensor(u, t, spec):
    """The curvature tensor of (u, t), packed, built on the whole grid at
    once from derivatives(u): V(U(u, t), t) for cases A and B, W(u) for
    case C."""
    gv, hess = derivatives(u)
    if spec.case == "C":
        return build_w_tensor(hess, gv, spec)
    return build_v_tensor(build_u_tensor(hess, gv, t, spec), t)


def _state_tensor(sd):
    """The curvature tensor of the state sd (_whole_tensor); the state
    itself keeps none."""
    return _whole_tensor(sd.u, sd.t, sd.spec)


def _reference_derivatives(sd):
    """dsigma_k and dsigma_{k-1} of the state's tensor, from the recurrence
    prepare_state runs, unpacked."""
    return tuple(unpack(d) for d in
                 sigma_and_dsigma_batch(_state_tensor(sd), sd.spec.k)[1:])


def _quotient_weight(sig, dk, dkm1, forcing):
    """The plain expression of the Newton weight S_Q = (dk - G dkm1)/den
    with G = (sigma_k - forcing)/den and den = max(sigma_{k-1},
    SIGMA_FLOOR), from sigma_0..sigma_k on the first axis of sig, the
    derivative matrices on the first two axes of dk and dkm1, and forcing
    = r e^{2ksu}. Returns (S_Q, den)."""
    k = sig.shape[0] - 1
    den = np.maximum(sig[k - 1], SIGMA_FLOOR)
    return (dk - ((sig[k] - forcing) / den) * dkm1) / den, den


def _reference_weight(sd):
    """S_Q (_quotient_weight) from the recurrence prepare_state runs, on
    the whole grid at once."""
    sig, dk, dkm1 = sigma_and_dsigma_batch(_state_tensor(sd), sd.spec.k)
    return _quotient_weight(sig, unpack(dk), unpack(dkm1),
                            sd.r_weight * sd.e2ksu)[0]


def _reference_coefficients(sd):
    """The plain expressions of the second- and first-order coefficients:
    S_Q (_reference_weight), P = V(S_Q, t), second = P + (tr P/(n-2)) I,
    first = 2 tr(P) grad u - 2 P grad u (case C: S_Q, 2 S_Q grad u -
    tr(S_Q) grad u). Defined at every node, inside the cone or not."""
    n, t = sd.spec.n, sd.t
    eye = np.eye(n).reshape((n, n) + (1,) * n)
    S = _reference_weight(sd)
    trS = np.einsum("ii...->...", S)
    if sd.spec.case == "C":
        second = S
        first = 2.0 * np.einsum("ij...,j...->i...", S, sd.gv) - trS * sd.gv
    else:
        tr = np.trace(S, axis1=0, axis2=1)
        P = t * S + ((1.0 - t) * tr) * eye
        trP = (t + n * (1.0 - t)) * trS
        second = P + (trP / (n - 2.0)) * eye
        first = 2.0 * trP * sd.gv \
            - 2.0 * np.einsum("ij...,j...->i...", P, sd.gv)
    return second, first


def _node_major(mats):
    """A component-major stack as a view with the matrix axes last, as
    eigvalsh takes it."""
    return np.moveaxis(mats, (0, 1), (-2, -1))


@pytest.mark.parametrize("case, n, k", [("A", 3, 3), ("B", 4, 3),
                                        ("A", 5, 4), ("C", 4, 3)])
def test_linearization_coefficients_and_weights_are_bitwise(case, n, k):
    """The in-place coefficient fields and the blockwise value fill equal
    the plain expressions S_Q = (dk - G dkm1)/den, P = V(S_Q, t),
    second = P + (tr P/(n-2)) I (case C: S_Q), first and zeroth as in the
    module docstring, and the state's Newton weight equals S_Q. Each
    linearization spends its state, so the weights are built from the state
    prepared again."""
    spec = canonical_problem(case, n=n, k=k, N=8)
    u = random_smooth_field(spec.grid, np.random.default_rng(n),
                            amplitude=0.02)
    t = 1.0 if case == "C" else 0.6
    sd = prepare_state(u, t, spec)
    assert np.array_equal(unpack(sd.newton_weight), _reference_weight(sd))
    want_second, want_first = _reference_coefficients(sd)
    second, first, zeroth = _coefficients(sd)
    second = unpack(second)
    assert np.array_equal(second, want_second)
    assert np.array_equal(first, want_first)
    weights = linearize(prepare_state(u, t, spec)).weights
    want = _reference_weights(spec.grid, second, first, zeroth)
    assert weights.shape == want.shape
    for j, (got, plane) in enumerate(zip(weights, want)):
        assert np.array_equal(got, plane), j


def _node_coefficients(sd, nodes, sig, dk, dkm1):
    """The plain node-major expressions of the three coefficient fields at
    the flat node indices `nodes`, from sigma_0..sigma_k (nodes, k+1) and the
    derivative matrices (nodes, n, n) of a reference recurrence and the
    recurrence-free fields of the state sd."""
    spec = sd.spec
    n, k, t, s = spec.n, spec.k, sd.t, spec.conformal_sign

    def at(field):
        return field.reshape(field.shape[:field.ndim - n] + (-1,))[..., nodes]

    forcing = at(sd.r_weight * sd.e2ksu)
    gv = at(sd.gv).T
    S, den = _quotient_weight(sig.T[..., None, None], dk, dkm1,
                              forcing[:, None, None])
    den = den[:, 0, 0]
    trS = np.trace(S, axis1=-2, axis2=-1)
    if spec.case == "C":
        second = S
        first = 2.0 * np.einsum("rij,rj->ri", S, gv) - trS[:, None] * gv
    else:
        eye = np.eye(n)
        P = t * S + ((1.0 - t) * trS)[:, None, None] * eye
        trP = (t + n * (1.0 - t)) * trS
        second = P + (trP / (n - 2.0))[:, None, None] * eye
        first = 2.0 * trP[:, None] * gv - 2.0 * np.einsum("rij,rj->ri", P, gv)
    zeroth = 2.0 * s * (at(sd.a_weight * sd.e2su) - k * forcing / den)
    return second, first, zeroth


_ACCEPTED_NK = [(n, k) for n in range(3, 7) for k in range(3, n + 1)]


@pytest.mark.parametrize("n, k", _ACCEPTED_NK)
@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_state_and_operator_match_the_matmul_recurrence(case, n, k):
    """prepare_state's sigma_0..sigma_k, the dsigma_k and dsigma_{k-1} of
    its recurrence, its Newton weight and linearize's weight planes, against
    the whole-matrix product recurrence of tests/helpers.py pushed through
    the plain weight and coefficient expressions: within 1e-13 of the
    largest reference entry, at 400 sampled nodes of a non-constant state,
    for every accepted (n, k) and case. The derivative matrices and the
    Newton weight are exactly symmetric at every node."""
    spec = _varied_problem(case, n, k)
    rng = np.random.default_rng(100 * n + k)
    u = random_smooth_field(spec.grid, rng, amplitude=0.02, modes=8)
    t = 1.0 if case == "C" else 0.6
    sd = prepare_state(u, t, spec)
    got_dk, got_dkm1 = _reference_derivatives(sd)
    newton_weight = unpack(sd.newton_weight)
    for d in (got_dk, got_dkm1, newton_weight):
        assert np.array_equal(d, np.swapaxes(d, 0, 1))
    nodes = rng.choice(spec.grid.size, size=400, replace=False)
    mats = np.moveaxis(
        unpack(_state_tensor(sd)).reshape(n, n, -1)[:, :, nodes], -1, 0)
    sig, dk, dkm1 = matmul_sigma_and_dsigma(mats, k)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(sd.sig.reshape(k + 1, -1)[:, nodes].T, sig)
    close(np.moveaxis(got_dk.reshape(n, n, -1)[:, :, nodes], -1, 0), dk)
    close(np.moveaxis(got_dkm1.reshape(n, n, -1)[:, :, nodes], -1, 0), dkm1)
    forcing = (sd.r_weight * sd.e2ksu).ravel()[nodes]
    close(np.moveaxis(newton_weight.reshape(n, n, -1)[:, :, nodes], -1, 0),
          _quotient_weight(sig.T[..., None, None], dk, dkm1,
                           forcing[:, None, None])[0])
    op = linearize(sd)
    close(op.weights.reshape(_planes(n), -1)[:, nodes].T, _weight_rows(
        spec.grid.h, *_node_coefficients(sd, nodes, sig, dk, dkm1)))


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_node_blocks_rebuild_the_whole_grid_tensor(case, monkeypatch):
    """_node_blocks cuts the first grid axis, in order, into runs of whole
    slabs within STATE_BLOCK_BYTES of packed planes (at least one slab),
    and _tensor_blocks yields block by block bitwise the tensor built on
    the whole grid at once, writing the gradient of derivatives(u): with
    blocks of one slab, of three slabs (the last one shorter) and of the
    whole grid, on a background that varies along the first axis."""
    spec = _varied_problem(case, 4)
    assert spec.background.shape[1] == spec.grid.N
    u = random_smooth_field(spec.grid, np.random.default_rng(12),
                            amplitude=0.02, modes=6)
    t = 1.0 if case == "C" else 0.6
    want_grad = derivatives(u)[0]
    want = _whole_tensor(u, t, spec)
    slab = 8 * 10 * 8 ** 3
    for block, starts in ((1, list(range(8))), (3 * slab + 7, [0, 3, 6]),
                          (2 ** 40, [0])):
        monkeypatch.setattr("sigmak.operators.STATE_BLOCK_BYTES", block)
        rows = _node_blocks(spec.grid)
        assert [r.start for r in rows] == starts
        assert [r.stop for r in rows] == starts[1:] + [8]
        gv = np.empty_like(want_grad)
        got = list(_tensor_blocks(u, t, spec, gv))
        assert [r for r, _ in got] == rows
        assert np.array_equal(np.concatenate([m for _, m in got], axis=1),
                              want)
        assert np.array_equal(gv, want_grad)


def test_zeroth_order_sign_matches_case():
    """c < 0 for the positive-sign cases (A, B), c > 0 for case C."""
    for case, sign in (("A", -1.0), ("B", -1.0), ("C", +1.0)):
        spec = canonical_problem(case)
        _, _, zeroth = _coefficients(
            prepare_state(ScalarField.zeros(spec.grid), 1.0, spec))
        assert np.all(sign * zeroth > 0.0)


def test_linearization_spends_its_state():
    """linearize forms its coefficients over the state's Newton weight and
    drops it: a second linearize or _coefficients on the same state
    raises DomainError, a SigmaKError, while the fields the residual, the
    monitor and the audits read are untouched, and so is the tensor the
    ellipticity audit derives again from u and t."""
    spec = canonical_problem("A", n=4, k=3, N=8)
    u = random_smooth_field(spec.grid, np.random.default_rng(8),
                            amplitude=0.02)
    sd = prepare_state(u, 0.6, spec)
    res = residual(sd).values
    kept = {f.name: getattr(sd, f.name).copy()
            for f in dataclasses.fields(sd)
            if f.name not in ("spec", "t", "u", "newton_weight")}
    u_values, tensor = u.values.copy(), _state_tensor(sd)
    audit = ellipticity_certificate(sd).to_lines()
    want = linearize(prepare_state(u, 0.6, spec)).weights
    assert np.array_equal(linearize(sd).weights, want)
    assert sd.newton_weight is None
    for name, value in kept.items():
        assert np.array_equal(getattr(sd, name), value), name
    assert np.array_equal(residual(sd).values, res)
    assert np.array_equal(sd.u.values, u_values)
    assert np.array_equal(_state_tensor(sd), tensor)
    assert ellipticity_certificate(sd).to_lines() == audit
    for spend in (linearize, _coefficients):
        with pytest.raises(SigmaKError, match="spent") as exc:
            spend(sd)
        assert isinstance(exc.value, DomainError)


# -- certificates -------------------------------------------------------------

def test_ellipticity_certificate_closed_form_values():
    spec = canonical_problem("A")
    u0 = ScalarField.zeros(spec.grid)
    cert0 = ellipticity_certificate(prepare_state(u0, 0.0, spec))
    assert cert0.passed
    assert cert0.quotient_min_eig == pytest.approx(1.0, rel=1e-12)
    assert cert0.quotient_trace_min == pytest.approx(3.0, rel=1e-12)
    assert cert0.trace_bound == pytest.approx(1.0 / 3.0, rel=1e-15)
    cert1 = ellipticity_certificate(prepare_state(u0, 1.0, spec))
    assert cert1.passed
    assert cert1.quotient_min_eig == pytest.approx(4.0 / 15.0, rel=1e-12)
    assert cert1.quotient_trace_min == pytest.approx(0.8, rel=1e-12)


def test_ellipticity_certificate_flags_cone_exit():
    spec = canonical_problem("A")
    u = sample_text("0.5*sin(x1)*cos(x2)", spec.grid)
    cert = ellipticity_certificate(prepare_state(u, 1.0, spec))
    assert not cert.passed
    assert cert.nodes_outside_cone > 0
    assert cert.worst_margin < 0.0


def test_ellipticity_trace_bound_all_cases():
    for case in ("A", "B", "C"):
        spec = canonical_problem(case)
        rng = np.random.default_rng(16)
        u = random_smooth_field(spec.grid, rng, amplitude=0.02)
        cert = ellipticity_certificate(prepare_state(u, 1.0, spec))
        assert cert.passed, (case, cert.to_lines())
        assert cert.quotient_trace_min >= cert.trace_bound - 1e-10


def _varied_problem(case: str, n: int, k: int | None = None) -> ProblemSpec:
    """A problem on Grid(n, 8), k = max(3, n-1) by default, with non-constant
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
        alpha, f = "-0.05", "1 + 0.3*cos(x1)"
    elif case == "A":
        alpha, f = "-0.1 - 0.05*cos(x2)", "0.7 + 0.2*sin(x1)*cos(x3)"
    else:
        alpha, f = "-0.3 - 0.05*sin(x1)", "0"
    k = max(3, n - 1) if k is None else k
    return ProblemSpec.build(case, n, k, grid, alpha=alpha, f=f,
                             background=comps)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_broadcast_background_is_exact(case, n):
    """Every operator reads the background as stored, at its broadcast
    shape, exactly as it reads the same tensor copied out to the full grid:
    for the canonical constant background and for a varied one."""
    t = 1.0 if case == "C" else 0.6
    for stored in (canonical_problem(case, n=n, N=8),
                   _varied_problem(case, n)):
        grid = stored.grid
        full = dataclasses.replace(stored, background=np.broadcast_to(
            stored.background, stored.background.shape[:1] + grid.shape
        ).copy())
        u = random_smooth_field(grid, np.random.default_rng(n),
                                amplitude=0.02)
        sd_s, sd_f = prepare_state(u, t, stored), prepare_state(u, t, full)
        for name in [f.name for f in dataclasses.fields(sd_s)][3:]:
            assert np.array_equal(getattr(sd_s, name),
                                  getattr(sd_f, name)), name
        assert np.array_equal(residual(sd_s).values, residual(sd_f).values)
        assert np.array_equal(linearize(sd_s).weights,
                              linearize(sd_f).weights)
        assert ellipticity_certificate(sd_s).to_lines() \
            == ellipticity_certificate(sd_f).to_lines()
        assert c0_diagnostic(sd_s).to_lines() \
            == c0_diagnostic(sd_f).to_lines()
        if case != "B":
            star = sample_text("0.1*sin(x1)*cos(x2)", grid)
            assert np.array_equal(
                manufactured_forcing(star, 1.0, stored).values,
                manufactured_forcing(star, 1.0, full).values)


def _reference_ellipticity(sd) -> dict:
    """The matrix route: eigvalsh of the quotient family dk/s_{k-1}
    - s_k/s_{k-1}^2 dkm1 + r e^{2ksu}/s_{k-1}^2 dkm1 pushed through V
    (cases A, B)."""
    spec, k = sd.spec, sd.spec.k
    valid = (sd.margins > 0.0) & (sd.sig[k - 1] >= SIGMA_FLOOR)
    skm1 = np.where(valid, sd.sig[k - 1], 1.0)
    sk = sd.sig[k]
    dk, dkm1 = _reference_derivatives(sd)
    d_quot = dk / skm1 - (sk / skm1 ** 2) * dkm1
    h_field = sd.r_weight * sd.e2ksu
    gq = d_quot + (h_field / skm1 ** 2) * dkm1
    if spec.case != "C":
        gq = unpack(build_v_tensor(pack(gq), sd.t))
    q_eigs = np.where(valid, np.linalg.eigvalsh(_node_major(gq))[..., 0],
                      np.inf)
    q_traces = np.where(valid, np.einsum("ii...->...", gq), np.inf)
    return {"quotient_min_eig": float(q_eigs.min()),
            "quotient_trace_min": float(q_traces.min()),
            "nodes_outside_cone": int(valid.size - valid.sum())}


def _gather_ellipticity(sd) -> list:
    """The certificate's lines by the route it replaced: the deleted-spectrum
    sigmas of all n indices from one (..., n, n-1) gather of the spectrum,
    and every later array formed at once."""
    spec = sd.spec
    n, k = spec.n, spec.k
    lam = np.linalg.eigvalsh(_node_major(unpack(_state_tensor(sd))))
    others = np.array([np.delete(np.arange(n), i) for i in range(n)])
    deleted = sigma_all_batch(lam[..., others], k - 1)
    dkm1, dk = deleted[..., k - 2], deleted[..., k - 1]
    valid = (sd.margins > 0.0) & (sd.sig[k - 1] >= SIGMA_FLOOR)
    skm1 = np.where(valid, sd.sig[k - 1], 1.0)
    excess = (sd.r_weight * sd.e2ksu - sd.sig[k]) / skm1 ** 2
    q_eigs = dk / skm1[..., None] + excess[..., None] * dkm1
    if spec.case != "C":
        q_eigs = _v_spectrum(q_eigs, sd.t)
    q_min = float(q_eigs.min(axis=-1)[valid].min())
    q_trace_min = float(q_eigs.sum(axis=-1)[valid].min())
    worst = np.unravel_index(int(np.argmin(sd.margins)), sd.margins.shape)
    bound = (n - k + 1.0) / k
    outside = int(valid.size - valid.sum())
    return EllipticityReport(
        case=spec.case, n=n, k=k, N=spec.grid.N, t=float(sd.t),
        nodes=int(valid.size), nodes_outside_cone=outside,
        worst_margin=float(sd.margins.min()),
        worst_margin_node=tuple(int(i) for i in worst),
        quotient_min_eig=q_min, quotient_trace_min=q_trace_min,
        trace_bound=bound, trace_slack=q_trace_min - bound,
        passed=bool(outside == 0 and q_min > 0.0
                    and q_trace_min - bound >= -1e-10)).to_lines()


@pytest.mark.parametrize("case", ["A", "C"])
@pytest.mark.parametrize("n, k", [(4, 3), (5, 4), (6, 5)])
def test_ellipticity_report_equals_the_gathered_route(case, n, k):
    """The certificate, which forms the deleted-spectrum sigmas one index
    at a time, writes a report equal line for line to the one-gather route,
    on a non-constant state of a varied problem."""
    spec = _varied_problem(case, n, k)
    u = random_smooth_field(spec.grid, np.random.default_rng(30 + n),
                            amplitude=0.02, modes=n + 2)
    sd = prepare_state(u, 1.0 if case == "C" else 0.6, spec)
    assert ellipticity_certificate(sd).to_lines() == _gather_ellipticity(sd)


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_ellipticity_reads_its_tensor_from_u_and_t_alone(case):
    """The certificate derives the state's gradient itself: overwriting
    sd.gv first changes no field of it, and leaves sd.gv as written."""
    spec = _varied_problem(case, 4)
    u = random_smooth_field(spec.grid, np.random.default_rng(31),
                            amplitude=0.02, modes=6)
    sd = prepare_state(u, 1.0 if case == "C" else 0.6, spec)
    want = ellipticity_certificate(sd)
    sd.gv[...] = 1e3
    assert ellipticity_certificate(sd) == want
    assert (sd.gv == 1e3).all()


def _close(got: float, want: float, rel: float = 1e-13) -> bool:
    return abs(got - want) <= rel * abs(want)


def _roll_derivatives_at(u, node) -> tuple:
    """Central-difference gradient and Hessian of u at one node, each value
    read off np.roll shifts of the whole grid."""
    v, h, n = u.values, u.grid.h, u.grid.n

    def at(*moves):
        """u at node + the sum of the unit moves (axis, +-1)."""
        w = v
        for axis, step in moves:
            w = np.roll(w, -step, axis)
        return w[node]

    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        grad[i] = (at((i, 1)) - at((i, -1))) / (2.0 * h)
        hess[i, i] = (at((i, 1)) - 2.0 * v[node] + at((i, -1))) / h ** 2
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                - at((i, -1), (j, 1)) + at((i, -1), (j, -1))) / (4.0 * h * h)
    return grad, hess


def _tensor_at(grad, hess, t, spec, node):
    """The case tensor at one node as one matrix, written out from its
    definition: V(U(u, t), t) for cases A and B, W(u) for case C."""
    n = spec.n
    eye = np.eye(n)
    background = np.broadcast_to(
        unpack(spec.background), (n, n) + spec.grid.shape)[(..., *node)]
    if spec.case == "C":
        return hess + np.outer(grad, grad) - 0.5 * (grad @ grad) * eye \
            + background
    u_mat = hess + (np.trace(hess) / (n - 2) + grad @ grad
                    + (1.0 - t) / n) * eye \
        - np.outer(grad, grad) - t * background / (n - 2)
    return t * u_mat + (1.0 - t) * np.trace(u_mat) * eye


def _reference_c0(u, t, spec, sd) -> dict:
    """The comparison from its definition at the extremal nodes of u: the
    state tensor from np.roll stencils there and the comparison tensor from
    zero derivatives, each written out as one matrix, with sigmas from the
    brute-force subset sums of their eigenvalues. The weights are sd's."""
    n, k = spec.n, spec.k
    node_max = np.unravel_index(int(np.argmax(u.values)), u.values.shape)
    node_min = np.unravel_index(int(np.argmin(u.values)), u.values.shape)

    def quotient(sig):
        if sig[1:k].min() <= 0.0 or sig[k - 1] < SIGMA_FLOOR:
            return float("nan")
        return float(sig[k] / sig[k - 1])

    def sigmas(mat):
        return brute_sigma_all(np.linalg.eigvalsh(mat), k)

    out = {"max_node": tuple(int(i) for i in node_max),
           "min_node": tuple(int(i) for i in node_min)}
    for end, node in (("max", node_max), ("min", node_min)):
        state = _tensor_at(*_roll_derivatives_at(u, node), t, spec, node)
        sig_b = sigmas(_tensor_at(np.zeros(n), np.zeros((n, n)), t, spec,
                                  node))
        out[f"quotient_at_{end}"] = quotient(sigmas(state))
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
    quotient family, and the comparison read off the prepared state
    against its definition at the extremal nodes: on a random smooth state
    that leaves the cone at some nodes, and on the uniform state u = 0,
    whose nodes tie exactly along the axes the background does not depend
    on. The random state has more modes than axes: with fewer, whole
    families of nodes share their values up to roundoff, and the argmin
    among such near-ties is not defined by either route."""
    spec = _varied_problem(case, n)
    t = 1.0 if case == "C" else 0.6
    k = spec.k
    rough = random_smooth_field(spec.grid, np.random.default_rng(n),
                                amplitude=0.6, modes=8)
    for u, leaves_cone in ((rough, True),
                           (ScalarField.zeros(spec.grid), False)):
        sd = prepare_state(u, t, spec)
        got = ellipticity_certificate(sd)
        want = _reference_ellipticity(sd)
        assert (0 < got.nodes_outside_cone < got.nodes) == leaves_cone
        assert got.nodes_outside_cone == want["nodes_outside_cone"]
        for name in ("quotient_min_eig", "quotient_trace_min"):
            assert _close(getattr(got, name), want[name]), (name, got)
        assert got.passed == (got.nodes_outside_cone == 0
                              and want["quotient_min_eig"] > 0.0
                              and got.trace_slack >= -1e-10)

        got = c0_diagnostic(sd)
        want = _reference_c0(u, t, spec, sd)
        del sd
        assert got.max_node == want["max_node"]
        assert got.min_node == want["min_node"]
        for end in ("max", "min"):
            for name in (f"quotient_at_{end}", f"comparison_at_{end}"):
                g, w = getattr(got, name), want[name]
                assert (math.isnan(g) and math.isnan(w)) or _close(g, w), name
            # a gap is a difference of two quotients, so it is held to the
            # comparison quotient's scale: at u = 0 it is roundoff
            g, w = getattr(got, f"gap_at_{end}"), want[f"gap_at_{end}"]
            scale = abs(want[f"comparison_at_{end}"])
            assert (math.isnan(g) and math.isnan(w)) \
                or abs(g - w) <= 1e-13 * scale, end
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
        diag = x.T[:, None] * np.eye(5)[..., None]
        for t in (ts.astype(dtype), 0.3):
            want = np.einsum("ii...->...i",
                             unpack(build_v_tensor(pack(diag), t)))
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
    val = line_second_derivative(eta[None], np.array([0.7]), np.array([0.5]),
                                 d[None], 3)
    assert val.shape == (1,) and val[0] < 0.0


def test_line_second_derivative_matches_the_radial_closed_form():
    """Along the radial line eta + s eta/|eta|, V is linear, so sigma_j
    scales by (1 + s/|eta|)^j and G''(0) = -h k (k-1) / (|eta|^2
    sigma_{k-1}(V(eta))). The exact derivative meets it to 1e-6 relative at
    every acceptance (n, k) pair, on Gamma_{k-1} samples drawn as the
    certificate draws them."""
    rng = np.random.default_rng(24)
    for n in (3, 4, 5, 6):
        for k in range(3, n + 1):
            etas = sample_gamma(n, k - 1, 300, rng,
                                min_margin=CONCAVITY_MARGIN)
            ts = rng.uniform(0.0, 1.0, 300)
            hs = rng.uniform(0.1, 2.0 * math.comb(n, k), 300)
            norms = np.linalg.norm(etas, axis=-1)
            got = line_second_derivative(etas, ts, hs, etas / norms[:, None],
                                         k)
            skm1 = sigma_all_batch(_v_spectrum(etas, ts), k - 1)[:, k - 1]
            want = -hs * k * (k - 1) / (norms ** 2 * skm1)
            assert np.abs(got / want - 1.0).max() <= 1e-6, (n, k)


def test_vander_inverse_is_computed_once_per_degree_and_read_only():
    """Each degree's inverse Vandermonde matrix is one cached, read-only
    array, and _derivatives_at_zero reads p(0), p'(0) and p''(0) of a known
    polynomial off its values at the nodes."""
    for m in range(2, 7):
        ainv = _vander_inverse(m)
        assert ainv is _vander_inverse(m) and not ainv.flags.writeable
        with pytest.raises(ValueError):
            ainv[0, 0] = 0.0
        coef = np.arange(1.0, m + 2.0)
        vals = np.polynomial.polynomial.polyval(_line_nodes(m), coef)
        got = _derivatives_at_zero(vals)
        assert np.allclose(got, (coef[0], coef[1], 2.0 * coef[2]),
                           rtol=1e-12, atol=0.0), m


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=3,
                max_size=6), st.data())
def test_v_map_keeps_gamma_samples_inside_the_cone(xs, data):
    """V(eta) = t eta + (1-t) tr(eta) e, a convex combination of two points
    of the convex cone Gamma_{k-1}, has a positive Gamma_{k-1} margin for
    every eta in it and t in [0, 1]: every concavity sample is admissible
    with no probe mask."""
    eta = np.array(xs)
    k = data.draw(st.integers(min_value=3, max_value=eta.size))
    assume(sigma_all_batch(eta, k - 1)[1:].min() > CONCAVITY_MARGIN)
    t = data.draw(st.floats(min_value=0.0, max_value=1.0))
    assert sigma_all_batch(_v_spectrum(eta, t), k - 1)[1:].min() > 0.0


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


@pytest.mark.parametrize("case", ["A", "C"])
@pytest.mark.parametrize("t", [2.0, -1.0])
def test_manufactured_forcing_rejects_t_outside_the_unit_interval(case, t):
    """Like prepare_state, for every case: case C's weights do not depend
    on t, yet a t outside [0, 1] is still not a point of the path."""
    spec = canonical_problem(case)
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
        manufactured_forcing(ScalarField.zeros(spec.grid), t, spec)


def test_manufactured_forcing_roundtrip_residual():
    """With spectral derivatives the discrete residual at u* is O(h^2),
    not zero; check it shrinks by ~4x under grid doubling."""
    norms = {}
    for N in (16, 32):
        spec = canonical_problem("C", N=N)
        star = sample_text("0.1*sin(x1)*cos(x2)", spec.grid)
        f = manufactured_forcing(star, 1.0, spec)
        spec2 = spec.with_f_field(f)
        norms[N] = residual(prepare_state(star, 1.0, spec2)).max_abs()
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
        norms[N] = residual(
            prepare_state(star, 1.0, spec.with_f_field(f))).max_abs()
    assert 3.5 <= norms[8] / norms[16] <= 4.5


# -- C0 comparison -------------------------------------------------------------

def test_c0_diagnostic_exact_at_constant_state():
    spec = canonical_problem("A")
    diag = c0_diagnostic(prepare_state(ScalarField.zeros(spec.grid), 1.0,
                                       spec))
    assert diag.within_slack
    assert diag.gap_at_max == 0.0 and diag.gap_at_min == 0.0
    # sup estimate: e^{2k u} <= sigma_k(V_B)/f = 1/0.7.
    assert diag.sup_estimate == pytest.approx(math.log(1.0 / 0.7) / 6.0,
                                              rel=1e-12)
    assert diag.inf_estimate == pytest.approx(0.0, abs=1e-12)


def test_c0_diagnostic_case_c_reports_gaps_only():
    spec = canonical_problem("C")
    diag = c0_diagnostic(prepare_state(ScalarField.zeros(spec.grid), 1.0,
                                       spec))
    assert diag.within_slack
    assert math.isnan(diag.sup_estimate) and math.isnan(diag.inf_estimate)


def test_c0_diagnostic_holds_along_a_solve():
    from sigmak.solver import Schedule, continue_path
    spec = canonical_problem("A", alpha="-0.1",
                             f="0.7 + 0.05*sin(x1)*cos(x2)")
    spec.validate(strict=True)
    trace = continue_path(spec, Schedule())
    final = trace.final_state
    diag = c0_diagnostic(final)
    assert diag.within_slack, diag.to_lines()
    assert final.u.max_abs() <= diag.sup_estimate + spec.grid.h


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_c0_comparison_matches_the_eigenvalue_route(case, n):
    """On a background with varying and off-diagonal components, the
    comparison quotients, which come from the packed recurrence the state's
    sigmas come from, match sigma_all_batch of the comparison matrix's
    eigvalsh to 1e-13 relative; and at u = 0, where the state tensor is the
    comparison tensor, both gaps are exactly zero."""
    spec = _varied_problem(case, n)
    t = 1.0 if case == "C" else 0.6
    u = random_smooth_field(spec.grid, np.random.default_rng(40 + n),
                            amplitude=0.02, modes=n + 2)
    got = c0_diagnostic(prepare_state(u, t, spec))
    for end in ("max", "min"):
        node = getattr(got, f"{end}_node")
        lam = np.linalg.eigvalsh(_tensor_at(np.zeros(n), np.zeros((n, n)), t,
                                            spec, node))
        sig = sigma_all_batch(lam, spec.k)
        want = sig[spec.k] / sig[spec.k - 1]
        assert _close(getattr(got, f"comparison_at_{end}"), want), end
    rest = c0_diagnostic(prepare_state(ScalarField.zeros(spec.grid), t, spec))
    assert rest.gap_at_max == 0.0 and rest.gap_at_min == 0.0


@pytest.mark.parametrize("case", ["A", "B", "C"])
def test_node_fields_at_a_uniform_state_are_the_first_node(case):
    """Ties go to the first node in row-major order: at u = 0 on the
    canonical problem every node is alike, so every *_node field and
    worst_node() is (0,) * n, at the path's start and at t = 1."""
    for n in (3, 4):
        spec = canonical_problem(case, n=n, N=8)
        u = ScalarField.zeros(spec.grid)
        for t in sorted({spec.start_t, 1.0}):
            sd = prepare_state(u, t, spec)
            cert = ellipticity_certificate(sd)
            c0 = c0_diagnostic(sd)
            first = (0,) * n
            assert sd.worst_node()[0] == first
            assert (cert.worst_margin_node, c0.max_node,
                    c0.min_node) == (first,) * 3
