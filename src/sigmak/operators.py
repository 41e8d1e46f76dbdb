"""Residuals, linearizations, and numerical certificates.

The solver iterates on the multiplied form of the curvature equation,

    sigma_k(T) + a e^{2su} sigma_{k-1}(T) - r e^{2ksu} = 0,

where T is the case's curvature tensor (V for cases A and B, W for case C),
s is the conformal sign, and the weights (a, r), computed by case_weights,
collect the case data:

    case A:  a = t alpha,                                r = (1-t) C(n,k) + t f
    case B:  a = -((1-t) C(n,k)/C(n,k-1) - t alpha),     r = 0
    case C:  a = alpha,                                  r = f.

The multiplied form is polynomial in T and needs no cone membership to
evaluate; residual returns it. The quotient form divides through by
sigma_{k-1}(T); it is the concave one, so it drives the diagnostics
(ellipticity trace bound, the C0 comparison), but it demands the cone and a
denominator floor.

The linearization is assembled analytically. Writing S for the matrix
weight d sigma_k(T) + a e^{2su} d sigma_{k-1}(T) and pushing it through the
tensor construction gives, for cases A and B with P = t S + (1-t) tr(S) I,

    second order   P + (tr P / (n-2)) I
    first order    2 tr(P) grad u - 2 P grad u
    zeroth order   2s (a e^{2su} sigma_{k-1}(T) - k r e^{2ksu}),

and for case C simply S, 2 S grad u - tr(S) grad u, and the same zeroth
pattern. For case A with alpha <= 0 (and case B with its positive quotient
weight) the zeroth coefficient is strictly negative, which is what makes the
linearized operator invertible on the periodic box.

LinearOperator holds the linearization matrix-free: the 2n^2 + 1 weights of
its periodic second-order stencil as component-major planes, written straight
from the coefficient planes, and a matvec that wrap-pads its argument once
and adds each weighted shift as a slice view, in the order a CSR row would,
so the product is bitwise that of the assembled matrix (as_csr, which alone
imports scipy, builds it on demand for tests and diagnostics). Its
preconditioner is the frozen-coefficient FFT inverse.

A caution recorded here because it is easy to trip over: the second-order
coefficient family of the multiplied form is positive definite near solution
states but not at arbitrary cone points (the identity

    S = sigma_{k-1} F_quot + (residual'/sigma_{k-1}) d sigma_{k-1}

ties its definiteness to the size of the residual). The quotient-form family
is the one that is positive definite on the whole cone, and the ellipticity
certificate therefore reports both.

Both families are polynomials in T, so the certificate reads them off one
eigvalsh of T (the eigenvalue form of Caffarelli, Nirenberg and Spruck).
With lambda the eigenvalues of T and sigma_j(lambda|i) the sigma_j of lambda
with lambda_i deleted, S has eigenvalues
s_i = sigma_{k-1}(lambda|i) + a e^{2su} sigma_{k-2}(lambda|i); the second-order
family has s_i (case C) or p_i + sum(p)/(n-2) with p_i = t s_i + (1-t) sum(s);
and the quotient family has t q_i + (1-t) sum(q) (case C: q_i) with
q_i = sigma_{k-1}(lambda|i)/sigma_{k-1} + (r e^{2ksu} - sigma_k)
sigma_{k-2}(lambda|i)/sigma_{k-1}^2. No coefficient matrix is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .curvature import (ProblemSpec, build_u_tensor, build_v_tensor,
                        build_w_tensor, record_lines)
from .errors import AdmissibilityError, DomainError, ValidationError
from .grid import (
    Grid,
    ScalarField,
    derivatives_at,
    grad_values,
    hess,
    spectral_grad,
    spectral_hess,
)
from .symfunc import (
    ConeReport,
    _argmin_node,
    _diag,
    _worst_node,
    sample_gamma,
    sigma_all_batch,
    sigma_and_dsigma_batch,
    sigma_matrix_planes,
)

# Floor under sigma_{k-1} for quotient-form evaluation: below it the state is
# treated as a cone exit rather than divided through.
SIGMA_FLOOR = 1e-12

# Concavity certificate knobs: probe step for line second differences, the
# cone margin required of sampled base spectra, and the (far smaller) margin
# required of the probe endpoints so every evaluation stays in the cone.
CONCAVITY_STEP = 1e-4
CONCAVITY_MARGIN = 1e-2
PROBE_MARGIN = 1e-8

# Truncation slack constant for the discrete C0 comparison: the maximum
# principle argument is exact in the continuum, and the discrete extremum
# obeys it up to O(h) from the stencil truncation.
C0_SLACK_CONSTANT = 1.0


def _argmax_node(values: np.ndarray) -> tuple:
    return _argmin_node(-values)


@dataclass
class StateData:
    """Per-node quantities cached for one (u, t) state.

    Holding these in one place lets residual, linearization, certificates,
    and the solver's line search share a single recurrence pass. Tensor
    fields are component-major, one grid plane per component.
    """

    spec: ProblemSpec
    t: float
    u: ScalarField
    gv: np.ndarray        # gradient of u, (n,) + grid.shape
    mats: np.ndarray      # V for cases A/B, W for case C, (n, n) + grid.shape
    sig: np.ndarray       # sigma_0..sigma_k of the tensor, (k+1,) + grid.shape
    dk: np.ndarray        # d sigma_k / dM, (n, n) + grid.shape
    dkm1: np.ndarray      # d sigma_{k-1} / dM, (n, n) + grid.shape
    margins: np.ndarray   # grid.shape, min of sigma_1..sigma_m (m = required cone)
    e2su: np.ndarray      # exp(2 s u)
    e2ksu: np.ndarray     # exp(2 k s u)
    a_weight: np.ndarray  # weight multiplying e^{2su} sigma_{k-1}
    r_weight: np.ndarray  # right-hand side coefficient multiplying e^{2ksu}

    @property
    def cone_margin(self) -> float:
        return float(self.margins.min())

    def worst_node(self) -> tuple[tuple, ConeReport]:
        """Grid index with the smallest cone margin, plus its ConeReport."""
        m = self.spec.required_cone
        return _worst_node(self.sig[1:m + 1], self.margins)


def case_weights(spec: ProblemSpec, t: float):
    """The weights (a, r) of the multiplied form at homotopy parameter t (see
    the module docstring), each broadcast to the grid shape."""
    n, k = spec.n, spec.k
    alpha = spec.alpha_field.values
    if spec.case == "A":
        a = t * alpha
        r = (1.0 - t) * math.comb(n, k) + t * spec.f_field.values
    elif spec.case == "B":
        a = -((1.0 - t) * math.comb(n, k) / math.comb(n, k - 1) - t * alpha)
        r = np.zeros(spec.grid.shape)
    else:
        a = alpha
        r = spec.f_field.values
    return (np.broadcast_to(a, spec.grid.shape),
            np.broadcast_to(r, spec.grid.shape))


def _case_tensor(hess_u: np.ndarray, gv: np.ndarray, t: float,
                 spec: ProblemSpec, at=()) -> np.ndarray:
    """The case's curvature tensor from derivatives of u at the background
    nodes `at`: V(U(u, t), t) for cases A and B, W(u) for case C."""
    if spec.case == "C":
        return build_w_tensor(hess_u, gv, spec, at)
    return build_v_tensor(build_u_tensor(hess_u, gv, t, spec, at), t)


def _check_state_args(u: ScalarField, t: float, spec: ProblemSpec) -> None:
    if u.grid != spec.grid:
        raise DomainError("field grid does not match the problem grid")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"homotopy parameter t must lie in [0, 1], got {t}")


def prepare_state(u: ScalarField, t: float, spec: ProblemSpec) -> StateData:
    """Build the cached state for (u, t): curvature tensor, sigma values and
    derivatives, cone margins, and the case weights."""
    _check_state_args(u, t, spec)
    k = spec.k
    gv = grad_values(u)
    hess_u = hess(u)
    mats = _case_tensor(hess_u, gv, t, spec)
    del hess_u   # the recurrence below sets the memory peak; free it first
    sig, dk, dkm1 = sigma_and_dsigma_batch(mats, k)
    m = spec.required_cone
    margins = np.minimum.reduce(sig[1:m + 1])

    s = spec.conformal_sign
    a_weight, r_weight = case_weights(spec, t)
    return StateData(spec=spec, t=t, u=u, gv=gv, mats=mats, sig=sig, dk=dk,
                     dkm1=dkm1, margins=margins,
                     e2su=np.exp(2.0 * s * u.values),
                     e2ksu=np.exp(2.0 * k * s * u.values),
                     a_weight=a_weight, r_weight=r_weight)


def residual(sd: StateData) -> ScalarField:
    """Multiplied-form equation residual per node at the state sd; defined
    inside the cone or not."""
    k = sd.spec.k
    vals = sd.sig[k] + sd.a_weight * sd.e2su * sd.sig[k - 1] \
        - sd.r_weight * sd.e2ksu
    return ScalarField(sd.spec.grid, vals)


# Slices of a wrap-padded axis that shift it by -1, 0 and +1.
_SHIFT = {-1: slice(0, -2), 0: slice(1, -1), 1: slice(2, None)}


@functools.lru_cache(maxsize=8)
def _stencil_shifts(n: int) -> tuple:
    """The 2n^2 + 1 offsets of the periodic stencil, as index tuples into
    a wrap-padded grid (see _wrap_pad) whose view at offset o holds the
    value at node + o. The order is that of the weight planes, in blocks:
    the centre; +e_i for each axis i; -e_i for each i; then, over the pairs
    i < j in np.triu_indices order, +e_i+e_j, -e_i-e_j, +e_i-e_j and
    -e_i+e_j, one block each."""
    eye = np.eye(n, dtype=int)
    iu, ju = np.triu_indices(n, 1)
    plus, mixed = eye[iu] + eye[ju], eye[iu] - eye[ju]
    offsets = np.concatenate([np.zeros((1, n), dtype=int), eye, -eye,
                              plus, -plus, mixed, -mixed])
    return tuple(tuple(_SHIFT[o] for o in row) for row in offsets.tolist())


def _wrap_pad(a: np.ndarray) -> np.ndarray:
    """a with one periodic layer added on both sides of every axis, written
    by slice copies: the interior, then each axis's two faces in turn, each
    face spanning every other axis in full, so the faces of later axes fill
    the edges and corners."""
    out = np.empty(tuple(s + 2 for s in a.shape), dtype=a.dtype)
    out[(slice(1, -1),) * a.ndim] = a
    for axis in range(a.ndim):
        lead = (slice(None),) * axis
        out[lead + (0,)] = out[lead + (-2,)]
        out[lead + (-1,)] = out[lead + (1,)]
    return out


@functools.lru_cache(maxsize=4)
def _stencil_pattern(grid: Grid) -> tuple:
    """Column indices and row pointers of the periodic stencil in CSR form:
    row i holds the flat index of node i + o for each offset o of
    _stencil_shifts, in that order. It depends only on the grid, so it is
    built once per grid and shared, read-only, by every as_csr on it. int32
    holds the indices while nnz < 2^31."""
    width = 2 * grid.n * grid.n + 1
    nnz = grid.size * width
    itype = np.int32 if nnz < 2 ** 31 else np.int64
    padded = _wrap_pad(np.arange(grid.size, dtype=itype).reshape(grid.shape))
    indices = np.stack([padded[shift] for shift in _stencil_shifts(grid.n)],
                       axis=-1).ravel()
    indptr = np.arange(0, nnz + 1, width, dtype=itype)
    indices.flags.writeable = False
    indptr.flags.writeable = False
    return indices, indptr


@dataclass
class LinearOperator:
    """The linearized equation  L[phi] = G:hess(phi) + b.grad(phi) + c phi
    with periodic second-order stencils, held matrix-free as its stencil
    weights, together with its frozen-coefficient preconditioner.

    second has shape (n, n) + grid.shape and is symmetric per node, first has
    shape (n,) + grid.shape (component-major, like every tensor field),
    zeroth has shape grid.shape. Construction writes the stencil weights
    straight from these planes into `weights`, (2n^2 + 1,) + grid.shape,
    one plane per offset of _stencil_shifts: c - 2 tau at the centre
    (tau = sum_i G_ii/h^2), G_ii/h^2 +- b_i/(2h) at +-e_i, G_ij/(2h^2) at
    +-(e_i+e_j) and -G_ij/(2h^2) at +-(e_i-e_j); the coefficients are not
    kept. A given `values` (float64, C-contiguous, grid.size * (2n^2 + 1)
    entries) is overwritten in full and becomes `weights` without a copy,
    so one buffer can serve operators never alive together.

    matvec() wrap-pads its argument once and adds the weighted shifts, each
    a slice view of the padded array, in plane order, which is bitwise
    as_csr() @ x; apply() reshapes around it. as_csr() assembles the matrix
    for tests and diagnostics.

    precondition() inverts L with its coefficients frozen (the approach of
    Benamou, Froese and Oberman for fully nonlinear elliptic equations). Each
    row is scaled by 1/d, d = 2|tau| + |c|, and the scaled weights are
    averaged over the nodes. d is the centre weight's magnitude wherever G is
    elliptic and c <= 0, and unlike tau it stays away from zero where a
    trial state leaves ellipticity at some nodes. The constant-coefficient
    stencil then has the discrete symbol, at theta_i = 2 pi k_i/N,

        sum_i g_ii (-4 sin^2(theta_i/2)) + 2i b_i sin(theta_i)
            - 4 sum_{i<j} g_ij sin(theta_i) sin(theta_j) - |c|

    (g_ii = mean G_ii/(h^2 d), b_i = mean b_i/(2h d), g_ij = mean
    G_ij/(2h^2 d), c = mean c/d), which the FFT inverts. Freezing the
    zeroth coefficient at -|c| keeps the symbol off zero where the mean c is
    positive (case C); only a vanishing mode, the constants when c = 0, is
    left out. For constant coefficients with c <= 0 the inverse is exact.
    """

    grid: Grid
    second: InitVar[np.ndarray]
    first: InitVar[np.ndarray]
    zeroth: InitVar[np.ndarray]
    values: InitVar[np.ndarray | None] = None
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    row_scale: np.ndarray = field(init=False, repr=False, compare=False)
    inv_symbol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, second, first, zeroth, values):
        g = self.grid
        n, h = g.n, g.h
        m = n * (n - 1) // 2
        if second.shape != (n, n) + g.shape or first.shape != (n,) + g.shape:
            raise DomainError(
                f"coefficients must be component-major, (n, n) + grid.shape "
                f"and (n,) + grid.shape; got {second.shape} and "
                f"{first.shape}")
        width = 2 * n * n + 1
        self.weights = np.empty((width,) + g.shape) if values is None \
            else values.reshape((width,) + g.shape)
        planes = self.weights.reshape(width, g.size)
        second = second.reshape(n, n, g.size)
        diag = _diag(second) / h ** 2
        bias = first.reshape(n, g.size) / (2.0 * h)
        tau = diag.sum(axis=0)
        zeroth = zeroth.ravel()
        np.subtract(zeroth, 2.0 * tau, out=planes[0])
        np.add(diag, bias, out=planes[1:1 + n])
        np.subtract(diag, bias, out=planes[1 + n:1 + 2 * n])
        p = 1 + 2 * n
        iu, ju = np.triu_indices(n, 1)
        cross = planes[p:p + m]
        np.divide(second[iu, ju], 2.0 * h ** 2, out=cross)
        planes[p + m:p + 2 * m] = cross
        np.negative(cross, out=planes[p + 2 * m:p + 3 * m])
        planes[p + 3 * m:] = planes[p + 2 * m:p + 3 * m]

        self.row_scale = 1.0 / (2.0 * np.abs(tau) + np.abs(zeroth))
        mean = self.row_scale / g.size
        # sin(theta_i) and sin^2(theta_i/2) along axis i; the last axis
        # holds rfftn's half spectrum
        sines, halves = [], []
        for i in range(n):
            freq = np.fft.rfftfreq(g.N) if i == n - 1 else np.fft.fftfreq(g.N)
            shape = [1] * n
            shape[i] = freq.size
            sines.append(np.sin(2.0 * np.pi * freq).reshape(shape))
            halves.append(np.sin(np.pi * freq).reshape(shape) ** 2)
        symbol = np.full(np.broadcast_shapes(*(s.shape for s in sines)),
                         -abs(float(mean @ zeroth)), dtype=complex)
        for i, (gi, bi) in enumerate(zip(diag @ mean, bias @ mean)):
            symbol += -4.0 * gi * halves[i] + 2j * bi * sines[i]
        for gij, i, j in zip(cross @ mean, iu, ju):
            symbol -= 4.0 * gij * sines[i] * sines[j]
        self.inv_symbol = np.divide(1.0, symbol, out=np.zeros_like(symbol),
                                    where=symbol != 0.0)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L on a full grid array."""
        return self.matvec(values.ravel()).reshape(self.grid.shape)

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        """L on a flattened field: w_0 x, then w_j times the shift of x by
        offset j added in plane order, so each node sums its terms in the
        order of the CSR row (as_csr)."""
        x = flat.reshape(self.grid.shape)
        padded = _wrap_pad(x)
        shifts = _stencil_shifts(self.grid.n)
        y = self.weights[0] * x
        term = np.empty_like(y)
        for w, shift in zip(self.weights[1:], shifts[1:]):
            np.multiply(w, padded[shift], out=term)
            y += term
        return y.ravel()

    def precondition(self, flat: np.ndarray) -> np.ndarray:
        """The frozen-coefficient inverse on a flattened field: the row
        scale, then the inverse symbol on the rfftn half spectrum."""
        shape = self.grid.shape
        spectrum = np.fft.rfftn((flat * self.row_scale).reshape(shape))
        spectrum *= self.inv_symbol
        return np.fft.irfftn(spectrum, s=shape,
                             axes=range(len(shape))).ravel()

    def as_csr(self) -> "csr_matrix":
        """The operator as a new scipy.sparse.csr_matrix: the weight planes
        copied, node by node, into the rows of the grid's cached pattern
        (_stencil_pattern). Its index arrays are that shared read-only
        pattern, so in-place restructuring such as sum_duplicates() raises.
        scipy is imported here only."""
        from scipy.sparse import csr_matrix
        indices, indptr = _stencil_pattern(self.grid)
        size = self.grid.size
        data = self.weights.reshape(-1, size).T.ravel()
        return csr_matrix((data, indices, indptr), shape=(size, size))


def _coefficients(sd: StateData):
    """Analytic (second, first, zeroth) coefficient fields of the multiplied
    form's Frechet derivative at the cached state."""
    spec = sd.spec
    n, k, t = spec.n, spec.k, sd.t
    S = (sd.a_weight * sd.e2su) * sd.dkm1
    S += sd.dk
    trS = np.einsum("ii...->...", S)
    if spec.case == "C":
        second = S
        first = 2.0 * np.einsum("ij...,j...->i...", S, sd.gv) - trS * sd.gv
    else:
        # P = build_v_tensor(S, t), written over S: t S + (1-t) tr(S) I
        P = S
        P *= t
        diag = _diag(P)
        diag += (1.0 - t) * trS
        trP = (t + n * (1.0 - t)) * trS
        first = 2.0 * trP * sd.gv \
            - 2.0 * np.einsum("ij...,j...->i...", P, sd.gv)
        # second = P + (tr P / (n-2)) I, again in place
        diag += trP / (n - 2.0)
        second = P
    s = spec.conformal_sign
    zeroth = 2.0 * s * (sd.a_weight * sd.e2su * sd.sig[k - 1]
                        - k * sd.r_weight * sd.e2ksu)
    return second, first, zeroth


def linearize(sd: StateData,
              values: np.ndarray | None = None) -> LinearOperator:
    """Frechet derivative of the multiplied-form residual with respect to u
    at the state sd, which must lie inside the case's cone
    (AdmissibilityError).

    Assembled analytically: d sigma terms via the derivative matrices from the
    recurrence, composed with the dependence of the curvature tensor on
    (hess u, grad u, u); zeroth-order terms from the explicit exponentials.
    values is handed to LinearOperator, which writes the weights into it.
    """
    if sd.cone_margin <= 0.0:
        node, report = sd.worst_node()
        raise AdmissibilityError(
            f"linearization needs the state inside "
            f"Gamma_{sd.spec.required_cone}", node=node, margin=report.margin)
    second, first, zeroth = _coefficients(sd)
    return LinearOperator(grid=sd.spec.grid, second=second, first=first,
                          zeroth=zeroth, values=values)


@dataclass
class EllipticityReport:
    """Pointwise ellipticity audit of one state, from the eigenvalues of the
    state tensor (see the module docstring): no coefficient matrix is formed.

    newton_* rates the second-order coefficients the solver actually inverts
    (multiplied form); quotient_* rates the concave quotient family, whose
    smallest eigenvalue is positive on the whole cone and whose trace (the
    sum of its eigenvalues) obeys the (n-k+1)/k lower bound.
    """

    case: str
    n: int
    k: int
    N: int
    t: float
    nodes: int
    nodes_outside_cone: int
    worst_margin: float
    worst_margin_node: tuple
    newton_min_eig: float
    newton_min_eig_node: tuple
    quotient_min_eig: float
    quotient_trace_min: float
    trace_bound: float
    trace_slack: float
    passed: bool

    def to_lines(self, prefix: str = "ellipticity") -> list:
        return record_lines(self, prefix)


def ellipticity_certificate(sd: StateData) -> EllipticityReport:
    """Audit ellipticity at the state sd. Never raises: nodes outside the
    cone (or under the denominator floor) are counted and fail the
    certificate."""
    spec = sd.spec
    n, k = spec.n, spec.k
    lam = np.linalg.eigvalsh(np.moveaxis(sd.mats, (0, 1), (-2, -1)))
    others = np.array([np.delete(np.arange(n), i) for i in range(n)])
    # sigma_{k-2} and sigma_{k-1} of the deleted spectra (lambda|i): the
    # eigenvalues of d sigma_{k-1}(T) and d sigma_k(T)
    deleted = sigma_all_batch(lam[..., others], k - 1)
    dkm1, dk = deleted[..., k - 2], deleted[..., k - 1]
    s_eigs = dk + (sd.a_weight * sd.e2su)[..., None] * dkm1
    if spec.case == "C":
        newton_eigs = s_eigs.min(axis=-1)
    else:
        p_eigs = _v_spectrum(s_eigs, sd.t)
        newton_eigs = (p_eigs + p_eigs.sum(axis=-1, keepdims=True)
                       / (n - 2.0)).min(axis=-1)
    nm_node = _argmin_node(newton_eigs)
    worst_node = _argmin_node(sd.margins)

    valid = (sd.margins > 0.0) & (sd.sig[k - 1] >= SIGMA_FLOOR)
    outside = int(sd.margins.size - valid.sum())
    if valid.any():
        skm1 = np.where(valid, sd.sig[k - 1], 1.0)
        excess = (sd.r_weight * sd.e2ksu - sd.sig[k]) / skm1 ** 2
        q_eigs = dk / skm1[..., None] + excess[..., None] * dkm1
        if spec.case != "C":
            q_eigs = _v_spectrum(q_eigs, sd.t)
        q_min = float(q_eigs.min(axis=-1)[valid].min())
        q_trace_min = float(q_eigs.sum(axis=-1)[valid].min())
    else:
        q_min = float("nan")
        q_trace_min = float("nan")
    bound = (n - k + 1.0) / k
    slack = q_trace_min - bound
    newton_min = float(newton_eigs.min())
    passed = bool(outside == 0 and newton_min > 0.0 and q_min > 0.0
                  and slack >= -1e-10)
    return EllipticityReport(
        case=spec.case, n=n, k=k, N=spec.grid.N, t=float(sd.t),
        nodes=int(sd.margins.size), nodes_outside_cone=outside,
        worst_margin=sd.cone_margin, worst_margin_node=worst_node,
        newton_min_eig=newton_min, newton_min_eig_node=nm_node,
        quotient_min_eig=q_min, quotient_trace_min=q_trace_min,
        trace_bound=bound, trace_slack=slack, passed=passed)


def _v_spectrum(xs: np.ndarray, ts) -> np.ndarray:
    """Spectrum of V at a tensor U with spectrum xs (same eigenvectors):
    mu = t x + (1-t) sum(x), in the dtype of xs. ts is a scalar or an array
    over the batch shape of xs."""
    ts = np.asarray(ts)[..., None]
    return ts * xs + (1.0 - ts) * xs.sum(axis=-1, keepdims=True)


def _quotient_g(xs: np.ndarray, ts: np.ndarray, hs: np.ndarray, k: int) -> np.ndarray:
    """G(x) = (sigma_k - h)/sigma_{k-1} evaluated at mu = t x + (1-t) tr(x) e."""
    sig = sigma_all_batch(_v_spectrum(xs, ts), k)
    return (sig[..., k] - hs) / sig[..., k - 1]


def line_second_difference(etas: np.ndarray, ts: np.ndarray, hs: np.ndarray,
                           ds: np.ndarray, k: int) -> np.ndarray:
    """Second central differences, step CONCAVITY_STEP, of G (see
    _quotient_g) along the lines eta + s d, one per row of etas and ds with
    its t and h, computed in extended precision and returned as float64.
    Concavity makes each nonpositive whenever its probe segment stays inside
    Gamma_{k-1}."""
    ld = np.longdouble
    step = ld(CONCAVITY_STEP)
    e_ld, t_ld, h_ld, d_ld = (np.asarray(a, dtype=ld)
                              for a in (etas, ts, hs, ds))
    g0 = _quotient_g(e_ld, t_ld, h_ld, k)
    gp = _quotient_g(e_ld + step * d_ld, t_ld, h_ld, k)
    gm = _quotient_g(e_ld - step * d_ld, t_ld, h_ld, k)
    return ((gp - 2.0 * g0 + gm) / step ** 2).astype(float)


@dataclass
class ConcavityReport:
    """Sampling audit of concavity: line second differences of the quotient
    operator, and the sharpened Hessian inequality for G0 = -1/sigma_{k-1}
    (checked in the equivalent polynomial form

        sigma * sigma''  <=  (k/(k+1)) * (sigma')^2

    along matrix directions, obtained from the quadratic-form statement by
    multiplying through by sigma^3 > 0; the slack is reported relative to
    max(1, |terms|))."""

    n: int
    k: int
    samples: int
    seed: int
    step: float
    margin_floor: float
    line_max_second_diff: float
    line_violations: int
    hess_min_slack: float
    hess_violations: int
    passed: bool

    def to_lines(self, prefix: str = "concavity") -> list:
        return record_lines(self, prefix)


def _draw_concavity_samples(n: int, k: int, count: int,
                            rng: np.random.Generator):
    """Sample (eta, t, h, d, psi) tuples whose whole probe segment lies in
    Gamma_{k-1} (the hypothesis of the concavity statement), with enough
    margin at the endpoints to keep G finite."""
    step = CONCAVITY_STEP
    etas = np.empty((0, n))
    ts = np.empty(0)
    hs = np.empty(0)
    ds = np.empty((0, n))
    psis = np.empty((0, n, n))
    h_top = 2.0 * math.comb(n, k)
    while etas.shape[0] < count:
        m = max(count - etas.shape[0], 256)
        eta = sample_gamma(n, k - 1, m, rng, min_margin=CONCAVITY_MARGIN)
        t = rng.uniform(0.0, 1.0, m)
        h = rng.uniform(0.1, h_top, m)
        d = rng.normal(size=(m, n))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        raw = rng.normal(size=(m, n, n))
        psi = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        psi /= np.linalg.norm(psi, axis=(-2, -1), keepdims=True)
        ok = np.ones(m, dtype=bool)
        for shift in (0.0, step, -step):
            sig = sigma_all_batch(_v_spectrum(eta + shift * d, t), k - 1)
            ok &= sig[:, 1:].min(axis=-1) > PROBE_MARGIN
        etas = np.concatenate([etas, eta[ok]])
        ts = np.concatenate([ts, t[ok]])
        hs = np.concatenate([hs, h[ok]])
        ds = np.concatenate([ds, d[ok]])
        psis = np.concatenate([psis, psi[ok]])
    sl = slice(0, count)
    return etas[sl], ts[sl], hs[sl], ds[sl], psis[sl]


def _eq93_slacks(etas: np.ndarray, ts: np.ndarray, psis: np.ndarray,
                 k: int) -> np.ndarray:
    """Relative slack of the sharpened Hessian inequality for
    G0(U) = -1/sigma_{k-1}(t U + (1-t) tr(U) I) along matrix directions psi.

    sigma(s) = sigma_{k-1}(V + s Psi) is a polynomial of degree k-1 in s, so
    its derivatives at 0 are recovered exactly (to roundoff) from values at
    k integer nodes; no small-step cancellation is involved. The inequality

        -G0'' >= (1 + 1/(k+1)) (G0')^2 / G0

    is equivalent, after multiplying by sigma^3 > 0, to
    sigma sigma'' <= (k/(k+1)) (sigma')^2.
    """
    m = k - 1
    nodes = np.arange(m + 1, dtype=float) - (m // 2)
    # V(diag(eta) + s Psi) = diag(mu) + s V(Psi), with mu the V-spectrum;
    # stack is component-major over (sample, node)
    stack = build_v_tensor(np.moveaxis(psis, 0, -1), ts)[..., None] * nodes
    diag = _diag(stack)
    diag += _v_spectrum(etas, ts).T[..., None]
    vals = sigma_matrix_planes(stack, m)[m]
    ainv = np.linalg.inv(np.vander(nodes, increasing=True))
    coef = vals @ ainv.T
    sig0 = vals[:, m // 2]
    d1 = coef[:, 1]
    d2 = 2.0 * coef[:, 2]
    num = (k / (k + 1.0)) * d1 ** 2 - sig0 * d2
    scale = np.maximum(1.0, d1 ** 2 + np.abs(sig0 * d2))
    return num / scale


def concavity_certificate(spec: ProblemSpec, samples: int,
                          seed: int) -> ConcavityReport:
    """Sampling certificate of operator concavity for the (n, k) of `spec`.

    Draws spectra in Gamma_{k-1} (margin floor CONCAVITY_MARGIN), homotopy
    weights t in [0, 1], equation weights h, unit line directions, and unit
    symmetric matrix directions. Checks (a) second central differences of
    G = (sigma_k - h)/sigma_{k-1} at mu = t eta + (1-t) tr(eta) e along
    lines, in extended precision, against +1e-8, and (b) the sharpened
    Hessian inequality for G0 in exact polynomial form against a relative
    -1e-8. Diagonal base points lose no generality: any base tensor is
    orthogonally equivalent to one, with the matrix direction transformed
    along."""
    if samples < 1:
        raise DomainError("samples must be positive")
    n, k = spec.n, spec.k
    rng = np.random.default_rng(seed)
    etas, ts, hs, ds, psis = _draw_concavity_samples(n, k, samples, rng)

    d2 = line_second_difference(etas, ts, hs, ds, k)
    line_max = float(d2.max())
    line_viol = int((d2 > 1e-8).sum())

    slack = _eq93_slacks(etas, ts, psis, k)
    hess_min = float(slack.min())
    hess_viol = int((slack < -1e-8).sum())
    return ConcavityReport(
        n=n, k=k, samples=samples, seed=seed, step=float(CONCAVITY_STEP),
        margin_floor=float(CONCAVITY_MARGIN),
        line_max_second_diff=line_max, line_violations=line_viol,
        hess_min_slack=hess_min, hess_violations=hess_viol,
        passed=bool(line_viol == 0 and hess_viol == 0))


def manufactured_forcing(u_star: ScalarField, t: float,
                         spec: ProblemSpec) -> ScalarField:
    """The forcing f that makes u_star an exact continuum solution.

    Derivatives of u_star are taken spectrally, so for band-limited u_star
    the returned field carries no truncation error and the discrete solve's
    deviation from u_star measures pure stencil error (the basis of the
    convergence study). Case A needs t > 0 (the f term enters with weight t);
    case B has no forcing to manufacture. The curvature tensor of u_star must
    be admissible and the resulting f positive, otherwise ValidationError.
    """
    if u_star.grid != spec.grid:
        raise DomainError("field grid does not match the problem grid")
    if spec.case == "B":
        raise DomainError("case B prescribes f identically 0; nothing to "
                          "manufacture")
    if spec.case == "A" and t <= 0.0:
        raise DomainError("case A forcing needs t > 0 (f enters with "
                          "weight t)")
    k = spec.k
    mats = _case_tensor(spectral_hess(u_star), spectral_grad(u_star), t, spec)
    sig = sigma_matrix_planes(mats, k)
    margins = np.minimum.reduce(sig[1:k])
    worst = float(margins.min())
    if worst <= 0.0:
        node = _argmin_node(margins)
        raise ValidationError(
            f"curvature tensor of u_star leaves Gamma_{k - 1} at node "
            f"{node} (margin {worst:.3e})")
    s = spec.conformal_sign
    e2su = np.exp(2.0 * s * u_star.values)
    e2ksu = np.exp(2.0 * k * s * u_star.values)
    # The weights at f = 0: r is r0 + t f in case A and f itself in case C.
    a, r0 = case_weights(spec.with_f_field(ScalarField.zeros(spec.grid)), t)
    r = (sig[k] + a * e2su * sig[k - 1]) / e2ksu
    f = (r - r0) / t if spec.case == "A" else r
    low = float(f.min())
    if low <= 0.0:
        node = _argmin_node(f)
        raise ValidationError(
            f"manufactured forcing must be positive; f = {low:.3e} at node "
            f"{node}")
    return ScalarField(spec.grid, f)


@dataclass
class C0Report:
    """Discrete analogue of the maximum-principle comparison behind the sup
    bound: at the discrete argmax of u the full quotient cannot exceed the
    quotient of the gradient-free comparison tensor (and conversely at the
    argmin), up to O(h) truncation slack."""

    case: str
    n: int
    k: int
    t: float
    h: float
    slack_delta: float
    max_node: tuple
    u_max: float
    min_node: tuple
    u_min: float
    quotient_at_max: float
    comparison_at_max: float
    gap_at_max: float
    quotient_at_min: float
    comparison_at_min: float
    gap_at_min: float
    sup_estimate: float
    inf_estimate: float
    within_slack: bool

    def to_lines(self, prefix: str = "c0") -> list:
        return record_lines(self, prefix)


def _cone_quotient(sig: np.ndarray, k: int) -> float:
    """sigma_k / sigma_{k-1} from sigma_0..sigma_k of one spectrum; nan
    outside Gamma_{k-1} or under the denominator floor."""
    if sig[1:k].min() <= 0.0 or sig[k - 1] < SIGMA_FLOOR:
        return float("nan")
    return float(sig[k] / sig[k - 1])


def c0_diagnostic(u: ScalarField, t: float, spec: ProblemSpec) -> C0Report:
    """Check the discrete extremum comparison and emit the implied bounds.

    At the argmax of u the Hessian contribution is nonpositive and the
    gradient vanishes, so the state tensor is dominated by the comparison
    tensor B, the case tensor at zero derivatives (cases A/B:
    -t ric0/(n-2) + ((1-t)/n) I pushed through the V map; case C: the
    background Schouten tensor), and quotient monotonicity plus concavity
    force quotient(state) <= quotient(comparison) there. The discrete check
    allows an O(h) slack. For cases A and B the comparison value feeds the
    closed-form sup/inf estimates; for case C the bound machinery targets
    the other conformal sign, so only the gaps are reported.

    Both tensors are built at the two extremal nodes only, from the stencil
    derivatives there and the background indexed there."""
    _check_state_args(u, t, spec)
    n, k = spec.n, spec.k
    grid = spec.grid
    node_max = _argmax_node(u.values)
    node_min = _argmin_node(u.values)
    u_max = float(u.values[node_max])
    u_min = float(u.values[node_min])

    at = tuple(np.array(axis) for axis in zip(node_max, node_min))
    gv, hess_u = derivatives_at(u, (node_max, node_min))
    sig_max, sig_min = sigma_matrix_planes(
        _case_tensor(hess_u, gv, t, spec, at), k).T
    comparison = _case_tensor(np.zeros((n, n, 1)), np.zeros((n, 1)), t,
                              spec, at)
    sig_b_max, sig_b_min = sigma_all_batch(
        np.linalg.eigvalsh(np.moveaxis(comparison, -1, 0)), k)
    a_weight, r_weight = case_weights(spec, t)

    q_max = _cone_quotient(sig_max, k)
    q_min = _cone_quotient(sig_min, k)
    qb_max = _cone_quotient(sig_b_max, k)
    qb_min = _cone_quotient(sig_b_min, k)
    gap_max = qb_max - q_max
    gap_min = q_min - qb_min
    delta = C0_SLACK_CONSTANT * grid.h

    sup_est = float("nan")
    inf_est = float("nan")
    if spec.case == "A":
        h_max = float(r_weight[node_max])
        h_min = float(r_weight[node_min])
        if sig_b_max[k] > 0.0:
            sup_est = math.log(sig_b_max[k] / h_max) / (2.0 * k)
        low = sig_b_min[k] + float(a_weight[node_min]) \
            * math.exp(2.0 * u_min) * sig_b_min[k - 1]
        if low > 0.0:
            inf_est = math.log(low / h_min) / (2.0 * k)
    elif spec.case == "B":
        q_w_max = -float(a_weight[node_max])
        q_w_min = -float(a_weight[node_min])
        if qb_max > 0.0:
            sup_est = 0.5 * math.log(qb_max / q_w_max)
        if qb_min > 0.0:
            inf_est = 0.5 * math.log(qb_min / q_w_min)

    within = bool(gap_max >= -delta and gap_min >= -delta) \
        if np.isfinite(gap_max) and np.isfinite(gap_min) else False
    return C0Report(
        case=spec.case, n=n, k=k, t=float(t), h=grid.h, slack_delta=delta,
        max_node=node_max, u_max=u_max, min_node=node_min, u_min=u_min,
        quotient_at_max=q_max, comparison_at_max=qb_max, gap_at_max=gap_max,
        quotient_at_min=q_min, comparison_at_min=qb_min, gap_at_min=gap_min,
        sup_estimate=sup_est, inf_estimate=inf_est, within_slack=within)
