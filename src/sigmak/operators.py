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

LinearOperator holds the linearization matrix-free: the weights of its
periodic second-order stencil as component-major planes, written straight
from the coefficient planes, one for the centre, one per axis offset +-e_i
of the stencil that grid defines (grid._stencil_shifts) and one per pair
i < j, whose four corners share it up to sign; and a matvec that wrap-pads
its argument once (grid._wrap_pad) and adds each weighted shift as a slice
view, in the order a CSR row would, so the product is bitwise that of the
assembled matrix (as_csr, which alone imports scipy, builds it on demand
for tests and diagnostics). Its preconditioner is the frozen-coefficient
FFT inverse.

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

A state is built in node blocks: runs of whole slabs of the first grid
axis, each contiguous within every plane, as many slabs as keep a block's
packed tensor planes within STATE_BLOCK_BYTES (_node_blocks). A block takes
its stencil derivatives from the one wrap-padded copy of u (its slabs and
their halo), forms its curvature tensor from them and the background read
there, and runs the sigma recurrence, writing its gradient, its sigmas and
its Newton weight (with the case weights read there) straight into the
state's planes (_tensor_blocks, _build_state). So the Hessian, the tensor
and the recurrence's planes exist one block at a time, and the state keeps
no tensor. Every operation is node-local and done in the same order, so
the state does not depend on the block size.

Like residual and linearize, both audits take the StateData the caller
holds, for a path the one it ended on (solver.ContinuationTrace.final_state):
ellipticity_certificate derives the state's tensor again from u and t,
block by block through the same generator, and reduces its spectrum as the
blocks come; c0_diagnostic reads the state's sigmas and weights at the
extremal nodes of u, and takes the comparison tensor's sigmas there by the
same packed recurrence (symfunc.sigma_matrix_planes).

The concavity certificate reads every derivative along a line exactly:
each sigma it checks is a polynomial in the line parameter, so its
derivatives at 0 come from its values at integer nodes
(_derivatives_at_zero), for the line check's quotient and the Hessian
check's sigma_{k-1} alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .curvature import (ProblemSpec, build_u_tensor, build_v_tensor,
                        build_w_tensor, record_lines)
from .errors import AdmissibilityError, DomainError, ValidationError
from .grid import (
    Grid,
    ScalarField,
    _stencil_derivatives,
    _stencil_shifts,
    _wrap_pad,
    spectral_derivatives,
)
from .symfunc import (
    ConeReport,
    _argmin_node,
    _worst_node,
    pack,
    sample_gamma,
    sigma_all_batch,
    sigma_and_dsigma_batch,
    sigma_matrix_planes,
    sym_index,
    unpack,
)

# Floor under sigma_{k-1} for quotient-form evaluation: below it the state is
# treated as a cone exit rather than divided through.
SIGMA_FLOOR = 1e-12

# Gamma_{k-1} margin required of the concavity certificate's sampled base
# spectra (ConcavityReport.margin_floor).
CONCAVITY_MARGIN = 1e-2

# Samples `sigmak check` evaluates at once: its suites and the concavity
# certificate hold one block's matrices and working arrays, never a whole
# draw's. Read at call time, so it can be patched through this module.
CHECK_BLOCK = 1024

# Bytes of packed tensor planes, n(n+1)/2 float64 values a node, in one node
# block of a state build or an ellipticity audit (see _node_blocks): a block
# holds whole slabs of the first grid axis, at least one. Read at call time,
# so it can be patched through this module.
STATE_BLOCK_BYTES = 2 ** 20

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
    the monitor and the solver's line search share a single recurrence
    pass. Vector fields are component-major, one grid plane per component;
    the symmetric tensor field newton_weight is packed, one grid plane per
    independent entry (the layout of symfunc's module docstring).
    newton_weight is S = d sigma_k + a e^{2su} d sigma_{k-1}, the matrix
    weight of the linearization (see the module docstring). Linearizing the
    state spends it: S becomes the coefficient planes and is set to None
    (see _coefficients); the other fields stay valid.

    The curvature tensor itself (V for cases A and B, W for case C) is not
    held: it exists one node block at a time while the state is built, and
    ellipticity_certificate, its one reader after that, derives it again
    from u and t, block by block (_tensor_blocks).
    """

    spec: ProblemSpec
    t: float
    u: ScalarField
    gv: np.ndarray        # gradient of u, (n,) + grid.shape
    sig: np.ndarray       # sigma_0..sigma_k of the tensor, (k+1,) + grid.shape
    newton_weight: np.ndarray | None   # S, packed
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
                 spec: ProblemSpec) -> np.ndarray:
    """The case's curvature tensor from derivatives of u: V(U(u, t), t) for
    cases A and B, W(u) for case C."""
    if spec.case == "C":
        return build_w_tensor(hess_u, gv, spec)
    return build_v_tensor(build_u_tensor(hess_u, gv, t, spec), t)


def _check_state_args(u: ScalarField, t: float, spec: ProblemSpec) -> None:
    if u.grid != spec.grid:
        raise DomainError("field grid does not match the problem grid")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"homotopy parameter t must lie in [0, 1], got {t}")


def _node_blocks(grid: Grid) -> list:
    """Slices of the first grid axis cutting it into node blocks of whole
    slabs, as many slabs as keep a block's n(n+1)/2 packed float64 planes
    within STATE_BLOCK_BYTES, and at least one; each block is contiguous
    within every grid plane."""
    n, N = grid.n, grid.N
    slab = 8 * (n * (n + 1) // 2) * N ** (n - 1)
    rows = max(1, STATE_BLOCK_BYTES // slab)
    return [slice(a, min(a + rows, N)) for a in range(0, N, rows)]


def _tensor_blocks(u: ScalarField, t: float, spec: ProblemSpec,
                   gv: np.ndarray, hess: np.ndarray | None = None):
    """Yield (rows, tensor) for each node block of spec.grid (_node_blocks):
    rows the block's slice of the first grid axis, tensor the case tensor
    there (_case_tensor), packed, (n(n+1)/2,) + the block's shape.

    The gradient is read from gv[:, rows]. Given hess, the whole grid's
    packed Hessian, each block reads its slice of it, and gv holds the
    gradient that came with it; otherwise the block's Hessian is the
    stencil's, from one wrap-padded copy of u, each block reading its slabs
    and their halo, and the block's stencil gradient is first written into
    gv[:, rows]. The background is read at the block's slabs where it
    varies along the first axis."""
    background = spec.background
    padded = _wrap_pad(u.values) if hess is None else None
    for rows in _node_blocks(spec.grid):
        grad = gv[:, rows]
        at_rows = spec if background.shape[1] == 1 \
            else replace(spec, background=background[:, rows])
        # the Hessian is formed inside the expression, so it goes with the
        # tensor's construction and this frame holds neither
        yield rows, _case_tensor(
            hess[:, rows] if padded is None else _stencil_derivatives(
                padded[rows.start:rows.stop + 2], spec.grid.h, grad),
            grad, t, at_rows)


def _build_state(u: ScalarField, t: float, spec: ProblemSpec,
                 route=None) -> StateData:
    """The state of (u, t), built block by block (_tensor_blocks): from
    stencil derivatives, or from the whole-grid derivatives route returns
    (grid.spectral_derivatives). Each block's sigmas and Newton weight are
    written straight into the state's planes."""
    n, k = spec.n, spec.k
    shape = spec.grid.shape
    s = spec.conformal_sign
    a_weight, r_weight = case_weights(spec, t)
    e2su = np.exp(2.0 * s * u.values)
    if route is None:
        gv, hess = np.empty((n,) + shape), None
    else:
        gv, hess = route(u)
    sig = S = None
    for rows, mats in _tensor_blocks(u, t, spec, gv, hess):
        if S is None:
            # allocated once the first block's tensor is built, so a grid
            # of one block does not hold them beside that build's temporaries
            sig = np.empty((k + 1,) + shape)
            S = np.empty((n * (n + 1) // 2,) + shape)
        # S = d sigma_k + a e^{2su} d sigma_{k-1}, over d sigma_k written
        # into S; the block's planes go before the next block's are built
        lower = sigma_and_dsigma_batch(mats, k, (sig[:, rows], S[:, rows]))[2]
        del mats
        lower *= a_weight[rows] * e2su[rows]
        S[:, rows] += lower
        del lower
    del hess
    m = spec.required_cone
    margins = np.minimum.reduce(sig[1:m + 1])
    return StateData(spec=spec, t=t, u=u, gv=gv, sig=sig,
                     newton_weight=S, margins=margins, e2su=e2su,
                     e2ksu=np.exp(2.0 * k * s * u.values),
                     a_weight=a_weight, r_weight=r_weight)


def prepare_state(u: ScalarField, t: float, spec: ProblemSpec) -> StateData:
    """Build the cached state for (u, t) from stencil derivatives, one node
    block at a time: gradient, sigmas, Newton weight, cone margins, and the
    case weights."""
    _check_state_args(u, t, spec)
    return _build_state(u, t, spec)


def residual(sd: StateData) -> ScalarField:
    """Multiplied-form equation residual per node at the state sd; defined
    inside the cone or not."""
    k = sd.spec.k
    vals = sd.sig[k] + sd.a_weight * sd.e2su * sd.sig[k - 1] \
        - sd.r_weight * sd.e2ksu
    return ScalarField(sd.spec.grid, vals)


@dataclass
class LinearOperator:
    """The linearized equation  L[phi] = G:hess(phi) + b.grad(phi) + c phi
    with periodic second-order stencils, held matrix-free as its stencil
    weights, together with its frozen-coefficient preconditioner.

    second is a packed symmetric field, (n(n+1)/2,) + grid.shape in the
    layout of symfunc's module docstring, first has shape (n,) + grid.shape
    (component-major, like every vector field), zeroth has shape
    grid.shape. Construction writes the stencil weights
    straight from these planes into `weights`, (1 + 2n + n(n-1)/2,) +
    grid.shape: c - 2 tau for the centre (tau = sum_i G_ii/h^2),
    G_ii/h^2 + b_i/(2h) for each +e_i, G_ii/h^2 - b_i/(2h) for each -e_i,
    and one plane G_ij/(2h^2) per pair i < j, the weight at +-(e_i+e_j)
    and, negated, at +-(e_i-e_j); the coefficients are not kept. A given
    `values` (float64, C-contiguous, grid.size * (1 + 2n + n(n-1)/2)
    entries) is overwritten in full and becomes `weights` without a copy,
    so one buffer can serve operators never alive together.

    matvec() wrap-pads its argument once and sums the weighted shifts, each
    a slice view of the padded array, in the order of _stencil_shifts,
    which is bitwise as_csr() @ x; apply() reshapes around it. as_csr()
    assembles the matrix, one weight per offset, for tests and
    diagnostics.

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
        if second.shape != (n + m,) + g.shape \
                or first.shape != (n,) + g.shape:
            raise DomainError(
                f"coefficients must be packed, (n(n+1)/2,) + grid.shape, and "
                f"component-major, (n,) + grid.shape; got {second.shape} and "
                f"{first.shape}")
        p = 1 + 2 * n
        width = p + m
        self.weights = np.empty((width,) + g.shape) if values is None \
            else values.reshape((width,) + g.shape)
        planes = self.weights.reshape(width, g.size)
        second = second.reshape(n + m, g.size)
        diag = second[:n] / h ** 2
        bias = first.reshape(n, g.size) / (2.0 * h)
        tau = diag.sum(axis=0)
        zeroth = zeroth.ravel()
        np.subtract(zeroth, 2.0 * tau, out=planes[0])
        np.add(diag, bias, out=planes[1:1 + n])
        np.subtract(diag, bias, out=planes[1 + n:p])
        cross = planes[p:]
        np.divide(second[n:], 2.0 * h ** 2, out=cross)

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
        for gij, i, j in zip(cross @ mean, *np.triu_indices(n, 1)):
            symbol -= 4.0 * gij * sines[i] * sines[j]
        self.inv_symbol = np.divide(1.0, symbol, out=np.zeros_like(symbol),
                                    where=symbol != 0.0)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L on a full grid array."""
        return self.matvec(values.ravel()).reshape(self.grid.shape)

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        """L on a flattened field: w_0 x, then each offset's weighted shift
        of x in the order of _stencil_shifts, so each node sums its terms in
        the order of the CSR row (as_csr). A pair plane is added at its two
        +-(e_i+e_j) corners and subtracted at its two +-(e_i-e_j) corners,
        which is bitwise adding its negation there."""
        x = flat.reshape(self.grid.shape)
        padded = _wrap_pad(x)
        shifts = _stencil_shifts(self.grid.n)
        axes, pairs = np.split(self.weights[1:], [2 * self.grid.n])
        steps = [(w, np.add) for w in [*axes, *pairs, *pairs]] \
            + [(w, np.subtract) for w in [*pairs, *pairs]]
        y = self.weights[0] * x
        term = np.empty_like(y)
        for (w, step), shift in zip(steps, shifts[1:]):
            np.multiply(w, padded[shift], out=term)
            step(y, term, out=y)
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
        expanded to one plane per offset of _stencil_shifts (each pair plane
        at its +-(e_i+e_j) corners, its negation at its +-(e_i-e_j) corners)
        and copied, node by node, into row i, whose columns are the flat
        indices of node i + o for each offset o, in that order. scipy is
        imported here only."""
        from scipy.sparse import csr_matrix
        grid, size = self.grid, self.grid.size
        shifts = _stencil_shifts(grid.n)
        padded = _wrap_pad(np.arange(size).reshape(grid.shape))
        indices = np.stack([padded[s] for s in shifts], axis=-1).ravel()
        indptr = np.arange(0, indices.size + 1, len(shifts))
        planes = self.weights.reshape(-1, size)
        pairs = planes[1 + 2 * grid.n:]
        data = np.concatenate([planes, pairs, -pairs, -pairs]).T.ravel()
        return csr_matrix((data, indices, indptr), shape=(size, size))


def _times_vector(mats: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """M v for a packed stack M and a vector field v, (n,) + batch, one
    component plane at a time: (M v)_i = sum_j M_ij v_j accumulated from zero
    over j in order, bitwise the full stack's
    np.einsum("ij...,j...->i...")."""
    index = sym_index(vec.shape[0])
    out = np.zeros(vec.shape)
    term = np.empty(vec.shape[1:])
    for i, row in enumerate(index):
        for j, p in enumerate(row):
            np.multiply(mats[p], vec[j], out=term)
            out[i] += term
    return out


def _coefficients(sd: StateData):
    """Analytic (second, first, zeroth) coefficient fields of the multiplied
    form's Frechet derivative at the cached state.

    The state is spent by it: second is written over the state's Newton
    weight S, and sd.newton_weight is set to None, so a second call, or a
    linearize, on the same state raises DomainError. Every other field of
    sd stays as it was."""
    if sd.newton_weight is None:
        raise DomainError("the state's Newton weight was spent by an "
                          "earlier linearization; prepare the state again")
    spec = sd.spec
    n, k, t = spec.n, spec.k, sd.t
    S, sd.newton_weight = sd.newton_weight, None
    trS = np.einsum("i...->...", S[:n])
    # first is formed in place, with the operations of its plain
    # expression (2 S gv - tr(S) gv, or 2 tr(P) gv - 2 P gv), so it is
    # bitwise that expression and holds n planes fewer
    if spec.case == "C":
        second = S
        first = _times_vector(S, sd.gv)
        first *= 2.0
        first -= trS * sd.gv
    else:
        # P = build_v_tensor(S, t), written over S: t S + (1-t) tr(S) I
        P = S
        P *= t
        P[:n] += (1.0 - t) * trS
        trP = (t + n * (1.0 - t)) * trS
        first = 2.0 * trP * sd.gv
        product = _times_vector(P, sd.gv)
        product *= 2.0
        first -= product
        del product
        # second = P + (tr P / (n-2)) I, again in place
        P[:n] += trP / (n - 2.0)
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

    Assembled analytically: the state's Newton weight S (the d sigma terms
    from the recurrence), composed with the dependence of the curvature
    tensor on (hess u, grad u, u); zeroth-order terms from the explicit
    exponentials. values is handed to LinearOperator, which writes the
    weights into it. The coefficients are formed over S, so sd is spent
    (see _coefficients): linearizing it again raises DomainError.
    No matrix field beyond S is allocated.
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
    certificate.

    The state's tensor is derived again from sd.u and sd.t alone, one node
    block at a time (_tensor_blocks), its stencil gradient written into a
    buffer of the audit's own: bitwise the tensor a prepare_state state was
    built from. Each block's spectrum is reduced to three planes as it
    comes: the smallest eigenvalue of each family at each node, and the
    quotient family's trace."""
    spec = sd.spec
    n, k = spec.n, spec.k
    valid = (sd.margins > 0.0) & (sd.sig[k - 1] >= SIGMA_FLOOR)
    newton_eigs, q_low, q_trace = (np.empty(spec.grid.shape) for _ in range(3))
    for rows, mats in _tensor_blocks(sd.u, sd.t, spec,
                                     np.empty_like(sd.gv)):
        lam = np.linalg.eigvalsh(np.moveaxis(unpack(mats), (0, 1), (-2, -1)))
        del mats
        # sigma_{k-2} and sigma_{k-1} of the deleted spectra (lambda|i), one
        # i at a time: the eigenvalues of d sigma_{k-1}(T) and d sigma_k(T)
        ekm1, ek = np.empty_like(lam), np.empty_like(lam)
        for i in range(n):
            deleted = sigma_all_batch(np.delete(lam, i, axis=-1), k - 1)
            ekm1[..., i], ek[..., i] = deleted[..., k - 2], deleted[..., k - 1]
        del lam, deleted
        s_eigs = ek + (sd.a_weight[rows] * sd.e2su[rows])[..., None] * ekm1
        if spec.case == "C":
            newton_eigs[rows] = s_eigs.min(axis=-1)
        else:
            p_eigs = _v_spectrum(s_eigs, sd.t)
            newton_eigs[rows] = (p_eigs + p_eigs.sum(axis=-1, keepdims=True)
                                 / (n - 2.0)).min(axis=-1)
            del p_eigs
        del s_eigs
        skm1 = np.where(valid[rows], sd.sig[k - 1, rows], 1.0)
        excess = (sd.r_weight[rows] * sd.e2ksu[rows] - sd.sig[k, rows]) \
            / skm1 ** 2
        q_eigs = ek / skm1[..., None]
        del ek
        q_eigs += excess[..., None] * ekm1
        del ekm1
        if spec.case != "C":
            q_eigs = _v_spectrum(q_eigs, sd.t)
        q_low[rows], q_trace[rows] = q_eigs.min(axis=-1), q_eigs.sum(axis=-1)
        del q_eigs
    outside = int(valid.size - valid.sum())
    if valid.any():
        q_min = float(q_low[valid].min())
        q_trace_min = float(q_trace[valid].min())
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
        worst_margin=sd.cone_margin,
        worst_margin_node=_argmin_node(sd.margins),
        newton_min_eig=newton_min,
        newton_min_eig_node=_argmin_node(newton_eigs),
        quotient_min_eig=q_min, quotient_trace_min=q_trace_min,
        trace_bound=bound, trace_slack=slack, passed=passed)


def _v_spectrum(xs: np.ndarray, ts) -> np.ndarray:
    """Spectrum of V at a tensor U with spectrum xs (same eigenvectors):
    mu = t x + (1-t) sum(x), in the dtype of xs. ts is a scalar or an array
    over the batch shape of xs."""
    ts = np.asarray(ts)[..., None]
    return ts * xs + (1.0 - ts) * xs.sum(axis=-1, keepdims=True)


def _line_nodes(degree: int) -> np.ndarray:
    """The degree + 1 integer nodes, centred on 0, at which a polynomial of
    that degree in s is evaluated to read its derivatives at s = 0."""
    return np.arange(degree + 1, dtype=float) - (degree // 2)


@functools.lru_cache(maxsize=8)
def _vander_inverse(degree: int) -> np.ndarray:
    """The inverse of the increasing Vandermonde matrix of _line_nodes(degree),
    mapping values at the nodes to polynomial coefficients; read-only."""
    ainv = np.linalg.inv(np.vander(_line_nodes(degree), increasing=True))
    ainv.setflags(write=False)
    return ainv


def _derivatives_at_zero(vals: np.ndarray) -> tuple:
    """(p(0), p'(0), p''(0)) of the polynomials p of degree m whose values at
    _line_nodes(m) lie on the last axis of vals (m + 1 entries): p(0) is the
    value at node 0, and p'(0) and p''(0) come from the coefficients the
    inverse Vandermonde matrix of the nodes gives (_vander_inverse), exact to
    roundoff, with no small-step cancellation."""
    m = vals.shape[-1] - 1
    coef = vals @ _vander_inverse(m).T
    return vals[..., m // 2], coef[..., 1], 2.0 * coef[..., 2]


def line_second_derivative(etas: np.ndarray, ts: np.ndarray, hs: np.ndarray,
                           ds: np.ndarray, k: int) -> np.ndarray:
    """G''(0) of G(s) = (sigma_k - h)/sigma_{k-1} at mu + s nu, with mu and nu
    the V-spectra (_v_spectrum) of eta and d, one line per row of etas and ds
    with its t and h. sigma_k and sigma_{k-1} are polynomials of degree k and
    k-1 in s, so one sigma_all_batch pass at the k + 1 nodes of
    _line_nodes(k) gives N = sigma_k - h and D = sigma_{k-1} and their first
    two derivatives exactly (_derivatives_at_zero), and

        G'' = (N'' D^2 - N D'' D - 2 D' (N' D - N D')) / D^3.

    Concavity on Gamma_{k-1} makes each nonpositive wherever mu lies in it."""
    nodes = _line_nodes(k)
    mu, nu = _v_spectrum(etas, ts), _v_spectrum(ds, ts)
    sig = sigma_all_batch(mu[:, None] + nodes[:, None] * nu[:, None], k)
    (den, num), (den1, num1), (den2, num2) = _derivatives_at_zero(
        np.moveaxis(sig[..., k - 1:], -1, 0))
    num = num - hs
    return (num2 * den ** 2 - num * den2 * den
            - 2.0 * den1 * (num1 * den - num * den1)) / den ** 3


@dataclass
class ConcavityReport:
    """Sampling audit of concavity: exact second derivatives of the quotient
    operator along lines, and the sharpened Hessian inequality for
    G0 = -1/sigma_{k-1} (checked in the equivalent polynomial form

        sigma * sigma''  <=  (k/(k+1)) * (sigma')^2

    along matrix directions, obtained from the quadratic-form statement by
    multiplying through by sigma^3 > 0; the slack is reported relative to
    max(1, |terms|))."""

    n: int
    k: int
    samples: int
    seed: int
    margin_floor: float
    line_max_second_diff: float
    line_violations: int
    hess_min_slack: float
    hess_violations: int
    passed: bool

    def to_lines(self, prefix: str = "concavity") -> list:
        return record_lines(self, prefix)


def sample_blocks(count: int) -> list:
    """Slices cutting range(count) into blocks of CHECK_BLOCK samples, the
    last taking a remainder of one sample, so that a block holds one sample
    only when the whole draw does (numpy reduces a batch of one in another
    order, which can move its last bit)."""
    starts = list(range(0, count, CHECK_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _concavity_blocks(n: int, k: int, count: int,
                      rng: np.random.Generator):
    """Yield the `count` (eta, t, h, d, psi) samples in the blocks of
    sample_blocks(count), so a block holds one sample only when count is 1.

    Stream order: count base spectra in Gamma_{k-1} with margin
    CONCAVITY_MARGIN, count weights t, count weights h and count unit line
    directions, then the unit symmetric matrix directions, drawn one block
    at a time as the blocks are yielded. Every sample is admissible: V(eta)
    = t eta + (1-t) tr(eta) e is a convex combination of two points of the
    convex cone Gamma_{k-1}, which is all the exact line check needs. Every
    sample's arithmetic is batch-size independent for batches of two or
    more, so the certificate does not depend on CHECK_BLOCK."""
    eta = sample_gamma(n, k - 1, count, rng, min_margin=CONCAVITY_MARGIN)
    t = rng.uniform(0.0, 1.0, count)
    h = rng.uniform(0.1, 2.0 * math.comb(n, k), count)
    d = rng.normal(size=(count, n))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    for sl in sample_blocks(count):
        raw = rng.normal(size=(sl.stop - sl.start, n, n))
        psi = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        psi /= np.linalg.norm(psi, axis=(-2, -1), keepdims=True)
        yield eta[sl], t[sl], h[sl], d[sl], psi


def _eq93_slacks(etas: np.ndarray, ts: np.ndarray, psis: np.ndarray,
                 k: int) -> np.ndarray:
    """Relative slack of the sharpened Hessian inequality for
    G0(U) = -1/sigma_{k-1}(t U + (1-t) tr(U) I) along matrix directions psi.

    sigma(s) = sigma_{k-1}(V + s Psi) is a polynomial of degree k-1 in s, so
    its derivatives at 0 are recovered exactly (to roundoff) from values at
    the k nodes of _line_nodes(k - 1) (_derivatives_at_zero). The inequality

        -G0'' >= (1 + 1/(k+1)) (G0')^2 / G0

    is equivalent, after multiplying by sigma^3 > 0, to
    sigma sigma'' <= (k/(k+1)) (sigma')^2.
    """
    n, m = etas.shape[-1], k - 1
    # V(diag(eta) + s Psi) = diag(mu) + s V(Psi), with mu the V-spectrum;
    # stack is packed over (sample, node)
    stack = build_v_tensor(pack(np.moveaxis(psis, 0, -1)), ts)[..., None] \
        * _line_nodes(m)
    stack[:n] += _v_spectrum(etas, ts).T[..., None]
    sig0, d1, d2 = _derivatives_at_zero(sigma_matrix_planes(stack, m)[m])
    num = (k / (k + 1.0)) * d1 ** 2 - sig0 * d2
    scale = np.maximum(1.0, d1 ** 2 + np.abs(sig0 * d2))
    return num / scale


def concavity_certificate(spec: ProblemSpec, samples: int,
                          seed: int) -> ConcavityReport:
    """Sampling certificate of operator concavity for the (n, k) of `spec`.

    Draws spectra in Gamma_{k-1} (margin floor CONCAVITY_MARGIN), homotopy
    weights t in [0, 1], equation weights h, unit line directions, and unit
    symmetric matrix directions. Checks (a) the second derivative of
    G = (sigma_k - h)/sigma_{k-1} at mu = t eta + (1-t) tr(eta) e along
    lines (line_second_derivative) against +1e-8, and (b) the sharpened
    Hessian inequality for G0 against a relative -1e-8, both read exactly
    off polynomial values at integer nodes (_derivatives_at_zero). Diagonal
    base points lose no generality: any base tensor is orthogonally
    equivalent to one, with the matrix direction transformed along. The
    samples stream through _concavity_blocks and each check is reduced
    block by block, so no array holds a matrix per sample of the whole
    count: the memory held is the draw's spectra and weights, O(n) a
    sample, and one block's matrices."""
    if samples < 1:
        raise DomainError("samples must be positive")
    n, k = spec.n, spec.k
    rng = np.random.default_rng(seed)
    line_max, line_viol, hess_min, hess_viol = -np.inf, 0, np.inf, 0
    for etas, ts, hs, ds, psis in _concavity_blocks(n, k, samples, rng):
        d2 = line_second_derivative(etas, ts, hs, ds, k)
        line_max = np.maximum(line_max, d2.max())
        line_viol += int((d2 > 1e-8).sum())
        slack = _eq93_slacks(etas, ts, psis, k)
        hess_min = np.minimum(hess_min, slack.min())
        hess_viol += int((slack < -1e-8).sum())
    line_max, hess_min = float(line_max), float(hess_min)
    return ConcavityReport(
        n=n, k=k, samples=samples, seed=seed,
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

    Everything is read off the state of u_star built from spectral
    derivatives under the spec with f = 0, whose r weight is the f-free
    part of r (r = r_weight + t f in case A, f in case C).
    """
    _check_state_args(u_star, t, spec)
    if spec.case == "B":
        raise DomainError("case B prescribes f identically 0; nothing to "
                          "manufacture")
    if spec.case == "A" and t <= 0.0:
        raise DomainError("case A forcing needs t > 0 (f enters with "
                          "weight t)")
    k = spec.k
    sd = _build_state(u_star, t, spec.with_f_field(
        ScalarField.zeros(spec.grid)), spectral_derivatives)
    worst = sd.cone_margin
    if worst <= 0.0:
        node = _argmin_node(sd.margins)
        raise ValidationError(
            f"curvature tensor of u_star leaves Gamma_{k - 1} at node "
            f"{node} (margin {worst:.3e})")
    r = (sd.sig[k] + sd.a_weight * sd.e2su * sd.sig[k - 1]) / sd.e2ksu
    f = (r - sd.r_weight) / t if spec.case == "A" else r
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


def c0_diagnostic(sd: StateData) -> C0Report:
    """Check the discrete extremum comparison at the state sd and emit the
    implied bounds.

    At the argmax of u the Hessian contribution is nonpositive and the
    gradient vanishes, so the state tensor is dominated by the comparison
    tensor B, the case tensor at zero derivatives (cases A/B:
    -t ric0/(n-2) + ((1-t)/n) I pushed through the V map; case C: the
    background Schouten tensor), and quotient monotonicity plus concavity
    force quotient(state) <= quotient(comparison) there. The discrete check
    allows an O(h) slack. For cases A and B the comparison value feeds the
    closed-form sup/inf estimates; for case C the bound machinery targets
    the other conformal sign, so only the gaps are reported.

    The state side is read off sd at the two extremal nodes of u: its
    sigmas and its weights. B is built at those two nodes only, from zero
    derivatives and the background read there, so a background stored
    grid-sized adds no grid-sized temporary, and its sigmas come from the
    packed recurrence the state's came from."""
    spec, t, u = sd.spec, sd.t, sd.u
    n, k = spec.n, spec.k
    grid = spec.grid
    node_max = _argmax_node(u.values)
    node_min = _argmin_node(u.values)
    u_max = float(u.values[node_max])
    u_min = float(u.values[node_min])

    at = tuple(np.array(axis) for axis in zip(node_max, node_min))
    sig_max, sig_min = sd.sig[(..., *at)].T
    planes = spec.background.shape[0]
    ends = replace(spec, background=np.broadcast_to(
        spec.background, (planes,) + grid.shape)[(..., *at)])
    comparison = _case_tensor(np.zeros((planes, 2)), np.zeros((n, 2)), t,
                              ends)
    sig_b_max, sig_b_min = sigma_matrix_planes(comparison, k).T

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
        h_max = float(sd.r_weight[node_max])
        h_min = float(sd.r_weight[node_min])
        if sig_b_max[k] > 0.0:
            sup_est = math.log(sig_b_max[k] / h_max) / (2.0 * k)
        low = sig_b_min[k] + float(sd.a_weight[node_min]) \
            * math.exp(2.0 * u_min) * sig_b_min[k - 1]
        if low > 0.0:
            inf_est = math.log(low / h_min) / (2.0 * k)
    elif spec.case == "B":
        q_w_max = -float(sd.a_weight[node_max])
        q_w_min = -float(sd.a_weight[node_min])
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
