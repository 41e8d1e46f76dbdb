"""Cone-constrained damped Newton and homotopy continuation in t.

The path starts at t = 0, where the equation collapses to

    (2n-2)/(n-2) lap(u) + (n-1) |grad u|^2 + 1 = e^{2u}

with the closed-form unique solution u = 0, and walks t up to 1 with a
zeroth-order predictor (reuse the previous u) and a damped Newton corrector.
Every accepted state keeps the curvature tensor strictly inside the case's
cone; the line search enforces that together with an Armijo-type residual
decrease, so a path either reaches t = 1 admissibly or fails loudly with the
partial trace attached.

Case C has no homotopy family: its W tensor and weights do not depend on t,
so its path starts at t = 1 (ProblemSpec.start_t) with a direct damped
Newton solve from u = 0 and is that one point alone, labeled experimental
(the estimates exist; an existence proof does not).

Each Newton step solves its linearized system by one Krylov path: restarted
GMRES on the matrix-free operator, right-preconditioned by its
frozen-coefficient FFT inverse (LinearOperator.precondition), with a
true-residual guard on the result. The frozen inverse is spectrally
equivalent to the operator, so the number of steps a solve takes does not
grow with N. The Newton steps are inexact (Eisenstat and Walker, SIAM J.
Sci. Comput. 17, 1996): each linear solve asks only for the accuracy the
step can use, a relative tolerance equal to the current residual's
max-norm, clipped to [LINEAR_RTOL, FORCING_MAX], and an absolute floor of
0.1 newton_tol, so early iterations take a few Krylov steps and the last
ones solve tightly. Nothing on this path imports scipy.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .curvature import ProblemSpec
from .errors import (
    AdmissibilityError,
    ConeExitError,
    DomainError,
    LinearSolveError,
    NonConvergenceError,
    PathFailureError,
)
from .grid import ScalarField, hess
from .operators import (
    EllipticityReport,
    LinearOperator,
    StateData,
    ellipticity_certificate,
    linearize,
    prepare_state,
    residual,
)

# Default relative tolerance asked of GMRES (2-norm of the true residual),
# and the looser max-norm guard the returned vector must actually meet; a
# looser requested tolerance scales the guard by the same factor.
LINEAR_RTOL = 1e-10
LINEAR_GUARD = 1e-8

# Cap on the forcing term of the inexact Newton step: the relative linear
# tolerance newton_correct asks for is the residual max-norm, clipped to
# [LINEAR_RTOL, FORCING_MAX].
FORCING_MAX = 1e-2

# GMRES runs at most GMRES_MAX_RESTARTS cycles of GMRES_RESTART steps, so a
# stalled solve fails as LinearSolveError in bounded time; it stops sooner
# once its last cycle's rate cannot reach the tolerance in the cycles left.
GMRES_RESTART = 50
GMRES_MAX_RESTARTS = 20


@dataclass(frozen=True)
class Schedule:
    """Continuation and corrector knobs, with the library defaults."""

    dt_init: float = 0.1
    dt_max: float = 0.25
    dt_min: float = 1e-6
    newton_tol: float = 1e-10
    newton_max_iters: int = 30
    cone_factor: float = 0.1
    armijo_factor: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value!r}")
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max <= 1.0):
            raise DomainError("need 0 < dt_min <= dt_init <= dt_max <= 1")
        if self.newton_tol <= 0.0 or self.newton_max_iters < 1:
            raise DomainError("newton_tol must be positive, max iters >= 1")
        if not (0.0 < self.cone_factor < 1.0 and 0.0 < self.armijo_factor < 1.0):
            raise DomainError("cone and Armijo factors must lie in (0, 1)")


@dataclass
class HomotopyState:
    """One accepted point on the continuation path."""

    t: float
    u: ScalarField
    residual_norm: float
    cone_margin: float
    newton_iters: int


@dataclass
class MonitorRecord:
    """The a priori quantities tracked along the path: the sup bounds the
    estimates control and the cone margin."""

    sup_u: float
    sup_grad_u_sq: float
    sup_hess_u: float
    cone_margin: float


@dataclass
class TraceRow:
    step: int
    t: float
    newton_iters: int
    residual_norm: float
    cone_margin: float
    sup_u: float
    sup_grad_u_sq: float
    sup_hess_u: float

    def to_csv(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


TRACE_HEADER = ",".join(f.name for f in fields(TraceRow))


@dataclass
class ContinuationTrace:
    """Ordered record of accepted states plus their monitor values.

    Row summaries stay small on purpose; only the last accepted state keeps
    its full field (final_state), which downstream checks and the final dump
    read. ellipticity is the audit of that state alone, computed when first
    read once the solver has ended the trace (end), so a caller that never
    reads it never pays for it; None for a trace not ended, until set."""

    rows: list = field(default_factory=list)
    final_state: HomotopyState | None = None
    _certify: Callable[[], EllipticityReport] | None = field(
        default=None, repr=False, compare=False)
    _ellipticity: EllipticityReport | None = field(default=None, repr=False)

    @property
    def ellipticity(self) -> EllipticityReport | None:
        if self._certify is not None:
            self._ellipticity, self._certify = self._certify(), None
        return self._ellipticity

    @ellipticity.setter
    def ellipticity(self, report: EllipticityReport | None) -> None:
        self._ellipticity, self._certify = report, None

    def end(self, state_data: Callable[[], StateData]) -> None:
        """End the trace on final_state; state_data returns its StateData
        when ellipticity is first read, and what it holds lives till then."""
        self._certify = lambda: ellipticity_certificate(state_data())

    def append(self, state: HomotopyState, record: MonitorRecord) -> None:
        if self.rows and state.t <= self.rows[-1].t:
            raise DomainError("trace t values must be strictly increasing")
        self.final_state = state
        self.rows.append(TraceRow(
            step=len(self.rows), t=state.t,
            newton_iters=state.newton_iters,
            residual_norm=state.residual_norm,
            cone_margin=state.cone_margin,
            sup_u=record.sup_u, sup_grad_u_sq=record.sup_grad_u_sq,
            sup_hess_u=record.sup_hess_u))

    @property
    def final_t(self) -> float:
        return self.rows[-1].t if self.rows else float("nan")

    def to_csv(self) -> str:
        lines = [TRACE_HEADER] + [row.to_csv() for row in self.rows]
        return "\n".join(lines) + "\n"


def _sup_spectral_radius(mats: np.ndarray) -> float:
    """max over a component-major stack of symmetric matrices, (n, n) +
    batch, of the spectral radius, equal bitwise to
    np.abs(np.linalg.eigvalsh(M)).max() for M the same stack with the
    matrix axes last.

    rho(H) <= |H|_F, so with `best` the radius at the matrix of largest
    Frobenius norm, only matrices whose norm exceeds best (less a 1e-12
    relative allowance for roundoff) can hold a larger radius, and only
    those are decomposed. LAPACK solves each matrix on its own, so the
    maximum over them is the full stack's."""
    fro = np.sqrt(np.einsum("ij...,ij...->...", mats, mats))
    mats = np.moveaxis(mats, (0, 1), (-2, -1))
    top = np.unravel_index(int(np.argmax(fro)), fro.shape)
    best = float(np.abs(np.linalg.eigvalsh(mats[top])).max())
    rivals = fro > (1.0 - 1e-12) * best
    if rivals.any():
        best = max(best, float(np.abs(np.linalg.eigvalsh(mats[rivals])).max()))
    return best


def __getattr__(name: str):
    # bench/tracer.py still wraps sigmak.solver.bicgstab by name, so the
    # name resolves, importing scipy only then; per the FOUND line in
    # CHANGES.md on those tracer targets, the next benchmark change drops
    # it and LinearOperator.as_csr's target, and this hook goes with them.
    if name == "bicgstab":
        from scipy.sparse.linalg import bicgstab
        return bicgstab
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def monitor(sd: StateData) -> MonitorRecord:
    """Compute the monitored sup quantities and the cone margin of the
    accepted state sd. The ellipticity audit is not part of it: the solver
    certifies only the state a trace ends on (ContinuationTrace.ellipticity)."""
    grad_sq = (sd.gv ** 2).sum(axis=0)
    return MonitorRecord(
        sup_u=float(np.abs(sd.u.values).max()),
        sup_grad_u_sq=float(grad_sq.max()),
        sup_hess_u=_sup_spectral_radius(hess(sd.u)),
        cone_margin=sd.cone_margin)


def gmres(matvec, precondition, b: np.ndarray, x0: np.ndarray,
          rtol: float = LINEAR_RTOL, atol: float = 0.0) -> tuple:
    """Restarted, right-preconditioned GMRES (Saad and Schultz) for
    matvec(x) = b from x0: a cycle seeks x + precondition(V y) over the
    Arnoldi basis V of matvec(precondition(.)).

    Each of at most GMRES_MAX_RESTARTS cycles starts with the true-residual
    test |b - matvec(x)|_2 <= max(rtol |b|_2, atol) and takes up to
    GMRES_RESTART steps, each orthogonalised by classical Gram-Schmidt
    applied twice, with Givens rotations on Python floats. A failed test
    after a cycle also stops the solve when the cycle's reduction of the
    residual, kept up over the cycles left, would not reach the tolerance:
    a stagnating solve fails at once instead of at the cap. Returns
    (x, info, r): info is 0 when the test passed, else the number of cycles
    run, and r = b - matvec(x) is the true residual of the returned x from
    the last test. A solve whose x0 passes allocates no basis.
    """
    tol = max(rtol * float(np.linalg.norm(b)), atol)
    x, basis, last = x0, None, None
    for cycle in range(GMRES_MAX_RESTARTS + 1):
        r = b - matvec(x)
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            return x, 0, r
        if cycle == GMRES_MAX_RESTARTS:
            return x, cycle, r
        if last is not None:
            # a rate >= 1 never reaches tol (and its power could overflow)
            rate = beta / last
            if rate >= 1.0 or beta * rate ** (GMRES_MAX_RESTARTS - cycle) > tol:
                return x, cycle, r
        last = beta
        if basis is None:
            basis = np.empty((GMRES_RESTART + 1, b.size))
        np.divide(r, beta, out=basis[0])
        cols, rots, g = [], [], [beta]
        for j in range(GMRES_RESTART):
            w = matvec(precondition(basis[j]))
            V = basis[:j + 1]
            h = V @ w
            w -= h @ V
            again = V @ w
            w -= again @ V
            col = (h + again).tolist()
            hnext = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rots):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s * col[i])
            d = math.hypot(col[j], hnext)
            c, s = (col[j] / d, hnext / d) if d > 0.0 else (1.0, 0.0)
            col[j] = d
            rots.append((c, s))
            cols.append(col)
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= tol or hnext == 0.0:
                break
            np.divide(w, hnext, out=basis[j + 1])
        # back substitution on the rotated triangle; a closed basis with a
        # zero last pivot (a singular operator) drops that column
        k = len(cols) if cols[-1][-1] != 0.0 else len(cols) - 1
        y = [0.0] * k
        for i in reversed(range(k)):
            y[i] = (g[i] - sum(cols[m][i] * y[m] for m in range(i + 1, k))) \
                / cols[i][i]
        if k:
            x = x + precondition(np.asarray(y) @ basis[:k])


def solve_linear(op: LinearOperator, rhs: np.ndarray,
                 rtol: float = LINEAR_RTOL, atol: float = 0.0) -> np.ndarray:
    """Solve L[delta] = rhs on the grid to the relative tolerance rtol, or
    to the absolute floor atol, on the 2-norm of the true residual.

    One GMRES call, right-preconditioned by op.precondition (the frozen-
    coefficient FFT inverse) and started from precondition(rhs), so a
    constant-coefficient system is solved before any Krylov step. The
    result must pass a true-residual guard on the max-norm of the residual
    GMRES's passing test computed: at most (LINEAR_GUARD / LINEAR_RTOL)
    rtol |rhs|_max, or atol if that is larger; otherwise LinearSolveError.
    With the defaults that is LINEAR_GUARD |rhs|_max.
    """
    flat = np.ascontiguousarray(rhs, dtype=float).ravel()
    bnorm = float(np.abs(flat).max())
    if bnorm == 0.0:
        return np.zeros(op.grid.shape)
    x, info, r = gmres(op.matvec, op.precondition, flat,
                       op.precondition(flat), rtol, atol)
    guard = max(LINEAR_GUARD * (rtol / LINEAR_RTOL) * bnorm, atol)
    if info == 0 and float(np.abs(r).max()) <= guard:
        return x.reshape(op.grid.shape)
    raise LinearSolveError(
        f"linearized system not solved to guard {guard:.0e} "
        f"(size {op.grid.size})")


def newton_correct(u: ScalarField, t: float, spec: ProblemSpec,
                   schedule: Schedule) -> tuple[HomotopyState, StateData]:
    """Damped Newton on the multiplied residual at fixed t, from u.

    Each step solves L[delta] = -residual and takes the largest step size
    s in {1, 1/2, ..., 2^-10} whose candidate (a) keeps the cone margin at or
    above schedule.cone_factor times the current margin at every node, and
    (b) cuts the residual max-norm to at most (1 - s * schedule.armijo_factor)
    of the current one. The tolerance schedule.newton_tol is checked before
    the first iteration, so an already converged u returns unchanged with
    newton_iters = 0; more than schedule.newton_max_iters iterations raise
    NonConvergenceError.

    The step is an inexact Newton step (Eisenstat and Walker): the linear
    solve asks only for the relative tolerance max(LINEAR_RTOL,
    min(FORCING_MAX, residual max-norm)), and for no more than an absolute
    0.1 newton_tol on the 2-norm of its residual, below which the Newton
    test cannot see the linear error. Each linearize after the first
    refills the previous operator's weight planes in place, so one such
    buffer serves the whole call.

    Returns the converged HomotopyState and the StateData of its u, which
    monitor and the audit take; callers that do not need the latter drop it
    at once.
    """
    tol, max_iters = schedule.newton_tol, schedule.newton_max_iters
    sd = prepare_state(u, t, spec)
    margin = sd.cone_margin
    if margin <= 0.0:
        node, rep = sd.worst_node()
        raise ConeExitError(
            f"entry state outside Gamma_{spec.required_cone} at node {node} "
            f"(margin {rep.margin:.3e})")
    res = residual(sd).values
    rnorm = float(np.abs(res).max())
    it = 0
    values = None
    while rnorm > tol:
        if it == max_iters:
            raise NonConvergenceError(
                f"Newton reached {max_iters} iterations at t={t!r} with "
                f"residual {rnorm:.3e} > tol {tol:.0e}")
        it += 1
        op = linearize(sd, values=values)
        # This state's arrays go before the Krylov basis is built, and the
        # operator's after the solve, all but its values, which the next
        # linearize refills: one state is alive while the candidates build
        # theirs.
        sd = sd_cand = None
        delta = solve_linear(
            op, -res, rtol=max(LINEAR_RTOL, min(FORCING_MAX, rnorm)),
            atol=0.1 * tol)
        values = op.weights
        op = None
        accepted = False
        for j in range(11):
            s = 2.0 ** (-j)
            cand = ScalarField(spec.grid, u.values + s * delta)
            # a rejected candidate's arrays go before the next one is built
            sd_cand = None
            sd_cand = prepare_state(cand, t, spec)
            m_cand = sd_cand.cone_margin
            if m_cand < schedule.cone_factor * margin:
                continue
            r_cand = residual(sd_cand).values
            rn_cand = float(np.abs(r_cand).max())
            if rn_cand <= (1.0 - s * schedule.armijo_factor) * rnorm:
                u, sd, margin = cand, sd_cand, m_cand
                res, rnorm = r_cand, rn_cand
                accepted = True
                break
        if not accepted:
            raise ConeExitError(
                f"line search found no admissible decreasing step at "
                f"t={t!r} (residual {rnorm:.3e}, margin {margin:.3e})")
    return HomotopyState(t=t, u=u, residual_norm=rnorm, cone_margin=margin,
                         newton_iters=it), sd


def solve_t0(spec: ProblemSpec, u_init: ScalarField,
             schedule: Schedule = Schedule()) -> ScalarField:
    """Solve the t = 0 equation (unique solution u = 0) by the same corrector,
    with the schedule's Newton settings.

    The returned field should be zero to solver tolerance from any small
    initial guess; this anchors the continuation path.
    """
    if spec.case not in ("A", "B"):
        raise DomainError("the t = 0 endpoint belongs to the homotopy "
                          "cases A and B")
    state, _ = newton_correct(u_init, 0.0, spec, schedule)
    return state.u


def continue_path(spec: ProblemSpec,
                  schedule: Schedule | None = None) -> ContinuationTrace:
    """Walk t from spec.start_t to 1 with adaptive steps; return the full
    trace. The anchor at start_t is newton_correct from u = 0 at t = 0 for
    cases A and B, and solve_caseC at t = 1 for case C, whose path is that
    point alone; an error of the anchor propagates as it is.

    Step control: a corrector success in at most 4 iterations doubles dt (up
    to dt_max); a corrector failure halves dt and retries from the last
    accepted state; dt below dt_min raises PathFailureError carrying the
    trace accumulated so far, whose last row holds the final accepted t.

    Every accepted state is monitored, but only the one the trace ends on
    is audited for ellipticity (trace.ellipticity), and only once that is
    read: the t = 1 state from its live StateData, or on failure the last
    accepted state, whose StateData is built again for the audit.
    """
    spec.validate(strict=True)
    sched = schedule if schedule is not None else Schedule()
    trace = ContinuationTrace()

    t = spec.start_t
    state, sd = solve_caseC(spec, schedule=sched) if t == 1.0 else \
        newton_correct(ScalarField.zeros(spec.grid), t, spec, sched)
    trace.append(state, monitor(sd))

    dt = sched.dt_init
    while t < 1.0:
        sd = None   # keep no state's arrays alive into the next corrector
        t_next = min(t + dt, 1.0)
        try:
            accepted, sd = newton_correct(state.u, t_next, spec, sched)
        except (ConeExitError, NonConvergenceError, LinearSolveError) as err:
            dt *= 0.5
            if dt < sched.dt_min:
                trace.end(lambda: prepare_state(state.u, state.t, spec))
                raise PathFailureError(
                    f"step size underflow below {sched.dt_min:.0e} at "
                    f"t={t!r}: {err}", trace=trace) from err
            continue
        state = accepted
        t = t_next
        trace.append(state, monitor(sd))
        if state.newton_iters <= 4:
            dt = min(2.0 * dt, sched.dt_max)
    trace.end(lambda: sd)
    return trace


def solve_caseC(spec: ProblemSpec, u_init: ScalarField | None = None,
                schedule: Schedule = Schedule()
                ) -> tuple[HomotopyState, StateData]:
    """Direct damped Newton for case C at t = 1, the anchor of its path
    (experimental: the estimates exist, an existence theorem does not), with
    the schedule's Newton settings. Requires the background Schouten tensor
    strictly inside Gamma_{k-1} at every node. Returns what newton_correct
    returns."""
    if spec.case != "C":
        raise DomainError("solve_caseC only accepts case C problems")
    margins, node, report = spec.background_cone()
    if float(margins.min()) <= 0.0:
        raise AdmissibilityError(
            f"background Schouten tensor must lie in Gamma_{spec.k - 1}",
            node=node, margin=report.margin)
    u0 = u_init if u_init is not None else ScalarField.zeros(spec.grid)
    return newton_correct(u0, 1.0, spec, schedule)
