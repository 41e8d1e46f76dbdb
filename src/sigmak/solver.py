"""Cone-constrained damped Newton and homotopy continuation in t.

The path starts at t = 0, where the equation collapses to

    (2n-2)/(n-2) lap(u) + (n-1) |grad u|^2 + 1 = e^{2u}

with the closed-form unique solution u = 0, and walks t up to 1 with a
zeroth-order predictor (reuse the previous u) and a damped Newton corrector.
Every accepted state keeps the curvature tensor strictly inside the case's
cone; the line search enforces that together with an Armijo-type residual
decrease, so a path either reaches t = 1 admissibly or fails loudly with the
partial trace attached.

Case C has no homotopy family: it gets a direct damped Newton solve from the
initial guess, labeled experimental (the estimates exist; an existence proof
does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse.linalg import LinearOperator as ScipyOperator
from scipy.sparse.linalg import bicgstab, gmres

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

# Relative tolerance asked of the iterative solvers, and the looser guard the
# returned vector must actually meet (checked against the true residual).
LINEAR_RTOL = 1e-10
LINEAR_GUARD = 1e-8

# Iteration caps of the two Krylov stages, so a stalled solve fails as
# LinearSolveError in bounded time: BiCGSTAB iterations (successful solves
# take under 200), and GMRES restart cycles of 50 inner iterations each.
BICGSTAB_MAX_ITERS = 1000
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
    estimates control, the cone margin, and the ellipticity audit."""

    sup_u: float
    sup_grad_u_sq: float
    sup_hess_u: float
    cone_margin: float
    ellipticity: EllipticityReport


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
    read."""

    rows: list = field(default_factory=list)
    records: list = field(default_factory=list)
    final_state: HomotopyState | None = None

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
        self.records.append(record)

    @property
    def final_t(self) -> float:
        return self.rows[-1].t if self.rows else float("nan")

    def to_csv(self) -> str:
        lines = [TRACE_HEADER] + [row.to_csv() for row in self.rows]
        return "\n".join(lines) + "\n"


def _sup_spectral_radius(mats: np.ndarray) -> float:
    """max over a stack of symmetric matrices of the spectral radius, equal
    bitwise to np.abs(np.linalg.eigvalsh(mats)).max().

    rho(H) <= |H|_F, so with `best` the radius at the matrix of largest
    Frobenius norm, only matrices whose norm exceeds best (less a 1e-12
    relative allowance for roundoff) can hold a larger radius, and only
    those are decomposed. LAPACK solves each matrix on its own, so the
    maximum over them is the full stack's."""
    fro = np.sqrt(np.einsum("...ij,...ij->...", mats, mats))
    top = np.unravel_index(int(np.argmax(fro)), fro.shape)
    best = float(np.abs(np.linalg.eigvalsh(mats[top])).max())
    rivals = fro > (1.0 - 1e-12) * best
    if rivals.any():
        best = max(best, float(np.abs(np.linalg.eigvalsh(mats[rivals])).max()))
    return best


def monitor(state: HomotopyState, spec: ProblemSpec,
            state_data: StateData | None = None) -> MonitorRecord:
    """Compute the monitored sup quantities and the ellipticity audit."""
    sd = state_data if state_data is not None else \
        prepare_state(state.u, state.t, spec)
    grad_sq = (sd.gv ** 2).sum(axis=-1)
    cert = ellipticity_certificate(state.u, state.t, spec, state=sd)
    return MonitorRecord(
        sup_u=float(np.abs(state.u.values).max()),
        sup_grad_u_sq=float(grad_sq.max()),
        sup_hess_u=_sup_spectral_radius(hess(state.u)),
        cone_margin=sd.cone_margin,
        ellipticity=cert)


def solve_linear(op: LinearOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve L[delta] = rhs on the grid.

    A two-stage Krylov cascade with Jacobi preconditioning: BiCGSTAB (the
    operator is nonsymmetric because of the first-order terms), capped at
    BICGSTAB_MAX_ITERS iterations, then GMRES on breakdown, capped at
    GMRES_MAX_RESTARTS restart cycles. The winner must pass a true-residual
    guard; otherwise LinearSolveError.
    """
    size = op.grid.size
    flat = np.ascontiguousarray(rhs, dtype=float).ravel()
    bnorm = float(np.abs(flat).max())
    if bnorm == 0.0:
        return np.zeros(op.grid.shape)
    diag = op.diagonal()
    safe = np.where(np.abs(diag) > 1e-300, diag, 1.0)
    precond = ScipyOperator((size, size), matvec=lambda x: x / safe)
    action = ScipyOperator((size, size), matvec=op.matvec)

    def good(x) -> bool:
        err = float(np.abs(op.matvec(x) - flat).max())
        return err <= LINEAR_GUARD * bnorm

    x, info = bicgstab(action, flat, rtol=LINEAR_RTOL, atol=0.0,
                       maxiter=BICGSTAB_MAX_ITERS, M=precond)
    if info == 0 and good(x):
        return x.reshape(op.grid.shape)
    x, info = gmres(action, flat, rtol=LINEAR_RTOL, atol=0.0,
                    restart=50, maxiter=GMRES_MAX_RESTARTS, M=precond)
    if info == 0 and good(x):
        return x.reshape(op.grid.shape)
    raise LinearSolveError(
        f"linearized system not solved to guard {LINEAR_GUARD:.0e} "
        f"(size {size})")


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

    Returns the converged HomotopyState and the StateData of its u, which
    monitor can reuse; callers that do not need the latter drop it at once.
    """
    tol, max_iters = schedule.newton_tol, schedule.newton_max_iters
    sd = prepare_state(u, t, spec)
    margin = sd.cone_margin
    if margin <= 0.0:
        node, rep = sd.worst_node()
        raise ConeExitError(
            f"entry state outside Gamma_{spec.required_cone} at node {node} "
            f"(margin {rep.margin:.3e})")
    res = residual(u, t, spec, state=sd).values.values
    rnorm = float(np.abs(res).max())
    it = 0
    while rnorm > tol:
        if it == max_iters:
            raise NonConvergenceError(
                f"Newton reached {max_iters} iterations at t={t!r} with "
                f"residual {rnorm:.3e} > tol {tol:.0e}")
        it += 1
        delta = solve_linear(linearize(u, t, spec, state=sd), -res)
        # The operator is gone; drop this state's arrays too, so only one
        # state is alive while the candidates build theirs.
        sd = sd_cand = None
        accepted = False
        for j in range(11):
            s = 2.0 ** (-j)
            cand = ScalarField(spec.grid, u.values + s * delta)
            sd_cand = prepare_state(cand, t, spec)
            m_cand = sd_cand.cone_margin
            if m_cand < schedule.cone_factor * margin:
                continue
            r_cand = residual(cand, t, spec, state=sd_cand).values.values
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
    """Walk t from 0 to 1 with adaptive steps; return the full trace.

    Step control: a corrector success in at most 4 iterations doubles dt (up
    to dt_max); a corrector failure halves dt and retries from the last
    accepted state; dt below dt_min raises PathFailureError carrying the
    trace accumulated so far, whose last row holds the final accepted t.
    """
    if spec.case not in ("A", "B"):
        raise DomainError("continuation is defined for cases A and B; "
                          "case C uses solve_caseC")
    spec.validate(strict=True)
    sched = schedule if schedule is not None else Schedule()
    trace = ContinuationTrace()

    state, sd = newton_correct(ScalarField.zeros(spec.grid), 0.0, spec, sched)
    trace.append(state, monitor(state, spec, sd))
    del sd   # keep no state's arrays alive into the next corrector

    t = 0.0
    dt = sched.dt_init
    while t < 1.0:
        t_next = min(t + dt, 1.0)
        try:
            accepted, sd = newton_correct(state.u, t_next, spec, sched)
        except (ConeExitError, NonConvergenceError, LinearSolveError) as err:
            dt *= 0.5
            if dt < sched.dt_min:
                raise PathFailureError(
                    f"step size underflow below {sched.dt_min:.0e} at "
                    f"t={t!r}: {err}", trace=trace) from err
            continue
        state = accepted
        t = t_next
        trace.append(state, monitor(state, spec, sd))
        del sd
        if state.newton_iters <= 4:
            dt = min(2.0 * dt, sched.dt_max)
    return trace


def trace_for_state(state: HomotopyState, spec: ProblemSpec,
                    state_data: StateData | None = None) -> ContinuationTrace:
    """Wrap a single solved state (a case C solve, typically) in a one-row
    trace so the reporting layer treats every solve uniformly. state_data,
    when given, is the state's cached StateData, handed on to monitor."""
    trace = ContinuationTrace()
    trace.append(state, monitor(state, spec, state_data))
    return trace


def solve_caseC(spec: ProblemSpec, u_init: ScalarField | None = None,
                schedule: Schedule = Schedule()
                ) -> tuple[HomotopyState, StateData]:
    """Direct damped Newton for case C (experimental: the estimates exist,
    an existence theorem does not), with the schedule's Newton settings.
    Requires the background Schouten tensor strictly inside Gamma_{k-1} at
    every node. Returns what newton_correct returns."""
    if spec.case != "C":
        raise DomainError("solve_caseC only accepts case C problems")
    margins, node, report = spec.background.schouten0_admissibility(spec.k - 1)
    if float(margins.min()) <= 0.0:
        raise AdmissibilityError(
            f"background Schouten tensor must lie in Gamma_{spec.k - 1}",
            node=node, margin=report.margin)
    u0 = u_init if u_init is not None else ScalarField.zeros(spec.grid)
    return newton_correct(u0, 1.0, spec, schedule)
