"""Newton correction, continuation, and the trace contract."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import sigmak.solver
from helpers import canonical_problem
from sigmak import (Grid, ProblemSpec, RunConfig, ScalarField,
                    Schedule, TRACE_HEADER, continue_path, monitor, residual,
                    sample_text, solve_caseC, solve_t0)
from sigmak.cli import main
from sigmak.config import peak_bytes
from sigmak.errors import (AdmissibilityError, ConeExitError, DomainError,
                           LinearSolveError, NonConvergenceError,
                           PathFailureError)
from sigmak.grid import hess, random_smooth_field
from sigmak.operators import (LinearOperator, _coefficients,
                              ellipticity_certificate, linearize,
                              manufactured_forcing, prepare_state)
from sigmak.solver import (GMRES_RESTART, LINEAR_GUARD, HomotopyState,
                           _sup_spectral_radius, newton_correct,
                           solve_linear)


def test_schedule_validation():
    Schedule()  # defaults are consistent
    with pytest.raises(DomainError):
        Schedule(dt_min=0.2, dt_init=0.1)
    with pytest.raises(DomainError):
        Schedule(dt_max=1.5)
    with pytest.raises(DomainError):
        Schedule(newton_tol=0.0)
    with pytest.raises(DomainError):
        Schedule(cone_factor=1.0)
    for name in ("newton_tol", "dt_init", "cone_factor"):
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                Schedule(**{name: value})


def test_solve_linear_matches_dense_inverse():
    spec = canonical_problem("A", N=8)
    op = linearize(prepare_state(ScalarField.zeros(spec.grid), 0.0, spec))
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(spec.grid.size)
    x = solve_linear(op, rhs)
    assert x.shape == spec.grid.shape
    assert np.abs(op.matvec(x.ravel()) - rhs).max() <= 1e-8 * np.abs(rhs).max()
    dense = np.linalg.solve(op.as_csr().toarray(), rhs)
    assert np.abs(x.ravel() - dense).max() <= 1e-6 * np.abs(dense).max()


def test_solve_linear_zero_rhs_shortcut():
    spec = canonical_problem("A", N=8)
    op = linearize(prepare_state(ScalarField.zeros(spec.grid), 0.0, spec))
    x = solve_linear(op, np.zeros(spec.grid.size))
    assert np.array_equal(x, np.zeros(spec.grid.shape))


def test_solve_linear_fails_in_bounded_time_on_singular_system():
    """The periodic Laplacian has constants in its kernel, so a right-hand
    side with nonzero mean is not in its range. With rhs = ones both Krylov
    stages break down at once; with noise added they run to their caps.
    Either way the solve must report failure in bounded time."""
    grid = Grid(3, 16)
    op = LinearOperator(grid=grid, second=_constant((3, 3), np.eye(3), grid),
                        first=np.zeros((3,) + grid.shape),
                        zeroth=np.zeros(grid.shape))
    noise = np.random.default_rng(3).standard_normal(grid.size)
    for rhs in (np.ones(grid.size), np.ones(grid.size) + 0.5 * noise):
        start = time.perf_counter()
        with pytest.raises(LinearSolveError):
            solve_linear(op, rhs)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"singular solve took {elapsed:.1f} s"


def test_solve_linear_takes_one_matvec_on_constant_coefficients():
    """The frozen-coefficient start solves a constant-coefficient system
    exactly, so GMRES's first true-residual test passes and the guard
    reuses that residual: one matvec for the whole solve."""
    rng = np.random.default_rng(29)
    grid = Grid(4, 8)
    root = rng.standard_normal((4, 4))
    op = LinearOperator(
        grid=grid,
        second=_constant((4, 4), root @ root.T + 4 * np.eye(4), grid),
        first=_constant((4,), rng.standard_normal(4), grid),
        zeroth=np.full(grid.shape, -0.7))
    calls = _counting(op)
    rhs = rng.standard_normal(grid.size)
    x = solve_linear(op, rhs)
    assert calls[0] == 1
    assert np.abs(op.as_csr() @ x.ravel() - rhs).max() \
        <= LINEAR_GUARD * np.abs(rhs).max()


def _constant(shape: tuple, value: np.ndarray, grid: Grid) -> np.ndarray:
    """A constant coefficient field, component-major: value at every node,
    shape + grid.shape."""
    return np.broadcast_to(value.reshape(shape + (1,) * grid.n),
                           shape + grid.shape)


def _counting(op):
    """op with its matvec counted in calls[0], for solve_linear to use."""
    calls, matvec = [0], op.matvec

    def counted(flat):
        calls[0] += 1
        return matvec(flat)

    op.matvec = counted
    return calls


def test_case_c_matvec_counts_do_not_swing_with_roundoff(monkeypatch):
    """The last Newton system of the direct case C solve (n=4, k=3, N=8,
    f = 1 + 0.5 cos(x1+x2)), its mean zeroth coefficient positive, solved
    as captured and as 5 copies with coefficients perturbed by 1e-14
    relative noise: every copy must solve, with matvec counts within a
    factor of 1.5 of each other. (Jacobi-preconditioned BiCGSTAB took 95
    matvecs on the captured system and 164-206 on these copies.)"""
    spec = canonical_problem("C", n=4, k=3, N=8, f="1+0.5*cos(x1+x2)")
    coefficients, systems = [], []
    linearize = sigmak.solver.linearize

    def capture_coefficients(sd, values=None):
        coefficients.append(_coefficients(sd))
        return linearize(sd, values=values)

    def capture(op, rhs, **tolerances):
        systems.append((op, rhs))
        return solve_linear(op, rhs, **tolerances)

    monkeypatch.setattr(sigmak.solver, "linearize", capture_coefficients)
    monkeypatch.setattr(sigmak.solver, "solve_linear", capture)
    solve_caseC(spec)
    op, rhs = systems[-1]
    second, first, zeroth = coefficients[-1]
    assert zeroth.mean() > 0.0
    rng = np.random.default_rng(11)
    copies = [op]
    for _ in range(5):
        noise = rng.standard_normal(second.shape)
        noise += np.swapaxes(noise, 0, 1)
        copies.append(LinearOperator(
            grid=op.grid, second=second * (1.0 + 1e-14 * noise),
            first=first * (1.0 + 1e-14 * rng.standard_normal(first.shape)),
            zeroth=zeroth * (1.0 + 1e-14 * rng.standard_normal(
                zeroth.shape))))
    counts = []
    for copy in copies:
        calls = _counting(copy)
        x = solve_linear(copy, rhs)
        counts.append(calls[0])
        assert np.abs(copy.apply(x) - rhs).max() \
            <= LINEAR_GUARD * np.abs(rhs).max()
    assert max(counts) <= 1.5 * min(counts), counts


# `sigmak solve` configs whose tracemalloc peaks are held to peak_bytes:
# case A at n=3, N=24, and three beyond n=3 (the benchmark's case C config,
# case A with k = n = 5, and case A at n=4 on a background that varies
# along every axis, so it is stored grid-sized).
_PEAK_CONFIGS = (
    RunConfig(N=24),
    RunConfig(case="C", n=4, k=3, N=8, alpha="-0.05", f="1+0.5*cos(x1+x2)"),
    RunConfig(n=5, k=5, N=8),
    RunConfig(n=4, k=3, N=8,
              background={"(1,1)": "-1-0.1*sin(x1+x2+x3+x4)", "(2,2)": "-1",
                          "(3,3)": "-1", "(4,4)": "-1"}),
)


def test_solves_peak_within_the_memory_estimate(tmp_path):
    """tracemalloc peaks stay under config.peak_bytes, GMRES basis included:
    a whole `sigmak solve` for each of _PEAK_CONFIGS, each traced on its
    own, and the singular Laplacian solve, whose first cycle allocates the
    whole basis before the solve stagnates and fails."""
    varied = _PEAK_CONFIGS[-1]
    assert varied.problem().background.shape == (4, 4) + varied.grid().shape
    for i, cfg in enumerate(_PEAK_CONFIGS):
        conf = tmp_path / f"solve{i}.config"
        conf.write_text(cfg.to_text(), encoding="utf-8")
        tracemalloc.start()
        try:
            rc = main(["solve", "--config", str(conf), "--out",
                       str(tmp_path / f"out{i}")])
            solve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, cfg
        assert solve_peak < peak_bytes(cfg.n, cfg.N), cfg
    tracemalloc.start()
    try:
        grid = Grid(3, 16)
        op = LinearOperator(
            grid=grid, second=_constant((3, 3), np.eye(3), grid),
            first=np.zeros((3,) + grid.shape), zeroth=np.zeros(grid.shape))
        calls = _counting(op)
        noise = np.random.default_rng(3).standard_normal(grid.size)
        with pytest.raises(LinearSolveError):
            solve_linear(op, np.ones(grid.size) + 0.5 * noise)
        singular_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a true-residual test, at least one Krylov step, then a last test: the
    # basis was allocated, and the peak holds it
    assert calls[0] >= 3
    assert singular_peak >= (GMRES_RESTART + 1) * grid.size * 8
    assert singular_peak < peak_bytes(3, 16)


def test_solve_t0_zero_start_is_already_converged():
    spec = canonical_problem("A")
    u = solve_t0(spec, ScalarField.zeros(spec.grid))
    assert u.max_abs() == 0.0


def test_solve_t0_contracts_random_admissible_starts():
    spec = canonical_problem("A")
    for seed in range(3):
        u0 = random_smooth_field(spec.grid, np.random.default_rng(seed),
                                 amplitude=0.05, max_wavenumber=1)
        u = solve_t0(spec, u0)
        assert u.max_abs() <= 1e-10
        assert residual(prepare_state(u, 0.0, spec)).max_abs() <= 1e-10


def test_solve_t0_rejects_inadmissible_start():
    spec = canonical_problem("A")
    bad = sample_text("0.5*sin(x1)*cos(x2)", spec.grid)
    with pytest.raises(ConeExitError):
        solve_t0(spec, bad)


def test_solve_t0_rejects_case_c():
    spec = canonical_problem("C")
    with pytest.raises(DomainError):
        solve_t0(spec, ScalarField.zeros(spec.grid))


def test_newton_correct_reports_iterations():
    spec = canonical_problem("A")
    u0 = random_smooth_field(spec.grid, np.random.default_rng(23),
                             amplitude=0.03, max_wavenumber=1)
    state, _ = newton_correct(u0, 0.0, spec, Schedule())
    assert state.newton_iters >= 1
    assert state.residual_norm <= 1e-10
    assert state.t == 0.0


def test_newton_correct_refills_one_values_buffer(monkeypatch):
    """The first linearize of a corrector call allocates the weight planes;
    every later one is handed the previous operator's planes and refills
    them in place."""
    seen = []
    real = sigmak.solver.linearize

    def capture(*args, values=None, **kwargs):
        op = real(*args, values=values, **kwargs)
        seen.append((values, op.weights))
        return op

    monkeypatch.setattr(sigmak.solver, "linearize", capture)
    spec = canonical_problem("A")
    u0 = random_smooth_field(spec.grid, np.random.default_rng(23),
                             amplitude=0.03, max_wavenumber=1)
    newton_correct(u0, 0.0, spec, Schedule())
    assert len(seen) >= 2 and seen[0][0] is None
    for (_, previous), (given, data) in zip(seen, seen[1:]):
        assert given is previous
        assert np.shares_memory(data, seen[0][1])


def test_newton_correct_raises_on_iteration_budget():
    spec = canonical_problem("A")
    u0 = random_smooth_field(spec.grid, np.random.default_rng(23),
                             amplitude=0.03, max_wavenumber=1)
    with pytest.raises(NonConvergenceError):
        newton_correct(u0, 0.0, spec,
                       Schedule(newton_tol=1e-14, newton_max_iters=1))


def test_continue_path_canonical_case_a():
    spec = canonical_problem("A")
    trace = continue_path(spec, Schedule())
    assert trace.final_t == 1.0
    assert trace.final_state.u.max_abs() <= 1e-10
    ts = [row.t for row in trace.rows]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    assert all(row.cone_margin > 0.0 for row in trace.rows)
    assert trace.rows[0].t == 0.0


def _counting_certificates(monkeypatch):
    """Count the solver's calls to ellipticity_certificate."""
    calls, real = [], sigmak.solver.ellipticity_certificate

    def counted(sd):
        calls.append(sd.t)
        return real(sd)

    monkeypatch.setattr(sigmak.solver, "ellipticity_certificate", counted)
    return calls


def test_a_path_is_certified_once_at_its_final_state(monkeypatch):
    """continue_path audits ellipticity on demand: not at all until
    trace.ellipticity is read, then once, at the state the trace ends on,
    on the case A path, on the case C path (its anchor alone) and on a
    failed path (its last accepted state, built again by one prepare_state
    on that read). Each certificate equals a fresh audit of that state
    field for field."""
    calls = _counting_certificates(monkeypatch)
    spec = canonical_problem("A")
    trace = continue_path(spec, Schedule())
    assert calls == []
    final = trace.final_state
    assert trace.ellipticity == ellipticity_certificate(
        prepare_state(final.u, 1.0, spec))
    assert trace.ellipticity.passed
    assert calls == [1.0]

    calls.clear()
    spec = canonical_problem("C", alpha="-0.05", f="0.85")
    trace = continue_path(spec, Schedule())
    assert calls == []
    assert trace.ellipticity == ellipticity_certificate(
        prepare_state(trace.final_state.u, 1.0, spec))
    assert calls == [1.0]

    calls.clear()
    states, real = [], sigmak.solver.prepare_state
    monkeypatch.setattr(sigmak.solver, "prepare_state",
                        lambda *args: states.append(args) or real(*args))
    with pytest.raises(PathFailureError) as exc:
        continue_path(canonical_problem("A"),
                      Schedule(dt_init=0.5, dt_max=0.5, dt_min=0.5,
                               newton_max_iters=1))
    trace, built = exc.value.trace, len(states)
    assert calls == []
    assert trace.ellipticity.t == 0.0 and trace.ellipticity.passed
    assert calls == [0.0] and len(states) == built + 1


def test_canonical_case_a_newton_iterations_are_pinned(monkeypatch):
    """Per-step Newton iteration counts of the canonical case A solve
    (n=3, N=16; the README config's trace.csv) and of the same problem with
    the forcing manufactured from u* = 0.1 sin(x1) cos(x2) (the coarse solve
    of `sigmak verify`), and the matvecs each path takes. Changes to the
    linear layer must keep the iterations. The inexact Newton steps keep
    them and take 75 matvecs on the manufactured path, against 140 with
    every system solved to LINEAR_RTOL; the canonical path lands on a
    constant solution, where the preconditioner is exact and each of its
    21 solves takes one matvec."""
    calls, matvec = [0], LinearOperator.matvec

    def counted(op, flat):
        calls[0] += 1
        return matvec(op, flat)

    monkeypatch.setattr(LinearOperator, "matvec", counted)
    spec = canonical_problem("A")
    trace = continue_path(spec, Schedule())
    assert [row.newton_iters for row in trace.rows] == [0, 4, 4, 4, 4, 5]
    assert calls[0] == 21
    calls[0] = 0
    star = sample_text("0.1*sin(x1)*cos(x2)", spec.grid)
    manufactured = spec.with_f_field(manufactured_forcing(star, 1.0, spec))
    trace = continue_path(manufactured, Schedule())
    assert [row.newton_iters for row in trace.rows] == [0, 4, 4, 4, 4, 5]
    assert calls[0] == 75
    assert [row.t for row in trace.rows] == [0.0, 0.1, 0.30000000000000004,
                                             0.55, 0.8, 1.0]


@pytest.mark.parametrize("case, n, k, f, iters, ts", [
    ("A", 5, 4, None, [0, 3, 4, 4, 5, 5],
     [0.0, 0.1, 0.30000000000000004, 0.55, 0.8, 1.0]),
    ("C", 4, 3, "1+0.5*cos(x1+x2)", [8], [1.0]),
], ids=["A5k4", "C4"])
def test_newton_iterations_beyond_n3_are_pinned(case, n, k, f, iters, ts):
    """Per-step Newton iteration counts of two solves beyond n=3, as in
    their trace.csv: case A with n=5, k=4, N=8 along the continuation path,
    and the direct case C solve with n=4, k=3, N=8, f = 1 + 0.5 cos(x1+x2),
    the one point of its path. Changes to the tensor, recurrence or linear
    layers must keep both."""
    trace = continue_path(canonical_problem(case, n=n, k=k, N=8, f=f),
                          Schedule())
    assert [row.newton_iters for row in trace.rows] == iters
    assert [row.t for row in trace.rows] == ts


def test_stagnating_gmres_fails_within_three_cycles(monkeypatch):
    """The README-style solve at n=3, N=24 with alpha = -0.5 (1 + cos x1)
    and f = 0.3 + 0.25 sin(x2) sin(x3): the first Newton system of the step
    from t = 0.8 to t = 1 is not elliptic at some nodes. Solved by
    solve_linear at its default tolerance, its restarted GMRES stagnates
    (relative residual 1.6e-4, 4.7e-5, 2.4e-5 after the first three
    cycles) and must fail within 3 cycles rather than run all of them. On
    the path the inexact Newton step asks that system only for FORCING_MAX
    relative, which GMRES reaches, so every system on the path converges;
    the path keeps the t values of exact Newton steps, and its t = 0.8 row
    takes 6 Newton iterations (5 with exact steps)."""
    runs, ts, captured = [], [], []
    gmres, linearize = sigmak.solver.gmres, sigmak.solver.linearize

    def recorded(*args):
        result = gmres(*args)
        runs.append(result[1])
        return result

    def linearized(sd, values=None):
        ts.append(sd.t)
        return linearize(sd, values=values)

    def solved(op, rhs, **tolerances):
        if ts[-1] == 1.0 and not captured:
            captured.append((op, rhs))
        return solve_linear(op, rhs, **tolerances)

    monkeypatch.setattr(sigmak.solver, "gmres", recorded)
    monkeypatch.setattr(sigmak.solver, "linearize", linearized)
    monkeypatch.setattr(sigmak.solver, "solve_linear", solved)
    spec = canonical_problem("A", N=24, alpha="-0.5*(1+cos(x1))",
                             f="0.3+0.25*sin(x2)*sin(x3)")
    trace = continue_path(spec, Schedule())
    assert runs and all(info == 0 for info in runs)
    assert [row.t for row in trace.rows] == [0.0, 0.1, 0.30000000000000004,
                                             0.55, 0.8, 0.925, 1.0]
    assert [row.newton_iters for row in trace.rows] == [0, 4, 4, 4, 6, 4, 4]

    # the first system at t = 1 comes from the accepted t = 0.8 state
    assert ts.index(1.0) == sum(row.newton_iters for row in trace.rows[:5])
    (op, rhs), = captured
    runs.clear()
    with pytest.raises(LinearSolveError):
        solve_linear(op, rhs)
    assert runs == [3]


def test_continue_path_trace_csv_contract():
    spec = canonical_problem("A")
    trace = continue_path(spec, Schedule())
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert TRACE_HEADER == ("step,t,newton_iters,residual_norm,cone_margin,"
                            "sup_u,sup_grad_u_sq,sup_hess_u")
    assert len(lines) == len(trace.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    # repr round trip: every float field parses back exactly.
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 8
        assert repr(float(parts[3])) == parts[3]


def test_continue_path_requires_valid_problem():
    g = Grid(3, 16)
    bad = ProblemSpec.build("A", 3, 3, g, alpha="0.1", f="0.7")
    from sigmak.errors import ValidationError
    with pytest.raises(ValidationError):
        continue_path(bad, Schedule())


def test_continue_path_failure_carries_partial_trace():
    spec = canonical_problem("A")
    # dt pinned at 0.5 with a one-iteration budget cannot advance.
    schedule = Schedule(dt_init=0.5, dt_max=0.5, dt_min=0.5,
                        newton_max_iters=1)
    with pytest.raises(PathFailureError) as exc:
        continue_path(spec, schedule)
    trace = exc.value.trace
    assert trace is not None
    assert len(trace.rows) == 1      # the t=0 start was accepted
    assert trace.final_t == 0.0
    # the certificate is the accepted t=0 state's
    assert trace.ellipticity == ellipticity_certificate(
        prepare_state(trace.final_state.u, 0.0, spec))
    assert trace.ellipticity.t == 0.0


def test_monitor_values_at_rest():
    spec = canonical_problem("A")
    state = HomotopyState(t=0.0, u=ScalarField.zeros(spec.grid),
                          residual_norm=0.0, cone_margin=3.0, newton_iters=0)
    sd = prepare_state(state.u, state.t, spec)
    record = monitor(sd)
    assert record.sup_u == 0.0
    assert record.sup_grad_u_sq == 0.0
    assert record.sup_hess_u == 0.0
    assert record.cone_margin == 3.0
    assert ellipticity_certificate(sd).passed


def test_pruned_sup_hess_is_the_full_eigvalsh_maximum():
    """The pruned spectral-radius maximum equals the full route,
    np.abs(eigvalsh(H)).max(), bit for bit: on random fields, the zero
    field, a single spike, Hessians of rank one (rho = |H|_F, the edge of
    the pruning bound), and through monitor."""
    def full(mats):
        node_major = np.moveaxis(mats, (0, 1), (-2, -1))
        return float(np.abs(np.linalg.eigvalsh(node_major)).max())

    rng = np.random.default_rng(23)
    fields = []
    for n, N in ((3, 16), (4, 8), (5, 8)):
        g = Grid(n, N)
        fields.append(random_smooth_field(g, rng, amplitude=0.1))
        fields.append(ScalarField(g, rng.standard_normal(g.shape)))
        fields.append(ScalarField.zeros(g))
        spike = np.zeros(g.shape)
        spike[(1,) * n] = 1.0
        fields.append(ScalarField(g, spike))
        # depends on x1 only: every stencil Hessian is diag(d, 0, ..., 0)
        fields.append(sample_text("0.3*sin(2*x1) + 0.1*cos(x1)", g))
    for u in fields:
        mats = hess(u)
        assert _sup_spectral_radius(mats) == full(mats)
    for n in (3, 5):
        v = rng.standard_normal((4000, n))
        rank_one = np.einsum("bi,bj->ijb", v, v)
        # unit vectors: every norm and radius is 1 up to roundoff, so the
        # largest radius sits where the computed norm may not be largest
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        unit = np.einsum("bi,bj->ijb", v, v)
        for mats in (rank_one, -rank_one, unit, -unit):
            assert _sup_spectral_radius(mats) == full(mats)
    spec = canonical_problem("A", N=8)
    u = random_smooth_field(spec.grid, rng, amplitude=0.02)
    assert monitor(prepare_state(u, 0.5, spec)).sup_hess_u == full(hess(u))


def test_solve_case_c_constant_oracle():
    # f = 1 + 3 alpha makes u = 0 the exact solution.
    spec = canonical_problem("C", alpha="-0.05", f="0.85")
    state, _ = solve_caseC(spec)
    assert state.u.max_abs() <= 1e-10
    assert state.t == 1.0


def test_solve_case_c_converges_from_offset_forcing():
    spec = canonical_problem("C")
    state, _ = solve_caseC(spec)
    assert state.residual_norm <= 1e-10
    assert residual(prepare_state(state.u, 1.0, spec)).max_abs() <= 1e-9


def test_solve_case_c_requires_admissible_schouten():
    g = Grid(3, 16)
    spec = ProblemSpec.build(
        "C", 3, 3, g, alpha="-0.05", f="1",
        background={"(1,1)": "-1", "(2,2)": "-1", "(3,3)": "-1"})
    with pytest.raises(AdmissibilityError):
        solve_caseC(spec)


def test_solve_case_c_rejects_other_cases():
    with pytest.raises(DomainError):
        solve_caseC(canonical_problem("A"))


def test_case_c_path_is_its_anchor_alone():
    """A case C path starts at start_t = 1 with the direct solve: one row,
    the state solve_caseC returns, monitored and certified."""
    spec = canonical_problem("C", alpha="-0.05", f="0.85")
    assert spec.start_t == 1.0
    assert canonical_problem("A").start_t == canonical_problem("B").start_t \
        == 0.0
    trace = continue_path(spec, Schedule())
    state, sd = solve_caseC(spec)
    assert len(trace.rows) == 1
    assert trace.final_t == 1.0
    assert np.array_equal(trace.final_state.u.values, state.u.values)
    assert trace.rows[0].newton_iters == state.newton_iters
    assert trace.rows[0].sup_u == monitor(sd).sup_u
    assert trace.ellipticity == ellipticity_certificate(sd)
    assert trace.to_csv().startswith(TRACE_HEADER)


def test_case_c_path_propagates_its_anchors_errors():
    """The anchor's errors reach the caller as they are: an inadmissible
    background Schouten tensor, and a Newton solve with no admissible
    decreasing step (the certify-C4 data at n=3)."""
    bad = ProblemSpec.build(
        "C", 3, 3, Grid(3, 8), alpha="-0.05", f="1",
        background={"(1,1)": "-1", "(2,2)": "-1", "(3,3)": "-1"})
    with pytest.raises(AdmissibilityError):
        continue_path(bad, Schedule())
    stuck = canonical_problem("C", N=8, f="1+0.5*cos(x1+x2)")
    with pytest.raises(ConeExitError, match="no admissible decreasing step"):
        continue_path(stuck, Schedule())
