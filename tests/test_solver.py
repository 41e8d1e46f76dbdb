"""Newton correction, continuation, and the trace contract."""

import gc
import math
import time
import tracemalloc

import numpy as np
import numpy.fft  # loaded here, outside the traced regions below
import pytest

import sigmak.solver
from helpers import canonical_problem
from sigmak import (Grid, ProblemSpec, RunConfig, ScalarField,
                    Schedule, TRACE_HEADER, continue_path, monitor, residual,
                    sample_text, solve_caseC, solve_t0)
from sigmak.cli import main
from sigmak.config import block_bytes, peak_bytes, sample_bytes
from sigmak.errors import (ConeExitError, DomainError, LinearSolveError,
                           NonConvergenceError, PathFailureError,
                           ValidationError)
from sigmak.grid import derivatives, prolong, random_smooth_field
from sigmak.operators import (CHECK_BLOCK, LinearOperator, StateData,
                              _coefficients, ellipticity_certificate,
                              linearize, manufactured_forcing, prepare_state)
from sigmak.solver import (GMRES_RESTART, LINEAR_GUARD, _sup_spectral_radius,
                           ladder_levels, newton_correct, refine,
                           solve_linear)
from sigmak.symfunc import pack, unpack


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
    op = LinearOperator(grid=grid,
                        second=pack(_constant((3, 3), np.eye(3), grid)),
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
        second=pack(_constant((4, 4), root @ root.T + 4 * np.eye(4), grid)),
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
        # _coefficients spends the state it is given, so it reads a copy
        coefficients.append(_coefficients(prepare_state(sd.u, sd.t, sd.spec)))
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
        noise = rng.standard_normal(unpack(second).shape)
        noise += np.swapaxes(noise, 0, 1)
        copies.append(LinearOperator(
            grid=op.grid, second=second * (1.0 + 1e-14 * pack(noise)),
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


# An absolute ceiling, in bytes a node, on the n = k = 5 solve's peak, so
# the estimate's headroom cannot hide a regression of the Newton iteration:
# the solve, whose states are built in node blocks and hold no tensor,
# peaks at about 656 bytes a node, and the ceiling adds a margin of about
# 8% to that.
_N5_CEILING = 710


def test_solves_peak_within_the_memory_estimate(tmp_path):
    """tracemalloc peaks stay under config.peak_bytes, GMRES basis included:
    a whole `sigmak solve` for each of _PEAK_CONFIGS, each traced on its
    own, and the singular Laplacian solve, whose first cycle allocates the
    whole basis before the solve stagnates and fails. The n = k = 5 solve
    also stays under _N5_CEILING bytes a node."""
    varied = _PEAK_CONFIGS[-1]
    assert unpack(varied.problem().background).shape \
        == (4, 4) + varied.grid().shape
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
        if cfg.n == cfg.k == 5:
            assert solve_peak < _N5_CEILING * cfg.N ** cfg.n, solve_peak
    # numpy 2 imports numpy.fft and numpy.random at first use; both happen
    # outside the traced region, which peak_bytes never modelled
    grid = Grid(3, 16)
    noise = np.random.default_rng(3).standard_normal(grid.size)
    tracemalloc.start()
    try:
        op = LinearOperator(
            grid=grid, second=pack(_constant((3, 3), np.eye(3), grid)),
            first=np.zeros((3,) + grid.shape), zeroth=np.zeros(grid.shape))
        calls = _counting(op)
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


def test_prepare_state_holds_one_node_block_beyond_its_state(monkeypatch):
    """prepare_state builds its state one node block at a time: at
    n = k = 5, N = 8, with blocks of one first-axis slab (N^4 nodes), its
    tracemalloc peak is at most the bytes of the StateData's arrays plus one
    block's working set, the wrap-padded copy of u and three packed tensors
    of the block (its Hessian, U and V while the tensor is built; fewer
    while the recurrence runs), with a margin of 5% of the state's bytes.
    A build on the whole grid at once holds the Hessian, the tensor and
    the recurrence's planes of every node, over 100 bytes a node more."""
    monkeypatch.setattr(sigmak.operators, "STATE_BLOCK_BYTES", 1)
    n, N = 5, 8
    spec = RunConfig(n=n, k=5, N=N).problem()
    u = random_smooth_field(spec.grid, np.random.default_rng(5),
                            amplitude=0.02)
    prepare_state(u, 0.6, spec)
    tracemalloc.start()
    try:
        sd = prepare_state(u, 0.6, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(value.nbytes for value in vars(sd).values()
               if isinstance(value, np.ndarray))
    block = 8 * (3 * n * (n + 1) // 2 * N ** (n - 1) + (N + 2) ** n)
    assert peak <= 1.05 * held + block, (peak, held, block)


# An absolute ceiling on the peak of `sigmak check` at n = 4, k = 3, N = 8
# and 20,000 samples (the certify-C4 check's size), so the estimate's
# headroom cannot hide a check that holds its matrix draws again.
_CHECK_C4_CEILING = 8_000_000


def test_check_peak_within_the_memory_estimate(tmp_path):
    """tracemalloc peaks of a whole `sigmak check` stay under the charge
    RunConfig.check_memory makes, peak_bytes + block_bytes + samples times
    sample_bytes, at (n, k) = (3, 3), (4, 3) and (4, 4), N = 8, from one
    sample to 20,000; the (4, 3) check at 20,000 samples also stays under
    _CHECK_C4_CEILING bytes."""
    for n, k in ((3, 3), (4, 3), (4, 4)):
        for samples in (1, CHECK_BLOCK + 1, 2000, 20000):
            cfg = RunConfig(n=n, k=k, N=8, check_samples=samples)
            conf = tmp_path / f"check{n}{k}_{samples}.config"
            conf.write_text(cfg.to_text(), encoding="utf-8")
            tracemalloc.start()
            try:
                rc = main(["check", "--config", str(conf), "--out",
                           str(tmp_path / f"out{n}{k}_{samples}")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0, (n, k, samples)
            assert peak < peak_bytes(n, 8) + block_bytes(n, k) \
                + samples * sample_bytes(n), (n, k, samples, peak)
            if (n, k, samples) == (4, 3, 20000):
                assert peak < _CHECK_C4_CEILING, peak


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
    sd, iters, rnorm = newton_correct(u0, 0.0, spec, Schedule())
    assert iters >= 1
    assert rnorm <= 1e-10
    assert sd.t == 0.0
    # Newton steps on the quotient form Q and reports the multiplied R = den Q
    assert rnorm == float(np.abs(sd.den * residual(sd).values).max())


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


def test_a_priori_quantities_are_stable_under_refinement():
    """The paper's estimates bound sup |u|, sup |grad u|^2 and sup |Hess u|
    along the path by the data alone, not by the grid: on each problem below
    both paths reach t = 1, and the path maximum of each monitored quantity
    at N = 16 and N = 32 differs by under 10%.

    case A, n = k = 3, alpha = -0.1, f = 0.7 + 0.3 sin x1: 0.1604/0.1603,
    1.448e-3/1.536e-3 and 4.684e-2/4.714e-2;
    case C, n = k = 3, alpha = -0.05, f = 1 + 0.5 cos(x1 + x2) (its path is
    the direct solve at t = 1): 0.19165/0.18737, 0.060459/0.059953 and
    0.44744/0.43827."""
    names = ("sup_u", "sup_grad_u_sq", "sup_hess_u")
    for case, f in (("A", "0.7+0.3*sin(x1)"), ("C", "1+0.5*cos(x1+x2)")):
        maxima = []
        for N in (16, 32):
            trace = continue_path(canonical_problem(case, N=N, f=f),
                                  Schedule())
            assert trace.final_t == 1.0
            maxima.append([max(getattr(row, name) for row in trace.rows)
                           for name in names])
        for name, coarse, fine in zip(names, *maxima):
            assert coarse > 0.0 and abs(coarse - fine) < 0.1 * fine, \
                (case, name)


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
    trace.ellipticity is read, then once per read (the audit is not kept),
    at the state the trace ends on, on the case A path, on the case C path
    (its anchor alone) and on a failed path (its last accepted state, built
    again by one prepare_state as the path fails, none on the read). Each
    certificate equals a fresh audit of that state field for field."""
    calls = _counting_certificates(monkeypatch)
    spec = canonical_problem("A")
    trace = continue_path(spec, Schedule())
    assert calls == []
    final = trace.final_state
    assert trace.ellipticity == ellipticity_certificate(
        prepare_state(final.u, 1.0, spec))
    assert calls == [1.0]
    assert trace.ellipticity.passed
    assert calls == [1.0, 1.0]

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
    assert states[-1][0] is trace.final_state.u and states[-1][1] == 0.0
    assert calls == []
    cert = trace.ellipticity
    assert cert.t == 0.0 and cert.passed
    assert calls == [0.0] and len(states) == built


def test_canonical_case_a_newton_iterations_are_pinned(monkeypatch):
    """Per-step Newton iteration counts and t values of the canonical case
    A solve (n=3, N=16) and of the same problem with the forcing
    manufactured from u* = 0.1 sin(x1) cos(x2) (the coarse solve of
    `sigmak verify`), and the matvecs each path takes, under two schedules.
    Changes to the linear layer must keep them.

    The README config sets solver.dt_init = 0.1 under the default cap
    dt_max = 1, so its trace.csv still walks t from 0.1. The canonical
    path stays on constant solutions, where the preconditioner is exact
    and each solve takes one matvec; its t = 0.3 state already solves
    t = 0.7 to newton_tol, so that step takes no iteration, and it returns
    to u = 0 at t = 1. The default schedule takes t = 1 in one step: u = 0
    already solves the canonical problem there, and the manufactured one
    takes 5 iterations and 19 matvecs, against 22 and 76 on the README's
    walk."""
    calls, matvec = [0], LinearOperator.matvec

    def counted(op, flat):
        calls[0] += 1
        return matvec(op, flat)

    monkeypatch.setattr(LinearOperator, "matvec", counted)
    spec = canonical_problem("A")
    star = sample_text("0.1*sin(x1)*cos(x2)", spec.grid)
    manufactured = spec.with_f_field(manufactured_forcing(star, 1.0, spec))
    readme = Schedule(dt_init=0.1)
    for problem, schedule, iters, ts, matvecs in (
            (spec, readme, [0, 4, 4, 0, 5],
             [0.0, 0.1, 0.30000000000000004, 0.7000000000000001, 1.0], 13),
            (manufactured, readme, [0, 4, 5, 4, 5, 4],
             [0.0, 0.1, 0.30000000000000004, 0.5, 0.9, 1.0], 76),
            (spec, Schedule(), [0, 0], [0.0, 1.0], 0),
            (manufactured, Schedule(), [0, 5], [0.0, 1.0], 19)):
        calls[0] = 0
        trace = continue_path(problem, schedule)
        assert [row.newton_iters for row in trace.rows] == iters
        assert [row.t for row in trace.rows] == ts
        assert calls[0] == matvecs


@pytest.mark.parametrize("case, n, k, f, iters, ts", [
    ("A", 5, 4, None, [0, 7], [0.0, 1.0]),
    ("C", 4, 3, "1+0.5*cos(x1+x2)", [8], [1.0]),
], ids=["A5k4", "C4"])
def test_newton_iterations_beyond_n3_are_pinned(case, n, k, f, iters, ts):
    """Per-step Newton iteration counts of two solves beyond n=3, as in
    their trace.csv: case A with n=5, k=4, N=8, whose path takes t = 1 in
    one step (21 iterations over five steps under the old ramp, dt_init
    0.1 and dt_max 0.25), and the direct case C solve with n=4, k=3, N=8,
    f = 1 + 0.5 cos(x1+x2), the one point of its path. Changes to the
    tensor, recurrence or linear layers must keep both."""
    trace = continue_path(canonical_problem(case, n=n, k=k, N=8, f=f),
                          Schedule())
    assert [row.newton_iters for row in trace.rows] == iters
    assert [row.t for row in trace.rows] == ts


def test_stagnating_gmres_fails_within_three_cycles(monkeypatch):
    """A system that is not elliptic on half the box, with second-order
    coefficient cos(x1) I and zeroth -1 on Grid(3, 24): solved by
    solve_linear at its default tolerance, its restarted GMRES stagnates
    and must fail within 3 cycles rather than run all of them.

    Newton's own systems are elliptic wherever the state lies in the cone,
    since it linearizes the quotient form. The README-style solve at n=3,
    N=24 with alpha = -0.5 (1 + cos x1) and f = 0.3 + 0.25 sin(x2) sin(x3),
    whose first system at t = 1 was not elliptic at some nodes under the
    multiplied form's step and stagnated the same way, now solves every
    system of its path within the first cycle's test. That path is the
    walk from dt_init = 0.1 under the cap dt_max = 0.25, given explicitly
    since the default schedule takes t = 1 in one step."""
    runs = []
    gmres = sigmak.solver.gmres

    def recorded(*args):
        result = gmres(*args)
        runs.append(result[1])
        return result

    monkeypatch.setattr(sigmak.solver, "gmres", recorded)
    spec = canonical_problem("A", N=24, alpha="-0.5*(1+cos(x1))",
                             f="0.3+0.25*sin(x2)*sin(x3)")
    trace = continue_path(spec, Schedule(dt_init=0.1, dt_max=0.25))
    assert runs and all(info == 0 for info in runs)
    assert [row.t for row in trace.rows] == [0.0, 0.1, 0.30000000000000004,
                                             0.5, 0.75, 1.0]
    assert [row.newton_iters for row in trace.rows] == [0, 4, 5, 4, 4, 5]

    grid = spec.grid
    second = np.zeros((6,) + grid.shape)
    second[:3] = sample_text("cos(x1)", grid).values
    op = LinearOperator(grid=grid, second=second,
                        first=np.zeros((3,) + grid.shape),
                        zeroth=-np.ones(grid.shape))
    rhs = sample_text("sin(x1)*cos(x2)+0.3*sin(x3)", grid).values
    runs.clear()
    with pytest.raises(LinearSolveError):
        solve_linear(op, rhs)
    assert runs == [3]


@pytest.mark.parametrize("problem, iters", [
    (dict(case="A", N=24, alpha="-0.5*(1+cos(x1))",
          f="0.3+0.25*sin(x2)*sin(x3)"), 6),
    (dict(case="A", n=4, N=16, f="0.7+0.3*sin(x1)"), 5),
    (dict(case="B", n=5, k=4, N=8, alpha="-0.3"), 4),
], ids=["stall-N24", "A4", "B5k4"])
def test_default_schedule_takes_t_equal_one_in_one_step(monkeypatch, problem,
                                                        iters):
    """Under the default schedule (dt_init = dt_max = 1) the stall config,
    case A at n=4 and case B at n=5, k=4 each reach t = 1 in one step, with
    no rejected step: the trace has the rows t = 0 and t = 1, and every
    linearization is one of the accepted rows' iterations (22, 20 and 17
    along the walk from dt_init = 0.1 under dt_max = 0.25). Both paths
    land on the same discrete solution: the fields agree to 1e-8 in the
    max-norm (2.1e-13, 1.1e-15 and 5.7e-10 when measured)."""
    spec = canonical_problem(**problem)
    linearized = []
    monkeypatch.setattr(sigmak.solver, "linearize", lambda *args, **kw:
                        linearized.append(1) or linearize(*args, **kw))
    trace = continue_path(spec, Schedule())
    assert [row.t for row in trace.rows] == [0.0, 1.0]
    assert [row.newton_iters for row in trace.rows] == [0, iters]
    assert len(linearized) == iters
    walked = continue_path(spec, Schedule(dt_init=0.1, dt_max=0.25))
    assert walked.rows[-1].t == 1.0
    assert np.abs(trace.final_state.u.values
                  - walked.final_state.u.values).max() <= 1e-8


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
    sd = prepare_state(ScalarField.zeros(spec.grid), 0.0, spec)
    row = monitor(sd, 2, 1, 0.5)
    assert (row.step, row.t, row.newton_iters, row.residual_norm) \
        == (2, 0.0, 1, 0.5)
    assert row.sup_u == 0.0
    assert row.sup_grad_u_sq == 0.0
    assert row.sup_hess_u == 0.0
    assert row.cone_margin == 3.0
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
        mats = derivatives(u)[1]
        assert _sup_spectral_radius(mats) == full(unpack(mats))
    for n in (3, 5):
        v = rng.standard_normal((4000, n))
        rank_one = np.einsum("bi,bj->ijb", v, v)
        # unit vectors: every norm and radius is 1 up to roundoff, so the
        # largest radius sits where the computed norm may not be largest
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        unit = np.einsum("bi,bj->ijb", v, v)
        for mats in (rank_one, -rank_one, unit, -unit):
            assert _sup_spectral_radius(pack(mats)) == full(mats)
    spec = canonical_problem("A", N=8)
    u = random_smooth_field(spec.grid, rng, amplitude=0.02)
    assert monitor(prepare_state(u, 0.5, spec), 0, 0, 0.0).sup_hess_u \
        == full(unpack(derivatives(u)[1]))


def test_solve_case_c_constant_oracle():
    # f = 1 + 3 alpha makes u = 0 the exact solution.
    spec = canonical_problem("C", alpha="-0.05", f="0.85")
    sd, _, _ = solve_caseC(spec)
    assert sd.u.max_abs() <= 1e-10
    assert sd.t == 1.0


def test_solve_case_c_converges_from_offset_forcing():
    spec = canonical_problem("C")
    sd, _, rnorm = solve_caseC(spec)
    assert rnorm <= 1e-10
    assert residual(prepare_state(sd.u, 1.0, spec)).max_abs() <= 1e-9


def test_solve_case_c_requires_admissible_schouten():
    g = Grid(3, 16)
    spec = ProblemSpec.build(
        "C", 3, 3, g, alpha="-0.05", f="1",
        background={"(1,1)": "-1", "(2,2)": "-1", "(3,3)": "-1"})
    with pytest.raises(ValidationError, match="Gamma_2"):
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
    sd, iters, rnorm = solve_caseC(spec)
    assert len(trace.rows) == 1
    assert trace.final_t == 1.0
    assert np.array_equal(trace.final_state.u.values, sd.u.values)
    assert trace.rows[0] == monitor(sd, 0, iters, rnorm)
    assert trace.ellipticity == ellipticity_certificate(sd)
    assert trace.to_csv().startswith(TRACE_HEADER)


def test_case_c_path_propagates_its_anchors_errors():
    """The anchor's errors reach the caller as they are: a Newton solve
    with no admissible decreasing step (n=4, N=12, f = 1 + 0.8 sin(x1)
    cos(x2), whose quotient-form steps find none from u = 0). An
    inadmissible background Schouten tensor fails validation before it."""
    bad = ProblemSpec.build(
        "C", 3, 3, Grid(3, 8), alpha="-0.05", f="1",
        background={"(1,1)": "-1", "(2,2)": "-1", "(3,3)": "-1"})
    with pytest.raises(ValidationError, match="Gamma_2"):
        continue_path(bad, Schedule())
    stuck = canonical_problem("C", n=4, N=12, f="1+0.8*sin(x1)*cos(x2)")
    with pytest.raises(ConeExitError, match="no admissible decreasing step"):
        continue_path(stuck, Schedule())


def test_case_c_direct_solve_converges_on_the_certify_data_at_n3():
    """The certify-C4 data at n=3, N=8 (f = 1 + 0.5 cos(x1+x2)), where the
    multiplied form's steps found no admissible decreasing step: the
    quotient form's direct solve converges from u = 0 in 7 iterations, to
    a state with cone margin 1.709."""
    trace = continue_path(canonical_problem("C", N=8, f="1+0.5*cos(x1+x2)"),
                          Schedule())
    row, = trace.rows
    assert row.newton_iters == 7
    assert row.residual_norm <= 1e-10
    assert row.cone_margin == pytest.approx(1.709, abs=1e-3)
    assert trace.ellipticity.passed


def _ladder(cfg: RunConfig):
    """`sigmak solve`'s ladder for cfg, run through the library: the path
    on the coarsest grid, refined to the configured one, whose state then
    ends the trace."""
    spec = cfg.problem()
    grids = [Grid(cfg.n, N) for N in ladder_levels(cfg.N, spec.start_t)]
    spec_at = lambda grid: spec if grid == spec.grid else cfg.problem(grid)
    trace = continue_path(spec_at(grids[0]), cfg.schedule())
    levels, (sd, _, rnorm) = refine(trace, spec_at, grids[1:],
                                    cfg.schedule())
    trace.end_on(sd, sum(iters for _, iters in levels[1:]), rnorm)
    return trace, levels


def _spy_on_corrections(monkeypatch, before=None):
    """Record (t, start field, solved field) of every newton_correct that
    sigmak.solver runs, calling before() ahead of each."""
    calls = []

    def spy(u, t, spec, schedule):
        if before is not None:
            before()
        result = newton_correct(u, t, spec, schedule)
        calls.append((t, u, result[0].u))
        return result

    monkeypatch.setattr(sigmak.solver, "newton_correct", spy)
    return calls


def test_ladder_levels_halve_an_even_grid_down_to_the_floor():
    """A path that walks t runs on N, N/2, N/4, ... while the size is even
    and its half is at least 8; a case C path (start_t = 1) on N alone."""
    for N, levels in ((8, [8]), (12, [12]), (16, [8, 16]), (24, [12, 24]),
                      (32, [8, 16, 32])):
        for case in ("A", "B"):
            spec = canonical_problem(case, N=N)
            assert ladder_levels(N, spec.start_t) == levels, (case, N)
        spec = RunConfig(case="C", alpha="-0.05", f="1", N=N).problem()
        assert ladder_levels(N, spec.start_t) == [N]


# The README's case A config at N = 16, the N = 24 configuration whose full
# path stalls for 13 Newton iterations on a rejected step, and case B.
_LADDER_CONFIGS = (
    RunConfig(),
    RunConfig(N=24, alpha="-0.5*(1+cos(x1))", f="0.3+0.25*sin(x2)*sin(x3)"),
    RunConfig(case="B", alpha="-0.3", f="0"),
)


def test_ladder_lands_on_the_single_grid_solution(monkeypatch):
    """On each of _LADDER_CONFIGS the ladder's u at t = 1 equals the full
    single-grid path's to 1e-12 (9.7e-18, 8.5e-14 and 2.1e-17 when
    measured). Its rows are the coarsest path's before t = 1, then one
    t = 1 row monitored on the configured grid, steps numbered in order,
    whose newton_iters column sums to every level's iterations and to the
    Newton iterations the ladder ran (no step is rejected here). Only the
    rows the trace keeps are monitored."""
    iterations, monitored = [], []
    monkeypatch.setattr(sigmak.solver, "linearize", lambda *args, **kw:
                        iterations.append(1) or linearize(*args, **kw))
    monkeypatch.setattr(sigmak.solver, "monitor", lambda *args:
                        monitored.append(1) or monitor(*args))
    for cfg in _LADDER_CONFIGS:
        spec = cfg.problem()
        full = continue_path(spec, cfg.schedule())
        iterations.clear()
        monitored.clear()
        ladder, levels = _ladder(cfg)
        assert sum(row.newton_iters for row in ladder.rows) == len(iterations)
        u = ladder.final_state.u
        assert u.grid == spec.grid, cfg
        assert np.abs(u.values - full.final_state.u.values).max() <= 1e-12
        assert [level.grid.N for level, _ in levels] \
            == ladder_levels(cfg.N, 0.0)
        assert levels[-1][0] is u
        rows = ladder.rows
        assert len(monitored) == len(rows) + 1
        assert [row.step for row in rows] == list(range(len(rows)))
        assert all(a.t < b.t for a, b in zip(rows, rows[1:]))
        assert rows[-1].t == 1.0
        assert sum(row.newton_iters for row in rows) \
            == sum(iters for _, iters in levels)
        assert rows[-1].sup_u == u.max_abs()
        assert rows[-1].cone_margin == ladder.final_state.cone_margin
        assert ladder.ellipticity == ellipticity_certificate(
            ladder.final_state)


def test_ladder_starts_each_level_from_the_extrapolated_prolongation(
        monkeypatch):
    """On N = 32 (levels 8, 16, 32) the N = 16 level starts from the
    prolonged N = 8 solution and the N = 32 level from P u_16 +
    (P u_16 - P u_8) / 4, each one correction at t = 1 after the path's
    two on N = 8 (its anchor at t = 0 and its one step to t = 1)."""
    calls = _spy_on_corrections(monkeypatch)
    _ladder(RunConfig(N=32, f="0.7+0.3*sin(x1)"))
    (t16, start16, u16), (t32, start32, _) = calls[-2:]
    assert len(calls) == 4 and calls[-3][0] == 1.0
    assert (t16, t32) == (1.0, 1.0)
    u8 = calls[-3][2]
    grid16, grid32 = Grid(3, 16), Grid(3, 32)
    assert np.array_equal(start16.values, prolong(u8, grid16).values)
    fine, coarse = prolong(u16, grid32).values, prolong(u8, grid32).values
    assert np.array_equal(start32.values, fine + 0.25 * (fine - coarse))


def test_a_refined_trace_audits_the_state_it_ends_on():
    """The trace's audit follows its final_state: a path whose N = 8 audit
    was read has none once refine frees that state, and once ended on the
    N = 16 state it audits that one, as does a path ended on it while its
    own state's audit is kept."""
    cfg = RunConfig()
    trace = continue_path(cfg.problem(Grid(3, 8)), cfg.schedule())
    coarse = trace.ellipticity
    assert coarse == ellipticity_certificate(trace.final_state)
    levels, (sd, iters, rnorm) = refine(trace, cfg.problem, [Grid(3, 16)],
                                        cfg.schedule())
    assert trace.final_state is None and trace.ellipticity is None
    trace.end_on(sd, iters, rnorm)
    assert trace.final_state is sd
    assert trace.ellipticity == ellipticity_certificate(sd) != coarse
    audited = continue_path(cfg.problem(Grid(3, 8)), cfg.schedule())
    assert audited.ellipticity == coarse
    audited.end_on(sd, iters, rnorm)
    assert audited.ellipticity == trace.ellipticity


def test_refine_validates_each_grid_before_its_newton_solve(monkeypatch):
    """A finer grid whose problem fails validation (alpha = 0.05 - 0.1
    cos(4 x1)^2 is -0.05 on every N = 8 node and +0.05 on the odd N = 16
    nodes) raises ValidationError before any Newton step runs there."""
    cfg = RunConfig(alpha="0.05-0.1*cos(4*x1)^2")
    trace = continue_path(cfg.problem(Grid(3, 8)), cfg.schedule())
    calls = _spy_on_corrections(monkeypatch)
    with pytest.raises(ValidationError, match="alpha <= 0"):
        refine(trace, cfg.problem, [Grid(3, 16)], cfg.schedule())
    assert calls == []


def test_laddered_solve_peaks_no_higher_than_the_single_grid_solve(
        monkeypatch):
    """At n = 4, N = 16 (levels 8 and 16) refine frees the path's state
    before the N = 16 grid builds its own: no state of the N = 8 problem is
    alive when the N = 16 correction starts, and the ladder's tracemalloc
    peak is at most the single-grid path's and under peak_bytes(4, 16)."""
    cfg = RunConfig(n=4, N=16, f="0.7+0.3*sin(x1)")
    spec, coarse = cfg.problem(), cfg.problem(Grid(4, 8))
    alive = []

    def count_coarse_states():
        gc.collect()
        alive.append(sum(isinstance(obj, StateData) and obj.spec is coarse
                         for obj in gc.get_objects()))

    def ladder():
        trace = continue_path(coarse, cfg.schedule())
        refine(trace, lambda grid: spec, [spec.grid], cfg.schedule())

    with monkeypatch.context() as patched:
        calls = _spy_on_corrections(patched, count_coarse_states)
        ladder()
    assert [t for t, _, _ in calls[-2:]] == [1.0, 1.0]
    assert alive[0] == alive[-1] == 0

    peaks = []
    for run in (lambda: continue_path(spec, cfg.schedule()), ladder):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    single, laddered = peaks
    assert laddered <= single, peaks
    assert laddered < peak_bytes(4, 16), peaks
