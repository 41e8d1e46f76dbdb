"""Case A end to end: from the closed-form start to the target equation.

The homotopy starts at t=0, where u = 0 solves the equation exactly, and
walks t to 1 with adaptive steps. Each accepted step is a damped Newton
solve kept strictly inside the admissibility cone, and the trace records
residuals, cone margins, and the a priori quantities the estimates bound.
The default schedule tries t = 1 in one step (dt_init = dt_max = 1) and
halves a step only if its corrector fails; the walked schedule below
ramps from dt_init = 0.1 under dt_max = 0.25. Both land on the same
discrete solution. The canonical constant-coefficient problem is chosen so
that the t=1 solution is again u = 0, which the final residual confirms;
a non-constant f shows the two schedules agreeing on a non-trivial u.
"""

import numpy as np

from sigmak import Grid, ProblemSpec, Schedule, continue_path
from sigmak.operators import c0_diagnostic, residual
from sigmak.report import run_checks

grid = Grid(n=3, N=16)
spec = ProblemSpec.build("A", 3, 3, grid, alpha="-0.1", f="0.7")
spec.validate(strict=True)

WALKED = Schedule(dt_init=0.1, dt_max=0.25)


def compare(problem, label):
    """Solve problem under the walked and the default schedule and print
    the steps, the Newton iterations and the max difference of the two
    t = 1 fields."""
    walked, default = continue_path(problem, WALKED), continue_path(problem)
    gap = np.abs(walked.final_state.u.values
                 - default.final_state.u.values).max()
    for name, path in (("walked", walked), ("default", default)):
        print(f"{label}, {name} schedule: {len(path.rows) - 1} step(s), "
              f"{sum(row.newton_iters for row in path.rows)} Newton "
              f"iterations")
    print(f"{label}: max |u_walked - u_default| = {gap:.1e}")
    return walked, default


walked, trace = compare(spec, "f = 0.7")
print("walked schedule (dt_init = 0.1, dt_max = 0.25):")
print(walked.to_csv())
print("default schedule (dt_init = dt_max = 1):")
print(trace.to_csv())
compare(ProblemSpec.build("A", 3, 3, grid, alpha="-0.1",
                          f="0.7+0.3*sin(x1)"), "f = 0.7 + 0.3 sin(x1)")
print()

final = trace.final_state
print(f"reached t = {final.t}")
print(f"sup |u|   = {final.u.max_abs():.3e}  (constant-coefficient "
      f"problem, exact answer 0)")
# The trace keeps the StateData of the state it ended on; the residual and
# the audits below read it.
print(f"residual  = {residual(final).max_abs():.3e}")

# The C0 comparison diagnostic re-runs the maximum-principle argument at
# the final state: the quotient at the max of u must not exceed the value
# obtained after dropping the Hessian terms.
diag = c0_diagnostic(final)
print()
print(*diag.to_lines(), sep="\n")

# And the bundled report evaluates every configured check on the trace.
report = run_checks(trace, spec)
print()
print(report.to_text())
