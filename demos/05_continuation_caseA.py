"""Case A end to end: from the closed-form start to the target equation.

The homotopy starts at t=0, where u = 0 solves the equation exactly, and
walks t to 1 with adaptive steps. Each accepted step is a damped Newton
solve kept strictly inside the admissibility cone, and the trace records
residuals, cone margins, and the a priori quantities the estimates bound.
The canonical constant-coefficient problem below is chosen so that the
t=1 solution is again u = 0, which the final residual confirms.
"""

import numpy as np

from sigmak import Grid, ProblemSpec, Schedule, continue_path
from sigmak.operators import c0_diagnostic, residual
from sigmak.report import run_checks

grid = Grid(n=3, N=16)
spec = ProblemSpec.build("A", 3, 3, grid, alpha="-0.1", f="0.7")
spec.validate(strict=True)

trace = continue_path(spec, Schedule())
print(trace.to_csv())

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
