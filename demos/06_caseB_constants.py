"""Case B: zero forcing, negative coefficient, constant solutions on demand.

With f = 0 the equation becomes sigma_k(V) = q(x) sigma_{k-1}(V), where
q = -alpha > 0, and for constant q on the flat background with ric0 = -g0
there is a constant solution u = c with e^{2c} = 1 / (3 q) when n = k = 3.
Two choices of alpha make the answer c = 0 and c = 1 exactly, and the
continuation path lands on both to high accuracy. These closed-form targets
double as the package's strongest end-to-end oracles.
"""

import math

import numpy as np

from sigmak import Grid, ProblemSpec, Schedule, continue_path

grid = Grid(n=3, N=16)

for label, alpha, expected_c in (
        ("c = 0", -1.0 / 3.0, 0.0),
        ("c = 1", -1.0 / (3.0 * math.e ** 2), 1.0)):
    spec = ProblemSpec.build("B", 3, 3, grid, alpha=repr(alpha), f="0")
    spec.validate(strict=True)
    trace = continue_path(spec, Schedule())
    u = trace.final_state.u.values
    c_measured = float(u.mean())
    spread = float(np.ptp(u))
    print(f"alpha = {alpha:+.12f}  target {label}")
    print(f"  steps             = {len(trace.rows)}")
    print(f"  mean(u) at t=1    = {c_measured:+.12f}")
    print(f"  |mean(u) - c|     = {abs(c_measured - expected_c):.3e}")
    print(f"  spatial spread    = {spread:.3e}  (constant solution)")
    print()
