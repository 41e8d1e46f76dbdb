"""Manufactured solutions: measuring the stencil's convergence order.

Pick a smooth u*, evaluate the full nonlinear operator at u* with spectral
(truncation-free) derivatives, and call the result f. Then u* solves the
equation with that forcing exactly in the continuum, and the discrete
solver's deviation from u* is pure finite-difference error. Halving h
should divide the error by about four; the observed order confirms the
second-order stencils compose cleanly through the nonlinearity.
"""

import math

import numpy as np

from sigmak import Grid, ProblemSpec, sample_text
from sigmak.operators import manufactured_forcing
from sigmak.solver import solve_caseC

errors = {}
for N in (16, 32):
    grid = Grid(n=3, N=N)
    base = ProblemSpec.build("C", 3, 3, grid, alpha="-0.05", f="1")
    star = sample_text("0.1*sin(x1)*cos(x2)", grid)
    f_field = manufactured_forcing(star, 1.0, base)
    spec = base.with_f_field(f_field)
    spec.validate(strict=True)
    sd, iters, _ = solve_caseC(spec)
    errors[N] = float(np.abs(sd.u.values - star.values).max())
    print(f"N = {N:2d}: sup |u_h - u*| = {errors[N]:.6e} "
          f"(newton iters {iters})")

order = math.log2(errors[16] / errors[32])
print(f"\nobserved convergence order = {order:.4f}  (expected ~2)")
