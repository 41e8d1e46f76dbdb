"""Scalar fields on the periodic box, from text expressions to derivatives.

Coefficients like alpha(x) and f(x) enter through a tiny expression language
(variables x1..xn, arithmetic, sin/cos/exp/log/sqrt/abs). Fields live on a
uniform N^n grid over [0, 2pi)^n with periodic wraparound, and the package
differentiates them two ways: second-order centered stencils (what the
solver's Jacobian uses) and FFT spectral derivatives (exact for band-limited
fields, used to manufacture forcings without truncation error).
"""

import numpy as np

from sigmak import Grid, parse, sample, sample_text, to_string
from sigmak.grid import derivatives, spectral_derivatives

# Parse once, inspect, evaluate anywhere.
ast = parse("0.5*sin(x1)*cos(x2) + 0.1*exp(-x3)", n=3)
print(f"parsed:      {to_string(ast)}")
print(f"round trip:  {to_string(parse(to_string(ast), n=3))}")

grid = Grid(n=3, N=32)
print(f"\ngrid: n={grid.n} N={grid.N} h={grid.h:.6f} nodes={grid.size}")

u = sample(ast, grid)
print(f"sampled field: sup|u| = {u.max_abs():.6f}")

# Stencil versus spectral gradient on a smooth field. Both routes return
# the gradient and the Hessian together, as (n,) and (n, n) + grid.shape.
g_stencil, _ = derivatives(u)
g_spectral, _ = spectral_derivatives(u)
diff = np.abs(g_stencil - g_spectral).max()
print(f"\nmax |stencil grad - spectral grad| = {diff:.3e}")
print("(second-order stencil error, O(h^2) ~ "
      f"{grid.h ** 2:.3e} for O(1) third derivatives)")


def laplacian(field):
    """The discrete Laplacian: the trace of the stencil Hessian."""
    return np.trace(derivatives(field)[1], axis1=0, axis2=1)


# The Laplacian of sin(x1) is -sin(x1); check the discrete version.
s = sample_text("sin(x1)", grid)
err = np.abs(laplacian(s) + s.values).max()
print(f"\nsup |Delta_h sin(x1) + sin(x1)| = {err:.3e}")

# Refining the grid shows the O(h^2) signature.
for N in (16, 32, 64):
    g2 = Grid(3, N)
    s2 = sample_text("sin(x1)", g2)
    e2 = np.abs(laplacian(s2) + s2.values).max()
    print(f"  N={N:3d}: error = {e2:.6e}")
