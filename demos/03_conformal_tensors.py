"""The curvature tensors behind the equation, and their cone audits.

A conformal factor u turns a flat background metric into g = e^{2u} g0
(cases A and B) or g = e^{-2u} g0 (case C). The equation constrains the
eigenvalues of a tensor built from u's derivatives and the background
curvature: V = t U + (1-t) tr(U) I interpolates between a pure trace
equation at t=0 (solved by u = 0 in closed form) and the target equation at
t=1. This script builds the tensors at a few states and audits where they
sit relative to the admissibility cone.

The builders take the derivatives of u (stencil ones here) and return
symmetric matrix fields stored packed, as sigmak.symfunc defines: shape
(n(n+1)/2,) + grid.shape, one grid plane per independent entry, the
diagonal entries first. unpack gives the full (n, n) + grid.shape stack,
and np.moveaxis the per-node matrices that eigvalsh takes.
"""

import numpy as np

from sigmak import Grid, ProblemSpec, canonical_background, sample_text
from sigmak.curvature import build_u_tensor, build_v_tensor, build_w_tensor
from sigmak.grid import derivatives
from sigmak.symfunc import in_gamma, unpack

grid = Grid(n=3, N=16)
# Case A reads Ric_{g0}; the canonical one is -identity.
spec = ProblemSpec.build("A", 3, 3, grid, alpha="-0.1", f="0.7",
                         background=canonical_background("A", 3))
report = spec.validate(strict=True)
print("problem:", *report.to_lines()[:6], sep="\n  ")

# At u = 0 and t = 0 the tensor V is a known multiple of the identity.
grad0, hess0 = derivatives(sample_text("0", grid))
mats = build_v_tensor(build_u_tensor(hess0, grad0, 0.0, spec), 0.0)
origin = unpack(mats[:, 0, 0, 0])
print(f"\nV(u=0, t=0), packed shape {mats.shape}, at the origin:\n{origin}")
print("eigenvalues everywhere equal, cone report:",
      in_gamma(np.linalg.eigvalsh(origin), 3))


def node_eigenvalues(tensor):
    """Eigenvalues at every node, stacked on a last axis."""
    return np.linalg.eigvalsh(np.moveaxis(unpack(tensor), (0, 1), (-2, -1)))



# A nonzero u bends the spectrum; t = 1 is the real equation.
u = sample_text("0.05*sin(x1)*cos(x2)", grid)
grad_u, hess_u = derivatives(u)
for t in (0.0, 0.5, 1.0):
    v = build_v_tensor(build_u_tensor(hess_u, grad_u, t, spec), t)
    eigs = node_eigenvalues(v)
    margins = np.array([in_gamma(e, 2).margin
                        for e in eigs.reshape(-1, 3)])
    print(f"t={t:3.1f}: eig range [{eigs.min():+.4f}, {eigs.max():+.4f}], "
          f"worst Gamma_2 margin {margins.min():+.4f}")

# Case C works with W and the inverted conformal factor.
# Case C reads the Schouten tensor A_{g0}; the canonical one is +identity.
specC = ProblemSpec.build("C", 3, 3, grid, alpha="-0.05", f="1",
                          background=canonical_background("C", 3))
w = build_w_tensor(hess_u, grad_u, specC)
eigs = node_eigenvalues(w)
print(f"\ncase C tensor W: eig range [{eigs.min():+.4f}, {eigs.max():+.4f}]")
