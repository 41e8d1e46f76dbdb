"""Numerical certificates: ellipticity and concavity, audited, not assumed.

The continuation argument needs the linearized operator to be elliptic with
a uniform trace lower bound, and the scalar map behind the quotient form to
be concave along the homotopy family. Both facts are theorems inside the
cone; the package re-derives them numerically at every state it visits and
over randomized samples, and fails loudly when a hypothesis is violated.
"""

import numpy as np

from sigmak import (Grid, ProblemSpec, ScalarField,
                    concavity_certificate, ellipticity_certificate,
                    prepare_state)
from sigmak.grid import random_smooth_field

grid = Grid(n=3, N=16)
spec = ProblemSpec.build("A", 3, 3, grid, alpha="-0.1", f="0.7")

# Ellipticity at the homotopy start: everything is explicit there. The
# audit reads the state's cached fields, built once by prepare_state.
u0 = ScalarField.zeros(grid)
cert = ellipticity_certificate(prepare_state(u0, 0.0, spec))
print(*cert.to_lines(), sep="\n")

# The same audit at a bent state midway along the path.
rng = np.random.default_rng(3)
u = random_smooth_field(grid, rng, amplitude=0.02)
cert = ellipticity_certificate(prepare_state(u, 0.6, spec))
print()
print(*cert.to_lines(), sep="\n")

# Concavity is a statement about the scalar symbol G = (sigma_k - h) /
# sigma_{k-1} on matrix lines through the cone; the certificate samples
# spectra, line directions, and homotopy weights.
print()
conc = concavity_certificate(spec, samples=2000, seed=11)
print(*conc.to_lines(), sep="\n")
