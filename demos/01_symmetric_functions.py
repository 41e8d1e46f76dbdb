"""Elementary symmetric polynomials and the cones they carve out.

sigma_k(lambda) sums all k-fold products of the eigenvalues. The open cone
Gamma_k = {sigma_1 > 0, ..., sigma_k > 0} is where the k-th root of sigma_k
behaves like a concave, monotone function, and every structural inequality
the solver relies on holds there. This script computes the polynomials two
independent ways, runs the matrix route over a packed stack of matrices,
then samples the cone and watches the Newton-Maclaurin and
normalized-ratio inequalities hold with strictly positive slack.
"""

import numpy as np

from sigmak import (in_gamma, newton_maclaurin_gap, quotient_ratio_gap,
                    sigma, sigma_matrix)
from sigmak.symfunc import pack, sigma_matrix_planes, sym_entries, unpack

rng = np.random.default_rng(7)

lam = np.array([2.0, 1.0, 0.5, 0.25])
n = lam.size
print(f"spectrum lambda = {lam}")
for k in range(1, n + 1):
    print(f"  sigma_{k} = {sigma(lam, k):.6f}")

# The same values from the matrix route (trace recurrence), no eigensolve.
q, _ = np.linalg.qr(rng.standard_normal((n, n)))
m = q @ np.diag(lam) @ q.T
print("\nconjugated matrix route:")
for k in range(1, n + 1):
    print(f"  sigma_{k}(Q diag Q^T) = {sigma_matrix(m, k):.6f}")

# Stacks of symmetric matrices (the package's tensor fields) are stored
# packed: one plane per independent entry, the n diagonal entries first,
# then the pairs i < j. The recurrence runs over all matrices at once.
rows, cols = sym_entries(n)
print("\npacked plane order:",
      " ".join(f"({i + 1},{j + 1})" for i, j in zip(rows, cols)))
stack = np.stack([m, np.diag(lam)], axis=-1)   # two matrices, batch last
planes = pack(stack)
assert np.array_equal(unpack(planes), stack)
print(f"full stack {stack.shape} -> packed {planes.shape}")
for j, row in enumerate(sigma_matrix_planes(planes, n)[1:], start=1):
    print(f"  sigma_{j} of both matrices = {row[0]:.6f} {row[1]:.6f}")

# Cone membership is a chain of sign conditions, reported with its margin.
inside = in_gamma(lam, 3)
outside = in_gamma(np.array([3.0, 1.0, -1.0, -1.0]), 3)
print(f"\nGamma_3 membership of {lam}: inside={inside.inside} "
      f"margin={inside.margin:.4f}")
print(f"Gamma_3 membership of [3,1,-1,-1]: inside={outside.inside} "
      f"margin={outside.margin:.4f}")

# Newton-Maclaurin: k(n-l+1) sigma_{l-1} sigma_k <= l(n-k+1) sigma_l
# sigma_{k-1} on Gamma_k. Sample the cone and track the worst slack.
worst_nm = np.inf
worst_ratio = np.inf
kept = 0
while kept < 2000:
    lam = rng.uniform(-1.0, 3.0, size=4)
    if not in_gamma(lam, 3).inside:
        continue
    kept += 1
    for l in (1, 2):
        worst_nm = min(worst_nm, newton_maclaurin_gap(lam, 3, l))
    worst_ratio = min(worst_ratio, quotient_ratio_gap(lam, 3, 0, 2, 0))
print(f"\n2000 samples of Gamma_3 in n=4:")
print(f"  worst Newton-Maclaurin slack    = {worst_nm:.6e}  (>= 0)")
print(f"  worst ratio-monotonicity slack  = {worst_ratio:.6e}  (>= 0)")
