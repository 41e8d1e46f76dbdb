"""Shared oracles and builders for the test suite.

The brute-force subset enumeration below is the independent reference for
every sigma_k computation: it implements the definition (sum over k-element
subsets of eigenvalue products) with no shared code path with the package's
coefficient recurrences.
"""

import math
from itertools import combinations

import numpy as np

from sigmak import Grid, ProblemSpec


def brute_sigma(lam, k: int) -> float:
    """sigma_k by direct subset enumeration (the definition)."""
    lam = np.asarray(lam, dtype=float)
    if k == 0:
        return 1.0
    if k > lam.size:
        return 0.0
    return float(sum(math.prod(c) for c in combinations(lam.tolist(), k)))


def brute_sigma_all(lam, kmax: int) -> np.ndarray:
    return np.array([brute_sigma(lam, j) for j in range(kmax + 1)])


def canonical_problem(case: str = "A", n: int = 3, k: int = 3,
                      N: int = 16, alpha: str | None = None,
                      f: str | None = None) -> ProblemSpec:
    """The constant-coefficient model problems used throughout the suite,
    on the canonical background."""
    grid = Grid(n, N)
    if case == "A":
        alpha = "-0.1" if alpha is None else alpha
        f = "0.7" if f is None else f
    elif case == "B":
        alpha = repr(-1.0 / 3.0) if alpha is None else alpha
        f = "0" if f is None else f
    else:
        alpha = "-0.05" if alpha is None else alpha
        f = "1" if f is None else f
    return ProblemSpec.build(case, n, k, grid, alpha=alpha, f=f)


def matmul_sigma_and_dsigma(mats, k: int):
    """Test-only reference for the Faddeev-LeVerrier recurrence on matrices
    stacked on the last two axes, written with whole-matrix products:
    T_0 = I, sigma_j = tr(M T_{j-1})/j, T_j = sigma_j I - M T_{j-1}.
    Returns (sigma_0..sigma_k on a last axis, T_{k-1}, T_{k-2}), each T
    symmetrized as 0.5 (T + T^T) and T_{-1} = None."""
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    sig = np.zeros(mats.shape[:-2] + (k + 1,))
    sig[..., 0] = 1.0
    t_prev, t_last = None, np.broadcast_to(np.eye(n), mats.shape).copy()
    for j in range(1, k + 1):
        prod = np.matmul(mats, t_last)
        sig[..., j] = np.trace(prod, axis1=-2, axis2=-1) / j
        if j < k:
            t_prev, t_last = t_last, sig[..., j, None, None] * np.eye(n) - prod

    def sym(t):
        return None if t is None else 0.5 * (t + np.swapaxes(t, -1, -2))

    return sig, sym(t_last), sym(t_prev)
