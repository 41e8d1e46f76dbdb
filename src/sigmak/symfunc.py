"""Elementary symmetric polynomial calculus on spectra and symmetric matrices.

sigma_k(lambda) = sum over k-subsets of products of eigenvalues. Everything
here is built on two recurrences that avoid both subset enumeration and
eigendecomposition:

* on spectra, the coefficient recurrence for prod_i (1 + lambda_i x), which
  yields sigma_0..sigma_k in O(n k) operations;
* on symmetric matrices, the Faddeev-LeVerrier trace recurrence
  T_0 = I, sigma_j = tr(M T_{j-1})/j, T_j = sigma_j I - M T_{j-1},
  whose byproduct T_{k-1} is exactly the derivative matrix
  d sigma_k / d M (for diagonal M its diagonal is sigma_{k-1} of the
  deleted spectra). It starts at T_1 = tr(M) I - M, each product
  M T_{j-1} gives sigma_j as its trace, and the last trace tr(M T_{k-1}) is
  one contraction, so sigma_0..sigma_k with T_{k-1} and T_{k-2} cost k-2
  matrix products, each formed on its upper triangle (M and T_{j-1}
  commute) and mirrored.

The Garding cone Gamma_k = {lambda : sigma_j(lambda) > 0 for 1 <= j <= k}
drives admissibility throughout the package; in_gamma reports membership with
a margin. The two classical inequalities the solver's ellipticity rests on,
the Newton-Maclaurin inequality and the monotonicity of normalized ratios
(sigma_k/C(n,k) / sigma_l/C(n,l))^{1/(k-l)}, are exposed as signed gaps so
they can be sampled and audited.

Spectra are bare arrays, stacked on the last axis. Matrix stacks are
component-major, shape (n, n) + batch, so that every entry is one
contiguous plane and every step of the recurrence is a pass over whole
planes; sigma_and_dsigma_batch and its sigma-only view sigma_matrix_planes
take that layout and return sigma stacks as (k+1,) + batch. A single
matrix, (n, n), is the stack with an empty batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "ConeReport",
    "sigma",
    "sigma_all",
    "sigma_all_batch",
    "in_gamma",
    "newton_maclaurin_gap",
    "quotient_ratio_gap",
    "sigma_matrix",
    "sigma_matrix_planes",
    "dsigma_matrix",
    "sigma_and_dsigma_batch",
    "sample_gamma",
]


@dataclass(frozen=True)
class ConeReport:
    """Result of a Gamma_k membership test.

    sigmas holds sigma_1..sigma_k; margin = min_j sigma_j and the point is
    inside the (open) cone exactly when the margin is positive.
    """

    k: int
    sigmas: tuple = field(repr=False)
    inside: bool = False
    margin: float = 0.0


def _argmin_node(values: np.ndarray) -> tuple:
    """Index of the minimizing entry, as a tuple of plain ints.

    Ties go to the first occurrence in row-major (C) order, exactly: a
    tolerance would only move the boundary at which roundoff decides. Every
    *_node field is therefore byte-stable across reruns, but where values
    are equal in exact arithmetic and differ in the last bit, a change of
    code version that moves that bit can move the node."""
    idx = np.unravel_index(int(np.argmin(values)), values.shape)
    return tuple(int(i) for i in idx)


def _worst_node(sigmas: np.ndarray, margins: np.ndarray) -> tuple:
    """The node of smallest margin and its ConeReport, from sigma_1..sigma_m
    stacked as planes (m,) + batch and their pointwise minimum margins."""
    node = _argmin_node(margins)
    margin = float(margins[node])
    at_node = tuple(float(x) for x in sigmas[(..., *node)])
    return node, ConeReport(k=sigmas.shape[0], sigmas=at_node,
                            inside=margin > 0.0, margin=margin)


def _stacked_spectra(spec) -> np.ndarray:
    """One spectrum (a 1-D array-like) or spectra stacked on the last axis,
    as a float array."""
    vals = np.asarray(spec, dtype=float)
    if vals.ndim < 1:
        raise DomainError("spectra need at least one axis")
    return vals


def _spectrum_values(spec) -> np.ndarray:
    vals = _stacked_spectra(spec)
    if vals.ndim != 1:
        raise DomainError(f"spectrum must be one-dimensional, got shape {vals.shape}")
    return vals


def _matrix_values(m) -> np.ndarray:
    """One symmetric matrix as a float array; DomainError unless it is
    square, symmetric exactly as stored, and finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"matrix must be square, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise DomainError("matrix must be symmetric exactly as stored")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def sigma_all_batch(lams: np.ndarray, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of spectra stacked on the last axis.

    Returns an array of shape lams.shape[:-1] + (kmax+1,) in the floating
    dtype of lams (float64 for integer input; longdouble stays longdouble).
    This is the coefficient recurrence for prod_i (1 + lambda_i x): exact in
    exact arithmetic, O(n kmax) flops per spectrum.
    """
    lams = np.asarray(lams)
    lams = lams.astype(np.result_type(lams.dtype, np.float64), copy=False)
    n = lams.shape[-1]
    if not 0 <= kmax <= n:
        raise DomainError(f"k must lie in [0, {n}], got {kmax}")
    out = np.zeros(lams.shape[:-1] + (kmax + 1,), dtype=lams.dtype)
    out[..., 0] = 1.0
    for i in range(n):
        lam_i = lams[..., i]
        for j in range(min(i + 1, kmax), 0, -1):
            out[..., j] += lam_i * out[..., j - 1]
    return out


def sigma(spec, k: int) -> float:
    """The k-th elementary symmetric polynomial of a spectrum (sigma_0 = 1)."""
    return float(sigma_all_batch(_spectrum_values(spec), k)[k])


def sigma_all(spec, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of a single spectrum, as a 1-D array."""
    return sigma_all_batch(_spectrum_values(spec), kmax)


def in_gamma(spec, k: int) -> ConeReport:
    """Test lambda in Gamma_k = {sigma_j > 0, 1 <= j <= k}, with margin."""
    vals = _spectrum_values(spec)
    n = vals.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    sigmas = sigma_all_batch(vals, k)[1:]
    margin = float(sigmas.min())
    return ConeReport(k=k, sigmas=tuple(float(s) for s in sigmas),
                      inside=margin > 0.0, margin=margin)


def _scalar_or_array(values):
    return float(values) if np.ndim(values) == 0 else values


def newton_maclaurin_gap(spec, k: int, l: int):
    """Signed slack of the Newton-Maclaurin inequality

        k (n-l+1) sigma_{l-1} sigma_k  <=  l (n-k+1) sigma_l sigma_{k-1},

    returned as RHS - LHS (sigma_{-1} taken as 0). Nonnegative whenever
    lambda lies in Gamma_k; not asserted outside the cone. For spectra
    stacked on the last axis the gaps come back as an array over the
    leading axes; for one spectrum, as a float.
    """
    vals = _stacked_spectra(spec)
    n = vals.shape[-1]
    if not 0 <= l < k <= n:
        raise DomainError(f"need 0 <= l < k <= {n}, got k={k}, l={l}")
    sig = sigma_all_batch(vals, k)
    below = sig[..., l - 1] if l >= 1 else 0.0
    rhs = l * (n - k + 1) * sig[..., l] * sig[..., k - 1]
    lhs = k * (n - l + 1) * below * sig[..., k]
    return _scalar_or_array(rhs - lhs)


def quotient_ratio_gap(spec, k: int, l: int, r: int, s: int):
    """Signed slack of the normalized-ratio monotonicity

        [ (sigma_k/C(n,k)) / (sigma_l/C(n,l)) ]^{1/(k-l)}
            <= [ (sigma_r/C(n,r)) / (sigma_s/C(n,s)) ]^{1/(r-s)},

    returned as the (r,s) ratio minus the (k,l) ratio. Only defined on
    Gamma_k, where every sigma involved is positive; DomainError if any
    spectrum lies outside. Stacked spectra give an array, one spectrum a
    float.
    """
    vals = _stacked_spectra(spec)
    n = vals.shape[-1]
    if not (k > l >= 0 and r > s >= 0 and k >= r and l >= s and k <= n):
        raise DomainError(
            f"need k>l>=0, r>s>=0, k>=r, l>=s within n={n}; got {(k, l, r, s)}")
    sig = sigma_all_batch(vals, k)
    margin = float(sig[..., 1:].min())
    if not margin > 0.0:
        raise DomainError(
            f"ratio monotonicity is only asserted on Gamma_{k}; "
            f"margin was {margin:.3e}")

    def ratio(a: int, b: int):
        num = sig[..., a] / math.comb(n, a)
        den = sig[..., b] / math.comb(n, b)
        return (num / den) ** (1.0 / (a - b))

    return _scalar_or_array(ratio(r, s) - ratio(k, l))


def _diag(mats: np.ndarray) -> np.ndarray:
    """The diagonal planes of a component-major stack as a view, shape
    (n,) + batch; writeable when mats is, so isotropic terms can be added in
    place."""
    return np.einsum("ii...->i...", mats)


def sigma_and_dsigma_batch(mats: np.ndarray, k: int):
    """One Faddeev-LeVerrier pass over a component-major stack of symmetric
    matrices (n, n) + batch, returning (sigma_0..k, dsigma_k, dsigma_{k-1})
    as (k+1,) + batch and two (n, n) + batch stacks, both exactly symmetric.

    dsigma_k = T_{k-1} and dsigma_{k-1} = T_{k-2}, the latter None for k = 1
    (sigma_0 is constant). The T are fresh arrays, never views of mats or of
    each other; the recurrence holds at most two of them, writing each
    product into the buffer of the T it no longer needs. M and T_{j-1}
    commute, so each product M T_{j-1} is formed on its upper triangle, one
    row of planes per einsum, and mirrored: every T is exactly symmetric.
    sigma_j is the sum of the product's diagonal planes; only sigma_k, whose
    product is not needed, is one contraction sum of M_ab T_ab.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    sig = np.empty((k + 1,) + mats.shape[2:])
    sig[0] = 1.0
    t_prev = t_last = None
    if k <= 2:   # T_0 = I is returned only then
        t_last = np.zeros_like(mats)
        _diag(t_last)[...] = 1.0
    for j in range(1, k):
        # T_j = sigma_j I - M T_{j-1}, with sigma_j = tr(M T_{j-1})/j;
        # T_1 = tr(M) I - M needs no product
        if j == 1:
            t_next = np.negative(mats)
            np.einsum("ii...->...", mats, out=sig[1, ...])
        else:
            t_next = np.empty_like(mats) if t_prev is None else t_prev
            for a in range(n):
                np.einsum("c...,cb...->b...", mats[a], t_last[:, a:],
                          out=t_next[a, a:])
                t_next[a + 1:, a] = t_next[a, a + 1:]
            np.einsum("ii...->...", t_next, out=sig[j, ...])
            sig[j] /= j
            np.negative(t_next, out=t_next)
        diag = _diag(t_next)
        diag += sig[j]
        t_prev, t_last = t_last, t_next
    # sigma_k = tr(M T_{k-1})/k, without forming the product (T_{k-1} is
    # symmetric, so the trace is the sum of M_ab T_ab)
    np.einsum("ab...,ab...->...", mats, t_last, out=sig[k, ...])
    sig[k] /= k
    return sig, t_last, t_prev


def sigma_matrix_planes(mats: np.ndarray, k: int) -> np.ndarray:
    """sigma_0..sigma_k of the eigenvalues of a component-major stack of
    symmetric matrices, shape (n, n) + batch, as planes (k+1,) + batch."""
    return sigma_and_dsigma_batch(mats, k)[0]


def sigma_matrix(m, k: int) -> float:
    """sigma_k of the eigenvalues of a symmetric matrix, 1 <= k <= n."""
    return float(sigma_matrix_planes(_matrix_values(m), k)[k])


def dsigma_matrix(m, k: int) -> np.ndarray:
    """Derivative matrix d sigma_k / d M of a symmetric matrix: the
    Faddeev-LeVerrier cofactor-like matrix T_{k-1}(M), exactly symmetric,
    contracting against M to k sigma_k (Euler homogeneity)."""
    return sigma_and_dsigma_batch(_matrix_values(m), k)[1]


def sample_gamma(n: int, k: int, count: int, rng: np.random.Generator,
                 min_margin: float = 0.0) -> np.ndarray:
    """Rejection-sample `count` spectra from Gamma_k.

    Proposals are uniform on the cube [-1, 3]^n; a sample is kept when
    min_j sigma_j exceeds min_margin. Returns shape (count, n); a count of
    0 draws nothing, and a negative count raises DomainError.
    """
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    kept = [np.empty((0, n))]
    total = 0
    while total < count:
        block = rng.uniform(-1.0, 3.0, size=(max(count, 256), n))
        sig = sigma_all_batch(block, k)[..., 1:]
        good = block[sig.min(axis=-1) > min_margin]
        kept.append(good)
        total += good.shape[0]
    return np.concatenate(kept, axis=0)[:count]
