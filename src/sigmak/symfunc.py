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
  deleted spectra). It starts at T_1 = tr(M) I - M, and each trace
  tr(M T_{j-1}) is one contraction, so the product M T_{j-1} is formed only
  when T_j is needed: sigma_0..sigma_k with T_{k-1} and T_{k-2} cost k-2
  stacked matrix products.

The Garding cone Gamma_k = {lambda : sigma_j(lambda) > 0 for 1 <= j <= k}
drives admissibility throughout the package; in_gamma reports membership with
a margin. The two classical inequalities the solver's ellipticity rests on,
the Newton-Maclaurin inequality and the monotonicity of normalized ratios
(sigma_k/C(n,k) / sigma_l/C(n,l))^{1/(k-l)}, are exposed as signed gaps so
they can be sampled and audited.

All functions accept either a Spectrum/SymMatrix wrapper or a bare array-like.
Batched variants (trailing-axis spectra, stacked matrices) are provided for
grid-sized workloads and are used by the operator and solver layers; the two
inequality gaps take spectra stacked on the last axis as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Spectrum",
    "SymMatrix",
    "ConeReport",
    "sigma",
    "sigma_all",
    "sigma_batch",
    "sigma_all_batch",
    "sigma_minor",
    "in_gamma",
    "newton_maclaurin_gap",
    "quotient_ratio_gap",
    "sigma_matrix",
    "sigma_matrix_batch",
    "sigma_matrix_all_batch",
    "dsigma_matrix",
    "dsigma_matrix_batch",
    "sigma_and_dsigma_batch",
    "sample_gamma",
]


@dataclass(frozen=True)
class Spectrum:
    """An unordered tuple of n real eigenvalues; n >= 3."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 3:
            raise DomainError(f"spectrum needs at least 3 entries, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("spectrum entries must be finite")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SymMatrix:
    """A symmetric n x n matrix; symmetry is required exactly as stored."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"matrix must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise DomainError("matrix must be symmetric exactly as stored")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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


def _stacked_spectra(spec) -> np.ndarray:
    """One spectrum (Spectrum or 1-D array-like) or spectra stacked on the
    last axis, as a float array."""
    if isinstance(spec, Spectrum):
        return np.asarray(spec.values, dtype=float)
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
    if isinstance(m, SymMatrix):
        return m.entries
    return SymMatrix(np.asarray(m, dtype=float)).entries


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


def sigma_batch(lams: np.ndarray, k: int) -> np.ndarray:
    """sigma_k of spectra stacked on the last axis."""
    return sigma_all_batch(lams, k)[..., k]


def sigma(spec, k: int) -> float:
    """The k-th elementary symmetric polynomial of a spectrum (sigma_0 = 1)."""
    return float(sigma_batch(_spectrum_values(spec), k))


def sigma_all(spec, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of a single spectrum, as a 1-D array."""
    return sigma_all_batch(_spectrum_values(spec), kmax)


def sigma_minor(spec, k: int, i: int) -> float:
    """sigma_k of the spectrum with entry i deleted.

    Satisfies the deletion identity
    sigma_k(lam) = sigma_k(lam|i) + lam_i * sigma_{k-1}(lam|i).
    """
    vals = _spectrum_values(spec)
    n = vals.shape[0]
    if not 0 <= i < n:
        raise DomainError(f"index must lie in [0, {n - 1}], got {i}")
    if not 0 <= k <= n - 1:
        raise DomainError(f"k must lie in [0, {n - 1}] for a deleted spectrum, got {k}")
    return float(sigma_batch(np.delete(vals, i), k))


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
    """The diagonals of stacked square matrices as a view, shape (..., n);
    writeable when mats is, so isotropic terms can be added in place."""
    return np.einsum("...ii->...i", mats)


def _symmetrize(*stacks) -> None:
    """Overwrite each stack of matrices with 0.5 (M + M^T), skipping None;
    the stacks share one scratch array for the transposes."""
    scratch = np.empty_like(stacks[0])
    for mats in stacks:
        if mats is None:
            continue
        np.copyto(scratch, np.swapaxes(mats, -1, -2))
        mats += scratch
        mats *= 0.5


def _fl_recurrence(mats: np.ndarray, kmax: int):
    """Faddeev-LeVerrier up to order kmax on stacked matrices.

    Returns (sig, T_last, T_prev) where sig has shape batch + (kmax+1,),
    T_last = T_{kmax-1} and T_prev = T_{kmax-2} (None when out of range).
    The T are fresh arrays, never views of mats or of each other; the
    recurrence holds at most two of them, reusing the older one's buffer.
    """
    n = mats.shape[-1]
    if not 0 <= kmax <= n:
        raise DomainError(f"k must lie in [0, {n}], got {kmax}")
    sig = np.zeros(mats.shape[:-2] + (kmax + 1,))
    sig[..., 0] = 1.0
    if kmax == 0:
        return sig, None, None
    # T_0 = I is returned only for kmax <= 2
    t_prev = t_last = None
    if kmax <= 2:
        t_last = np.broadcast_to(np.eye(n), mats.shape).copy()
    np.einsum("...ii->...", mats, out=sig[..., 1])
    for j in range(1, kmax):
        # T_j = sigma_j I - M T_{j-1}; T_1 = sigma_1 I - M needs no product
        # T_{j-2} is not needed again, so its buffer takes the product
        if j == 1:
            t_next = np.negative(mats)
        else:
            t_next = np.matmul(mats, t_last, out=t_prev)
            np.negative(t_next, out=t_next)
        diag = _diag(t_next)
        diag += sig[..., j, None]
        t_prev, t_last = t_last, t_next
        # sigma_{j+1} = tr(M T_j)/(j+1), without forming M T_j
        np.einsum("...ij,...ji->...", mats, t_last, out=sig[..., j + 1])
        sig[..., j + 1] /= j + 1
    return sig, t_last, t_prev


def sigma_matrix_all_batch(mats: np.ndarray, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of the eigenvalues of stacked symmetric matrices,
    without eigendecomposition (trace recurrence)."""
    sig, _, _ = _fl_recurrence(np.asarray(mats, dtype=float), kmax)
    return sig


def sigma_matrix_batch(mats: np.ndarray, k: int) -> np.ndarray:
    return sigma_matrix_all_batch(mats, k)[..., k]


def sigma_matrix(m, k: int) -> float:
    """sigma_k of the eigenvalues of a symmetric matrix."""
    return float(sigma_matrix_batch(_matrix_values(m), k))


def dsigma_matrix_batch(mats: np.ndarray, k: int) -> np.ndarray:
    """d sigma_k / d M for stacked symmetric matrices.

    This is the Faddeev-LeVerrier cofactor-like matrix T_{k-1}(M); it is
    symmetric for symmetric M (symmetrized here to kill roundoff skew) and
    contracts against M to k sigma_k (Euler homogeneity).
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    _, t_last, _ = _fl_recurrence(mats, k)
    _symmetrize(t_last)
    return t_last


def dsigma_matrix(m, k: int) -> SymMatrix:
    """Derivative matrix of sigma_k at a symmetric matrix."""
    d = dsigma_matrix_batch(_matrix_values(m), k)
    return SymMatrix(d)


def sigma_and_dsigma_batch(mats: np.ndarray, k: int):
    """One recurrence pass returning (sigma_0..k, dsigma_k, dsigma_{k-1}).

    dsigma_{k-1} is None for k = 1 (sigma_0 is constant). Used by the
    operator layer, which needs the pair at every grid node.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    sig, dk, dkm1 = _fl_recurrence(mats, k)
    _symmetrize(dk, dkm1)
    return sig, dk, dkm1


def sample_gamma(n: int, k: int, count: int, rng: np.random.Generator,
                 min_margin: float = 0.0) -> np.ndarray:
    """Rejection-sample `count` spectra from Gamma_k.

    Proposals are uniform on the cube [-1, 3]^n; a sample is kept when
    min_j sigma_j exceeds min_margin. Returns shape (count, n).
    """
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    kept = []
    total = 0
    while total < count:
        block = rng.uniform(-1.0, 3.0, size=(max(count, 256), n))
        sig = sigma_all_batch(block, k)[..., 1:]
        good = block[sig.min(axis=-1) > min_margin]
        kept.append(good)
        total += good.shape[0]
    return np.concatenate(kept, axis=0)[:count]
