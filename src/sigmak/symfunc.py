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
  matrix products, each formed on its upper triangle only (M and T_{j-1}
  commute, so the product is symmetric).

The Garding cone Gamma_k = {lambda : sigma_j(lambda) > 0 for 1 <= j <= k}
drives admissibility throughout the package; in_gamma reports membership with
a margin. The two classical inequalities the solver's ellipticity rests on,
the Newton-Maclaurin inequality and the monotonicity of normalized ratios
(sigma_k/C(n,k) / sigma_l/C(n,l))^{1/(k-l)}, are exposed as signed gaps so
they can be sampled and audited.

Spectra are bare arrays, stacked on the last axis. Symmetric matrix fields
are stored packed, and this module defines the layout for the whole
package: a stack of symmetric n x n matrices over a batch shape is an
array of shape (n(n+1)/2,) + batch, one contiguous plane per independent
entry, the n diagonal entries (i, i) first, then the pairs i < j in
np.triu_indices(n, 1) order (the order of grid._stencil_shifts' pair
offsets and of LinearOperator's pair planes). sym_entries lists the entry
of each plane, sym_index maps an entry (a, b) to its plane, and pack and
unpack convert from and to the full stack (n, n) + batch, which exists
only where LAPACK's eigvalsh needs it, at the single-matrix boundary of
sigma_matrix and dsigma_matrix, and where `sigmak check` draws random
matrices. Every step of the recurrence is a pass
over whole planes; sigma_and_dsigma_batch and its sigma-only view
sigma_matrix_planes take packed stacks and return sigma stacks as
(k+1,) + batch. A single packed matrix, (n(n+1)/2,), is the stack with an
empty batch.
"""

from __future__ import annotations

import functools
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
    "sym_entries",
    "sym_index",
    "sym_dim",
    "pack",
    "unpack",
    "full_contraction",
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


@functools.lru_cache(maxsize=8)
def sym_entries(n: int) -> tuple:
    """The entries (rows, cols) of the packed planes of an n x n symmetric
    matrix, in plane order: (i, i) for each i, then (i, j) for the pairs
    i < j in np.triu_indices(n, 1) order. Read-only index arrays."""
    iu, ju = np.triu_indices(n, 1)
    entries = (np.concatenate([np.arange(n), iu]),
               np.concatenate([np.arange(n), ju]))
    for a in entries:
        a.setflags(write=False)
    return entries


@functools.lru_cache(maxsize=8)
def sym_index(n: int) -> np.ndarray:
    """The (n, n) table of the plane that holds entry (a, b) of a packed
    symmetric matrix; symmetric and read-only."""
    rows, cols = sym_entries(n)
    table = np.empty((n, n), dtype=np.intp)
    table[rows, cols] = table[cols, rows] = np.arange(rows.size)
    table.setflags(write=False)
    return table


def sym_dim(planes: int) -> int:
    """The n of a packed stack with `planes` = n(n+1)/2 planes."""
    n = (math.isqrt(8 * planes + 1) - 1) // 2
    if n < 1 or n * (n + 1) // 2 != planes:
        raise DomainError(f"{planes} planes are not a packed symmetric "
                          f"matrix stack")
    return n


def pack(mats) -> np.ndarray:
    """The packed stack (n(n+1)/2,) + batch of a full stack of symmetric
    matrices (n, n) + batch, as a new array; each pair plane is read from
    the upper triangle."""
    mats = np.asarray(mats)
    return mats[sym_entries(mats.shape[0])]


def unpack(planes) -> np.ndarray:
    """The full stack (n, n) + batch of a packed stack, as a new array."""
    planes = np.asarray(planes)
    return planes[sym_index(sym_dim(planes.shape[0]))]


def full_contraction(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_ab x_ab y_ab over all n^2 entries of two packed stacks, so each
    pair plane counts twice: accumulated from zero in row-major entry
    order, which is bitwise the full stacks' np.einsum("ab...,ab...->...")."""
    out = np.zeros(np.broadcast_shapes(x.shape[1:], y.shape[1:]))
    term = np.empty_like(out)
    for p in sym_index(sym_dim(x.shape[0])).ravel():
        np.multiply(x[p, ...], y[p, ...], out=term)
        out += term
    return out


def _commuting_product(x: np.ndarray, y: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The product x y of two packed stacks of symmetric matrices that
    commute matrix by matrix (so the product is symmetric), (n(n+1)/2,) +
    batch, formed on its packed entries only, into out when given: each
    (x y)_ab = sum_c x_ac y_cb accumulated from zero over c in order,
    bitwise the einsum row products of the full stacks (a sum begun at
    the first product would keep -0.0 where every product is -0.0)."""
    n = sym_dim(x.shape[0])
    index = sym_index(n)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape)) if out is None \
        else out
    term = np.empty(out.shape[1:])
    for p, (a, b) in enumerate(zip(*sym_entries(n))):
        entry = out[p, ...]
        entry[...] = 0.0
        for c in range(n):
            np.multiply(x[index[a, c], ...], y[index[c, b], ...], out=term)
            entry += term
    return out


def sigma_and_dsigma_batch(mats: np.ndarray, k: int, out: tuple = None):
    """One Faddeev-LeVerrier pass over a packed stack of symmetric matrices
    (n(n+1)/2,) + batch, returning (sigma_0..k, dsigma_k, dsigma_{k-1}) as
    (k+1,) + batch and two packed stacks. Given out, a pair of arrays
    shaped like the first two (views into larger arrays serve), sigma_0..k
    and dsigma_k are written into them, and they are the ones returned.

    dsigma_k = T_{k-1} and dsigma_{k-1} = T_{k-2}, the latter None for k = 1
    (sigma_0 is constant). The T are fresh arrays, never views of mats or of
    each other, but for a dsigma_k written into out. The recurrence holds
    two buffers, one for the T of odd j and one for those of even j, so
    each product overwrites the T it no longer needs; given out, the
    buffer of T_{k-1}'s parity is out's, and one fresh buffer serves the
    rest. M and T_{j-1} commute, so the product M T_{j-1} is formed on its
    packed entries only (_commuting_product). sigma_j is the sum of the
    product's diagonal planes; only sigma_k, whose product is not needed,
    is the contraction full_contraction(M, T_{k-1}).
    """
    mats = np.asarray(mats, dtype=float)
    n = sym_dim(mats.shape[0])
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    sig, t_out = (np.empty((k + 1,) + mats.shape[1:]), None) \
        if out is None else out
    sig[0] = 1.0
    buffers = {} if t_out is None else {(k - 1) % 2: t_out}
    t_prev = t_last = None
    if k <= 2:   # T_0 = I is returned only then
        t_last = buffers[0] if 0 in buffers else np.empty_like(mats)
        t_last[...] = 0.0
        t_last[:n] = 1.0
    for j in range(1, k):
        target = buffers.get(j % 2)
        # T_j = sigma_j I - M T_{j-1}, with sigma_j = tr(M T_{j-1})/j;
        # T_1 = tr(M) I - M needs no product
        if j == 1:
            t_next = np.negative(mats, out=target)
            np.einsum("i...->...", mats[:n], out=sig[1, ...])
        else:
            t_next = _commuting_product(mats, t_last, target)
            np.einsum("i...->...", t_next[:n], out=sig[j, ...])
            sig[j] /= j
            np.negative(t_next, out=t_next)
        t_next[:n] += sig[j]
        buffers[j % 2] = t_next
        t_prev, t_last = t_last, t_next
    # sigma_k = tr(M T_{k-1})/k, without forming the product (T_{k-1} is
    # symmetric, so the trace is the sum of M_ab T_ab)
    sig[k] = full_contraction(mats, t_last) / k
    return sig, t_last, t_prev


def sigma_matrix_planes(mats: np.ndarray, k: int) -> np.ndarray:
    """sigma_0..sigma_k of the eigenvalues of a packed stack of symmetric
    matrices, (n(n+1)/2,) + batch, as planes (k+1,) + batch."""
    return sigma_and_dsigma_batch(mats, k)[0]


def sigma_matrix(m, k: int) -> float:
    """sigma_k of the eigenvalues of a symmetric matrix, 1 <= k <= n."""
    return float(sigma_matrix_planes(pack(_matrix_values(m)), k)[k])


def dsigma_matrix(m, k: int) -> np.ndarray:
    """Derivative matrix d sigma_k / d M of a symmetric matrix, (n, n): the
    Faddeev-LeVerrier cofactor-like matrix T_{k-1}(M), exactly symmetric,
    contracting against M to k sigma_k (Euler homogeneity)."""
    return unpack(sigma_and_dsigma_batch(pack(_matrix_values(m)), k)[1])


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
