"""Symmetric-function layer: recurrences, cones, inequalities, derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_sigma, brute_sigma_all, matmul_sigma_and_dsigma
from sigmak import (Grid, LinearOperator, dsigma_matrix, in_gamma,
                    newton_maclaurin_gap, quotient_ratio_gap, sigma,
                    sigma_matrix)
from sigmak.errors import DomainError
from sigmak.symfunc import (pack, sample_gamma, sigma_all, sigma_all_batch,
                            sigma_and_dsigma_batch, sigma_matrix_planes,
                            sym_dim, sym_entries, sym_index, unpack)


def test_sigma_small_hand_values():
    lam = np.array([1.0, 2.0, 3.0])
    assert sigma(lam, 1) == 6.0
    assert sigma(lam, 2) == 11.0
    assert sigma(lam, 3) == 6.0
    assert sigma_all(lam, 3).tolist() == [1.0, 6.0, 11.0, 6.0]


def test_sigma_identity_spectrum_binomials():
    for n in range(3, 7):
        lam = np.ones(n)
        for k in range(n + 1):
            assert sigma(lam, k) == math.comb(n, k)


def test_sigma_matches_brute_force_randoms():
    rng = np.random.default_rng(42)
    for n in range(3, 7):
        lams = rng.uniform(-3.0, 3.0, size=(50, n))
        got = sigma_all_batch(lams, n)
        for lam, row in zip(lams, got):
            want = brute_sigma_all(lam, n)
            scale = np.maximum(1.0, np.abs(brute_sigma_all(np.abs(lam), n)))
            assert np.all(np.abs(row - want) <= 1e-13 * scale)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-4.0, max_value=4.0,
                          allow_nan=False), min_size=3, max_size=6),
       st.data())
def test_sigma_matches_brute_force_property(lam, data):
    lam = np.array(lam)
    k = data.draw(st.integers(min_value=1, max_value=lam.size))
    got = sigma(lam, k)
    want = brute_sigma(lam, k)
    scale = max(1.0, brute_sigma(np.abs(lam), k))
    assert abs(got - want) <= 1e-13 * scale


def test_sigma_domain_errors():
    lam = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        sigma(lam, -1)
    with pytest.raises(DomainError):
        sigma(lam, 4)


def test_sigma_minor_expansion_identity():
    """sigma_k(lam) = lam_i sigma_{k-1}(lam \\ i) + sigma_k(lam \\ i)."""
    rng = np.random.default_rng(3)
    lam = rng.uniform(-2.0, 2.0, size=5)
    for k in range(1, 6):
        for i in range(5):
            rest = np.delete(lam, i)
            rest_km1 = sigma(rest, k - 1)
            rest_k = sigma(rest, k) if k <= 4 else 0.0
            assert sigma(lam, k) == pytest.approx(
                lam[i] * rest_km1 + rest_k, rel=1e-12, abs=1e-12)


def test_in_gamma_membership_and_margin():
    inside = in_gamma(np.array([2.0, 1.0, 0.5]), 3)
    assert inside.inside and inside.margin == 1.0  # min(3.5, 3.5, 1.0)
    border = in_gamma(np.array([1.0, 1.0, -0.5]), 2)
    assert not border.inside and border.margin == 0.0
    outside = in_gamma(np.array([3.0, 1.0, -1.0]), 3)
    assert not outside.inside and outside.margin == -3.0
    # Gamma_1 only constrains the trace.
    assert in_gamma(np.array([3.0, 1.0, -1.0]), 1).inside


def test_gamma_chain_is_nested():
    rng = np.random.default_rng(8)
    for lam in sample_gamma(4, 4, 64, rng):
        for k in range(1, 5):
            assert in_gamma(lam, k).inside


def test_sample_gamma_count_edges():
    """A count of 0 is an empty (0, n) sample that draws nothing; a
    negative count is a DomainError."""
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    empty = sample_gamma(4, 3, 0, rng)
    assert empty.shape == (0, 4) and empty.dtype == np.float64
    assert rng.bit_generator.state == state
    with pytest.raises(DomainError, match="count must be nonnegative"):
        sample_gamma(4, 3, -1, rng)
    assert sample_gamma(4, 3, 1, rng).shape == (1, 4)


def test_newton_maclaurin_equality_on_diagonal_ray():
    # On lam = c*(1,...,1) the inequality is tight for every (k, l).
    for c in (0.5, 1.0, math.e):
        lam = np.full(4, c)
        for k in range(2, 5):
            for l in range(1, k):
                assert newton_maclaurin_gap(lam, k, l) == pytest.approx(
                    0.0, abs=1e-12)


def test_newton_maclaurin_nonnegative_on_cone():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6):
        for k in range(3, n + 1):
            for lam in sample_gamma(n, k, 200, rng):
                for l in range(1, k):
                    assert newton_maclaurin_gap(lam, k, l) >= -1e-10


def test_newton_maclaurin_can_fail_outside_cone():
    # Informational boundary: part (1) of the lemma is a cone statement.
    lam = np.array([2.0, -1.0, 0.0])
    assert newton_maclaurin_gap(lam, 3, 1) < 0.0


def test_newton_maclaurin_domain_errors():
    lam = np.array([1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        newton_maclaurin_gap(lam, 1, 1)
    with pytest.raises(DomainError):
        newton_maclaurin_gap(lam, 4, 1)


def test_ratio_monotonicity_on_cone():
    rng = np.random.default_rng(6)
    for n in (3, 4, 5):
        for lam in sample_gamma(n, n, 200, rng):
            for j in range(2, n + 1):
                assert quotient_ratio_gap(lam, j, 0, j - 1, 0) >= -1e-10


def test_ratio_gap_rejects_outside_cone():
    with pytest.raises(DomainError):
        quotient_ratio_gap(np.array([3.0, 1.0, -1.0]), 3, 0, 2, 0)
    # A stack is rejected when any one spectrum lies outside.
    with pytest.raises(DomainError):
        quotient_ratio_gap(np.array([[1.0, 1.0, 1.0], [3.0, 1.0, -1.0]]),
                           3, 0, 2, 0)


def test_gaps_on_stacked_spectra_match_single_calls():
    rng = np.random.default_rng(9)
    spectra = sample_gamma(5, 4, 300, rng)
    for l in range(1, 4):
        gaps = newton_maclaurin_gap(spectra, 4, l)
        assert gaps.shape == (300,)
        assert np.array_equal(
            gaps, [newton_maclaurin_gap(lam, 4, l) for lam in spectra])
    gaps = quotient_ratio_gap(spectra, 4, 0, 3, 0)
    single = np.array([quotient_ratio_gap(lam, 4, 0, 3, 0) for lam in spectra])
    assert gaps.shape == (300,)
    # numpy.power on arrays may round the last place differently.
    assert np.abs(gaps - single).max() <= 1e-13
    assert isinstance(newton_maclaurin_gap(spectra[0], 4, 1), float)
    assert isinstance(quotient_ratio_gap(spectra[0], 4, 0, 3, 0), float)


def test_sigma_matrix_diagonal_matches_spectrum():
    lam = np.array([0.5, 1.5, 2.5, -0.25])
    m = np.diag(lam)
    for k in range(1, 5):
        assert sigma_matrix(m, k) == pytest.approx(brute_sigma(lam, k),
                                                   rel=1e-13, abs=1e-13)


def test_sigma_matrix_invariant_under_conjugation():
    rng = np.random.default_rng(12)
    lam = rng.uniform(-2.0, 2.0, size=5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    m = q @ np.diag(lam) @ q.T
    m = 0.5 * (m + m.T)
    for k in range(1, 6):
        want = brute_sigma(lam, k)
        scale = max(1.0, brute_sigma(np.abs(lam), k))
        assert abs(sigma_matrix(m, k) - want) <= 1e-12 * scale


def test_matrix_routes_reject_bad_matrices():
    """sigma_matrix and dsigma_matrix take one square matrix, symmetric
    exactly as stored and finite, and 1 <= k <= n."""
    sym = np.eye(3)
    skew = np.eye(3)
    skew[0, 1] = 1e-16
    nonfinite = np.eye(3)
    nonfinite[1, 1] = np.inf
    for route in (sigma_matrix, dsigma_matrix):
        for bad in (np.ones((3, 4)), np.ones(3), skew, nonfinite):
            with pytest.raises(DomainError):
                route(bad, 2)
        for k in (0, 4):
            with pytest.raises(DomainError):
                route(sym, k)


def test_dsigma_matrix_diagonal_values():
    """On diagonal matrices, (dsigma_k)_ii = sigma_{k-1} of the other
    eigenvalues and off-diagonal entries vanish."""
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    m = np.diag(lam)
    for k in range(1, 5):
        d = dsigma_matrix(m, k)
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() <= 1e-12
        for i in range(4):
            assert d[i, i] == pytest.approx(sigma(np.delete(lam, i), k - 1),
                                            rel=1e-12, abs=1e-12)


def test_dsigma_euler_identity():
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((4, 4, 100))
    mats = 0.5 * (raw + np.swapaxes(raw, 0, 1))
    for k in range(1, 5):
        sig, dk, dkm1 = sigma_and_dsigma_batch(pack(mats), k)
        lhs = np.einsum("ijb,jib->b", unpack(dk), mats)
        scale = np.maximum(1.0, np.abs(k * sig[k]))
        assert np.all(np.abs(lhs - k * sig[k]) <= 1e-12 * scale)
        if k >= 2:
            lhs2 = np.einsum("ijb,jib->b", unpack(dkm1), mats)
            assert np.all(np.abs(lhs2 - (k - 1) * sig[k - 1])
                          <= 1e-12 * np.maximum(1.0, np.abs(sig[k - 1])))


def test_dsigma_matches_finite_differences():
    rng = np.random.default_rng(10)
    raw = rng.standard_normal((4, 4))
    m = 0.5 * (raw + raw.T)
    eps = 1e-6
    for k in range(1, 5):
        d = dsigma_matrix(m, k)
        for i in range(4):
            for j in range(i, 4):
                e = np.zeros((4, 4))
                e[i, j] = e[j, i] = 1.0
                fd = (sigma_matrix(m + eps * e, k)
                      - sigma_matrix(m - eps * e, k)) / (2 * eps)
                want = d[i, j] * (2.0 if i != j else 1.0)
                assert fd == pytest.approx(want, rel=1e-6, abs=1e-7)


def test_batch_shapes_and_scalar_agreement():
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((2, 3, 5, 5))
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    all_sig = sigma_matrix_planes(pack(np.moveaxis(mats, (-2, -1), (0, 1))),
                                  4)
    assert all_sig.shape == (5, 2, 3)
    assert all_sig[3, 1, 2] == pytest.approx(sigma_matrix(mats[1, 2], 3),
                                             rel=1e-12, abs=1e-12)


def test_sigma_all_batch_keeps_the_input_dtype():
    assert sigma_all_batch([1, 2, 3], 3).dtype == np.float64
    assert sigma_all_batch(np.ones(3, dtype=np.float32), 2).dtype == np.float64
    lams = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]], dtype=np.longdouble)
    out = sigma_all_batch(lams, 3)
    assert out.dtype == np.longdouble
    for row, lam in zip(out, lams):
        assert np.allclose(row.astype(float), brute_sigma_all(lam, 3),
                           rtol=1e-15, atol=0.0)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="longdouble is double precision on this platform")
def test_sigma_all_batch_computes_in_extended_precision():
    tiny = np.longdouble(2.0) ** -60   # lost in 1 + tiny at double precision
    lams = np.array([1.0, 1.0, 1.0], dtype=np.longdouble)
    lams[0] += tiny
    out = sigma_all_batch(lams, 3)
    assert out[1] - 3 == tiny
    assert out[3] - 1 == tiny


def test_sample_gamma_contract():
    rng = np.random.default_rng(21)
    out = sample_gamma(5, 3, 300, rng, min_margin=0.05)
    assert out.shape == (300, 5)
    margins = sigma_all_batch(out, 3)[:, 1:].min(axis=-1)
    assert margins.min() > 0.05
    # Deterministic under the same seed.
    again = sample_gamma(5, 3, 300, np.random.default_rng(21),
                         min_margin=0.05)
    assert np.array_equal(out, again)
    with pytest.raises(DomainError):
        sample_gamma(4, 5, 10, rng)


def _conjugated_stack(n: int, shape: tuple, seed: int):
    """Symmetric matrices Q diag(lam) Q^T stacked over `shape`, with their
    spectra lam and eigenvector frames Q."""
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-2.0, 2.0, size=shape + (n,))
    q, _ = np.linalg.qr(rng.standard_normal(size=shape + (n, n)))
    mats = np.einsum("...ij,...j,...kj->...ik", q, lams, q)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2)), lams, q


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sigma_and_dsigma_batch_match_the_eigenvalue_route(n):
    """For every k: sigma_0..sigma_k match sigma_all_batch of eigvalsh, and
    dsigma_k (dsigma_{k-1}) is Q diag(sigma_{k-1}(lam|i)) Q^T, the
    diagonalised derivative built from the deleted spectra."""
    mats, lams, q = _conjugated_stack(n, (4, 5), seed=n)
    eig = np.linalg.eigvalsh(mats)
    # sigma_{j-1} of every deleted spectrum lam|i, stacked on axis -2
    deleted = np.stack([sigma_all_batch(np.delete(lams, i, axis=-1), n - 1)
                        for i in range(n)], axis=-2)
    planes = pack(np.moveaxis(mats, (-2, -1), (0, 1)))
    for k in range(1, n + 1):
        sig, dk, dkm1 = sigma_and_dsigma_batch(planes, k)
        assert sig.shape == (k + 1, 4, 5)
        np.testing.assert_allclose(np.moveaxis(sig, 0, -1),
                                   sigma_all_batch(eig, k),
                                   rtol=1e-11, atol=1e-11)
        for d, j in ((dk, k), (dkm1, k - 1)):
            if j == 0:
                assert d is None
                continue
            want = np.einsum("...ij,...j,...kj->ik...", q,
                             deleted[..., j - 1], q)
            d = unpack(d)
            np.testing.assert_allclose(d, want, rtol=1e-11, atol=1e-11)
            assert np.array_equal(d, np.swapaxes(d, 0, 1))


def test_sigma_and_dsigma_batch_low_orders_are_exact_fresh_arrays():
    mats, _, _ = _conjugated_stack(4, (3,), seed=11)
    mats = pack(np.moveaxis(mats, 0, -1))
    before = mats.copy()
    eye = np.broadcast_to(np.eye(4)[..., None], (4, 4) + mats.shape[1:])
    sig, dk, dkm1 = sigma_and_dsigma_batch(mats, 1)
    assert np.array_equal(unpack(dk), eye) and dkm1 is None
    assert dk.flags.writeable and not np.shares_memory(dk, mats)
    sig, dk, dkm1 = sigma_and_dsigma_batch(mats, 2)
    assert np.array_equal(unpack(dkm1), eye)
    assert np.array_equal(unpack(dk),
                          sig[1] * np.eye(4)[..., None] - unpack(mats))
    for d in (dk, dkm1):
        assert d.flags.writeable and not np.shares_memory(d, mats)
    assert not np.shares_memory(dk, dkm1)
    for k in (3, 4):
        _, dk, dkm1 = sigma_and_dsigma_batch(mats, k)
        assert not np.shares_memory(dk, dkm1)
        assert not np.shares_memory(dk, mats)
    assert np.array_equal(mats, before)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sigma_and_dsigma_batch_writes_into_given_views(n):
    """Given out, views into larger arrays (one slab of a grid), the
    recurrence writes sigma_0..k and dsigma_k into them and returns them,
    bitwise the fresh results, signed zeros included, for every k; the
    returned dsigma_{k-1} is a fresh array, and out's other slabs are
    untouched."""
    mats, _, _ = _conjugated_stack(n, (4, 3), seed=50 + n)
    mats = pack(np.moveaxis(mats, (-2, -1), (0, 1)))
    mats[:, 0, 0] = 0.0
    for k in range(1, n + 1):
        want = sigma_and_dsigma_batch(mats, k)
        sig_all = np.full((k + 1, 2) + mats.shape[1:], 7.0)
        dk_all = np.full((mats.shape[0], 2) + mats.shape[1:], 7.0)
        sig, dk, dkm1 = sigma_and_dsigma_batch(mats, k,
                                               (sig_all[:, 1], dk_all[:, 1]))
        assert np.shares_memory(sig, sig_all) and np.shares_memory(dk, dk_all)
        for got, ref in zip((sig, dk, dkm1), want):
            if ref is None:
                assert got is None
                continue
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.array_equal(sig_all[:, 1], want[0])
        assert np.array_equal(dk_all[:, 1], want[1])
        assert np.all(sig_all[:, 0] == 7.0) and np.all(dk_all[:, 0] == 7.0)
        if dkm1 is not None:
            assert not np.shares_memory(dkm1, dk_all)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_trailing_axis_wrappers_are_views_onto_the_planes(n):
    """Matrices stacked with their axes last reach the packed recurrence
    through pack(np.moveaxis(...)): for every k, sigma_matrix_planes
    is its sigma part bit for bit; sigma_matrix / dsigma_matrix of a single
    matrix, the stack with an empty batch, agree with its entries at that
    node; and the recurrence matches the whole-matrix product reference,
    each within 1e-13 of the largest reference entry."""
    mats, _, _ = _conjugated_stack(n, (6, 7), seed=30 + n)
    planes = pack(np.moveaxis(mats, (-2, -1), (0, 1)))
    for k in range(1, n + 1):
        sig, dk, dkm1 = sigma_and_dsigma_batch(planes, k)
        assert np.array_equal(sigma_matrix_planes(planes, k), sig)
        dk = unpack(dk)
        dkm1 = None if dkm1 is None else unpack(dkm1)
        for node in ((0, 0), (2, 5), (5, 6)):
            _assert_rel(np.array(sigma_matrix(mats[node], k)),
                        sig[(k, *node)])
            _assert_rel(dsigma_matrix(mats[node], k), dk[(..., *node)])
        ref_sig, ref_dk, ref_dkm1 = matmul_sigma_and_dsigma(mats, k)
        _assert_rel(np.moveaxis(sig, 0, -1), ref_sig)
        for got, want in ((dk, ref_dk), (dkm1, ref_dkm1)):
            if want is None:
                assert got is None
                continue
            assert np.array_equal(got, np.swapaxes(got, 0, 1))
            _assert_rel(np.moveaxis(got, (0, 1), (-2, -1)), want)


def _assert_rel(got, want, rel=1e-13):
    """Largest difference within rel of the largest reference entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def _full_layout_recurrence(mats, k: int):
    """The Faddeev-LeVerrier pass on full stacks (n, n) + batch that the
    packed recurrence replaced, kept as its bitwise reference: each row of
    the upper triangle of M T_{j-1} one einsum, mirrored; the traces and
    the sigma_k contraction einsums over the full stacks."""
    n = mats.shape[0]

    def diag(a):
        return np.einsum("ii...->i...", a)

    sig = np.empty((k + 1,) + mats.shape[2:])
    sig[0] = 1.0
    t_prev = t_last = None
    if k <= 2:
        t_last = np.zeros_like(mats)
        diag(t_last)[...] = 1.0
    for j in range(1, k):
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
        diag(t_next)[...] += sig[j]
        t_prev, t_last = t_last, t_next
    np.einsum("ab...,ab...->...", mats, t_last, out=sig[k, ...])
    sig[k] /= k
    return sig, t_last, t_prev


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_packed_layout_is_pinned(n):
    """The one symmetric-matrix layout: the diagonal planes, then the pairs
    i < j in np.triu_indices order; pack and unpack invert each other; the
    linearized operator's pair planes are the coefficient's pair planes
    over 2h^2, bitwise; and the packed recurrence equals the full-layout
    recurrence bitwise, signed zeros included, on contiguous stacks for
    every k."""
    m = n * (n + 1) // 2
    rows, cols = sym_entries(n)
    iu, ju = np.triu_indices(n, 1)
    assert rows.tolist() == list(range(n)) + iu.tolist()
    assert cols.tolist() == list(range(n)) + ju.tolist()
    table = sym_index(n)
    assert np.array_equal(table, table.T)
    assert np.array_equal(table[rows, cols], np.arange(m))
    assert sym_dim(m) == n
    with pytest.raises(DomainError):
        sym_dim(m + 1)

    rng = np.random.default_rng(100 + n)
    raw = rng.standard_normal((n, n, 6, 5))
    raw[rng.random(raw.shape) < 0.2] = -0.0
    raw[rng.random(raw.shape) < 0.1] = 0.0
    mats = np.triu(np.moveaxis(raw, (0, 1), (-2, -1)))
    mats = np.moveaxis(mats + np.triu(mats, 1).swapaxes(-1, -2),
                       (-2, -1), (0, 1)).copy()
    planes = pack(mats)
    assert planes.shape == (m, 6, 5) and planes.flags.c_contiguous
    for p, (a, b) in enumerate(zip(rows, cols)):
        assert planes[p].tobytes() == mats[a, b].tobytes()
    assert unpack(planes).tobytes() == mats.tobytes()
    assert pack(unpack(planes)).tobytes() == planes.tobytes()

    grid = Grid(n, 8)
    second = pack(rng.standard_normal((n, n) + grid.shape))
    op = LinearOperator(grid=grid, second=second,
                        first=rng.standard_normal((n,) + grid.shape),
                        zeroth=rng.standard_normal(grid.shape))
    assert op.weights[1 + 2 * n:].tobytes() \
        == (second[n:] / (2.0 * grid.h ** 2)).tobytes()

    for k in range(1, n + 1):
        got = sigma_and_dsigma_batch(planes, k)
        want = _full_layout_recurrence(mats, k)
        assert got[0].tobytes() == want[0].tobytes()
        for t_got, t_want in zip(got[1:], want[1:]):
            if t_want is None:
                assert t_got is None
                continue
            assert unpack(t_got).tobytes() == t_want.tobytes()
