"""Grids, fields, stencil and spectral derivatives, and text dumps."""

import io

import numpy as np
import pytest

from sigmak import Grid, ScalarField, dump_field, load_field, sample_text
from sigmak.errors import DomainError
from sigmak.grid import (derivatives, hessian, prolong, random_smooth_field,
                         spectral_derivatives)
from sigmak.symfunc import unpack


def test_grid_invariants():
    g = Grid(3, 16)
    assert g.h == pytest.approx(2 * np.pi / 16)
    assert g.shape == (16, 16, 16)
    assert g.size == 16 ** 3
    assert g.axis_coords().shape == (16,)
    assert g.axis_coords()[0] == 0.0
    assert len(g.coords()) == 3
    with pytest.raises(DomainError):
        Grid(2, 16)
    with pytest.raises(DomainError):
        Grid(7, 16)
    with pytest.raises(DomainError):
        Grid(3, 4)


def test_scalar_field_basics():
    g = Grid(3, 8)
    z = ScalarField.zeros(g)
    assert z.max_abs() == 0.0
    u = sample_text("sin(x1)", g)
    assert u.max_abs() == pytest.approx(1.0, abs=1e-12)
    v = u.copy()
    v.values[0, 0, 0] = 99.0
    assert u.values[0, 0, 0] != 99.0


def test_stencil_derivatives_second_order():
    errs = {}
    for N in (16, 32, 64):
        g = Grid(3, N)
        u = sample_text("sin(x1)*cos(x2)", g)
        lap = np.einsum("ii...->...", unpack(derivatives(u)[1]))
        errs[N] = np.abs(lap + 2.0 * u.values).max()
    assert errs[32] / errs[16] == pytest.approx(0.25, rel=0.1)
    assert errs[64] / errs[32] == pytest.approx(0.25, rel=0.1)


def test_hessian_is_symmetric_in_mixed_order():
    g = Grid(3, 16)
    u = sample_text("sin(x1 + 2*x2)*cos(x3)", g)
    mats = unpack(derivatives(u)[1])
    assert np.array_equal(mats, np.swapaxes(mats, 0, 1))


def test_spectral_derivatives_exact_for_band_limited():
    g = Grid(3, 16)
    u = sample_text("sin(x1)*cos(x2)", g)
    want_dx1 = sample_text("cos(x1)*cos(x2)", g).values
    got, mats = spectral_derivatives(u)
    mats = unpack(mats)
    assert got.shape == (3,) + g.shape
    assert np.abs(got[0] - want_dx1).max() <= 1e-12
    assert mats.shape == (3, 3) + g.shape
    assert np.array_equal(mats, np.swapaxes(mats, 0, 1))
    want_d11 = -u.values
    assert np.abs(mats[0, 0] - want_d11).max() <= 1e-12
    want_d12 = sample_text("0 - cos(x1)*sin(x2)", g).values
    assert np.abs(mats[0, 1] - want_d12).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_prolong_is_the_trigonometric_interpolant(n):
    """A field band-limited below N/2, sampled at N=8 and prolonged to
    N=16, is that field sampled at N=16, and every coarse node keeps its
    value. A cosine at the coarse Nyquist wavenumber is split evenly between
    +-4: it stays real, and the fine grid samples cos(4 x1). A target of
    another dimension or with fewer points per axis is rejected."""
    src = "0.1*sin(x1)*cos(x2) + 0.3*cos(3*x1 - 2*x2) + 0.2*sin(x2 + 3*x1)"
    coarse, fine = Grid(n, 8), Grid(n, 16)
    u = prolong(sample_text(src, coarse), fine)
    assert u.grid == fine
    assert np.abs(u.values - sample_text(src, fine).values).max() <= 1e-13
    every_other = (slice(None, None, 2),) * n
    assert np.abs(u.values[every_other]
                  - sample_text(src, coarse).values).max() <= 1e-14
    nyquist = prolong(sample_text("cos(4*x1)", coarse), fine)
    assert np.abs(nyquist.values
                  - sample_text("cos(4*x1)", fine).values).max() <= 1e-14
    with pytest.raises(DomainError):
        prolong(sample_text(src, fine), coarse)
    with pytest.raises(DomainError):
        prolong(sample_text(src, coarse), Grid(n + 1, 16))


def test_stencil_gradient_matches_spectral_on_smooth_fields():
    g = Grid(3, 32)
    u = sample_text("sin(x1)*cos(x2)", g)
    diff = np.abs(derivatives(u)[0] - spectral_derivatives(u)[0]).max()
    assert diff <= g.h ** 2  # second-order stencil on O(1) derivatives


def test_dump_load_round_trip_is_bit_exact():
    g = Grid(3, 8)
    rng = np.random.default_rng(5)
    u = ScalarField(g, rng.standard_normal(g.shape))
    buf = io.StringIO()
    dump_field(u, "u", buf)
    text = buf.getvalue()
    assert text.startswith("field n=3 N=8 name=u\n")
    name, back = load_field(io.StringIO(text))
    assert name == "u"
    assert np.array_equal(back.values, u.values)
    # Dumping again yields identical bytes.
    buf2 = io.StringIO()
    dump_field(back, "u", buf2)
    assert buf2.getvalue() == text


def test_dump_writes_each_value_as_its_own_17_digit_line():
    """The blockwise dump is byte for byte the header and then one
    f"{v:.17g}" line per value, over several blocks and a partial one, for
    signed zeros, subnormals, the extremes and integers past 2^53."""
    g = Grid(4, 11)
    rng = np.random.default_rng(6)
    values = rng.standard_normal(g.size) * 10.0 ** rng.integers(
        -300, 300, g.size)
    values[:10] = [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
                   1e16, 2.0 ** 60 + 1.0, 0.1, 1.0 / 3.0, -1e-5]
    u = ScalarField(g, values.reshape(g.shape))
    buf = io.StringIO()
    dump_field(u, "u", buf)
    want = "field n=4 N=11 name=u\n" + "".join(f"{v:.17g}\n" for v in values)
    assert buf.getvalue() == want


def test_dump_rejects_bad_names_and_load_rejects_bad_headers():
    g = Grid(3, 8)
    u = ScalarField.zeros(g)
    with pytest.raises(DomainError):
        dump_field(u, "two words", io.StringIO())
    with pytest.raises(DomainError):
        load_field(io.StringIO("not a field header\n"))
    short = "field n=3 N=8 name=u\n" + "0\n" * 7
    with pytest.raises(DomainError):
        load_field(io.StringIO(short))
    values = "0\n" * 512
    for text in ("field n=3 N=8 nam\n" + values,
                 "field n=3 N=8 x=u\n" + values,
                 "field n=three N=8 name=u\n" + values,
                 "field n=3 N=8 name=u\n" + "0\n" * 511 + "zero\n"):
        with pytest.raises(DomainError, match="malformed field dump"):
            load_field(io.StringIO(text))


def test_random_smooth_field_contract():
    g = Grid(3, 16)
    u1 = random_smooth_field(g, np.random.default_rng(7), amplitude=0.05)
    u2 = random_smooth_field(g, np.random.default_rng(7), amplitude=0.05)
    assert np.array_equal(u1.values, u2.values)
    assert u1.max_abs() <= 0.05 + 1e-12
    u3 = random_smooth_field(g, np.random.default_rng(8), amplitude=0.05)
    assert not np.array_equal(u1.values, u3.values)


@pytest.mark.parametrize("n, N", [(3, 8), (3, 9), (4, 8), (5, 8), (6, 8)])
def test_hessian_equals_the_eight_roll_stencils(n, N):
    """derivatives reads every stencil term off one wrap-padded copy; the
    gradient and the Hessian must equal the per-entry np.roll central
    differences bit for bit."""
    g = Grid(n, N)
    u = ScalarField(g, np.random.default_rng(N + n).standard_normal(g.shape))
    before = u.values.copy()
    v, h = u.values, g.h
    want_g = np.empty((n,) + g.shape)
    want = np.empty((n, n) + g.shape)
    for i in range(n):
        want_g[i] = (np.roll(v, -1, i) - np.roll(v, 1, i)) / (2.0 * h)
        want[i, i] = (np.roll(v, -1, i) - 2.0 * v
                      + np.roll(v, 1, i)) / (h * h)
        for j in range(i + 1, n):
            pp = np.roll(np.roll(v, -1, i), -1, j)
            pm = np.roll(np.roll(v, -1, i), 1, j)
            mp = np.roll(np.roll(v, 1, i), -1, j)
            mm = np.roll(np.roll(v, 1, i), 1, j)
            want[i, j] = want[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    grad, mats = derivatives(u)
    assert np.array_equal(grad, want_g)
    assert np.array_equal(unpack(mats), want)
    assert np.array_equal(unpack(hessian(u)), want)
    assert np.array_equal(u.values, before)

