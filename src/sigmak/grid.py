"""Periodic uniform grids on the n-torus [0, 2pi)^n and fields on them.

The box is fixed to [0, 2pi) per axis with N identical points per axis
(h = 2pi/N) so that trigonometric manufactured solutions are exactly
periodic. Derivatives are plain partial derivatives (flat background
metric, identity g0): second-order central differences with periodic
wrap-around via np.roll. The Laplacian is computed by summing the same
per-axis second differences the Hessian diagonal uses, in the same axis
order, so laplacian(u) equals the Hessian trace bitwise.

Tensor-valued derivatives are plain arrays stored component-major: one
contiguous grid plane per component, so every later pass over them is a
pass over whole planes. grad_values and spectral_grad return shape
(n,) + grid.shape, hess and spectral_hess return full symmetric matrices of
shape (n, n) + grid.shape. derivatives_at takes the stencil gradient and
Hessian at a few nodes only, bitwise equal to the whole-grid values there.

Fields can be serialized to a bit-exact text format: a header line
`field n=<n> N=<N> name=<name>` followed by N^n values, one per line,
row-major, 17 significant digits.

The spectral_grad/spectral_hess helpers differentiate via FFT instead of
stencils; they are exact for band-limited fields and exist so convergence
studies can build continuum right-hand sides that are not polluted by the
O(h^2) stencil error being measured.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import fieldexpr
from .errors import DomainError, ExprEvalError

__all__ = [
    "Grid", "ScalarField",
    "grad_values", "hess", "derivatives_at", "laplacian", "sample",
    "sample_values", "dump_field", "load_field",
    "spectral_grad", "spectral_hess",
    "random_smooth_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n axes (3 <= n <= 6), N points per axis."""

    n: int
    N: int

    def __post_init__(self):
        if not 3 <= self.n <= 6:
            raise DomainError(f"dimension n must lie in [3, 6], got {self.n}")
        if self.N < 8:
            raise DomainError(f"points per axis N must be >= 8, got {self.N}")

    @property
    def h(self) -> float:
        return 2.0 * np.pi / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def size(self) -> int:
        return self.N ** self.n

    def axis_coords(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.N) / self.N

    def coords(self) -> list:
        """Broadcast-ready coordinate arrays, one per axis."""
        x = self.axis_coords()
        out = []
        for a in range(self.n):
            shape = [1] * self.n
            shape[a] = self.N
            out.append(x.reshape(shape))
        return out


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("scalar field entries must be finite")
        self.values = vals

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def _d1(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(vals, -1, axis) - np.roll(vals, 1, axis)) / (2.0 * h)


def _d2(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(vals, -1, axis) - 2.0 * vals + np.roll(vals, 1, axis)) / (h * h)


def grad_values(u: ScalarField) -> np.ndarray:
    """Gradient, one plane per axis: shape (n,) + grid.shape."""
    return _grad_array(u.values, u.grid.h)


def _grad_array(vals: np.ndarray, h: float) -> np.ndarray:
    return np.stack([_d1(vals, a, h) for a in range(vals.ndim)])


def hess(u: ScalarField) -> np.ndarray:
    """Central-difference Hessian, shape (n, n) + grid.shape: per-axis second
    differences on the diagonal, 4-point cross stencil off the diagonal. The
    2n one-step shifts are made once and shared by both, so each cross pair
    takes 4 rolls; the arithmetic order is _d2's (laplacian's) and the
    stencil's as written. Each component is written straight to its
    contiguous (i, j) plane."""
    return _hess_array(u.values, u.grid.h)


def _hess_array(vals: np.ndarray, h: float) -> np.ndarray:
    n = vals.ndim
    plus = [np.roll(vals, -1, a) for a in range(n)]
    minus = [np.roll(vals, 1, a) for a in range(n)]
    twice = 2.0 * vals
    planes = np.empty((n, n) + vals.shape)
    for i in range(n):
        planes[i, i] = (plus[i] - twice + minus[i]) / (h * h)
        for j in range(i + 1, n):
            # v(+e_i+e_j) - v(+e_i-e_j) - v(-e_i+e_j) + v(-e_i-e_j)
            planes[i, j] = planes[j, i] = (
                np.roll(plus[i], -1, j) - np.roll(plus[i], 1, j)
                - np.roll(minus[i], -1, j) + np.roll(minus[i], 1, j)
            ) / (4.0 * h * h)
    return planes


def derivatives_at(u: ScalarField, nodes) -> tuple:
    """grad_values(u) and hess(u) at the given nodes only, stacked on a last
    axis in the order given: shapes (n, m) and (n, n, m). Each node's
    stencils are taken on its periodic 3^n neighbourhood, whose centre sees
    the same neighbour values as on the whole grid, so the results equal
    the whole-grid ones bitwise."""
    g = u.grid
    centre = (1,) * g.n
    steps = np.arange(-1, 2)
    grads, hessians = [], []
    for node in nodes:
        block = u.values[np.ix_(*((steps + c) % g.N for c in node))]
        grads.append(_grad_array(block, g.h)[(..., *centre)])
        hessians.append(_hess_array(block, g.h)[(..., *centre)])
    return np.stack(grads, axis=-1), np.stack(hessians, axis=-1)


def laplacian(u: ScalarField) -> ScalarField:
    """Sum of per-axis second differences, in axis order (bitwise equal to
    the trace of hess)."""
    g = u.grid
    out = _d2(u.values, 0, g.h)
    for a in range(1, g.n):
        out += _d2(u.values, a, g.h)
    return ScalarField(g, out)


def sample_values(ast, grid: Grid) -> np.ndarray:
    """An expression AST at every grid node x_i = 2 pi index / N, at the
    broadcast shape of the coordinates it reads (a scalar for a constant)."""
    vmax = fieldexpr.free_var_max(ast)
    if vmax > grid.n:
        raise DomainError(
            f"expression uses x{vmax} but the grid has n={grid.n}")
    return fieldexpr.eval_array(ast, grid.coords(), shape=grid.shape)


def sample(ast, grid: Grid) -> ScalarField:
    """Evaluate an expression AST at every grid node x_i = 2 pi index / N."""
    values = np.broadcast_to(sample_values(ast, grid), grid.shape)
    return ScalarField(grid, np.ascontiguousarray(values))


def sample_text(src: str, grid: Grid) -> ScalarField:
    return sample(fieldexpr.parse(src, grid.n), grid)


def dump_field(field: ScalarField, name: str, target) -> None:
    """Write the bit-exact text dump (header plus one value per line)."""
    if any(ch.isspace() for ch in name) or not name:
        raise DomainError(f"field name must be nonempty without spaces, got {name!r}")
    own = isinstance(target, (str, bytes, os.PathLike))
    fp = open(target, "w") if own else target
    try:
        g = field.grid
        fp.write(f"field n={g.n} N={g.N} name={name}\n")
        for v in field.values.ravel():
            fp.write(f"{v:.17g}\n")
    finally:
        if own:
            fp.close()


def load_field(source) -> tuple:
    """Read a dump produced by dump_field; returns (name, ScalarField)."""
    own = isinstance(source, (str, bytes, os.PathLike))
    fp = open(source) if own else source
    try:
        header = fp.readline().strip()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "field":
            raise DomainError(f"malformed field header: {header!r}")
        kv = dict(p.split("=", 1) for p in parts[1:])
        grid = Grid(n=int(kv["n"]), N=int(kv["N"]))
        name = kv["name"]
        values = np.array([float(line) for line in fp if line.strip()])
        if values.size != grid.size:
            raise DomainError(
                f"field dump has {values.size} values, expected {grid.size}")
        return name, ScalarField(grid, values.reshape(grid.shape))
    finally:
        if own:
            fp.close()


def _wavenumbers(N: int) -> np.ndarray:
    return np.fft.fftfreq(N, d=1.0 / N)


def spectral_grad(u: ScalarField) -> np.ndarray:
    """FFT gradient, shape (n,) + grid.shape. Exact for band-limited fields;
    the Nyquist mode of odd derivatives is zeroed as is standard."""
    g = u.grid
    uhat = np.fft.fftn(u.values)
    out = np.empty((g.n,) + g.shape)
    for a in range(g.n):
        k = _wavenumbers(g.N)
        if g.N % 2 == 0:
            k = k.copy()
            k[g.N // 2] = 0.0
        shape = [1] * g.n
        shape[a] = g.N
        out[a] = np.fft.ifftn(1j * k.reshape(shape) * uhat).real
    return out


def spectral_hess(u: ScalarField) -> np.ndarray:
    """FFT Hessian, shape (n, n) + grid.shape (exact for band-limited
    fields)."""
    g = u.grid
    uhat = np.fft.fftn(u.values)
    out = np.empty((g.n, g.n) + g.shape)
    kfull = _wavenumbers(g.N)
    kodd = kfull.copy()
    if g.N % 2 == 0:
        kodd[g.N // 2] = 0.0
    for i in range(g.n):
        si = [1] * g.n
        si[i] = g.N
        for j in range(i, g.n):
            sj = [1] * g.n
            sj[j] = g.N
            if i == j:
                sym = -(kfull.reshape(si) ** 2)
            else:
                sym = -(kodd.reshape(si) * kodd.reshape(sj))
            out[i, j] = out[j, i] = np.fft.ifftn(sym * uhat).real
    return out


def random_smooth_field(grid: Grid, rng: np.random.Generator,
                        amplitude: float, modes: int = 3,
                        max_wavenumber: int = 2) -> ScalarField:
    """A small random band-limited field: a few cosine waves with integer
    wavevectors, rescaled to the requested sup-norm. Used for perturbed
    solver starts, where smoothness keeps the start admissible."""
    vals = np.zeros(grid.shape)
    coords = grid.coords()
    for _ in range(modes):
        while True:
            wave = rng.integers(-max_wavenumber, max_wavenumber + 1, size=grid.n)
            if np.any(wave != 0):
                break
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeff = rng.normal()
        arg = np.zeros(grid.shape)
        for a in range(grid.n):
            arg = arg + wave[a] * coords[a]
        vals += coeff * np.cos(arg + phase)
    peak = np.abs(vals).max()
    if peak > 0:
        vals *= amplitude / peak
    return ScalarField(grid, vals)
