"""Periodic uniform grids on the n-torus [0, 2pi)^n and fields on them.

The box is fixed to [0, 2pi) per axis with N identical points per axis
(h = 2pi/N) so that trigonometric manufactured solutions are exactly
periodic. Derivatives are plain partial derivatives (flat background
metric, identity g0): second-order central differences with periodic
wrap-around.

The stencil is written once, here. _wrap_pad adds one periodic layer on
every side of a grid array, and _stencil_shifts lists the 2n^2 + 1 offsets
of the stencil as slices of that padded copy, the view at offset o holding
the value at node + o. derivatives takes the gradient and the Hessian of a
field from one padded copy through those views (hessian the Hessian alone);
the state builds of operators take them the same way from slabs of one
padded copy, each with its halo, one node block at a time; and the
linearized operator's matvec (operators.LinearOperator) reads its argument
through the same views. The Laplacian is the trace of the Hessian.

Tensor-valued derivatives are plain arrays stored component-major: one
contiguous grid plane per component, so every later pass over them is a
pass over whole planes. Gradients have shape (n,) + grid.shape; Hessians
are symmetric matrix fields, packed as symfunc defines (its module
docstring): n(n+1)/2 planes, the diagonal entries first, then the pairs
i < j in the order of _stencil_shifts' pair offsets.

spectral_derivatives differentiates via one FFT instead of the stencil; it
is exact for band-limited fields and exists so convergence studies can
build continuum right-hand sides that are not polluted by the O(h^2)
stencil error being measured. prolong carries a field to a finer grid as
its trigonometric interpolant, the start of a nested-iteration solve.

Fields can be serialized to a bit-exact text format: a header line
`field n=<n> N=<N> name=<name>` followed by N^n values, one per line,
row-major, 17 significant digits.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import fieldexpr
from .errors import DomainError

__all__ = [
    "Grid", "ScalarField",
    "derivatives", "hessian", "sample", "sample_values",
    "dump_field", "load_field", "spectral_derivatives", "prolong",
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


# Slices of a wrap-padded axis that shift it by -1, 0 and +1.
_SHIFT = {-1: slice(0, -2), 0: slice(1, -1), 1: slice(2, None)}


@functools.lru_cache(maxsize=8)
def _stencil_shifts(n: int) -> tuple:
    """The 2n^2 + 1 offsets of the periodic stencil, as index tuples into
    a wrap-padded grid (see _wrap_pad) whose view at offset o holds the
    value at node + o. The order is the one in which
    operators.LinearOperator sums its weighted shifts, in blocks: the
    centre; +e_i for each axis i; -e_i for each i; then, over the pairs
    i < j in np.triu_indices order, +e_i+e_j, -e_i-e_j, +e_i-e_j and
    -e_i+e_j, one block each."""
    eye = np.eye(n, dtype=int)
    iu, ju = np.triu_indices(n, 1)
    plus, mixed = eye[iu] + eye[ju], eye[iu] - eye[ju]
    offsets = np.concatenate([np.zeros((1, n), dtype=int), eye, -eye,
                              plus, -plus, mixed, -mixed])
    return tuple(tuple(_SHIFT[o] for o in row) for row in offsets.tolist())


def _wrap_pad(a: np.ndarray) -> np.ndarray:
    """a with one periodic layer added on both sides of every axis, written
    by slice copies: the interior, then each axis's two faces in turn, each
    face spanning every other axis in full, so the faces of later axes fill
    the edges and corners."""
    out = np.empty(tuple(s + 2 for s in a.shape), dtype=a.dtype)
    out[(slice(1, -1),) * a.ndim] = a
    for axis in range(a.ndim):
        lead = (slice(None),) * axis
        out[lead + (0,)] = out[lead + (-2,)]
        out[lead + (-1,)] = out[lead + (1,)]
    return out


def _stencil_derivatives(padded: np.ndarray, h: float,
                         grad: np.ndarray | None = None) -> np.ndarray:
    """Central-difference Hessian of the nodes whose wrap-padded copy is
    `padded` (a whole grid's, or a slab of it with its halo), read through
    the views of _stencil_shifts: packed, (n(n+1)/2,) + the unpadded shape.
    Given grad, an array (n,) + that shape (a view into a larger one
    serves), the gradient is written into it. Each plane is
    (v(+e_i) - v(-e_i))/(2h), (v(+e_i) - 2v + v(-e_i))/h^2 or
    (v(+e_i+e_j) - v(+e_i-e_j) - v(-e_i+e_j) + v(-e_i-e_j))/(4h^2),
    evaluated left to right, and written straight to its plane, so every
    node's values do not depend on the extent of `padded`."""
    n = padded.ndim
    m = n * (n - 1) // 2
    centre, *views = (padded[shift] for shift in _stencil_shifts(n))
    plus, minus, pairs = views[:n], views[n:2 * n], views[2 * n:]
    pp, mm, pm, mp = (pairs[b * m:(b + 1) * m] for b in range(4))
    hess = np.empty((n + m,) + centre.shape)
    twice = 2.0 * centre
    for i in range(n):
        if grad is not None:
            np.subtract(plus[i], minus[i], out=grad[i])
            grad[i] /= 2.0 * h
        np.subtract(plus[i], twice, out=hess[i])
        hess[i] += minus[i]
        hess[i] /= h * h
    for p, cross in enumerate(hess[n:]):
        np.subtract(pp[p], pm[p], out=cross)
        cross -= mp[p]
        cross += mm[p]
        cross /= 4.0 * h * h
    return hess


def derivatives(u: ScalarField) -> tuple:
    """Central-difference gradient and packed Hessian of u from one
    wrap-padded copy: shapes (n,) + grid.shape and
    (n(n+1)/2,) + grid.shape."""
    grad = np.empty((u.grid.n,) + u.grid.shape)
    return grad, _stencil_derivatives(_wrap_pad(u.values), u.grid.h, grad)


def hessian(u: ScalarField) -> np.ndarray:
    """The Hessian of derivatives(u), bitwise, without its gradient."""
    return _stencil_derivatives(_wrap_pad(u.values), u.grid.h)


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


# Values dump_field formats per call: a block's text is a few hundred
# kilobytes, a small transient beside any solve's arrays.
_DUMP_BLOCK = 8192


def dump_field(field: ScalarField, name: str, target) -> None:
    """Write the bit-exact text dump (header plus one value per line), one
    %-format and one write per block of _DUMP_BLOCK values."""
    if any(ch.isspace() for ch in name) or not name:
        raise DomainError(f"field name must be nonempty without spaces, got {name!r}")
    own = isinstance(target, (str, bytes, os.PathLike))
    fp = open(target, "w") if own else target
    try:
        g = field.grid
        fp.write(f"field n={g.n} N={g.N} name={name}\n")
        values = field.values.ravel()
        for start in range(0, values.size, _DUMP_BLOCK):
            block = values[start:start + _DUMP_BLOCK].tolist()
            fp.write(("%.17g\n" * len(block)) % tuple(block))
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
        try:
            kv = dict(p.split("=", 1) for p in parts[1:])
            grid = Grid(n=int(kv["n"]), N=int(kv["N"]))
            name = kv["name"]
            values = np.array([float(line) for line in fp if line.strip()])
        except (KeyError, ValueError) as exc:
            raise DomainError(f"malformed field dump: {exc!r}") from exc
        if values.size != grid.size:
            raise DomainError(
                f"field dump has {values.size} values, expected {grid.size}")
        return name, ScalarField(grid, values.reshape(grid.shape))
    finally:
        if own:
            fp.close()


def spectral_derivatives(u: ScalarField) -> tuple:
    """FFT gradient and packed Hessian from one fftn: shapes (n,) +
    grid.shape and (n(n+1)/2,) + grid.shape. Exact for band-limited fields;
    the Nyquist mode of odd (first) derivatives is zeroed as is standard, so
    it is zeroed in the gradient and in the mixed second derivatives."""
    g = u.grid
    uhat = np.fft.fftn(u.values)
    kfull = np.fft.fftfreq(g.N, d=1.0 / g.N)
    kodd = kfull.copy()
    if g.N % 2 == 0:
        kodd[g.N // 2] = 0.0
    shapes = [(1,) * a + (g.N,) + (1,) * (g.n - 1 - a) for a in range(g.n)]
    grad = np.empty((g.n,) + g.shape)
    hess = np.empty((g.n * (g.n + 1) // 2,) + g.shape)
    for i, si in enumerate(shapes):
        grad[i] = np.fft.ifftn(1j * kodd.reshape(si) * uhat).real
        hess[i] = np.fft.ifftn(-(kfull.reshape(si) ** 2) * uhat).real
    for p, (i, j) in enumerate(zip(*np.triu_indices(g.n, 1)), start=g.n):
        sym = -(kodd.reshape(shapes[i]) * kodd.reshape(shapes[j]))
        hess[p] = np.fft.ifftn(sym * uhat).real
    return grad, hess


def prolong(u: ScalarField, grid: Grid) -> ScalarField:
    """u's trigonometric interpolant sampled on grid, a grid of u's
    dimension with at least as many points per axis: u's spectrum
    zero-padded one axis at a time, with an even N's Nyquist plane split
    evenly between the wavenumbers +N/2 and -N/2 so the padded spectrum
    stays Hermitian. Exact for fields band-limited below N/2; on a grid
    whose N is a multiple of u's, every node of u's grid keeps its value
    to roundoff."""
    N, M = u.grid.N, grid.N
    if grid.n != u.grid.n or M < N:
        raise DomainError(f"cannot prolong a field on n={u.grid.n}, N={N} "
                          f"to n={grid.n}, N={M}")
    coeffs = np.fft.fftn(u.values)
    low, high = (N + 1) // 2, (N - 1) // 2   # wavenumbers 0..low-1, -high..-1
    for axis in range(grid.n):
        lead = (slice(None),) * axis
        padded = np.zeros(coeffs.shape[:axis] + (M,) + coeffs.shape[axis + 1:],
                          dtype=complex)
        padded[lead + (slice(0, low),)] = coeffs[lead + (slice(0, low),)]
        padded[lead + (slice(M - high, M),)] = \
            coeffs[lead + (slice(N - high, N),)]
        if N % 2 == 0:
            half = 0.5 * coeffs[lead + (N // 2,)]
            padded[lead + (N // 2,)] += half
            padded[lead + (M - N // 2,)] += half
        coeffs = padded
    values = np.fft.ifftn(coeffs).real * (M / N) ** grid.n
    return ScalarField(grid, values)


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
