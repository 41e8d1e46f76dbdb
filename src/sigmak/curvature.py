"""Conformal curvature tensors on the periodic box.

Three symmetric tensors drive the equations, all assembled pointwise from the
derivatives of a scalar field u and one prescribed background tensor (flat
g0 = identity; the background curvature is injected as a tensor field):

  U(u, t) = Hess u + (1/(n-2)) (Lap u) I + |grad u|^2 I - du x du
            - t ric0/(n-2) + ((1-t)/n) I

  V(U, t) = t U + (1-t) (tr U) I            (the cone interpolation)

  W(u)    = Hess u + du x du - (1/2)|grad u|^2 I + schouten0

Cases A and B use the conformal factor g = e^{2u} g0 and the tensor V built
from U; case C uses g = e^{-2u} g0 and W (the Schouten tensor of the
conformal metric). The homotopy parameter t in U and V deforms the problem
to the t = 0 reference equation whose unique solution is u = 0.

Every tensor is a packed stack of symmetric matrices, (n(n+1)/2,) + batch,
in the layout symfunc defines (its module docstring), as grid.derivatives
returns the Hessian: each independent entry is one contiguous plane over the
batch, the diagonal planes first, and per-node scalars broadcast against a
stack without new axes.

  build_u_tensor(hess, grad, t, spec)   hess packed, grad (n,) + batch
  build_v_tensor(mats, t)               any packed stack; t a scalar or an
                                        array over the batch shape
  build_w_tensor(hess, grad, spec)

The derivatives are whatever the caller has: stencil derivatives for the
solver, spectral ones for manufactured forcing, zeros shaped like the
stored background for the gradient-free comparison tensor. Their batch
shape must hold the background's (spec.background.shape[1:]), which the
builders read as stored. The Laplacian is the trace of the given Hessian.

ProblemSpec bundles the case tag, (n, k), coefficient expressions alpha and
f, and the one background tensor the case reads (ric0 for cases A and B,
schouten0 for case C), stored at the broadcast shape of its values;
validate() enforces the per-case sign conditions on the sampled
coefficients and the background condition before any solve touches the
data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import fieldexpr
from . import symfunc
from .errors import DomainError, ValidationError
from .grid import Grid, ScalarField, sample_text, sample_values

__all__ = [
    "ProblemSpec", "ValidationReport", "canonical_background",
    "sample_tensor", "build_u_tensor", "build_v_tensor", "build_w_tensor",
    "cone_margins",
]

CASES = ("A", "B", "C")


_COMPONENT_RE = re.compile(r"^\((\d+),(\d+)\)$")


def component_key(n: int, key) -> tuple:
    """Normalize a component designator, 1-based as written in configuration
    files: an (i, j) tuple or the string "(i,j)". Returns (min, max)."""
    if isinstance(key, str):
        m = _COMPONENT_RE.match(key.strip())
        if m is None:
            raise DomainError(f"malformed tensor component {key!r}; "
                              f"expected (i,j)")
        key = m.groups()
    i, j = (int(v) for v in key)
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"component ({i},{j}) out of range for n={n}")
    return min(i, j), max(i, j)


def _fmt(value) -> str:
    """One value as the `key: value` records write it."""
    if value is None:
        return "n/a"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return "(" + ", ".join(str(int(v)) for v in value) + ")"
    return str(value)


def record_lines(record, prefix: str = "") -> list:
    """The `prefix.key: value` lines of a record, in field order. record is
    a mapping or a dataclass instance (fields in declaration order)."""
    if not isinstance(record, dict):
        record = {f.name: getattr(record, f.name) for f in fields(record)}
    lead = f"{prefix}." if prefix else ""
    return [f"{lead}{key}: {_fmt(value)}" for key, value in record.items()]


def canonical_background(case: str, n: int) -> dict:
    """The components of the canonical background tensor a case reads:
    Ric_{g0} = -identity for cases A and B, A_{g0} = +identity for case C."""
    value = "1" if case == "C" else "-1"
    return {f"({i},{i})": value for i in range(1, n + 1)}


def background_key(case: str) -> str:
    """The configuration key of the background tensor a case reads."""
    return "background." + ("schouten0" if case == "C" else "ric0")


def sample_tensor(grid: Grid, components: dict,
                  key: str = "background") -> np.ndarray:
    """A symmetric tensor sampled from a map of component "(i,j)" (1-based)
    to expression text, omitted components zero; an ExprEvalError names the
    component as key.(i,j). Stored packed at the broadcast shape of the
    component values: (n(n+1)/2,) + (1,) * n for a constant tensor, N on
    exactly the grid axes some component varies on."""
    n = grid.n
    index = symfunc.sym_index(n)
    planes = {}
    for comp, src in components.items():
        i, j = component_key(n, comp)
        planes[index[i - 1, j - 1]] = fieldexpr.keyed(
            f"{key}.{comp}", sample_values, fieldexpr.parse(src, n), grid)
    shape = np.broadcast_shapes((1,) * n, *(np.shape(v)
                                            for v in planes.values()))
    tensor = np.zeros((n * (n + 1) // 2,) + shape)
    for p, values in planes.items():
        tensor[p] = values
    return tensor


def cone_margins(mats: np.ndarray, k: int):
    """Pointwise Gamma_k margins (min over j <= k of sigma_j of the
    eigenvalues) for a packed stack (n(n+1)/2,) + batch. Returns
    (margins, argmin index tuple, ConeReport at the worst node)."""
    sig = symfunc.sigma_matrix_planes(mats, k)[1:]
    margins = np.minimum.reduce(sig)
    return (margins, *symfunc._worst_node(sig, margins))


@dataclass
class ValidationReport:
    case: str
    n: int
    k: int
    N: int
    conformal_sign: int
    alpha_min: float
    alpha_max: float
    f_min: float
    f_max: float
    theta: float
    background_cone_k: int
    background_margin_min: float
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_lines(self) -> list:
        record = {**vars(self), "conformal_sign": f"{self.conformal_sign:+d}",
                  "valid": self.ok}
        del record["problems"]
        return record_lines(record) + [f"problem: {p}" for p in self.problems]


@dataclass
class ProblemSpec:
    """One concrete equation: case tag, dimensions, coefficients, background.

    alpha and f are kept both as expression text (for echoing) and as sampled
    fields (what the solver actually reads). Case C may carry a manufactured
    f field with no expression source. background is the tensor the case
    reads, Ric_{g0} for cases A and B and A_{g0} for case C, sampled from
    the components build() is given (canonical_background's when None).
    """

    case: str
    n: int
    k: int
    grid: Grid
    alpha_src: str
    f_src: str
    alpha_field: ScalarField
    f_field: ScalarField
    background: np.ndarray

    @classmethod
    def build(cls, case: str, n: int, k: int, grid: Grid,
              alpha: str = "0", f: str = "0",
              background: dict | None = None) -> "ProblemSpec":
        if case not in CASES:
            raise DomainError(f"case must be one of {CASES}, got {case!r}")
        if grid.n != n:
            raise DomainError(f"grid dimension {grid.n} != spec n={n}")
        if not 3 <= k <= n:
            raise DomainError(f"need 3 <= k <= n={n}, got k={k}")
        if background is None:
            background = canonical_background(case, n)
        return cls(
            case=case, n=n, k=k, grid=grid,
            alpha_src=alpha, f_src=f,
            alpha_field=fieldexpr.keyed("spec.alpha", sample_text, alpha, grid),
            f_field=fieldexpr.keyed("spec.f", sample_text, f, grid),
            background=sample_tensor(grid, background, background_key(case)),
        )

    def with_f_field(self, f_field: ScalarField) -> "ProblemSpec":
        """Copy of this spec with a directly prescribed f field."""
        return replace(self, f_src="<manufactured>", f_field=f_field)

    @property
    def conformal_sign(self) -> int:
        """+1 when g = e^{2u} g0 (cases A, B); -1 when g = e^{-2u} g0 (C)."""
        return -1 if self.case == "C" else +1

    @property
    def start_t(self) -> float:
        """Where a solve path starts: t = 0, whose unique solution is u = 0,
        for the homotopy cases A and B; t = 1 for case C, whose W tensor and
        weights do not depend on t."""
        return 1.0 if self.case == "C" else 0.0

    @property
    def required_cone(self) -> int:
        """Cone the homotopy tensor must stay in: Gamma_{k-1} for the
        quotient-type cases A and C, Gamma_k for case B."""
        return self.k if self.case == "B" else self.k - 1

    def background_cone(self):
        """Cone margins of the background condition: -Ric_{g0}/(n-2) in
        Gamma_k (cases A and B), A_{g0} in Gamma_{k-1} (case C). Returns
        (margins, worst node, worst report) on the stored grid axes."""
        if self.case == "C":
            return cone_margins(self.background, self.k - 1)
        return cone_margins(-self.background / (self.n - 2), self.k)

    def validate(self, strict: bool = True) -> ValidationReport:
        """Check the per-case sign conditions on alpha and f and the
        background condition (background_cone's margin positive at every
        node). With strict=True a violated condition raises ValidationError.
        The report is computed on the first call and kept, so the solve, the
        path and the checks share one sweep (a spec's fields are not
        reassigned after it is built)."""
        report = self._validation
        if strict and report.problems:
            raise ValidationError("; ".join(report.problems))
        return report

    def validate_background(self) -> None:
        """Raise ValidationError, with the message validate reports, unless
        the background condition holds; the sign conditions on alpha and f
        are not checked."""
        _, problem = self._background_check
        if problem is not None:
            raise ValidationError(problem)

    @cached_property
    def _background_check(self) -> tuple:
        """(the worst node's cone report, the background condition's
        violation message or None), computed once per spec."""
        _, node, worst = self.background_cone()
        if worst.inside:
            return worst, None
        tensor = "A_{g0}" if self.case == "C" else "-Ric_{g0}/(n-2)"
        return worst, (f"case {self.case} requires {tensor} in "
                       f"Gamma_{worst.k} pointwise (margin "
                       f"{worst.margin:.3e} at node {node})")

    @cached_property
    def _validation(self) -> ValidationReport:
        a = self.alpha_field.values
        f = self.f_field.values
        problems = []
        if self.case == "A":
            if a.max() > 0.0:
                problems.append("case A requires alpha <= 0 pointwise")
            if f.min() <= 0.0:
                problems.append("case A requires f > 0 pointwise")
        elif self.case == "B":
            if a.max() >= 0.0:
                problems.append("case B requires alpha < 0 pointwise")
            if np.any(f != 0.0):
                problems.append("case B requires f identically 0")
        else:
            if f.min() <= 0.0:
                problems.append("case C requires f >= theta > 0 pointwise")
            if a.max() > 0.0:
                problems.append("case C requires alpha <= 0 pointwise")
        worst, background = self._background_check
        if background is not None:
            problems.append(background)
        return ValidationReport(
            case=self.case, n=self.n, k=self.k, N=self.grid.N,
            conformal_sign=self.conformal_sign,
            alpha_min=float(a.min()), alpha_max=float(a.max()),
            f_min=float(f.min()), f_max=float(f.max()),
            theta=float(f.min()) if self.case == "C" else 0.0,
            background_cone_k=worst.k,
            background_margin_min=worst.margin,
            problems=tuple(problems),
        )


def _check_t(t) -> None:
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise DomainError(f"homotopy parameter t must lie in [0, 1], got {t}")


def build_u_tensor(hess: np.ndarray, grad: np.ndarray, t: float,
                   spec: ProblemSpec) -> np.ndarray:
    """The homotopy curvature tensor U(u, t) from the derivatives of u;
    affine in t."""
    _check_t(t)
    n = spec.n
    iso = (np.einsum("i...->...", hess[:n]) / (n - 2)
           + np.einsum("a...,a...->...", grad, grad) + (1.0 - t) / n)
    ric = t * spec.background / (n - 2)
    # hess + ((iso I - du x du) - ric), accumulated over -du x du
    out = symfunc.outer_planes(grad)
    np.negative(out, out=out)
    out[:n] += iso
    out -= ric
    out += hess
    return out


def build_v_tensor(mats: np.ndarray, t) -> np.ndarray:
    """V = t U + (1 - t) (tr U) identity, the cone interpolation. t is a
    scalar or an array over the batch shape; extended-precision input stays
    in extended precision."""
    _check_t(t)
    t = np.asarray(t)
    n = symfunc.sym_dim(mats.shape[0])
    out = t * mats
    out[:n] += (1.0 - t) * np.einsum("i...->...", mats[:n])
    return out


def build_w_tensor(hess: np.ndarray, grad: np.ndarray,
                   spec: ProblemSpec) -> np.ndarray:
    """W = Hess u + du x du - (1/2)|grad u|^2 I + schouten0 (case C), from
    the derivatives of u."""
    if spec.case != "C":
        raise DomainError(f"W is the case C tensor; spec case is {spec.case}")
    grad_sq = np.einsum("a...,a...->...", grad, grad)
    # (hess + (du x du + schouten0)) - (1/2)|grad u|^2 I, over du x du
    out = symfunc.outer_planes(grad)
    out += spec.background
    out += hess
    out[:spec.n] -= 0.5 * grad_sq
    return out
