"""Exception hierarchy.

Every error the library raises derives from SigmaKError so callers can catch
broadly; the CLI maps subfamilies onto its exit codes (invalid input -> 2,
failed solve -> 1, I/O -> 3).
"""

from __future__ import annotations


class SigmaKError(Exception):
    """Base class for all library errors."""


class DomainError(SigmaKError, ValueError):
    """An argument is outside its documented range (bad k, bad index, ...)."""


class ExprSyntaxError(SigmaKError, ValueError):
    """Malformed expression text. ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(SigmaKError, ArithmeticError):
    """Expression evaluation hit an invalid operation (log of a non-positive
    value, division by zero, ...). ``node`` is the offending subexpression
    rendered as text; ``index`` is the grid index where it happened, when the
    evaluation ran over a grid."""

    def __init__(self, message: str, node: str, index: tuple | None = None):
        where = f" at grid index {index}" if index is not None else ""
        super().__init__(f"{message} in '{node}'{where}")
        self.node = node
        self.index = index


class ConfigError(SigmaKError, ValueError):
    """Unparseable or out-of-range run configuration."""


class ValidationError(ConfigError):
    """A problem description violates a case invariant (sign of alpha or f,
    inadmissible background, ...). Checked before any solve."""


class AdmissibilityError(SigmaKError, RuntimeError):
    """A state left the cone its operator needs. Carries the worst node."""

    def __init__(self, message: str, node: tuple | None = None, margin: float | None = None):
        where = f" at node {node}" if node is not None else ""
        how = f" (margin {margin:.3e})" if margin is not None else ""
        super().__init__(message + where + how)
        self.node = node
        self.margin = margin


class LinearSolveError(SigmaKError, RuntimeError):
    """The linearized system could not be solved to tolerance."""


class ConeExitError(SigmaKError, RuntimeError):
    """Damped Newton found no step length keeping the state admissible
    while decreasing the residual."""


class NonConvergenceError(SigmaKError, RuntimeError):
    """Newton ran out of iterations before reaching tolerance."""


class PathFailureError(SigmaKError, RuntimeError):
    """Continuation step size underflowed. ``trace`` holds the partial path."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
