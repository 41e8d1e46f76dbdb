"""A tiny closed-form expression language for coefficient fields.

Coefficient data (alpha, f, background tensor components, manufactured
solutions) enters the library as strings like "0.1*sin(x1)*cos(x2)". The
grammar is Python's expression grammar cut down to numbers, coordinate
variables x1..xn, the unary functions sin, cos, exp, log, abs, sqrt, unary
minus, the binary operators + - * / ^ (Python's ``**``, which is itself
refused), and parentheses. Precedence from tightest to loosest: ^, unary
minus, * /, + -; the four arithmetic operators associate left, ^ associates
right. A number is digits with an optional point and exponent ("2", ".5",
"1.e-2", "2.5E2") read as a double; leading zeros are decimal, so "007" is
7. A tree more than MAX_DEPTH nodes deep (Python's own limit on nested
parentheses) is a syntax error.

parse reads the text with the standard library's ast.parse, which neither
compiles nor runs it, and converts the nodes of the grammar into an
immutable tree; any other node is a syntax error at its offset. evaluate
runs a tree at a point in IEEE doubles; eval_array runs it over numpy
coordinate arrays with the same domain checks, which is how grids are
sampled. to_string pretty-prints with minimal parentheses and is an exact
inverse of parse on trees: parse(to_string(t)) == t.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ExprEvalError, ExprSyntaxError

__all__ = [
    "Const", "Var", "Unary", "Binary", "ExprAst",
    "parse", "evaluate", "eval_array", "to_string", "free_var_max", "keyed",
    "FUNCTIONS", "MAX_DEPTH",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")
MAX_DEPTH = 200


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, as in the source text x1..xn


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a name from FUNCTIONS
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Union[Const, Var, Unary, Binary]

# A character outside the grammar, or Python's spelling of ^.
_FOREIGN = re.compile(r"[^0-9A-Za-z_.+\-*/^()\s]|\*\*")
# The zeros that lead a number, which Python refuses before an integer.
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_VAR = re.compile(r"x([1-9][0-9]*)\Z")
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
              ast.Pow: "^"}


def parse(src: str, n: int) -> ExprAst:
    """Parse an expression over x1..xn. Syntax errors carry the byte offset."""
    if not 1 <= n:
        raise DomainError(f"dimension must be positive, got {n}")
    foreign = _FOREIGN.search(src)
    if foreign:
        raise ExprSyntaxError(f"unexpected {foreign[0]!r}", foreign.start())
    # Blanks and leading zeros become spaces in place; then the leading
    # spaces, which Python reads as an indent, go and ^ becomes **. origin
    # maps each offset in the text Python reads back into src.
    text = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]),
                              re.sub(r"\s", " ", src))
    lead = len(text) - len(text.lstrip(" "))
    origin = [i for i in range(lead, len(src))
              for _ in range(2 if src[i] == "^" else 1)] + [len(src)]
    text = text[lead:].replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            body = ast.parse(text, mode="eval").body
    except SyntaxError as err:
        at = min((err.offset or 1) - 1, len(text))
        # (',' is foreign: no comma was forgotten)
        message = err.msg.removesuffix(". Perhaps you forgot a comma?")
        raise ExprSyntaxError(message, origin[at]) from None
    except (MemoryError, RecursionError):
        raise ExprSyntaxError("expression nested too deeply", 0) from None

    def fail(message: str, node: ast.expr):
        raise ExprSyntaxError(message, origin[node.col_offset])

    def tree(node: ast.expr, depth: int) -> ExprAst:
        if depth > MAX_DEPTH:
            fail(f"expression nested deeper than {MAX_DEPTH} levels", node)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return Binary(_OPERATORS[type(node.op)],
                          tree(node.left, depth + 1),
                          tree(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Unary("neg", tree(node.operand, depth + 1))
        # A function name, not parenthesized, applied to one argument ('='
        # and ',' are foreign, so there is no keyword and no second one).
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in FUNCTIONS and len(node.args) == 1
                and node.func.col_offset == node.col_offset):
            return Unary(node.func.id, tree(node.args[0], depth + 1))
        if isinstance(node, ast.Name):
            var = _VAR.match(node.id)
            if not var:
                fail(f"unknown identifier {node.id!r}", node)
            # (the length test spares int() a string too long to convert)
            if len(var[1]) > 9 or int(var[1]) > n:
                fail(f"variable x{var[1]} exceeds dimension n={n}", node)
            return Var(int(var[1]))
        segment = text[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
            if not np.isfinite(float(segment)):
                fail(f"constant {segment!r} overflows", node)
            return Const(float(segment))
        fail(f"unexpected {segment!r}", node)

    return tree(body, 1)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: ExprAst) -> int:
    if isinstance(node, (Const, Var)):
        return 5
    if isinstance(node, Unary):
        return 5 if node.op != "neg" else _PREC["neg"]
    return _PREC[node.op]


def to_string(node: ExprAst) -> str:
    """Render with the fewest parentheses that preserve the tree exactly."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            arg = to_string(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{node.op}({to_string(node.arg)})"
    p = _PREC[node.op]
    left, right = to_string(node.left), to_string(node.right)
    if node.op == "^":
        # right-associative: parenthesize the left on ties
        if _prec(node.left) <= p:
            left = f"({left})"
        if _prec(node.right) < p:
            right = f"({right})"
    else:
        if _prec(node.left) < p:
            left = f"({left})"
        if _prec(node.right) <= p:
            right = f"({right})"
    return f"{left}{node.op}{right}"


def free_var_max(node: ExprAst) -> int:
    """Largest coordinate index appearing in the tree (0 if constant)."""
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Unary):
        return free_var_max(node.arg)
    return max(free_var_max(node.left), free_var_max(node.right))


# op -> (numpy ufunc, [(mask of bad arguments, message), ...]), one table
# per arity with the message for a non-finite result.
_UNARY = ({
    "neg": (np.negative, []),
    "sin": (np.sin, []),
    "cos": (np.cos, []),
    "exp": (np.exp, []),
    "log": (np.log, [(lambda a: a <= 0.0, "log of a non-positive value")]),
    "abs": (np.abs, []),
    "sqrt": (np.sqrt,
             [(lambda a: a < 0.0, "square root of a negative value")]),
}, "function", "non-finite result")
_BINARY = ({
    "+": (np.add, []),
    "-": (np.subtract, []),
    "*": (np.multiply, []),
    "/": (np.divide, [(lambda a, b: b == 0.0, "division by zero")]),
    "^": (np.power, [(lambda a, b: (a < 0.0) & (b != np.floor(b)),
                      "negative base under a fractional power"),
                     (lambda a, b: (a == 0.0) & (b < 0.0),
                      "zero base under a negative power")]),
}, "operator", "non-finite result (overflow)")


def eval_array(node: ExprAst, coords, shape=None) -> np.ndarray:
    """Evaluate over numpy coordinate arrays (broadcastable to `shape`).

    Domain violations (log of a nonpositive value, division by zero,
    negative base under a fractional power, overflow to non-finite) raise
    ExprEvalError naming the offending subexpression; when `shape` is given
    the first failing grid index is included. Every result but a
    negation's must be finite (negation passes a non-finite coordinate
    through).
    """
    coords = [np.asarray(c, dtype=float) for c in coords]

    def fail(message: str, sub: ExprAst, mask):
        index = None
        if shape is not None:
            full = np.broadcast_to(mask, shape)
            index = tuple(int(i) for i in np.argwhere(full)[0])
        raise ExprEvalError(message, to_string(sub), index)

    def walk(sub: ExprAst) -> np.ndarray:
        if isinstance(sub, Const):
            return np.float64(sub.value)
        if isinstance(sub, Var):
            if sub.index > len(coords):
                raise DomainError(
                    f"expression uses x{sub.index} but only {len(coords)} "
                    "coordinates were supplied")
            return coords[sub.index - 1]
        args = ([walk(sub.arg)] if isinstance(sub, Unary)
                else [walk(sub.left), walk(sub.right)])
        table, kind, non_finite = _UNARY if len(args) == 1 else _BINARY
        if sub.op not in table:
            raise DomainError(f"unknown {kind} {sub.op!r}")
        ufunc, checks = table[sub.op]
        for bad_args, message in checks:
            bad = bad_args(*args)
            if np.any(bad):
                fail(message, sub, bad)
        # an overflow is caught as a non-finite result below, not warned of
        with np.errstate(all="ignore"):
            out = ufunc(*args)
        if sub.op != "neg":
            bad = ~np.isfinite(out)
            if np.any(bad):
                fail(non_finite, sub, bad)
        return out

    return walk(node)


def keyed(key: str, evaluate, *args):
    """evaluate(*args), with the message of an ExprEvalError it raises led
    by key, the configuration key of the expression it evaluates."""
    try:
        return evaluate(*args)
    except ExprEvalError as err:
        err.args = (f"{key}: {err}",)
        raise


def evaluate(node: ExprAst, point) -> float:
    """Evaluate at a single point (sequence of coordinates)."""
    coords = [np.float64(p) for p in point]
    return float(eval_array(node, coords, shape=None))
