"""Expression language: parsing, printing, evaluation, and error reporting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmak import evaluate, parse, to_string
from sigmak.errors import ExprEvalError, ExprSyntaxError
from sigmak.fieldexpr import (FUNCTIONS, MAX_DEPTH, Binary, Const, Unary, Var,
                              eval_array, free_var_max)


def ev(src, *coords, n=None):
    return evaluate(parse(src, n if n is not None else max(1, len(coords))),
                    coords)


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("2^3^2") == 512.0          # right associative
    assert ev("-2^2") == -4.0            # unary minus binds looser than ^
    assert ev("8/4/2") == 1.0            # left associative
    assert ev("1 - 2 - 3") == -4.0
    assert ev("2*x1 + x2", 1.5, 4.0) == 7.0


def test_functions_match_math():
    for src, want in [("sin(1)", math.sin(1)), ("cos(0.5)", math.cos(0.5)),
                      ("exp(2)", math.e ** 2), ("log(2)", math.log(2)),
                      ("sqrt(9)", 3.0), ("abs(-3.5)", 3.5)]:
        assert ev(src) == pytest.approx(want, rel=1e-15)


def test_variables_are_one_based():
    ast = parse("x1 + 10*x3", 3)
    assert free_var_max(ast) == 3
    assert evaluate(ast, (1.0, 99.0, 2.0)) == 21.0
    with pytest.raises(ExprSyntaxError):
        parse("x4", 3)  # out of range for n=3
    with pytest.raises(ExprSyntaxError):
        parse("x0", 3)


def test_syntax_errors_carry_offsets():
    for src in ("1 +", "sin(", "2 ** 3", ")", "1..5", "foo(1)", ""):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(src, 3)
        assert exc.value.offset >= 0
        assert str(exc.value.offset) in str(exc.value)


def test_eval_domain_errors_name_the_node():
    with pytest.raises(ExprEvalError):
        ev("log(0 - 1)")
    with pytest.raises(ExprEvalError):
        ev("sqrt(0 - 4)")
    with pytest.raises(ExprEvalError):
        ev("1/(x1 - x1)", 2.0)
    with pytest.raises(ExprEvalError):
        ev("0^(0-1)")


def test_eval_array_matches_pointwise():
    ast = parse("sin(x1)*cos(x2) + 0.5*x1", 2)
    xs = np.linspace(0.0, 2 * np.pi, 7)
    ys = np.linspace(0.0, 2 * np.pi, 7)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    arr = eval_array(ast, (gx, gy), shape=gx.shape)
    for i in (0, 3, 6):
        for j in (1, 4):
            assert arr[i, j] == pytest.approx(
                evaluate(ast, (gx[i, j], gy[i, j])), rel=1e-15, abs=1e-15)


def test_eval_array_domain_error_reports_first_index():
    ast = parse("log(x1)", 1)
    with pytest.raises(ExprEvalError) as exc:
        eval_array(ast, (np.array([1.0, 0.5, -1.0, -2.0]),), shape=(4,))
    assert exc.value.index == (2,)


def test_only_negation_passes_a_non_finite_coordinate_through():
    coords = (np.array([1.0, np.inf]),)
    assert eval_array(parse("-x1", 1), coords)[1] == -np.inf
    for src, message in (("abs(x1)", "non-finite result in 'abs(x1)'"),
                         ("x1 + 1",
                          "non-finite result (overflow) in 'x1+1.0'")):
        with pytest.raises(ExprEvalError) as exc:
            eval_array(parse(src, 1), coords, shape=(2,))
        assert str(exc.value) == f"{message} at grid index (1,)"


def test_to_string_round_trip_examples():
    for src in ("1 + 2*3", "-x1^2", "(x1 + x2)*(x1 - x2)",
                "sin(cos(exp(x1)))", "0.1*sin(x1)*cos(x2)",
                "-(x1 + 1)", "2^(x1 + 1)", "1/(1 + x1^2)"):
        ast = parse(src, 3)
        printed = to_string(ast)
        assert parse(printed, 3) == ast
        # Printing is a fixed point after one round.
        assert to_string(parse(printed, 3)) == printed


def _expr_strategy():
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False).map(Const),
        st.integers(min_value=1, max_value=3).map(Var))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children,
                      children).map(lambda t: Binary(*t)),
            st.tuples(st.sampled_from(("neg",) + FUNCTIONS),
                      children).map(lambda t: Unary(*t)))

    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_expr_strategy())
def test_to_string_round_trip_property(ast):
    assert parse(to_string(ast), 3) == ast


def test_whitespace_is_insignificant():
    a = parse("1+2 * sin( x1 )", 2)
    b = parse("1 + 2*sin(x1)", 2)
    assert a == b


def test_numbers_parse_like_python_floats():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0
    assert ev(".5") == 0.5
    assert ev("0.1") == 0.1


def test_grammar_edges_read_as_before():
    """Leading zeros are decimal, an exponent may carry its own unary minus,
    minus binds looser than ^, and blanks (a newline too) are
    insignificant, leading and trailing ones included."""
    one, two = Const(1.0), Const(2.0)
    for src, tree in [
            ("007", Const(7.0)), ("00.5", Const(0.5)), ("1e05", Const(1e5)),
            ("1.e-2", Const(0.01)),
            ("2^-1", Binary("^", two, Unary("neg", one))),
            ("-2^2", Unary("neg", Binary("^", two, two))),
            ("x1^-x2^2",
             Binary("^", Var(1), Unary("neg", Binary("^", Var(2), two)))),
            ("--1", Unary("neg", Unary("neg", one))),
            ("  x1 + 1\t ", Binary("+", Var(1), one)),
            ("x1 *\n (1 +\r\n x2)",
             Binary("*", Var(1), Binary("+", one, Var(2))))]:
        assert parse(src, 3) == tree, src


@pytest.mark.parametrize("src", [
    "2 ** 3", "+1", "1)+(2", "sin()", "2(3)", "0x1", "1_0", "1j", "True",
    "not x1", "x1 if x2 else x3", "x\u2081", "1 # c", "x01", "1e999", "",
    "  ", "(sin)(x1)", "sin(x1)(x2)", "x1.real",
    pytest.param("x" + "1" * 5000, id="x-and-5000-digits")])
def test_rejected_text_is_a_syntax_error_inside_the_text(src):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src, 3)
    assert 0 <= exc.value.offset <= len(src)


_DEEP = {  # text of a tree `depth` nodes deep whose deepest operation fails
    "sum": (lambda d: "1/0" + "+x1" * (d - 2), "1.0/0.0"),
    "power": (lambda d: "x1^" * (d - 2) + "(1/0)", "1.0/0.0"),
    "minus": (lambda d: "-" * (d - 2) + "log(0)", "log(0.0)"),
    "function": (lambda d: "sin(" * (d - 2) + "log(0)" + ")" * (d - 2),
                 "log(0.0)"),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_trees_are_at_most_max_depth_deep(shape):
    """A tree MAX_DEPTH nodes deep parses, prints, compares equal and
    fails evaluation at its deepest operation; one node deeper is a syntax
    error, not a RecursionError."""
    text, node = _DEEP[shape]
    tree = parse(text(MAX_DEPTH), 1)
    assert parse(to_string(tree), 1) == tree
    with pytest.raises(ExprEvalError) as exc:
        evaluate(tree, (0.5,))
    assert exc.value.node == node
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse(text(MAX_DEPTH + 1), 1)


def test_parentheses_nest_max_depth_levels():
    assert parse("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 1) == Var(1)
    with pytest.raises(ExprSyntaxError):
        parse("(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1), 1)


_PIECES = ["0", "1", "2.5", ".5", "5.", "007", "1e3", "1E-2", "e", "x", "_",
           "x1", "x2", "x3", "x4", "x0", "x01", *FUNCTIONS, "if", "else",
           "not", "and", "True", "None", "lambda", "+", "-", "*", "/", "^",
           "**", "(", ")", ".", ",", " ", "\n", "\t", "#", "=", ":", "[",
           "'", "\\", "\u00e9", "\u2081"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=16).map("".join),
    st.text(alphabet="0123456789.eEx_sincolgqrtab+-*/^() \n", max_size=24)))
def test_parse_returns_a_tree_or_a_syntax_error(src):
    """Over the alphabet and the grammar's tokens, parse returns a tree or
    raises ExprSyntaxError at an offset inside the text, and warns of
    nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tree = parse(src, 3)
        except ExprSyntaxError as err:
            assert 0 <= err.offset <= len(src)
        else:
            assert isinstance(tree, (Const, Var, Unary, Binary))
