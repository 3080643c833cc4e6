import math

import pytest
from hypothesis import given, strategies as st

from gradflow import derivative
from gradflow.errors import DomainError, ProgramSyntaxError, UnboundName
from gradflow.symexpr import (
    Const,
    eval_expr,
    free_names,
    is_condition,
    parse_sexpr,
    python_source,
    simplify,
    to_sexpr,
)


# ---------------------------------------------------------------------------
# parsing and printing


@pytest.mark.parametrize("text", [
    "x",
    "3",
    "2.5",
    "(neg x)",
    "(add x 1)",
    "(mul (add a b) (sub a b))",
    "(sin (exp x))",
    "(idx A i j)",
    "(lt (add i 1) n)",
])
def test_parse_print_round_trip(text):
    assert to_sexpr(parse_sexpr(text)) == text


@pytest.mark.parametrize("text", [
    "",
    "(",
    "(add x",
    "(add x 1))",
    "()",
    "(frobnicate x)",
    "(add x y z)",
    "(sin)",
    "1.2.3",
])
def test_parse_rejects_garbage(text):
    with pytest.raises(ProgramSyntaxError):
        parse_sexpr(text)


def test_free_names():
    assert free_names(parse_sexpr("(add (mul x y) (sin x))")) == {"x", "y"}
    assert free_names(parse_sexpr("3.5")) == set()
    assert free_names(parse_sexpr("(idx A i j)")) == {"A", "i", "j"}


# ---------------------------------------------------------------------------
# evaluation


def test_eval_arithmetic():
    env = {"x": 3.0, "y": 2.0}
    assert eval_expr(parse_sexpr("(add x y)"), env) == 5.0
    assert eval_expr(parse_sexpr("(sub x y)"), env) == 1.0
    assert eval_expr(parse_sexpr("(mul x y)"), env) == 6.0
    assert eval_expr(parse_sexpr("(div x y)"), env) == 1.5
    assert eval_expr(parse_sexpr("(pow x y)"), env) == 9.0
    assert eval_expr(parse_sexpr("(max x y)"), env) == 3.0
    assert eval_expr(parse_sexpr("(min x y)"), env) == 2.0
    assert eval_expr(parse_sexpr("(neg x)"), env) == -3.0


def test_eval_math_functions():
    for op, ref in [("sin", math.sin), ("cos", math.cos), ("exp", math.exp),
                    ("log", math.log), ("sqrt", math.sqrt), ("tanh", math.tanh)]:
        got = eval_expr(parse_sexpr(f"({op} x)"), {"x": 0.7})
        assert got == pytest.approx(ref(0.7), rel=1e-15)


def test_integer_division_floors():
    # floor semantics, as in a halving loop header: -7 idiv 2 = -4
    assert eval_expr(parse_sexpr("(idiv (neg 7) 2)"), {}) == -4
    assert eval_expr(parse_sexpr("(mod (neg 7) 2)"), {}) == 1
    assert eval_expr(parse_sexpr("(idiv 9 2)"), {}) == 4


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse_sexpr("(log x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        eval_expr(parse_sexpr("(sqrt x)"), {"x": -4.0})
    with pytest.raises(DomainError):
        eval_expr(parse_sexpr("(div 1 x)"), {"x": 0.0})


def test_eval_unbound_name():
    with pytest.raises(UnboundName):
        eval_expr(parse_sexpr("(add x 1)"), {})


def test_is_condition():
    assert is_condition(parse_sexpr("(lt x 1)"))
    assert is_condition(parse_sexpr("(ge (add i 1) n)"))
    assert not is_condition(parse_sexpr("(add x 1)"))


# ---------------------------------------------------------------------------
# simplification


@pytest.mark.parametrize("src,expect", [
    ("(add x 0)", "x"),
    ("(add 0 x)", "x"),
    ("(mul x 1)", "x"),
    ("(mul 1 x)", "x"),
    ("(mul x 0)", "0"),
    ("(sub x 0)", "x"),
    ("(add 2 3)", "5"),
    ("(mul 4 2.5)", "10"),
    ("(neg (neg x))", "x"),
])
def test_simplify_table(src, expect):
    assert to_sexpr(simplify(parse_sexpr(src))) == expect


_safe_exprs = st.deferred(lambda: st.one_of(
    st.sampled_from(["a", "b", "c"]).map(parse_sexpr),
    st.integers(-4, 4).map(lambda v: parse_sexpr(str(v))),
    st.tuples(st.sampled_from(["add", "sub", "mul", "min", "max"]),
              _safe_exprs, _safe_exprs).map(
        lambda t: parse_sexpr(f"({t[0]} {to_sexpr(t[1])} {to_sexpr(t[2])})")),
    _safe_exprs.map(lambda e: parse_sexpr(f"(neg {to_sexpr(e)})")),
))


@given(_safe_exprs,
       st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_simplify_preserves_value(expr, a, b, c):
    env = {"a": a, "b": b, "c": c}
    assert eval_expr(simplify(expr), env) == pytest.approx(eval_expr(expr, env), abs=1e-9)


# ---------------------------------------------------------------------------
# expression derivatives, checked against central differences


@pytest.mark.parametrize("src,point", [
    ("(sin x)", 0.6),
    ("(cos x)", 0.6),
    ("(exp x)", 0.3),
    ("(log x)", 1.7),
    ("(sqrt x)", 2.2),
    ("(tanh x)", 0.4),
    ("(mul x x)", 1.3),
    ("(div 1 x)", 0.8),
    ("(pow x 3)", 1.1),
    ("(mul (sin x) (exp x))", 0.5),
    ("(div (sin x) (exp x))", 0.7),
])
def test_derivative_matches_finite_difference(src, point):
    e = parse_sexpr(src)
    d = derivative(e, "x")
    h = 1e-6
    fd = (eval_expr(e, {"x": point + h}) - eval_expr(e, {"x": point - h})) / (2 * h)
    assert eval_expr(d, {"x": point}) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_derivative_of_unrelated_name_is_zero():
    d = derivative(parse_sexpr("(mul y y)"), "x")
    assert to_sexpr(simplify(d)) == "0"


def test_div_derivative_drops_the_vanishing_term():
    # d/dx has no x*y'/(y*y) term to evaluate, and y*y underflows to 0 long
    # before y does
    assert to_sexpr(derivative(parse_sexpr("(div x y)"), "x")) == "(div 1 y)"
    assert to_sexpr(derivative(parse_sexpr("(div x y)"), "y")) == "(neg (div x (mul y y)))"
    assert to_sexpr(derivative(parse_sexpr("(div y y)"), "x")) == "0"
    # with both terms, y*y is never formed: 3/x - 3x/(x*x) divided by 0 here
    assert eval_expr(derivative(parse_sexpr("(div (mul x 3) x)"), "x"), {"x": 1e-200}) == 0.0


def test_python_source_writes_any_int_constant_and_non_finite_floats():
    # an int is exact at any size: no float conversion tests it
    assert python_source(Const(10**400), str) == str(10**400)
    assert eval(python_source(Const(10**400), str)) == 10**400
    assert [python_source(Const(v), str) for v in (2.5, math.inf, -math.inf)] == \
        ["2.5", "float('inf')", "float('-inf')"]
