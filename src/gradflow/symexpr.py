"""Scalar symbolic expressions.

Expressions appear everywhere a number is needed symbolically: array shapes,
memlet subsets, loop headers, tasklet bodies and branch conditions. The
grammar is a prefix s-expression, e.g. ``(add (mul N N) 3)``.

Operator set:

* binary: add sub mul div idiv mod min max pow
* unary: neg sin cos exp log sqrt tanh abs sign
* comparisons lt gt le ge — allowed only at the root of branch conditions
* ``(idx A i j)`` — element read, allowed only inside branch conditions

``sign`` (sign(0) = 0) exists so almost-everywhere derivatives of abs/min/max
are expressible as ordinary serializable expressions.

The whole-array elementwise library ops are defined by these expressions too
(``ir.library_expr``), so the op and domain-check tables below are the only
evaluators of scalar operators in the package; ``python_source`` turns an
expression into Python that calls the same entries (add, sub, mul and neg
are the plain operators the entries apply).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ProgramSyntaxError, UnboundName

BINARY_OPS = ("add", "sub", "mul", "div", "idiv", "mod", "min", "max", "pow")
UNARY_OPS = ("neg", "sin", "cos", "exp", "log", "sqrt", "tanh", "abs", "sign")
COMPARE_OPS = ("lt", "gt", "le", "ge")


@dataclass(frozen=True)
class Const:
    value: Union[int, float]


@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class Unary:
    op: str
    x: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    x: "Expr"
    y: "Expr"


@dataclass(frozen=True)
class Index:
    """Element read inside a branch condition: base array + index expressions."""

    base: str
    indices: tuple["Expr", ...]


Expr = Union[Const, Name, Unary, Binary, Index]
Value = Union[int, float, np.ndarray, np.generic]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# evaluation


def _any_true(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool(np.any(v))
    return bool(v)


def _check_pow(base, exp):
    if _any_true(np.equal(base, 0) & np.less(exp, 0) if isinstance(base, np.ndarray) or isinstance(exp, np.ndarray) else (base == 0 and exp < 0)):
        raise DomainError("pow: zero base with negative exponent")
    frac = exp != np.floor(exp) if isinstance(exp, np.ndarray) else (not float(exp).is_integer())
    if _any_true((np.less(base, 0) & frac) if isinstance(base, np.ndarray) or isinstance(exp, np.ndarray) else (base < 0 and frac)):
        raise DomainError("pow: negative base with fractional exponent")


def _b_div(a, b):
    if _any_true(np.equal(b, 0)):
        raise DomainError("division by zero")
    return a / b


def _b_idiv(a, b):
    if _any_true(np.equal(b, 0)):
        raise DomainError("floor division by zero")
    return a // b


def _b_mod(a, b):
    if _any_true(np.equal(b, 0)):
        raise DomainError("modulo by zero")
    return a % b


def _b_min(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _b_max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _b_pow(a, b):
    _check_pow(a, b)
    return a**b


def _u_log(x):
    if _any_true(np.less_equal(x, 0)):
        raise DomainError("log of non-positive value")
    return np.log(x) if isinstance(x, (np.ndarray, np.generic)) else math.log(x)


def _u_sqrt(x):
    if _any_true(np.less(x, 0)):
        raise DomainError("sqrt of negative value")
    return np.sqrt(x) if isinstance(x, (np.ndarray, np.generic)) else math.sqrt(x)


_BINARY_FNS: dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _b_div,
    "idiv": _b_idiv,
    "mod": _b_mod,
    "min": _b_min,
    "max": _b_max,
    "pow": _b_pow,
    "lt": lambda a, b: a < b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
    "ge": lambda a, b: a >= b,
}

_UNARY_FNS: dict[str, Callable] = {
    "neg": lambda x: -x,
    "sin": lambda x: np.sin(x) if isinstance(x, (np.ndarray, np.generic)) else math.sin(x),
    "cos": lambda x: np.cos(x) if isinstance(x, (np.ndarray, np.generic)) else math.cos(x),
    "exp": lambda x: np.exp(x) if isinstance(x, (np.ndarray, np.generic)) else math.exp(x),
    "log": _u_log,
    "sqrt": _u_sqrt,
    "tanh": lambda x: np.tanh(x) if isinstance(x, (np.ndarray, np.generic)) else math.tanh(x),
    "abs": lambda x: np.abs(x) if isinstance(x, (np.ndarray, np.generic)) else abs(x),
    "sign": lambda x: np.sign(x) if isinstance(x, (np.ndarray, np.generic)) else (0 if x == 0 else (1 if x > 0 else -1)),
}


def eval_expr(expr: Expr, bindings: dict[str, Value], arrays: dict[str, np.ndarray] | None = None) -> Value:
    """Evaluate under ``bindings``; ``arrays`` backs ``idx`` reads (conditions)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Name):
        try:
            return bindings[expr.id]
        except KeyError:
            raise UnboundName(f"no binding for '{expr.id}'") from None
    if isinstance(expr, Unary):
        return _UNARY_FNS[expr.op](eval_expr(expr.x, bindings, arrays))
    if isinstance(expr, Binary):
        return _BINARY_FNS[expr.op](
            eval_expr(expr.x, bindings, arrays), eval_expr(expr.y, bindings, arrays)
        )
    if isinstance(expr, Index):
        if arrays is None or expr.base not in arrays:
            raise UnboundName(f"no array available for '{expr.base}'")
        idx = tuple(int(eval_expr(e, bindings, arrays)) for e in expr.indices)
        return arrays[expr.base][(Ellipsis, *idx)]
    raise TypeError(f"not an expression: {expr!r}")


_PY_OPERATORS = {"add": "+", "sub": "-", "mul": "*"}


def python_source(expr: Expr, local: Callable[[str], str]) -> str:
    """Python source that evaluates ``expr`` like :func:`eval_expr`, with
    ``local(name)`` naming the variable that holds each name's value.
    add/sub/mul/neg become operators inside the tree's own parentheses;
    every other op calls its table entry, ``B_<op>(x, y)`` or ``U_<op>(x)``
    in :data:`SOURCE_NAMESPACE`, so its domain checks still run."""
    if isinstance(expr, Const):
        v = expr.value
        return repr(v) if math.isfinite(v) else f"float('{v!r}')"
    if isinstance(expr, Name):
        return local(expr.id)
    if isinstance(expr, Unary):
        x = python_source(expr.x, local)
        return f"(-{x})" if expr.op == "neg" else f"U_{expr.op}({x})"
    if isinstance(expr, Binary):
        x, y = python_source(expr.x, local), python_source(expr.y, local)
        sym = _PY_OPERATORS.get(expr.op)
        return f"({x} {sym} {y})" if sym else f"B_{expr.op}({x}, {y})"
    raise TypeError(f"cannot compile {expr!r}")


SOURCE_NAMESPACE = {
    **{f"B_{op}": fn for op, fn in _BINARY_FNS.items()},
    **{f"U_{op}": fn for op, fn in _UNARY_FNS.items()},
}


# ---------------------------------------------------------------------------
# structure helpers


def free_names(expr: Expr) -> set[str]:
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Name):
        return {expr.id}
    if isinstance(expr, Unary):
        return free_names(expr.x)
    if isinstance(expr, Binary):
        return free_names(expr.x) | free_names(expr.y)
    if isinstance(expr, Index):
        out = {expr.base}
        for e in expr.indices:
            out |= free_names(e)
        return out
    raise TypeError(f"not an expression: {expr!r}")


def count_ops(expr: Expr) -> int:
    """Operator applications in the tree; the unit for FLOP accounting."""
    if isinstance(expr, (Const, Name)):
        return 0
    if isinstance(expr, Unary):
        return 1 + count_ops(expr.x)
    if isinstance(expr, Binary):
        return 1 + count_ops(expr.x) + count_ops(expr.y)
    if isinstance(expr, Index):
        return sum(count_ops(e) for e in expr.indices)
    raise TypeError(f"not an expression: {expr!r}")


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Name):
        return mapping.get(expr.id, expr)
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute(expr.x, mapping))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute(expr.x, mapping), substitute(expr.y, mapping))
    if isinstance(expr, Index):
        return Index(expr.base, tuple(substitute(e, mapping) for e in expr.indices))
    raise TypeError(f"not an expression: {expr!r}")


def simplify(expr: Expr) -> Expr:
    """Constant folding plus 0/1 identities, applied bottom-up."""
    if isinstance(expr, (Const, Name, Index)):
        return expr
    if isinstance(expr, Unary):
        x = simplify(expr.x)
        if isinstance(x, Const):
            try:
                v = _UNARY_FNS[expr.op](x.value)
                return Const(_canon_num(v))
            except (DomainError, OverflowError, ValueError):
                pass
        if expr.op == "neg" and isinstance(x, Unary) and x.op == "neg":
            return x.x
        return Unary(expr.op, x)

    x, y = simplify(expr.x), simplify(expr.y)
    op = expr.op
    if isinstance(x, Const) and isinstance(y, Const) and op not in COMPARE_OPS:
        try:
            return Const(_canon_num(_BINARY_FNS[op](x.value, y.value)))
        except (DomainError, OverflowError, ValueError, ZeroDivisionError):
            return Binary(op, x, y)
    if op == "add":
        if _is_const(x, 0):
            return y
        if _is_const(y, 0):
            return x
    elif op == "sub":
        if _is_const(y, 0):
            return x
        if _is_const(x, 0):
            return simplify(Unary("neg", y))
    elif op == "mul":
        if _is_const(x, 0) or _is_const(y, 0):
            return Const(0)
        if _is_const(x, 1):
            return y
        if _is_const(y, 1):
            return x
    elif op == "div":
        if _is_const(y, 1):
            return x
    elif op == "pow":
        if _is_const(y, 0):
            return Const(1)
        if _is_const(y, 1):
            return x
    return Binary(op, x, y)


def _is_const(e: Expr, v) -> bool:
    return isinstance(e, Const) and e.value == v


def _canon_num(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    f = float(v)
    if math.isnan(f) or math.isinf(f):
        raise ValueError("non-finite fold")
    return int(f) if f.is_integer() and abs(f) < 2**53 else f


# ---------------------------------------------------------------------------
# s-expression text form


def to_sexpr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return _num_str(expr.value)
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, Unary):
        return f"({expr.op} {to_sexpr(expr.x)})"
    if isinstance(expr, Binary):
        return f"({expr.op} {to_sexpr(expr.x)} {to_sexpr(expr.y)})"
    if isinstance(expr, Index):
        inner = " ".join(to_sexpr(e) for e in expr.indices)
        return f"(idx {expr.base} {inner})"
    raise TypeError(f"not an expression: {expr!r}")


def _num_str(v) -> str:
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_sexpr(text: str) -> Expr:
    """Parse the prefix form. Raises ProgramSyntaxError with a char offset."""
    tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
    pos = 0

    def fail(msg: str, at: int):
        raise ProgramSyntaxError(msg, where=f"char {at}")

    def parse_one() -> Expr:
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of expression", len(text))
        tok, at = tokens[pos]
        pos += 1
        if tok == ")":
            fail("unexpected ')'", at)
        if tok != "(":
            return parse_atom(tok, at)
        if pos >= len(tokens):
            fail("unclosed '('", at)
        head, hat = tokens[pos]
        pos += 1
        args: list[Expr] = []
        if head == "idx":
            if pos >= len(tokens) or tokens[pos][0] in ("(", ")"):
                fail("idx needs an array name", hat)
            base, bat = tokens[pos]
            pos += 1
            if not _NAME_RE.match(base):
                fail(f"bad array name '{base}'", bat)
            while pos < len(tokens) and tokens[pos][0] != ")":
                args.append(parse_one())
            expect_close(at)
            if not args:
                fail("idx needs at least one index", at)
            return Index(base, tuple(args))
        while pos < len(tokens) and tokens[pos][0] != ")":
            args.append(parse_one())
        expect_close(at)
        if head in UNARY_OPS:
            if len(args) != 1:
                fail(f"'{head}' takes 1 argument, got {len(args)}", hat)
            return Unary(head, args[0])
        if head in BINARY_OPS or head in COMPARE_OPS:
            if len(args) != 2:
                fail(f"'{head}' takes 2 arguments, got {len(args)}", hat)
            return Binary(head, args[0], args[1])
        fail(f"unknown op '{head}'", hat)

    def expect_close(open_at: int):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != ")":
            fail("unclosed '('", open_at)
        pos += 1

    def parse_atom(tok: str, at: int) -> Expr:
        try:
            return Const(int(tok))
        except ValueError:
            pass
        try:
            return Const(float(tok))
        except ValueError:
            pass
        if _NAME_RE.match(tok):
            return Name(tok)
        fail(f"bad token '{tok}'", at)

    result = parse_one()
    if pos != len(tokens):
        fail(f"trailing input '{tokens[pos][0]}'", tokens[pos][1])
    return result


def is_condition(expr: Expr) -> bool:
    """True when the root is one of the comparison ops."""
    return isinstance(expr, Binary) and expr.op in COMPARE_OPS


def contains_compare_or_index(expr: Expr) -> bool:
    if isinstance(expr, (Const, Name)):
        return False
    if isinstance(expr, Index):
        return True
    if isinstance(expr, Unary):
        return contains_compare_or_index(expr.x)
    if isinstance(expr, Binary):
        if expr.op in COMPARE_OPS:
            return True
        return contains_compare_or_index(expr.x) or contains_compare_or_index(expr.y)
    return True
