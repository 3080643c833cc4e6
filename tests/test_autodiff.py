import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow.examples as examples
import gradflow.interpreter as interpreter
from gradflow import (
    ProgramBuilder,
    build_backward,
    compare_gradients,
    extract_ccs,
    finite_difference_gradient,
    gradient,
    plan,
    restrict_to_ccs,
    reverse_loop_header,
    run_backward,
    run_forward,
    run_planned,
    sample_inputs,
    serialize_program,
    simulate_memory,
)
from gradflow import cli
from gradflow.autodiff import _recorded, backward_of
from gradflow.errors import Infeasible, NonDifferentiableOp, UnsupportedConstruct, UnsupportedLoop
from gradflow.ir import (
    EW_BINARY_OPS,
    EW_UNARY_OPS,
    LibraryNode,
    LoopRegion,
    MapNode,
    Tasklet,
    simulate_header,
)
from gradflow.symexpr import parse_sexpr, to_sexpr
from genprog import ew_expr_program, pingpong_nonaffine, scalar_header_program


def _grads(name, inputs, params):
    return gradient(examples.build(name), inputs, params).grads


# ---------------------------------------------------------------------------
# computation slice


def test_ccs_drops_dead_chain_and_preserves_value(rng):
    p = examples.build("exp_sin_chain")  # W = exp(Y) is never consumed
    q = restrict_to_ccs(p)
    full_nodes = sum(len(b.graph.nodes) for b in p.region)
    cut_nodes = sum(len(b.graph.nodes) for b in q.region)
    assert cut_nodes < full_nodes
    x = rng.uniform(0.4, 1.6, 9)
    v_full = run_forward(p, {"X": x}, {"n": 9}).value
    v_cut = run_forward(q, {"X": x}, {"n": 9}).value
    assert v_full == v_cut  # bit-exact, identical op sequence


def test_ccs_keeps_everything_when_nothing_is_dead():
    p = examples.build("scaled_product_chain")
    q = restrict_to_ccs(p)
    assert sum(len(b.graph.nodes) for b in p.region) == \
        sum(len(b.graph.nodes) for b in q.region)


def test_ccs_loop_needs_warmup_pass():
    # pingpong: the first reversed iteration tracks a different set than the
    # steady state, so the slice extractor records two passes
    ccs = extract_ccs(examples.build("two_array_pingpong"))
    assert len(ccs.loop_passes["swap"]) == 2


# ---------------------------------------------------------------------------
# forwarding requirements


def test_forwarded_versions_for_the_planner_example():
    b = build_backward(examples.build("scaled_product_chain"))
    assert sorted(_recorded(b.forwarding)) == [("A0", 1), ("A1", 1), ("A2", 1)]


def test_forwarded_versions_elementwise_chain():
    # sin consumes exp's output; exp's own adjoint reuses the pristine input
    b = build_backward(examples.build("exp_sin_chain"))
    assert sorted(_recorded(b.forwarding)) == [("Y", 1)]


def test_forwarded_versions_inplace_loop():
    b = build_backward(examples.build("iterated_sin_map"))
    assert sorted(_recorded(b.forwarding)) == [("X", 0), ("X", 1)]


def test_a_program_declaring_a_stored_copy_is_refused(tmp_path, capsys):
    # 'stored-copy' is the role of the reverse program's forwarded values;
    # the memory model charges none in a forward program (it planned this
    # one at 192 B while simulate_memory, holding S from its write, saw 256 B)
    b = ProgramBuilder(())
    b.array("X", ("8",), role="input", kind="real64")
    b.array("S", ("8",), role="stored-copy", kind="real64")
    b.array("Y", ("8",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    for label, x, y in (("s0", "X", "S"), ("s1", "S", "Y")):
        with b.state(label) as st:
            st.library("ew_unary", {"x": x}, {"y": y}, op="sin")
    with b.state("s2") as st:
        st.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    program = b.finish("O", ["X"])
    for call in (lambda: backward_of(program), lambda: plan(program, None)):
        with pytest.raises(UnsupportedConstruct, match="'S' is declared 'stored-copy'"):
            call()
    path = tmp_path / "stored.json"
    path.write_text(serialize_program(program))
    assert cli.main(["run", str(path)]) == 3
    assert capsys.readouterr().err.startswith("unsupported: 'S'")


# ---------------------------------------------------------------------------
# loop reversal


def _loop(init, bound, cmp, update):
    return LoopRegion("l", "i", parse_sexpr(init), parse_sexpr(bound), cmp,
                      parse_sexpr(update), [])


def _visits(fwd, params=None, skip=0, take=None):
    """Execute the reversal of ``fwd`` (a peel, given ``skip``/``take``)
    with a body that stamps V[i + 16] with a running count, and read the
    visit order off the stamps."""
    params = params or {}
    b = ProgramBuilder(tuple(params))
    b.array("V", ("64",), role="output", kind="real64")
    b.scalar("c", role="output", kind="real64")
    with b.state("init") as s:
        s.tasklet(ins={}, outs={"o": ("c", ())}, body={"o": "0"})
    with b.loop(fwd.iterator, fwd.init, fwd.bound, fwd.cmp, fwd.update, label=fwd.label) as loop:
        with b.state("stamp") as s:
            s.tasklet(ins={"t": ("c", ())}, outs={"o": ("c", ())}, body={"o": "(add t 1)"})
            s.tasklet(ins={"t": ("c", ())}, outs={"o": ("V", ("(add i 16)",))}, body={"o": "t"})
    p = b.finish("c", [])
    rev = reverse_loop_header(loop)
    rev.body, rev.skip, rev.take = loop.body, skip, take
    env = run_forward(dataclasses.replace(p, region=[p.region[0], rev]), {}, params).env
    v = env.get("V", np.zeros(64))  # never written when nothing is visited
    return sorted((int(k) - 16 for k in np.flatnonzero(v)), key=lambda i: v[i + 16])


def test_reverse_unit_stride():
    assert _visits(_loop("0", "8", "<", "(add i 1)")) == [7, 6, 5, 4, 3, 2, 1, 0]


def test_reverse_stride_three():
    assert _visits(_loop("0", "10", "<", "(add i 3)")) == [9, 6, 3, 0]


def test_reverse_negative_stride():
    assert _visits(_loop("5", "0", ">", "(sub i 2)")) == [1, 3, 5]


def test_reverse_parametric_bound():
    fwd = _loop("0", "n", "<", "(add i 1)")
    assert _visits(fwd, {"n": 4}) == [3, 2, 1, 0]
    assert _visits(fwd, {"n": 0}) == []  # empty forward, empty backward


def test_reverse_doubling():
    assert _visits(_loop("1", "16", "<", "(mul i 2)")) == [8, 4, 2, 1]


def test_peels_skip_and_take_reversed_iterates():
    unit, doubling = _loop("0", "8", "<", "(add i 1)"), _loop("1", "16", "<", "(mul i 2)")
    assert _visits(unit, skip=1, take=1) == [6]
    assert _visits(unit, skip=2) == [5, 4, 3, 2, 1, 0]
    assert _visits(unit, skip=7, take=3) == [0]
    assert _visits(unit, skip=8, take=1) == []  # fewer trips than the peel needs
    assert _visits(doubling, skip=1, take=2) == [4, 2]


@settings(deadline=None)
@given(st.integers(-10, 10), st.integers(-10, 25), st.integers(1, 6),
       st.booleans())
def test_reverse_affine_is_exact_reversal(lo, hi, stride, ascending):
    if ascending:
        fwd = _loop(str(lo), str(hi), "<", f"(add i {stride})")
    else:
        fwd = _loop(str(hi), str(lo), ">", f"(sub i {stride})")
    seq = simulate_header(fwd, {})
    assert _visits(fwd) == seq[::-1]


def test_reverse_declared_inverse_flags():
    # loops no longer declare inverses: the doubling loop, which once declared
    # (idiv i 2), and affine loops alike keep the forward header, and the
    # reversal is flagged by reverse_of alone
    for fwd in (_loop("0", "10", "<", "(add i 3)"), _loop("5", "0", ">", "(sub i 2)"),
                _loop("1", "16", "<", "(mul i 2)")):
        rev = reverse_loop_header(fwd)
        assert (rev.init, rev.bound, rev.cmp, rev.update) == (fwd.init, fwd.bound, fwd.cmp, fwd.update)
        assert (rev.label, rev.reverse_of, rev.skip, rev.take) == ("l__bwd", "l", 0, None)


def test_reverse_inverseless_replays_the_tape():
    # the reversal of a loop without an inverse visits exactly the iterates
    # of the forward header, last first
    assert _visits(_loop("1", "16", "<", "(mul i 2)")) == [8, 4, 2, 1]


def _order_probe_program():
    """acc = acc*10 + A[i] makes the visit order readable off the result."""
    b = ProgramBuilder(())
    b.array("A", ("16",), role="input", kind="real64")
    b.scalar("acc", role="output", kind="real64")
    with b.state("init") as s:
        s.tasklet(ins={}, outs={"o": ("acc", ())}, body={"o": "0"})
    with b.loop("i", "1", "16", update="(mul i 2)", label="dbl"):
        with b.state("push") as s:
            s.tasklet(ins={"t": ("acc", ()), "a": ("A", ("i",))},
                      outs={"o": ("acc", ())},
                      body={"o": "(add (mul t 10) a)"})
    return b.finish("acc", ["A"])


def test_declared_inverse_replays_reversed_order():
    p = _order_probe_program()
    a = np.arange(16, dtype=np.float64)
    assert run_forward(p, {"A": a}, {}).value == 1248  # visits 1,2,4,8

    loop = p.region[1]
    rev = reverse_loop_header(loop)
    rev.body = loop.body
    backward_only = dataclasses.replace(p, region=[p.region[0], rev])
    assert run_forward(backward_only, {"A": a}, {}).value == 8421  # visits 8,4,2,1


def _peel_program(update, bound):
    """B = sin(A); A = 1.5 B in a loop, the dependent reading only B: the
    last reversed iteration is peeled, and its sin adjoint needs the A the
    previous iteration wrote."""
    b = ProgramBuilder(())
    b.array("A", ("4",), role="input", kind="real64")
    b.array("B", ("4",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("k", "1", bound, update=update, label="swap"):
        with b.state("step") as s:
            s.library("ew_unary", {"x": "A"}, {"y": "B"}, op="sin")
            s.library("ew_unary", {"x": "B"}, {"y": "A"}, op="scale", const=1.5)
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "B"}, {"y": "O"})
    return b.finish("O", ["A"])


@pytest.mark.parametrize("update,bound", [
    ("(add k 1)", "2"), ("(add k 1)", "4"), ("(add k 2)", "8"),
    ("(mul k 2)", "2"), ("(mul k 2)", "16"),
])
def test_peeled_reversal_matches_finite_differences(update, bound):
    p = _peel_program(update, bound)
    assert len(extract_ccs(p).loop_passes["swap"]) == 2
    inputs = {"A": np.linspace(0.5, 1.5, 4)}
    ad = gradient(p, inputs, {})
    fd = finite_difference_gradient(p, inputs, {})
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    replay = run_planned(plan(p, None, {}), inputs, {})
    assert np.array_equal(replay.grads["A"], ad.grads["A"])


def test_nonaffine_pingpong_matches_finite_differences():
    p = pingpong_nonaffine()
    inputs = {"A": np.linspace(0.5, 1.5, 4)}
    ad = gradient(p, inputs, {})
    # B after the trips 1, 2, 4, 8 is 2 * 6^3 * A
    np.testing.assert_array_equal(ad.grads["A"], np.full(4, 432.0))
    fd = finite_difference_gradient(p, inputs, {})
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report


# ---------------------------------------------------------------------------
# gradients against hand-derived formulas


def test_grad_map_reduce(rng):
    x = rng.uniform(0.4, 1.6, (5, 5))
    g = _grads("map_reduce_2d", {"X": x}, {"n": 5})
    np.testing.assert_allclose(g["X"], np.cos(x), rtol=1e-15)


def test_grad_double_read(rng):
    x = rng.uniform(0.4, 1.6, 8)
    g = _grads("double_read", {"X": x}, {"n": 8})
    np.testing.assert_allclose(g["X"], 2 * x + np.cos(x), rtol=1e-15)


def test_grad_overwrite_excludes_buried_write(rng):
    a = rng.uniform(0.4, 1.6, 7)
    g = _grads("overwrite_chain", {"A": a}, {"n": 7})
    np.testing.assert_allclose(g["A"], 2 * np.cos(2 * a) + 3 * np.cos(3 * a),
                               rtol=1e-14)


def test_grad_matmul(rng):
    a = rng.uniform(0.4, 1.6, (5, 5))
    b = rng.uniform(0.4, 1.6, (5, 5))
    g = _grads("matmul_sum", {"A": a, "B": b}, {"d": 5})
    dC = np.cos(a @ b)
    np.testing.assert_allclose(g["A"], dC @ b.T, rtol=1e-13)
    np.testing.assert_allclose(g["B"], a.T @ dC, rtol=1e-13)


def test_grad_matmul_transposed(rng):
    a = rng.uniform(0.4, 1.6, (4, 4))
    b = rng.uniform(0.4, 1.6, (4, 4))
    g = _grads("matmul_transpose", {"A": a, "B": b}, {"d": 4})
    dC = np.cos(a.T @ b.T)  # C_ij = sum_k A_ki B_jk
    np.testing.assert_allclose(g["A"], (dC @ b).T, rtol=1e-13)
    np.testing.assert_allclose(g["B"], (a @ dC).T, rtol=1e-13)


def test_grad_triangular(rng):
    a = rng.uniform(0.4, 1.6, (6, 6))
    g = _grads("triangular", {"A": a}, {"n": 6})
    expect = np.where(np.tril(np.ones((6, 6))) > 0, 2 * a, 0.0)
    np.testing.assert_allclose(g["A"], expect, rtol=1e-15)


def test_grad_branch_uses_recorded_outcome(rng):
    x = rng.uniform(0.4, 1.6, 8)
    low = _grads("branchy_scale", {"X": x, "s": np.float64(0.2)}, {"n": 8})
    np.testing.assert_allclose(low["X"], np.full(8, 2.0), rtol=0)
    high = _grads("branchy_scale", {"X": x, "s": np.float64(0.9)}, {"n": 8})
    np.testing.assert_allclose(high["X"], np.cos(x), rtol=1e-15)


def test_grad_linear_loop(rng):
    a = rng.uniform(0.4, 1.6, 4)
    g = _grads("two_array_pingpong", {"A": a}, {"trips": 3})
    # B after t trips is 2*(6^(t-1))*A; dependent reads the final B
    np.testing.assert_allclose(g["A"], np.full(4, 2 * 6 ** 2), rtol=1e-15)


def test_grad_iterated_sin(rng):
    x = rng.uniform(0.4, 1.6, 6)
    g = _grads("iterated_sin_map", {"X": x}, {"n": 6, "steps": 4})
    expect = np.ones(6)
    cur = x.copy()
    for _ in range(4):
        expect *= np.cos(cur)
        cur = np.sin(cur)
    np.testing.assert_allclose(g["X"], expect, rtol=1e-14)


def test_grad_doubling_gather(rng):
    a = rng.uniform(0.4, 1.6, 16)
    g = _grads("doubling_gather", {"A": a}, {})
    prod = a[1] * a[2] * a[4] * a[8]
    expect = np.zeros(16)
    for i in (1, 2, 4, 8):
        expect[i] = prod / a[i]
    np.testing.assert_allclose(g["A"], expect, rtol=1e-13)


def test_grad_div_tasklet_with_tiny_denominator():
    # d(x/y)/dx = 1/y; the quotient rule's other term would divide by y*y,
    # which underflows to 0 at y = 1e-200
    b = ProgramBuilder(())
    b.scalar("X", role="input", kind="real64")
    b.scalar("Y", role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.tasklet(
            ins={"x": ("X", ()), "y": ("Y", ())},
            outs={"o": ("O", ())},
            body={"o": "(div x y)"},
        )
    p = b.finish("O", ["X"])
    inputs = {"X": np.float64(1.0), "Y": np.float64(1e-200)}
    assert run_forward(p, inputs, {}).value == 1e200
    assert gradient(p, inputs, {}).grads["X"] == 1e200


# ---------------------------------------------------------------------------
# elementwise library adjoints: which nodes they lower to


# adjoint of each operand connector: the expression of its whole-array
# ``ew_expr`` node over the output gradient ``_g``, or None when the
# derivative is 0
_UNARY_ADJOINT = {
    "sin": "(mul (cos x) _g)", "cos": "(neg (mul (sin x) _g))",
    "exp": "(mul (exp x) _g)", "sqrt": "(div _g (mul 2 (sqrt x)))",
    "tanh": "(mul (sub 1 (mul (tanh x) (tanh x))) _g)", "abs": "(mul (sign x) _g)",
    "log": "(div _g x)", "neg": "(neg _g)", "scale": "(mul 1.75 _g)", "copy": "_g",
    "sign": None,
}
# _g where a > b (or a < b), _g/2 where a = b, else 0
_WHERE_A_GT_B = "(mul (mul 0.5 (add 1 (sign (sub a b)))) _g)"
_WHERE_A_LT_B = "(mul (mul 0.5 (sub 1 (sign (sub a b)))) _g)"
_BINARY_ADJOINT = {
    "add": ("_g", "_g"),
    "sub": ("_g", "(neg _g)"),
    "mul": ("(mul _g b)", "(mul a _g)"),
    "div": ("(div _g b)", "(neg (div (mul a _g) (mul b b)))"),
    "min": (_WHERE_A_LT_B, _WHERE_A_GT_B),
    "max": (_WHERE_A_GT_B, _WHERE_A_LT_B),
}


def _lowering_program(op, out):
    """X, Y -> P = 0.5 X, Q = 1.5 Y -> one elementwise node -> O = sum.
    The node reads intermediates, so an in-place ``out`` overwrites a
    forwarded value rather than an input."""
    b = ProgramBuilder(("n",))
    for name, role in (("X", "input"), ("Y", "input"), ("P", "intermediate"),
                       ("Q", "intermediate"), ("R", "intermediate")):
        b.array(name, ("n",), role=role, kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("pre") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "P"}, op="scale", const=0.5)
        s.library("ew_unary", {"x": "Y"}, {"y": "Q"}, op="scale", const=1.5)
    tgt = {"new": "R", "a": "P", "b": "Q", "a=b": "R"}[out]
    with b.state("op") as s:
        if op in EW_UNARY_OPS:
            s.library("ew_unary", {"x": "P"}, {"y": tgt}, op=op,
                      const=1.75 if op == "scale" else None)
        else:
            ins = {"a": "P", "b": "P" if out == "a=b" else "Q"}
            s.library("ew_binary", ins, {"c": tgt}, op=op)
    with b.state("red") as s:
        s.library("reduce_sum", {"x": tgt}, {"y": "O"})
    return b.finish("O", ["X", "Y"])


def _adjoint_nodes(program, label):
    """("ew_expr", expression) of each ``ew_expr`` node, (kind, op) of each
    other library node and "map" for each map node in the reverse of forward
    state ``label``, in emission order."""
    states = [b for b in build_backward(program).backward.region if b.label == label + "__bwd"]
    out = []
    for state in states:
        for n in state.graph.nodes:
            if isinstance(n, LibraryNode):
                out.append((n.kind, to_sexpr(n.expr) if n.kind == "ew_expr" else n.op))
            elif isinstance(n, MapNode):
                out.append("map")
    return out


_LOWERING_CASES = [(op, out) for op in EW_UNARY_OPS for out in ("new", "a")] + [
    (op, out) for op in EW_BINARY_OPS for out in ("new", "a", "b", "a=b")
]


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
@pytest.mark.parametrize("op,out", _LOWERING_CASES)
def test_elementwise_adjoint_lowering(op, out, rng):
    p = _lowering_program(op, out)
    if op in EW_UNARY_OPS:
        expect = [("ew_expr", _UNARY_ADJOINT[op])] if _UNARY_ADJOINT[op] else []
        if out == "a" and not expect:
            expect = [("ew_unary", "scale")]  # nothing to send: only clear P's gradient
    else:
        by_conn = {c: ("ew_expr", adj) for c, adj in zip("ab", _BINARY_ADJOINT[op])}
        # the contribution that overwrites the aliased gradient comes last
        expect = [by_conn[c] for c in sorted("ab", key=lambda c: c == out)]
    assert _adjoint_nodes(p, "op") == expect

    params = {"n": 5}
    inputs = sample_inputs(p, params, rng)
    ad = gradient(p, inputs, params)
    fd = finite_difference_gradient(p, inputs, params)
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    replay = run_planned(plan(p, None, params), inputs, params)
    for k in ad.grads:
        assert np.array_equal(replay.grads[k], ad.grads[k]), k


def test_ew_expr_with_a_connector_named_like_the_seed(rng):
    # the adjoints of (mul _g (sin x)) must not read the output gradient
    # where they mean the operand _g
    p = ew_expr_program("(mul _g (sin x))")
    params = {"n": 5}
    inputs = sample_inputs(p, params, rng)
    ad = gradient(p, inputs, params, seed=1.5)
    assert np.array_equal(ad.grads["G"], 1.5 * np.sin(inputs["X"]))
    fd = finite_difference_gradient(p, inputs, params)
    report = compare_gradients(ad.grads, {k: 1.5 * v for k, v in fd.items()}, tolerance=1e-5)
    assert report["ok"], report


def _tasklet_expr_program(expr: str):
    """E[i] = ``expr`` over G[i] (connector ``_g``) and X[i] (connector
    ``x``) by a tasklet in a map; O = sum E: ``ew_expr_program``'s program
    with a tasklet in place of the library node."""
    b = ProgramBuilder(("n",))
    for name in ("G", "X"):
        b.array(name, ("n",), role="input", kind="real64")
    b.array("E", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.map_node(("i",), (("0", "n", "1"),), lambda inner: inner.tasklet(
            ins={"_g": ("G", ("i",)), "x": ("X", ("i",))}, outs={"y": ("E", ("i",))}, body={"y": expr}))
        s.library("reduce_sum", {"x": "E"}, {"y": "O"})
    return b.finish("O", ["G", "X"])


# 3x/g, 5.5/g and xg/2 stay at least 0.1 from an integer at these inputs,
# so no finite-difference step crosses a jump of mod or idiv
_G, _X = np.array([0.4, 0.9, 0.35, 0.6, 1.7]), np.array([0.5, 0.7, 1.1, 1.3, 1.5])
# expression (each reads both connectors, as an ew_expr must) -> (gradients
# of G and X, the op warned as not differentiable everywhere)
_EXPR_GRADS = {
    "(mod (mul 3 x) _g)": ((-np.floor(3 * _X / _G), np.full(5, 3.0)), "mod"),
    "(mod (mul x _g) 2)": ((_X, _G), "mod"),
    "(add x (mod 5.5 _g))": ((-np.floor(5.5 / _G), np.ones(5)), "mod"),
    "(add x (idiv (mul 3 x) _g))": ((np.zeros(5), np.ones(5)), "idiv"),
    "(pow x _g)": ((_X**_G * np.log(_X), _G * _X ** (_G - 1)), None),
}


@pytest.mark.parametrize("form", ["tasklet", "ew_expr"])
@pytest.mark.parametrize("expr", sorted(_EXPR_GRADS))
def test_a_binary_op_sends_its_derivative_almost_everywhere(expr, form):
    # mod's derivative is x' - idiv(x, y)*y', idiv's is 0, and pow with an
    # active exponent takes the general rule
    p = _tasklet_expr_program(expr) if form == "tasklet" else ew_expr_program(expr)
    params, inputs = {"n": 5}, {"G": _G, "X": _X}
    (want_g, want_x), op = _EXPR_GRADS[expr]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ad = gradient(p, inputs, params)
    warned = {str(w.message).split("'")[1] for w in caught if issubclass(w.category, NonDifferentiableOp)}
    assert warned == ({op} if op else set())
    np.testing.assert_allclose(ad.grads["G"], want_g, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ad.grads["X"], want_x, rtol=1e-12, atol=0)
    report = compare_gradients(ad.grads, finite_difference_gradient(p, inputs, params), tolerance=1e-5)
    assert report["ok"], report


def _broadcast_program(kind: str, op: str):
    """Y[n] = op(X, s) or Y[n] = op(s), with the scalar input s broadcast
    over Y, and O = sum(Y)."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("op") as st_:
        if kind == "ew_binary":
            st_.library("ew_binary", {"a": "X", "b": "s"}, {"c": "Y"}, op=op)
        else:
            st_.library("ew_unary", {"x": "s"}, {"y": "Y"}, op=op, const=1.5 if op == "scale" else None)
    with b.state("sum") as st_:
        st_.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X", "s"] if kind == "ew_binary" else ["s"])


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
@pytest.mark.parametrize("kind,op", [("ew_binary", op) for op in EW_BINARY_OPS]
                         + [("ew_unary", op) for op in EW_UNARY_OPS])
def test_rank0_operand_broadcast_over_an_array_sums_its_gradient(kind, op, rng):
    p = _broadcast_program(kind, op)
    params = {"n": 4}
    inputs = sample_inputs(p, params, rng)
    ad = gradient(p, inputs, params)
    assert np.shape(ad.grads["s"]) == ()
    fd = finite_difference_gradient(p, inputs, params)
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    result = plan(p, None, params)
    replay = run_planned(result, inputs, params)
    for k in ad.grads:
        assert np.array_equal(replay.grads[k], ad.grads[k]), k
    for seq in result.sequences:
        timeline = simulate_memory(result.forward, result.backward, params, dict(seq.outcomes))
        assert timeline.peak == seq.peak(result.solution.assignment)


# ---------------------------------------------------------------------------
# tasklet adjoints at state level and inside maps


_PI = ("P", ("i",))
# case -> (scope of the tasklet, its body, reads, writes)
_EMITTER_CASES = {
    # P[i] = sin(P[i]): the adjoint overwrites P's gradient in place
    "map_self_overwrite": ("map", {"o": "(sin a)"}, {"a": _PI}, {"o": _PI}),
    # P[i] = a*b with a and b both P[i]: their partials merge into one overwrite
    "map_merge": ("map", {"o": "(mul a b)"}, {"a": _PI, "b": _PI}, {"o": _PI}),
    "tasklet_merge": ("loop", {"o": "(mul a b)"}, {"a": _PI, "b": _PI}, {"o": _PI}),
    # B[i] = c*P[i] over a B that was consumed: B's gradient is cleared
    "map_clear": ("map", {"o": "(mul k a)"}, {"k": ("c", ()), "a": _PI}, {"o": ("B", ("i",))}),
    # two outputs, one of them overwriting the input: rejected
    "map_two_outputs": ("map", {"o": "(sin a)", "q": "(cos a)"}, {"a": _PI},
                        {"o": _PI, "q": ("Q", ("i",))}),
    "tasklet_two_outputs": ("loop", {"o": "(sin a)", "q": "(cos a)"}, {"a": _PI},
                            {"o": _PI, "q": ("Q", ("i",))}),
}


def _emitter_program(case):
    """P = 0.5 X, B = sin X, O = sum B; then the case's tasklet, in a map or
    in a loop over i; then O += sum of every array it wrote."""
    scope, body, ins, outs = _EMITTER_CASES[case]
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("c", role="input", kind="real64")
    for name in ("P", "Q", "B"):
        b.array(name, ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("pre") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "P"}, op="scale", const=0.5)
        s.library("ew_unary", {"x": "X"}, {"y": "B"}, op="sin")
        s.library("reduce_sum", {"x": "B"}, {"y": "O"})
    if scope == "map":
        with b.state("op") as s:
            s.map_node(("i",), (("0", "n", "1"),),
                       lambda inner: inner.tasklet(ins=ins, outs=outs, body=body))
    else:
        with b.loop("i", "0", "n", label="elems"):
            with b.state("op") as s:
                s.tasklet(ins=ins, outs=outs, body=body)
    with b.state("red") as s:
        for data in sorted({data for data, _ in outs.values()}):
            s.library("reduce_sum", {"x": data}, {"y": "O"}, wcr="sum")
    return b.finish("O", ["X", "c"])


@pytest.mark.parametrize("case", sorted(_EMITTER_CASES))
def test_tasklet_adjoint_emitter_paths(case, rng):
    p = _emitter_program(case)
    params = {"n": 5}
    if case.endswith("two_outputs"):
        with pytest.raises(UnsupportedConstruct, match="multiple outputs"):
            gradient(p, sample_inputs(p, params, rng), params)
        return
    _assert_fd_and_replay(p, params, rng)


def _assert_fd_and_replay(p, params, rng):
    """``gradient()`` matches finite differences, and a planned replay
    gives it again bit for bit."""
    inputs = sample_inputs(p, params, rng)
    ad = gradient(p, inputs, params)
    fd = finite_difference_gradient(p, inputs, params)
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    replay = run_planned(plan(p, None, params), inputs, params)
    for k in ad.grads:
        assert np.array_equal(replay.grads[k], ad.grads[k]), k


@pytest.mark.parametrize("n", [4, 5])
def test_a_read_aliasing_the_written_element_keeps_its_contribution(n, rng):
    # on the diagonal A[j, i] is the element A[i, j] the tasklet overwrites:
    # the adjoint clears A__grad[i, j] before it adds into A__grad[j, i]
    b = ProgramBuilder(("n",))
    b.array("A", ("n", "n"), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "1", "(sub n 1)", label="rows"):
        with b.loop("j", "1", "(sub n 1)", label="cols"):
            with b.state("s") as s:
                s.tasklet(ins={"w": ("A", ("i", "(sub j 1)")), "t": ("A", ("j", "i"))},
                          outs={"o": ("A", ("i", "j"))}, body={"o": "(mul 0.5 (add w t))"})
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
    _assert_fd_and_replay(b.finish("O", ["A"]), {"n": n}, rng)


@pytest.mark.parametrize("scope", ["loop", "map"])
def test_a_tasklet_adds_into_two_elements_of_one_array(scope, rng):
    # the builder opens one access instance per array a node writes; the map
    # writes B, since a map that reads and writes A in place would let its
    # points see each other's writes
    out = "A" if scope == "loop" else "B"
    b = ProgramBuilder(("n",))
    b.array("A", ("n", "n"), role="input", kind="real64")
    b.array("B", ("n", "n"), kind="real64")
    b.array("S", ("n", "n"), kind="real64")
    b.scalar("O", role="output", kind="real64")

    def point(s):
        s.tasklet(ins={"a": ("A", ("i", "j"))},
                  outs={"w": (out, ("i", "(sub j 1)")), "e": (out, ("i", "(add j 1)"))},
                  body={"w": "(mul 0.25 a)", "e": "(mul -0.5 a)"}, wcr="sum")

    interior = ("1", "(sub n 1)", "1")
    if scope == "map":
        with b.state("s") as s:
            s.map_node(("i", "j"), (interior, interior), point)
    else:
        with b.loop("i", *interior[:2], label="rows"):
            with b.loop("j", *interior[:2], label="cols"):
                with b.state("s") as s:
                    point(s)
    with b.state("post") as s:
        s.library("ew_unary", {"x": "A"}, {"y": "S"}, op="sin")
        s.library("reduce_sum", {"x": "S"}, {"y": "O"})
        s.library("reduce_sum", {"x": "B"}, {"y": "O"}, wcr="sum")
    p = b.finish("O", ["A"])
    graph = p.region[0].body[0].body[0].graph if scope == "loop" else next(
        n.body for n in p.region[0].graph.nodes if isinstance(n, MapNode))
    (tasklet,) = [n for n in graph.nodes if isinstance(n, Tasklet)]
    assert len({e.dst for e in graph.out_edges(tasklet.id)}) == 1
    _assert_fd_and_replay(p, {"n": 5}, rng)


# ---------------------------------------------------------------------------
# loop headers that read scalars


def test_loop_header_reading_a_scalar_input(rng):
    p = scalar_header_program(written=False)
    inputs = {"A": rng.uniform(0.4, 1.6, 16), "m": np.float64(4.0)}
    assert "m" in build_backward(p).backward.descriptors
    ad = gradient(p, inputs, {})
    assert np.count_nonzero(ad.grads["A"]) == 4
    fd = finite_difference_gradient(p, inputs, {})
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    replay = run_planned(plan(p, None, {}), inputs, {})
    assert np.array_equal(replay.grads["A"], ad.grads["A"])


def test_loop_header_reading_a_written_scalar_is_unsupported(rng):
    p = scalar_header_program(written=True)
    inputs = {"A": rng.uniform(0.4, 1.6, 16)}
    assert run_forward(p, inputs, {}).value > 0
    for call in (lambda: gradient(p, inputs, {}), lambda: plan(p, None, {})):
        with pytest.raises(UnsupportedLoop, match="header reads 'm', which the program writes"):
            call()


def _added_after_recorded(loop: bool):
    """Y = sin(X); Z = Y * Y; then Y += X, or three iterates of Y +=
    sin(Y), by a library node with ``wcr="sum"``; O = sum(Z) + sum(Y). Z's
    adjoint needs Y as it was before the addition, which changes Y's
    array in place."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    for name in ("Y", "Z"):
        b.array(name, ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
        s.library("ew_binary", {"a": "Y", "b": "Y"}, {"c": "Z"}, op="mul")
    if loop:
        with b.loop("i", "0", "3", label="lp"):
            with b.state("add") as s:
                s.library("ew_unary", {"x": "Y"}, {"y": "Y"}, op="sin", wcr="sum")
    else:
        with b.state("add") as s:
            s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="copy", wcr="sum")
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "Z"}, {"y": "O"})
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"}, wcr="sum")
    return b.finish("O", ["X"])


@pytest.mark.parametrize("loop", [False, True], ids=["once", "loop"])
def test_a_library_sum_into_a_recorded_array_keeps_its_snapshot(loop, rng):
    # a library sum adds into Y's own array: Y's snapshot must be a copy
    p, params = _added_after_recorded(loop), {"n": 5}
    inputs = {"X": rng.uniform(0.4, 1.6, 5)}
    ad = gradient(p, inputs, params)
    report = compare_gradients(ad.grads, finite_difference_gradient(p, inputs, params), tolerance=1e-5)
    assert report["ok"], report
    with pytest.raises(Infeasible) as exc:
        plan(p, 0, params)
    # at no budget and at the floor, which recomputes Y in the loop form
    for limit in (None, exc.value.min_peak_bytes / (1 << 20)):
        result = plan(p, limit, params)
        assert (0 in result.solution.assignment) == (loop and limit is not None)
        replay = run_planned(result, inputs, params)
        assert np.array_equal(replay.grads["X"], ad.grads["X"]) and np.array_equal(replay.value, ad.value)


def _read_after_loop(bound: str, written: bool = False):
    """for i < bound: Y = sin(C); O = sum(Y * X). Y does not depend on the
    independent X, so the loop has no adjoint body: the reverse pass reads
    Y's last iterate after the loop has ended. ``m`` is a scalar input, or a
    scalar the program writes before the loop."""
    b = ProgramBuilder(("n",))
    for name in ("X", "C"):
        b.array(name, ("n",), role="input", kind="real64")
    b.scalar("m", role="intermediate" if written else "input", kind="real64")
    for name in ("Y", "P"):
        b.array(name, ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    if written:
        with b.state("init") as s:
            s.tasklet(ins={}, outs={"o": ("m", ())}, body={"o": "3"})
    with b.loop("i", "0", bound, label="lp"):
        with b.state("step") as s:
            s.library("ew_unary", {"x": "C"}, {"y": "Y"}, op="sin")
    with b.state("post") as s:
        s.library("ew_binary", {"a": "Y", "b": "X"}, {"c": "P"}, op="mul")
        s.library("reduce_sum", {"x": "P"}, {"y": "O"})
    return b.finish("O", ["X"])


@pytest.mark.parametrize("bound", ["m", "n"])
def test_a_read_after_a_loop_re_simulates_its_header(bound, rng):
    p, params = _read_after_loop(bound), {"n": 5}
    inputs = {"X": rng.uniform(0.4, 1.6, 5), "C": rng.uniform(0.4, 1.6, 5), "m": np.float64(3.0)}
    bundle = build_backward(p)
    assert not any(isinstance(b, LoopRegion) for b in bundle.backward.region)
    assert ("m" in bundle.backward.descriptors) == (bound == "m")
    ad = gradient(p, inputs, params)
    np.testing.assert_allclose(ad.grads["X"], np.sin(inputs["C"]), rtol=1e-15)
    fd = finite_difference_gradient(p, inputs, params)
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    if bound == "n":  # plan() needs trip counts the parameters fix
        replay = run_planned(plan(p, None, params), inputs, params)
        assert np.array_equal(replay.grads["X"], ad.grads["X"])


def test_a_read_after_a_loop_whose_header_reads_a_written_scalar_is_unsupported(rng):
    p, params = _read_after_loop("m", written=True), {"n": 5}
    inputs = {"X": rng.uniform(0.4, 1.6, 5), "C": rng.uniform(0.4, 1.6, 5)}
    assert run_forward(p, inputs, params).value > 0
    for call in (lambda: gradient(p, inputs, params), lambda: plan(p, None, params)):
        with pytest.raises(UnsupportedLoop, match="loop 'lp': its header reads 'm', which the program writes"):
            call()


# ---------------------------------------------------------------------------
# loop-carried values whose last write lies in a branch arm


def _branch_carry_program(cond, empty_else):
    """for t: if cond then X = sin(X) else X = 0.5 X (or nothing); O = sum X.
    The last write of X in an iteration depends on the arm taken."""
    b = ProgramBuilder(("n", "steps"))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("t", "0", "steps", label="iters"):
        with b.branch(cond, label="pick") as br:
            with br.then():
                with b.state("hi") as st:
                    st.library("ew_unary", {"x": "X"}, {"y": "X"}, op="sin")
            with br.orelse():
                if not empty_else:
                    with b.state("lo") as st:
                        st.library("ew_unary", {"x": "X"}, {"y": "X"}, op="scale", const=0.5)
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    return b.finish("O", ["X"])


@pytest.mark.parametrize("cond,empty_else", [
    ("(lt s 0.5)", False), ("(lt s 0.5)", True), ("(lt (mod t 2) 1)", False),
])
def test_value_carried_from_a_branch_arm_is_never_silently_wrong(cond, empty_else):
    p = _branch_carry_program(cond, empty_else)
    params = {"n": 6, "steps": 4}
    inputs = {"X": np.linspace(0.4, 1.4, 6), "s": np.float64(0.2)}
    try:
        ad = gradient(p, inputs, params)
    except UnsupportedConstruct as exc:
        assert "merges across branch arms" in str(exc)
        return
    fd = finite_difference_gradient(p, inputs, params)
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report


# ---------------------------------------------------------------------------
# error surface


def test_reversal_without_tape_matches_gradient(rng):
    # a non-affine loop is reversed by re-simulating its header: the reverse
    # program runs without the forward tape when it reads no forwarded value
    b = ProgramBuilder(())
    b.array("A", ("4",), role="input", kind="real64")
    b.array("B", ("4",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("k", "1", "8", update="(mul k 2)", label="geo"):
        with b.state("s") as s:
            s.library("ew_unary", {"x": "A"}, {"y": "B"}, op="scale", const=2.0)
            s.library("ew_unary", {"x": "B"}, {"y": "A"}, op="scale", const=1.5)
    with b.state("out") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
    p = b.finish("O", ["A"])
    a = rng.uniform(0.4, 1.6, 4)

    grads = gradient(p, {"A": a}, {}).grads
    assert grads["A"] == pytest.approx(np.full(4, 27.0))

    bundle = build_backward(p)
    assert bundle.forwarding == {}
    run_plan = interpreter.RunPlan(bundle.backward, {}, forwarding={}, src_program=p)
    bwd = run_backward(run_plan, {"A": a}, tape=None)
    np.testing.assert_array_equal(bwd.env["A__grad"], grads["A"])
