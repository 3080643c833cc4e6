import dataclasses
import json
import math

import numpy as np
import pytest

import gradflow.examples as examples
from gradflow import (
    ProgramBuilder,
    build_backward,
    count_flops,
    gradient,
    parse_program,
    plan,
    program_to_dict,
    reverse_loop_header,
    run_backward,
    run_forward,
)
from gradflow.errors import (
    BatchDivergence,
    DomainError,
    NonTermination,
    OutOfBounds,
    ShapeMismatch,
    UnboundName,
)
from gradflow.interpreter import default_trip_limit


def _run(name, inputs, params):
    return run_forward(examples.build(name), inputs, params).value


# ---------------------------------------------------------------------------
# forward values against independent numpy re-implementations


def test_map_reduce_2d_value(rng):
    x = rng.uniform(0.4, 1.6, (5, 5))
    assert _run("map_reduce_2d", {"X": x}, {"n": 5}) == pytest.approx(np.sin(x).sum())


def test_triangular_value(rng):
    a = rng.uniform(0.4, 1.6, (6, 6))
    expect = sum(a[i, j] ** 2 for i in range(6) for j in range(i + 1))
    assert _run("triangular", {"A": a}, {"n": 6}) == pytest.approx(expect)


def test_double_read_value(rng):
    x = rng.uniform(0.4, 1.6, 8)
    expect = (x * x).sum() + np.sin(x).sum()
    assert _run("double_read", {"X": x}, {"n": 8}) == pytest.approx(expect)


def test_seidel_value_matches_inplace_sweep(rng):
    n, tsteps = 8, 3
    a = rng.uniform(0.4, 1.6, (n, n))
    ref = a.copy()
    for _ in range(tsteps):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                ref[i, j] = 0.2 * (ref[i, j] + ref[i - 1, j] + ref[i + 1, j]
                                   + ref[i, j - 1] + ref[i, j + 1])
    got = _run("seidel_stencil", {"A": a}, {"N": n, "TSTEPS": tsteps})
    assert got == pytest.approx(ref.sum(), rel=1e-13)


def test_strided_copy_value(rng):
    # untouched intermediate entries stay zero, so only i = 0,3,6,9 contribute
    x = rng.uniform(0.4, 1.6, 11)
    expect = sum(math.sin(x[i]) for i in range(0, 11, 3))
    assert _run("strided_copy", {"A": x}, {"n": 11}) == pytest.approx(expect)


def test_doubling_gather_value(rng):
    a = rng.uniform(0.4, 1.6, 16)
    expect = a[1] * a[2] * a[4] * a[8]
    assert _run("doubling_gather", {"A": a}, {}) == pytest.approx(expect)


@pytest.mark.parametrize("s,form", [(0.2, "scale"), (0.9, "sin")])
def test_branchy_scale_both_arms(rng, s, form):
    x = rng.uniform(0.4, 1.6, 8)
    expect = (2 * x).sum() if form == "scale" else np.sin(x).sum()
    got = _run("branchy_scale", {"X": x, "s": np.float64(s)}, {"n": 8})
    assert got == pytest.approx(expect)


def test_matmul_sum_value(rng):
    a = rng.uniform(0.4, 1.6, (5, 5))
    b = rng.uniform(0.4, 1.6, (5, 5))
    assert _run("matmul_sum", {"A": a, "B": b}, {"d": 5}) == pytest.approx(np.sin(a @ b).sum())


def test_pingpong_value(rng):
    a = rng.uniform(0.4, 1.6, 4)
    ref = a.copy()
    for _ in range(3):
        b = 2 * ref
        ref = 3 * b
    assert _run("two_array_pingpong", {"A": a}, {"trips": 3}) == pytest.approx(b.sum())


def test_determinism_bit_identical(rng):
    x = rng.uniform(0.4, 1.6, (4, 4))
    inputs = {"C": x, "D": x + 0.25}
    p = examples.build("scaled_product_chain")
    r1 = gradient(p, inputs, {"N": 4})
    r2 = gradient(p, inputs, {"N": 4})
    assert r1.value == r2.value
    for k in r1.grads:
        assert np.array_equal(r1.grads[k], r2.grads[k])


# ---------------------------------------------------------------------------
# batched execution (leading axis)


def test_batched_run_matches_individual_runs(rng):
    p = examples.build("map_reduce_2d")
    xs = rng.uniform(0.4, 1.6, (3, 5, 5))
    batched = run_forward(p, {"X": xs}, {"n": 5}).value
    singles = [run_forward(p, {"X": x}, {"n": 5}).value for x in xs]
    assert np.allclose(batched, singles)
    assert np.shape(batched) == (3,)


def test_batched_backward_matches_individual_gradients(rng):
    # the reverse program broadcasts O's rank-0 gradient, which carries the
    # batch axis, over the elements of Z
    p = examples.build("exp_sin_chain")
    xs = rng.uniform(0.4, 1.6, (3, 9))
    bundle = build_backward(p)
    fwd = run_forward(p, {"X": xs}, {"n": 9}, record="all")
    bwd = run_backward(p, bundle.backward, {"X": xs}, {"n": 9},
                       tape=fwd.tape, forwarding=bundle.forwarding)
    singles = [gradient(p, {"X": x}, {"n": 9}).grads["X"] for x in xs]
    assert np.array_equal(bwd.env["X__grad"], np.stack(singles))


def _scaled_by_scalar(n_y):
    """Y = X * s over whole arrays, O = sum Y, with Y declared [n_y]."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.array("Y", (n_y,), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as st:
        st.library("ew_binary", {"a": "X", "b": "s"}, {"c": "Y"}, op="mul")
        st.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


def test_elementwise_rank0_operand_broadcasts_under_the_batch_axis(rng):
    xs, ss = rng.uniform(0.4, 1.6, (2, 4)), np.array([2.0, 3.0])
    got = run_forward(_scaled_by_scalar("n"), {"X": xs, "s": ss}, {"n": 4}).value
    assert np.array_equal(got, (xs * ss[:, None]).sum(axis=1))


def test_elementwise_operand_of_another_shape_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="operand 'a'"):
        run_forward(_scaled_by_scalar("(add n 1)"), {"X": np.ones(4), "s": 2.0}, {"n": 4})


def test_batched_branch_divergence(rng):
    p = examples.build("branchy_scale")
    xs = rng.uniform(0.4, 1.6, (2, 8))
    with pytest.raises(BatchDivergence):
        run_forward(p, {"X": xs, "s": np.array([0.2, 0.9])}, {"n": 8})


# ---------------------------------------------------------------------------
# guards


def test_trip_limit_env(monkeypatch):
    monkeypatch.setenv("GRADFLOW_TRIP_LIMIT", "17")
    assert default_trip_limit() == 17


def test_trip_limit_enforced(rng):
    p = examples.build("iterated_sin_map")
    x = rng.uniform(0.4, 1.6, 4)
    with pytest.raises(NonTermination):
        run_forward(p, {"X": x}, {"n": 4, "steps": 50}, trip_limit=10)


def test_shape_mismatch(rng):
    p = examples.build("map_reduce_2d")
    with pytest.raises(ShapeMismatch):
        run_forward(p, {"X": rng.uniform(size=(4, 5))}, {"n": 5})


def test_missing_parameter(rng):
    p = examples.build("map_reduce_2d")
    with pytest.raises(UnboundName):
        run_forward(p, {"X": rng.uniform(size=(5, 5))}, {})


def test_out_of_bounds_read():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "(add n 1)", label="over"):  # one trip too many
        with b.state("s") as s:
            s.tasklet(ins={"a": ("X", ("i",))}, outs={"o": ("O", ())},
                      body={"o": "a"}, wcr="sum")
    p = b.finish("O", ["X"])
    with pytest.raises(OutOfBounds):
        run_forward(p, {"X": np.ones(3)}, {"n": 3})


def test_domain_error_propagates():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="log")
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", ["X"])
    with pytest.raises(DomainError):
        run_forward(p, {"X": np.array([1.0, -2.0])}, {"n": 2})


def test_unknown_elementwise_op_is_a_domain_error():
    # parse_program does not validate, so the executor and the
    # differentiator meet the unknown op themselves
    b = ProgramBuilder(())
    b.array("X", ("3",), role="input", kind="real64")
    b.array("Y", ("3",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    text = json.dumps(program_to_dict(b.finish("O", ["X"]))).replace('"sin"', '"frob"')
    p = parse_program(text)
    for call in (run_forward, gradient):
        with pytest.raises(DomainError, match="unknown elementwise op 'frob'"):
            call(p, {"X": np.ones(3)}, {})


def test_library_copy_does_not_alias_its_input():
    # an element write to T after Y = copy(T) must not show through Y
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("T", ("n",), kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "T"}, op="scale", const=2.0)
        s.library("ew_unary", {"x": "T"}, {"y": "Y"}, op="copy")
    with b.state("bump") as s:
        s.tasklet(ins={"a": ("T", ("0",))}, outs={"o": ("T", ("0",))}, body={"o": "(add a 1)"})
    with b.state("sum") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", ["X"])
    assert run_forward(p, {"X": np.array([1.0, 2.0])}, {"n": 2}).value == 6.0


# ---------------------------------------------------------------------------
# flop counting (hand-derived)


def test_count_flops_listing_sizes():
    foo = examples.build("scaled_product_chain")
    # 8 elementwise ops + 3 reductions, N*N each, plus the 2-add combiner
    assert count_flops(foo, {"N": 5}) == {(): 11 * 25 + 2}
    assert count_flops(foo, {"N": 3620}) == {(): 11 * 3620 ** 2 + 2}


def test_count_flops_matmul():
    # d*d*(2d) multiply-add + d*d reduce + d*d sin
    mm = examples.build("matmul_sum")
    assert count_flops(mm, {"d": 3}) == {(): 2 * 27 + 9 + 9}


def test_count_flops_triangular_nest():
    tri = examples.build("triangular")
    assert count_flops(tri, {"n": 4}) == {(): 1 + 2 + 3 + 4}


def test_count_flops_stencil():
    sei = examples.build("seidel_stencil")
    # 5 flops per point, 6x6 interior, 2 sweeps, plus the 64-element reduce
    assert count_flops(sei, {"N": 8, "TSTEPS": 2}) == {(): 5 * 36 * 2 + 64}


def test_count_flops_per_branch_path():
    br = examples.build("branchy_scale")
    got = count_flops(br, {"n": 4})
    assert set(got) == {(("pick", True),), (("pick", False),)}
    # each arm: 4 elementwise + dead scale 4 + reduce 4
    assert all(v == 12 for v in got.values())


# ---------------------------------------------------------------------------
# loop headers: one simulation for the executor, the cost model and the planner


def _loop_program(init, bound, update="(add i 1)"):
    """acc = acc*10 + A[i] over the loop, so the visit order reads off acc."""
    b = ProgramBuilder(("n",))
    b.array("A", ("16",), role="input", kind="real64")
    b.scalar("acc", role="output", kind="real64")
    with b.state("init") as s:
        s.tasklet(ins={}, outs={"o": ("acc", ())}, body={"o": "0"})
    with b.loop("i", init, bound, update=update, label="lp"):
        with b.state("push") as s:
            s.tasklet(ins={"t": ("acc", ()), "a": ("A", ("i",))},
                      outs={"o": ("acc", ())},
                      body={"o": "(add (mul t 10) a)"})
    return b.finish("acc", ["A"])


def test_non_integer_loop_bound_is_rejected_everywhere():
    p = _loop_program("0", "(div n 2)")
    a = np.arange(16, dtype=np.float64)
    assert run_forward(p, {"A": a}, {"n": 6}).value == 12  # visits 0, 1, 2
    match = "bound of 'lp' evaluated to non-integer 2.5"
    with pytest.raises(DomainError, match=match):
        gradient(p, {"A": a}, {"n": 5})
    with pytest.raises(DomainError, match=match):
        count_flops(p, {"n": 5})
    with pytest.raises(DomainError, match=match):
        plan(p, None, {"n": 5})


def test_non_integer_map_range_is_rejected_by_the_cost_model():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")

    def body(inner):
        inner.tasklet(ins={"x": ("X", ("i",))}, outs={"y": ("Y", ("i",))},
                      body={"y": "(sin x)"})

    with b.state("s") as s:
        s.map_node(("i",), (("0", "(div n 2)", "1"),), body)
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", ["X"])
    assert count_flops(p, {"n": 6}) == {(): 3 + 6}
    x = np.ones(5)
    for run in (lambda: run_forward(p, {"X": x}, {"n": 5}),
                lambda: count_flops(p, {"n": 5})):
        with pytest.raises(DomainError, match="map 'm.*' stop evaluated to non-integer 2.5"):
            run()


def test_zero_trip_inverse_loop_runs_nothing():
    p = _loop_program("16", "16", update="(mul i 2)")
    rev = reverse_loop_header(p.region[1])
    rev.body = p.region[1].body
    backward_only = dataclasses.replace(p, region=[p.region[0], rev])
    a = np.arange(16, dtype=np.float64)
    res = run_forward(backward_only, {"A": a}, {})
    assert res.value == 0 and res.op_count == 0
    assert gradient(p, {"A": a}, {}).grads["A"].tolist() == [0.0] * 16
