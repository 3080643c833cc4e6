import dataclasses
import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import gradflow.examples as examples
from gradflow import (
    ProgramBuilder,
    build_backward,
    build_memory_sequences,
    collect_forwarded,
    compare_gradients,
    count_flops,
    finite_difference_gradient,
    gradient,
    parse_program,
    plan,
    program_to_dict,
    reverse_loop_header,
    run_backward,
    run_forward,
    run_planned,
    sample_inputs,
    simulate_memory,
)
from gradflow.frontend import parse_unvalidated
from gradflow.errors import (
    BatchDivergence,
    DomainError,
    GradflowError,
    NonTermination,
    OutOfBounds,
    ShapeMismatch,
    UnboundName,
    UnresolvableTripCount,
    UnsupportedConstruct,
    UnsupportedLoop,
    ValidationFailed,
)
import genprog
import gradflow.interpreter as interpreter
import gradflow.ir as ir
from gradflow.autodiff import _recorded, _replay_plans
import gradflow.nests as nests
from gradflow.interpreter import _compiled_tasklet
from gradflow.ir import branch_labels, simulate_header
from genprog import (
    make_elementwise_program,
    make_loop_program,
    make_map_program,
    make_stencil_program,
    runtime_header_array_program,
)


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


def _recorded_runs(p, bundle, inputs, params):
    """A forward run of ``p`` recording what ``bundle`` needs, then the
    reverse run reading its tape, each by a plan built here."""
    forward, reverse = _replay_plans(p, bundle.backward, bundle, params)
    fwd = run_forward(p, inputs, run_plan=forward)
    return fwd, run_backward(reverse, inputs, tape=fwd.tape)


def test_batched_backward_matches_individual_gradients(rng):
    # the reverse program broadcasts O's rank-0 gradient, which carries the
    # batch axis, over the elements of Z
    p = examples.build("exp_sin_chain")
    xs = rng.uniform(0.4, 1.6, (3, 9))
    bundle = build_backward(p)
    fwd, bwd = _recorded_runs(p, bundle, {"X": xs}, {"n": 9})
    singles = [gradient(p, {"X": x}, {"n": 9}).grads["X"] for x in xs]
    assert np.array_equal(bwd.env["X__grad"], np.stack(singles))


@pytest.mark.parametrize("name, params", [
    ("overwrite_chain", {"n": 7}),
    ("iterated_sin_map", {"n": 6, "steps": 4}),
    ("two_array_pingpong", None),
    ("seidel_stencil", {"N": 8, "TSTEPS": 2}),
])
def test_batched_backward_takes_the_batch_from_the_forward_inputs(name, params, rng):
    # these reverse programs read no forward input, so nothing in the
    # backward env carries the batch axis
    p = examples.build(name)
    params = params or examples.DEFAULT_PARAMS[name]
    samples = [sample_inputs(p, params, rng) for _ in range(3)]
    batch = {k: np.stack([s[k] for s in samples]) for k in samples[0]}
    bundle = build_backward(p)
    fwd, bwd = _recorded_runs(p, bundle, batch, params)
    singles = [gradient(p, s, params).grads for s in samples]
    for ind in p.independents:
        got = bwd.env[ind + "__grad"]
        assert got.shape == batch[ind].shape, ind
        assert np.array_equal(got, np.stack([g[ind] for g in singles])), ind


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


def test_trip_limit_enforced(monkeypatch, rng):
    monkeypatch.setattr(ir, "TRIP_LIMIT", 10)
    p = examples.build("iterated_sin_map")
    x = rng.uniform(0.4, 1.6, 4)
    with pytest.raises(NonTermination, match="trip limit of 10"):
        run_forward(p, {"X": x}, {"n": 4, "steps": 50})


def test_shape_mismatch(rng):
    p = examples.build("map_reduce_2d")
    with pytest.raises(ShapeMismatch):
        run_forward(p, {"X": rng.uniform(size=(4, 5))}, {"n": 5})


def test_inputs_with_different_batch_shapes_are_a_shape_mismatch(rng):
    p = examples.build("matmul_sum")
    inputs = {"A": rng.uniform(size=(2, 5, 5)), "B": rng.uniform(size=(3, 5, 5))}
    with pytest.raises(ShapeMismatch, match=r"input 'B' has batch shape \(3,\), another input \(2,\)"):
        gradient(p, inputs, {"d": 5})


def _sin_sum(dim):
    """O = sum(sin(X)) over whole arrays, X and Y declared [dim]."""
    b = ProgramBuilder(("N",))
    b.array("X", (dim,), role="input", kind="real64")
    b.array("Y", (dim,), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as st:
        st.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
        st.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


@pytest.mark.parametrize("dim, bad", [("(div N 2)", "2.5"), ("(sub N 10)", "-5")])
def test_a_dimension_that_is_not_a_size_is_rejected_everywhere(dim, bad):
    # at N=5 the dimension is no whole number at least 0: running, counting
    # and planning all refuse it the way size_bytes does
    p = _sin_sum(dim)
    match = f"dimension of '[XY]' evaluated to {bad}"
    with pytest.raises(UnresolvableTripCount, match=match):
        gradient(p, {"X": np.ones(2)}, {"N": 5})
    with pytest.raises(UnresolvableTripCount, match=match):
        count_flops(p, {"N": 5})
    with pytest.raises(UnresolvableTripCount, match=match):
        plan(p, None, {"N": 5})


def test_count_flops_enumerates_a_map_range_that_reads_an_earlier_parameter():
    # j runs from i: the points of the triangle, 15 at n=5, not 5 * 5
    b = ProgramBuilder(("n",))
    b.array("A", ("n", "n"), role="input", kind="real64")
    b.array("Y", ("n", "n"), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as st:
        st.map_node(("i", "j"), (("0", "n", "1"), ("i", "n", "1")), lambda inner: inner.tasklet(
            ins={"a": ("A", ("i", "j"))}, outs={"y": ("Y", ("i", "j"))}, body={"y": "(mul a a)"}))
        st.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", ["A"])
    assert count_flops(p, {"n": 5}) == {(): 15 + 25}
    assert run_forward(p, {"A": np.ones((5, 5))}, {"n": 5}).op_count == 15 + 25


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


def test_an_unknown_elementwise_op_fails_validation_at_every_door():
    # parse_program refuses the unknown op; past it (parse_unvalidated), the
    # run plan validates the unmarked program before it runs it, gradient()
    # before it differentiates it, and count_flops before it counts
    b = ProgramBuilder(())
    b.array("X", ("3",), role="input", kind="real64")
    b.array("Y", ("3",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    text = json.dumps(program_to_dict(b.finish("O", ["X"]))).replace('"sin"', '"frob"')
    with pytest.raises(ValidationFailed, match="BadLibrary: 'n1': unknown elementwise op 'frob'"):
        parse_program(text)
    p = parse_unvalidated(text)
    for run in (run_forward, gradient):
        with pytest.raises(ValidationFailed, match="BadLibrary: 'n1': unknown elementwise op 'frob'"):
            run(p, {"X": np.ones(3)}, {})
    with pytest.raises(ValidationFailed, match="BadLibrary: 'n1': unknown elementwise op 'frob'"):
        count_flops(p, {})


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


# ---------------------------------------------------------------------------
# one static path walk: the cost model counts what the executor runs


def _count_matches_run(program, params, inputs):
    """count_flops of the forward and backward programs, on the path the run
    takes, equals the executor's op counts. A branch the run never reaches
    takes either arm; both cost the same."""
    res = gradient(program, inputs, params)
    trace = res.forward.tape.branch_trace
    assert all(len(set(arms)) == 1 for arms in trace.values())
    key = tuple(sorted((label, trace.get(label, [True])[0]) for label in branch_labels(program)))
    assert count_flops(program, params)[key] == res.forward.op_count
    assert count_flops(res.bundle.backward, params)[key] == res.backward.op_count


def _each_arm(program, params, seed):
    """Sampled inputs, once with s = 0.5 and once with s = 1.5 when the
    program reads a scalar s, so every s < 0.5 or s < 1 branch takes both
    arms."""
    inputs = sample_inputs(program, params, np.random.default_rng(seed))
    if "s" not in inputs:
        return [inputs]
    return [{**inputs, "s": np.float64(s)} for s in (0.5, 1.5)]


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES))
def test_count_flops_equals_op_count_on_the_corpus(name):
    program, params = examples.build(name), examples.DEFAULT_PARAMS[name]
    for inputs in _each_arm(program, params, 101):
        _count_matches_run(program, params, inputs)


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
@pytest.mark.parametrize("make,seeds", [(make_loop_program, 300), (make_elementwise_program, 100),
                                        (make_map_program, 100)])
def test_count_flops_equals_op_count_on_random_programs(make, seeds):
    checked = 0
    for seed in range(seeds):
        program, params = make(seed), {"n": 4}
        for inputs in _each_arm(program, params, seed):
            try:
                _count_matches_run(program, params, inputs)
            except (UnsupportedConstruct, UnsupportedLoop):
                continue
            checked += 1
    assert checked >= seeds  # most programs are differentiable, many run twice


def _late_triangle(sibling_first):
    """A = 0.5 X; for i < n: {for j in a triangular range: A = sin(A)} next to
    a sibling state {T = exp(A); A = T X}; O = sum A. Either the inner loop
    runs j < i, no trip at i = 0, and the sibling follows it; or the sibling
    comes first and the inner loop runs i < j < n, no trip at i = n - 1, so
    the reversed body starts with a loop that its first visit skips."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    for name in ("A", "T"):
        b.array(name, ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("pre") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "A"}, op="scale", const=0.5)

    def sibling():
        with b.state("sibling") as s:
            s.library("ew_unary", {"x": "A"}, {"y": "T"}, op="exp")
            s.library("ew_binary", {"a": "T", "b": "X"}, {"c": "A"}, op="mul")

    with b.loop("i", "0", "n", label="outer"):
        if sibling_first:
            sibling()
        with b.loop("j", *(("(add i 1)", "n") if sibling_first else ("0", "i")), label="inner"):
            with b.state("tri") as s:
                s.library("ew_unary", {"x": "A"}, {"y": "A"}, op="sin")
        if not sibling_first:
            sibling()
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
    return b.finish("O", ["X"])


@pytest.mark.parametrize("sibling_first", [False, True])
def test_zero_trip_inner_loop_next_to_a_sibling_state(sibling_first):
    program, params = _late_triangle(sibling_first), {"n": 4}
    _count_matches_run(program, params, sample_inputs(program, params))
    result = plan(program, None, params)
    hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
    (seq,) = result.sequences
    timeline = simulate_memory(result.forward, result.backward, params, stored_hints=hints)
    assert timeline.peak == seq.peak(result.solution.assignment) == result.solution.t_star


def test_count_flops_of_a_runtime_header_names_the_loop():
    with pytest.raises(UnresolvableTripCount, match="loop 'lp'"):
        count_flops(runtime_header_array_program(), {"n": 4})


# ---------------------------------------------------------------------------
# compiled tasklet kernels and memoized headers


def _gather_program(bound: str):
    """O = sum over i < bound of X[i] by a scalar tasklet."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", bound, label="over"):
        with b.state("s") as s:
            s.tasklet(ins={"a": ("X", ("i",))}, outs={"o": ("O", ())},
                      body={"o": "a"}, wcr="sum")
    return b.finish("O", ["X"])


# a loop header as document fields: the hoisted check of an iterator ± const
# index fails on the last iterate, on a reversed loop, or on a doubling header
_LAST_ITERATE = {"bound": "n"}
_REVERSED = {"bound": "n", "reverse_of": "over"}
_DOUBLING = {"init": "1", "bound": "(add n 2)", "update": "(mul i 2)"}


def _gather_document(subset: str, bound) -> dict:
    header = bound if isinstance(bound, dict) else {"bound": bound}
    doc = program_to_dict(_gather_program(header["bound"]))
    doc["region"][0].update(header)
    doc["region"][0]["body"][0]["edges"][0]["subset"] = [subset]
    return doc


@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("subset, bound, error, msg", [
    ("i", "(add n 1)", OutOfBounds, "'X' index 3 outside dimension of size 3"),
    ("(div i 2)", "n", DomainError, "subset of 'X' evaluated to non-integer 0.5"),
    ("k", "n", UnboundName, "no binding for 'k'"),
    pytest.param("(add i 1)", _LAST_ITERATE, OutOfBounds, "'X' index 3 outside dimension of size 3",
                 id="last-iterate"),
    pytest.param("(sub i 1)", _REVERSED, OutOfBounds, "'X' index -1 outside dimension of size 3",
                 id="reversed"),
    pytest.param("i", _DOUBLING, OutOfBounds, "'X' index 4 outside dimension of size 3",
                 id="doubling"),
])
def test_compiled_tasklet_errors_keep_their_class_and_message(subset, bound, error, msg, batch):
    doc = _gather_document(subset, bound)
    if error is UnboundName:  # a declared parameter the binding leaves out
        doc["parameters"].append(subset)
    program = parse_program(json.dumps(doc))
    with pytest.raises(error) as info:
        run_forward(program, {"X": np.ones(batch + (3,))}, {"n": 3})
    assert str(info.value) == msg


@pytest.mark.parametrize("subset, bound, before", [
    ("(add i 1)", _LAST_ITERATE, 10.0 + 100.0),  # i = 0, 1
    ("(sub i 1)", _REVERSED, 10.0 + 1.0),  # i = 2, 1
    ("i", _DOUBLING, 10.0 + 100.0),  # i = 1, 2
])
def test_a_failed_hoisted_check_raises_at_the_same_point(subset, bound, before):
    # the partial sum left behind shows where the run stopped, with direct
    # access (no batch axes) and with ndarray indexing (a batch of one)
    program = parse_program(json.dumps(_gather_document(subset, bound)))
    x = np.array([1.0, 10.0, 100.0])
    for batch in ((), (1,)):
        ex = interpreter.Executor(interpreter.RunPlan(program, {"n": 3}), {"X": x.reshape(batch + (3,))}, batch)
        with pytest.raises(OutOfBounds):
            ex.run()
        assert ex.env["O"].reshape(-1)[0] == before


@pytest.mark.parametrize("subset, before", [(("i", "(add j 1)"), 2.0 + 3.0), (("(add i 1)", "j"), 39.0)])
def test_each_dimension_is_checked_on_its_own(subset, before):
    # A[i, j + 1] at the end of row 0 is a flat offset inside the buffer
    # (row 1's first element), yet out of its own dimension; A[i + 1, j]
    # fails where the outer loop's hoisted check says
    b = ProgramBuilder(("n",))
    b.array("A", ("n", "n"), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="rows"):
        with b.loop("j", "0", "n", label="cols"):
            with b.state("s") as s:
                s.tasklet(ins={"a": ("A", subset)}, outs={"o": ("O", ())},
                          body={"o": "a"}, wcr="sum")
    p = b.finish("O", ["A"])
    a = np.arange(1.0, 10.0).reshape(3, 3)
    for batch in ((), (1,)):
        ex = interpreter.Executor(interpreter.RunPlan(p, {"n": 3}), {"A": a.reshape(batch + (3, 3))}, batch)
        with pytest.raises(OutOfBounds, match=r"^'A' index 3 outside dimension of size 3$"):
            ex.run()
        assert ex.env["O"].reshape(-1)[0] == before


def _constant_body_program(fetched: bool):
    """Y[i] = X[i], then Y[i] = 10**200 * 10**200, over i < n; then O = sum
    Y. With ``fetched``, inside a one-trip loop after a loop copying X to
    Y, so that the level finds Y fetched."""
    big = str(10**200)
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")

    def over():
        with b.loop("i", "0", "n", label="over"):
            with b.state("s") as s:
                s.tasklet(ins={"x": ("X", ("i",))}, outs={"o": ("Y", ("i",))}, body={"o": "x"})
                s.tasklet(ins={"y": ("Y", ("i",))}, outs={"o": ("Y", ("i",))},
                          body={"o": f"(mul {big} {big})"})

    if fetched:
        with b.loop("k", "0", "1", label="once"):
            with b.loop("i", "0", "n", label="copy"):
                with b.state("c") as s:
                    s.tasklet(ins={"x": ("X", ("i",))}, outs={"o": ("Y", ("i",))}, body={"o": "x"})
            over()
    else:
        over()
    with b.state("sum") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


def test_a_constant_body_too_large_for_a_double_raises_as_a_numpy_store_does():
    # a level holding a body of constants alone fetches its arrays as its
    # points reach them, so its first entry runs checked; after a level of
    # the same nest fetched Y, its first point runs direct and converts the
    # constant as a numpy store would
    for p in map(_constant_body_program, (False, True)):
        for batch in ((), (1,)):
            with pytest.raises(OverflowError, match="^int too large to convert to float$"):
                run_forward(p, {"X": np.ones(batch + (3,))}, {"n": 3})


def test_a_constant_too_large_for_a_double_raises_before_a_later_fetch():
    # the first tasklet stores 10**200 * 10**200 and the second reads X,
    # which is missing: the store raises first, unbatched and batched alike
    big = str(10**200)
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={}, outs={"o": ("Y", ("i",))}, body={"o": f"(mul {big} {big})"})
            s.tasklet(ins={"x": ("X", ("i",))}, outs={"o": ("O", ())}, body={"o": "x"}, wcr="sum")
    p = b.finish("O", ["X"])
    for batch in ((), (1,)):
        ex = interpreter.Executor(interpreter.RunPlan(p, {"n": 3}), {}, batch)
        with pytest.raises(OverflowError, match="^int too large to convert to float$"):
            ex.run()


def test_a_zero_trip_nest_with_an_int_constant_beyond_a_double_builds_and_runs():
    # 10**400 is written as Python source as it is; a float conversion to
    # test its finiteness would raise OverflowError while the run plan is
    # built, before any point could store it
    b = ProgramBuilder(("n",))
    b.array("Y", ("n",), kind="real64")
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={}, outs={"o": ("Y", ("i",))}, body={"o": str(10**400)})
    with b.state("sum") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", ["X"])
    assert run_forward(p, {"X": np.ones(0)}, {"n": 0}).value == 0.0
    with pytest.raises(OverflowError, match="^int too large to convert to float$"):
        run_forward(p, {"X": np.ones(3)}, {"n": 3})


def test_a_level_whose_checks_fail_fetches_only_what_its_points_fetch():
    # X[i + 3] is out of range at the first point, which raises before it
    # reads Z, which is missing: the level's entry fetches nothing
    b = ProgramBuilder(("n",))
    for name in ("X", "Z"):
        b.array(name, ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={"x": ("X", ("(add i 3)",)), "z": ("Z", ("i",))}, outs={"o": ("O", ())},
                      body={"o": "(add x z)"}, wcr="sum")
    p = b.finish("O", ["X", "Z"])
    for batch in ((), (1,)):
        ex = interpreter.Executor(interpreter.RunPlan(p, {"n": 3}), {"X": np.ones(batch + (3,))}, batch)
        with pytest.raises(OutOfBounds, match=r"^'X' index 3 outside dimension of size 3$"):
            ex.run()


def test_a_read_served_from_a_local_keeps_its_own_dimensions_check():
    # A[i + 1, j] and A[i, j + 3] share a flat offset at n = 3, so a carried
    # point would read the second from the first's local; the level's entry
    # checks j + 3 against its own dimension all the same, and the first
    # point raises after adding A[1, 0]
    b = ProgramBuilder(("n",))
    b.array("A", ("n", "n"), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "(sub n 1)", label="rows"):
        with b.loop("j", "0", "n", label="cols"):
            with b.state("s") as s:
                for subset in (("(add i 1)", "j"), ("i", "(add j 3)")):
                    s.tasklet(ins={"a": ("A", subset)}, outs={"o": ("O", ())}, body={"o": "a"}, wcr="sum")
    p = b.finish("O", ["A"])
    a = np.arange(1.0, 10.0).reshape(3, 3)
    for batch in ((), (1,)):
        ex = interpreter.Executor(interpreter.RunPlan(p, {"n": 3}), {"A": a.reshape(batch + (3, 3))}, batch)
        with pytest.raises(OutOfBounds, match=r"^'A' index 3 outside dimension of size 3$"):
            ex.run()
        assert ex.env["O"].reshape(-1)[0] == 4.0


def _tasklet_bodies(program):
    """Every tasklet body of the program, map bodies included."""
    def graph(df):
        for n in df.nodes:
            if isinstance(n, ir.Tasklet):
                yield from n.body.values()
            elif isinstance(n, ir.MapNode):
                yield from graph(n.body)
    for _, block in ir.walk_blocks(program.region):
        if isinstance(block, ir.State):
            yield from graph(block.graph)


# generated loop programs whose tasklet bodies are all exact, and every
# generated map and stencil program: a map nest whose bodies are exact runs
# direct, and a stencil's innermost levels carry element values
_GENERATED = [
    (make_loop_program, seed) for seed in range(60)
    if all(map(nests._exact, _tasklet_bodies(make_loop_program(seed))))
] + [(make_map_program, seed) for seed in range(40)] + [(make_stencil_program, seed) for seed in range(40)]


def _outcome(p, inputs, params):
    """What ``gradient`` gives, as arrays and op counts, or what it raises."""
    try:
        g = gradient(p, inputs, params)
    except GradflowError as exc:
        return type(exc), str(exc)
    return g.value, g.grads, g.forward.op_count, g.backward.op_count


@pytest.mark.parametrize("case", [*examples.EXAMPLES, *_GENERATED],
                         ids=lambda c: c if isinstance(c, str) else f"{c[0].__name__}-{c[1]}")
def test_direct_and_ndarray_access_agree(case):
    # an unbatched run reads and writes exact real64 nests through direct
    # handles; a batch of one indexes the same arrays as ndarrays
    if isinstance(case, str):
        p, params = examples.build(case), examples.DEFAULT_PARAMS[case]
    else:
        p, params = case[0](case[1]), {"n": 5}
    inputs = sample_inputs(p, params, np.random.default_rng(5))
    one = _outcome(p, inputs, params)
    batch = _outcome(p, {k: np.asarray(v)[None] for k, v in inputs.items()}, params)
    if isinstance(one[0], type):
        assert batch == one
        return
    assert np.array_equal(batch[0][0], one[0])
    assert batch[1].keys() == one[1].keys()
    for name, g in one[1].items():
        assert np.array_equal(batch[1][name][0], g)
    assert batch[2:] == one[2:]


def test_generated_map_programs_run_direct_nests(monkeypatch):
    # the agreement above compares two access paths only where a direct nest runs
    direct = 0
    for make, seed in _GENERATED:
        p = make(seed)
        nests = _nests_of(monkeypatch, lambda: _outcome(p, sample_inputs(p, {"n": 5}), {"n": 5}))
        direct += any("_view(" in fn.source for fn in nests)
    assert direct >= 10


def _nests_of(monkeypatch, run) -> list:
    """The compiled nests that ``run()`` fetches, in order."""
    made = []

    def recording(key):
        made.append(_compiled_tasklet(key))
        return made[-1]

    monkeypatch.setattr(interpreter, "_compiled_tasklet", recording)
    run()
    monkeypatch.undo()
    return made


def test_seidel_nests_take_the_direct_path_and_a_real32_nest_does_not(monkeypatch, rng):
    p, params = examples.build("seidel_stencil"), {"N": 8, "TSTEPS": 2}
    sweep, reverse = _nests_of(monkeypatch, lambda: gradient(p, sample_inputs(p, params, rng), params))
    for fn in (sweep, reverse):
        assert "v0 = _view(a0, 2)" in fn.source and "if ok_i" in fn.source
    # a reversed loop runs over its kept visit order, as a forward one over its iterates
    for fn in (sweep, reverse):
        assert re.search(r"\n +for i\d+ in s\d+:", fn.source) and "for q" not in fn.source
    # one offset per point, its row's share taken once per row
    assert "= i1 * 8" in sweep.source and re.search(r"v0\[o\d+-8\]", sweep.source)
    # each point of a row's carried loop takes the element its neighbour
    # loaded or stored: 3 loads where a checked point reads 5 elements
    for fn in (sweep, reverse):
        carried, point = _direct_points(fn.source)
        assert (_loads(carried), _loads(point, "a0")) == (3, 5)
    # a reverse point stores 3 of its 5 elements: the next point overwrites
    # A__grad[i, j] and A__grad[i, j - 1], so the last point's values of
    # those two are stored once, after the loop, when it ran at all
    assert [_stores(_direct_points(fn.source)[0]) for fn in (sweep, reverse)] == [1, 3]
    after = r"\n( +)for i\d+ in (s\d+):\n(?:\1 .*\n)+\1if \2:\n((?:\1 .*\n)+)"
    flush = re.search(after, reverse.source)[3]
    assert sorted(re.findall(r"^ +v0\[o\d+([-+]\d+)?\] = \w+$", flush, re.M)) == ["", "-1"]
    assert not re.search(after, sweep.source)

    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real32")
    b.scalar("O", role="output", kind="real32")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={"a": ("X", ("i",))}, outs={"o": ("O", ())}, body={"o": "(mul a a)"}, wcr="sum")
    p = b.finish("O", ["X"])
    (nest,) = _nests_of(monkeypatch, lambda: run_forward(p, {"X": np.ones(4, np.float32)}, {"n": 4}))
    assert "_view" not in nest.source and "ok_" not in nest.source


def _sweep_1d():
    """One loop over the interior of A ([n] real64): A[i] = (A[i - 1] +
    2 A[i] + A[i + 1]) / 4 in place; then O = sum A."""
    b = ProgramBuilder(("n",))
    b.array("A", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "1", "(sub n 1)", label="sweep"):
        with b.state("s") as s:
            s.tasklet(ins={"w": ("A", ("(sub i 1)",)), "c": ("A", ("i",)), "e": ("A", ("(add i 1)",))},
                      outs={"o": ("A", ("i",))}, body={"o": "(mul 0.25 (add (add w c) (add c e)))"})
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
    return b.finish("O", ["A"])


def test_a_direct_point_reads_a_fixed_element_next_to_its_own(monkeypatch, rng):
    # Y[i] = X[i] * (X[0] + 1): the direct point loads X[0] at a constant offset
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="scale"):
        with b.state("s") as s:
            s.tasklet(ins={"a": ("X", ("i",)), "c": ("X", ("0",))}, outs={"y": ("Y", ("i",))},
                      body={"y": "(mul a (add c 1))"})
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p, params = b.finish("O", ["X"]), {"n": 5}
    inputs = sample_inputs(p, params, rng)
    forward = _nests_of(monkeypatch, lambda: run_forward(p, inputs, params))[0]
    assert [line.split(" = ")[1] for line in _direct_points(forward.source)[0][:2]] == ["v0[i0]", "v0[0]"]
    one = _outcome(p, inputs, params)
    batch = _outcome(p, {k: np.asarray(v)[None] for k, v in inputs.items()}, params)
    assert np.array_equal(batch[0][0], one[0]) and np.array_equal(batch[1]["X"][0], one[1]["X"])
    assert batch[2:] == one[2:]
    report = compare_gradients(one[1], finite_difference_gradient(p, inputs, params), tolerance=1e-5)
    assert report["ok"], report


def test_a_direct_point_computes_each_distinct_expression_once(monkeypatch, rng):
    # double_read's reverse map adds X[i] * P__grad[i] to X__grad[i] once
    # per read of X[i]; the point loads X[i] once, so one product serves both
    p, params = examples.build("double_read"), examples.DEFAULT_PARAMS["double_read"]
    nests = _nests_of(monkeypatch, lambda: gradient(p, sample_inputs(p, params, rng), params))
    (reverse,) = [fn for fn in nests if "'adjm17'" in fn.source]
    carried, _ = _direct_points(reverse.source)
    assert [line.strip() for line in carried if "(c3 * c2)" in line] == ["r4 = (c3 * c2)"]


@pytest.mark.parametrize("make", [lambda: make_map_program(0), _sweep_1d], ids=["make_map_program-0", "sweep"])
def test_a_one_level_nest_runs_one_direct_loop(monkeypatch, make):
    # a nest's only level is entered through one ok_ test, which heads its
    # carried loop, and no point of it tests again
    p, params = make(), {"n": 64}
    inputs = sample_inputs(p, params, np.random.default_rng(0))
    made = _nests_of(monkeypatch, lambda: gradient(p, inputs, params))
    direct = [fn for fn in made if "_view(" in fn.source]
    assert len(direct) >= 2
    for fn in direct:
        lines = fn.source.splitlines()
        (head,) = [k for k, line in enumerate(lines) if line.lstrip().startswith("if ok_")]
        loop = _level_loop(lines, head)
        assert len(lines[loop]) - len(lines[loop].lstrip()) == len(lines[head]) - len(lines[head].lstrip()) + 4
        var = lines[loop].split()[1]
        for k, line in enumerate(lines):
            if line.lstrip().startswith(f"for {var} in "):
                assert not any(x.lstrip().startswith("if ok_") for x in _block(lines, k))
    one = _outcome(p, inputs, params)
    batch = _outcome(p, {k: np.asarray(v)[None] for k, v in inputs.items()}, params)
    assert np.array_equal(batch[0][0], one[0]) and batch[1].keys() == one[1].keys()
    for name, g in one[1].items():
        assert np.array_equal(batch[1][name][0], g)
    assert batch[2:] == one[2:]


def test_a_point_stores_an_element_it_writes_twice_once(monkeypatch, rng):
    # a row sum into B[i, 0], a sweep of A[i, j] and a sum into A[i, j + 1]:
    # the reverse point writes A__grad[i, j] from all three adjoints, and
    # stores it once, with its last value
    b = ProgramBuilder(("n",))
    for name in ("A", "X"):
        b.array(name, ("n", "n"), role="input", kind="real64")
    b.array("B", ("n", "n"), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "1", "(sub n 1)", label="rows"):
        with b.loop("j", "1", "(sub n 1)", label="cols"):
            with b.state("s") as s:
                s.tasklet(ins={"a": ("A", ("i", "j")), "x": ("X", ("i", "j"))}, outs={"o": ("B", ("i", "0"))},
                          body={"o": "(mul a x)"}, wcr="sum")
                s.tasklet(ins={"c": ("A", ("i", "j")), "w": ("A", ("i", "(sub j 1)"))},
                          outs={"o": ("A", ("i", "j"))}, body={"o": "(mul 0.5 (add c w))"})
                s.tasklet(ins={"a": ("A", ("i", "j"))}, outs={"e": ("A", ("i", "(add j 1)"))},
                          body={"e": "(mul -0.25 a)"}, wcr="sum")
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
        s.library("reduce_sum", {"x": "B"}, {"y": "O"}, wcr="sum")
    p, params = b.finish("O", ["A"]), {"n": 6}
    inputs = sample_inputs(p, params, rng)
    _, reverse = _nests_of(monkeypatch, lambda: gradient(p, inputs, params))
    carried, _ = _direct_points(reverse.source)
    assert "A__grad" in reverse.source and _stores(carried) == 1
    one = _outcome(p, inputs, params)
    batch = _outcome(p, {k: v[None] for k, v in inputs.items()}, params)
    assert np.array_equal(batch[1]["A"][0], one[1]["A"]) and batch[2:] == one[2:]


def _block(lines: list[str], at: int) -> list[str]:
    """The lines indented under ``lines[at]``."""
    depth = len(lines[at]) - len(lines[at].lstrip())
    out = []
    for line in lines[at + 1:]:
        if len(line) - len(line.lstrip()) <= depth:
            return out
        out.append(line)
    return out


def _level_loop(lines: list[str], at: int) -> int:
    """The line of the first ``for`` in the block under ``lines[at]``."""
    return next(k for k in range(at + 1, at + 1 + len(_block(lines, at))) if lines[k].lstrip().startswith("for "))


def _direct_points(source: str) -> tuple[list[str], list[str]]:
    """The lines of one point of a nest's first carried loop (the ``for``
    under an ``if ok_...:`` head) and of one checked point of the same
    level (the ``for`` in the head's ``else:`` arm)."""
    lines = source.splitlines()
    head = next(k for k, line in enumerate(lines) if line.lstrip().startswith("if ok_"))
    arm = head + 1 + len(_block(lines, head))
    assert lines[arm].strip() == "else:"
    return _block(lines, _level_loop(lines, head)), _block(lines, _level_loop(lines, arm))


def _stores(point: list[str]) -> int:
    """Element stores through the handle ``v0`` in a point's lines: each
    line that starts ``v0[``, a ``=`` or a ``+=``."""
    return sum(line.lstrip().startswith("v0[") for line in point)


def _loads(point: list[str], handle: str = "v0") -> int:
    """Element loads through ``handle`` in a point's lines: each
    ``handle[`` on the right of ``=``, and each ``handle[...] +=``, but no
    indexing behind batch axes (``a0[..., i]``)."""
    element = re.compile(rf"\b{handle}\[(?!\.\.\.)")
    count = 0
    for line in point:
        target, op, value = line.strip().partition(" = ")
        if not op:
            target, op, value = line.strip().partition(" += ")
            count += len(element.findall(target))
        count += len(element.findall(value))
    return count


def test_a_mixed_precision_nest_keeps_numpy_scalar_arithmetic(monkeypatch, rng):
    # np.float32 * float stays float32 and np.float32 + np.float64 is
    # float64: Python floats would round both in double
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real32")
    b.array("Z", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), role="output", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={"a": ("X", ("i",)), "z": ("Z", ("i",))}, outs={"o": ("Y", ("i",))},
                      body={"o": "(add (mul a 0.1) z)"})
    with b.state("r") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", ["X", "Z"])
    x, z = rng.uniform(0.4, 1.6, 64).astype(np.float32), rng.uniform(0.4, 1.6, 64)
    runs = []
    nests = _nests_of(monkeypatch, lambda: runs.append(run_forward(p, {"X": x, "Z": z}, {"n": 64})))
    want = np.array([xi * 0.1 + zi for xi, zi in zip(x, z)])  # numpy scalars, element by element
    assert np.array_equal(runs[0].env["Y"], want)
    assert not np.array_equal(want, x.astype(np.float64) * 0.1 + z)
    assert nests and all("_view" not in fn.source for fn in nests)


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values in another memory layout."""
    if layout == "transposed":
        return np.ascontiguousarray(x.T).T
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    out = x.copy()
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("layout", ["transposed", "fortran", "strided", "read-only"])
@pytest.mark.parametrize("name", ["seidel_stencil", "triangular"])
def test_a_caller_input_in_any_layout_gives_the_contiguous_gradient_and_is_never_written(name, layout):
    # seidel_stencil writes its input (a copy) in place; triangular reads it
    p, params = examples.build(name), examples.DEFAULT_PARAMS[name]
    x = sample_inputs(p, params, np.random.default_rng(3))["A"]
    given = _laid_out(x, layout)
    before, writeable = given.copy(), given.flags.writeable
    want = gradient(p, {"A": x}, params)
    got = gradient(p, {"A": given}, params)
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.grads["A"], want.grads["A"])
    assert np.array_equal(given, before) and given.flags.writeable == writeable


def test_tasklet_reads_batched_and_unbatched_arrays_alike(rng):
    # A carries a batch axis, B does not: each element read takes its own
    # array's access path
    b = ProgramBuilder(("n",))
    b.array("A", ("n",), role="input", kind="real64")
    b.array("B", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={"a": ("A", ("i",)), "b": ("B", ("i",))}, outs={"o": ("O", ())},
                      body={"o": "(mul a (sin b))"}, wcr="sum")
    p = b.finish("O", ["A", "B"])
    a, bb = rng.uniform(0.4, 1.6, (3, 5)), rng.uniform(0.4, 1.6, 5)
    got = run_forward(p, {"A": a, "B": bb}, {"n": 5}).value
    singles = [run_forward(p, {"A": x, "B": bb}, {"n": 5}).value for x in a]
    assert np.array_equal(got, np.stack(singles))


def test_a_second_gradient_compiles_no_kernel(rng):
    # a second build of the program gets a fresh reverse program from
    # gradient(); its kernels come from the module-wide cache
    p, params = examples.build("seidel_stencil"), {"N": 8, "TSTEPS": 2}
    inputs = sample_inputs(p, params, rng)
    first = gradient(p, inputs, params)
    misses = _compiled_tasklet.cache_info().misses
    second = gradient(examples.build("seidel_stencil"), inputs, params)
    assert second.bundle.backward is not first.bundle.backward
    assert _compiled_tasklet.cache_info().misses == misses
    assert np.array_equal(second.grads["A"], first.grads["A"])


def test_each_compiled_nest_has_its_own_code_filename(rng):
    # a profile or a traceback tells nests apart by their code's filename
    p, params = examples.build("double_read"), examples.DEFAULT_PARAMS["double_read"]
    ex = interpreter.Executor(interpreter.RunPlan(p, params), sample_inputs(p, params, rng), ())
    ex.run()
    names = [fn.__code__.co_filename for fn, _ in ex.plan.nests.values()]
    mid = next(n.id for n in p.region[0].graph.nodes if isinstance(n, ir.MapNode))
    assert len(set(names)) == 2
    assert sorted(n.split(": ", 1)[1] for n in names) == [f"map {mid}>", "tasklet O>"]


def test_each_state_function_has_its_own_code_filename_and_source():
    # a profile or a traceback tells states apart by what they write
    p = genprog.sin_chain(3, side=4)
    run_plan = interpreter.RunPlan(p, {})
    fns = [run_plan.states[id(state)][0] for state in p.region]
    names = [fn.__code__.co_filename for fn in fns]
    assert len(set(names)) == len(p.region)
    assert [n.split(": ", 1)[1] for n in names] == ["writes L>", "writes A0>", "writes A1>", "writes A2>", "writes O>"]
    assert all(fn.source.startswith("def state(ex, args):") for fn in fns)
    assert "U_sin(p0)" in fns[1].source and "_exec" not in fns[1].source


@pytest.mark.parametrize("make, params, share", [
    (lambda: genprog.sin_chain(5, side=4), {}, 0.6),
    (lambda: examples.build("seidel_stencil"), {"N": 8, "TSTEPS": 2}, 1.0),  # no budget below keep-all fits
], ids=["sin_chain", "seidel_stencil"])
def test_a_second_build_compiles_no_state_function(make, params, share, rng):
    # state functions are cached by structure, not by the program object:
    # a rebuilt program's gradient(), plan() at a budget and replay reuse them
    def runs(p):
        inputs = sample_inputs(p, params, rng)
        gradient(p, inputs, params)
        keep_all = plan(p, None, params).solution.t_star
        return run_planned(plan(p, share * keep_all / (1 << 20), params), inputs, params)

    first = runs(make())
    cache = nests._compiled_state.cache_info()
    again = runs(make())
    assert nests._compiled_state.cache_info().misses == cache.misses
    assert nests._compiled_state.cache_info().hits > cache.hits
    assert again.value.shape == first.value.shape


def test_loop_headers_simulate_once_per_distinct_header(monkeypatch, rng):
    calls = []

    def counting(loop, bindings):
        calls.append(loop.label)
        return simulate_header(loop, bindings)

    monkeypatch.setattr(interpreter, "simulate_header", counting)
    p = examples.build("seidel_stencil")
    run_forward(p, {"A": rng.uniform(0.4, 1.6, (8, 8))}, {"N": 8, "TSTEPS": 2})
    # unmemoized: 1 time loop, 2 row loops and 12 column loops
    assert sorted(calls) == ["cols", "rows", "time"]


# ---------------------------------------------------------------------------
# loop nests and maps as generated functions: what a nest fetches, raises
# and visits


def _run_env(program, params, inputs=None):
    """Run ``program`` on a fresh executor; return it and its env."""
    env = dict(inputs or {})
    ex = interpreter.Executor(interpreter.RunPlan(program, params), env, ())
    ex.run()
    return ex, env


def _ran_as_nest(ex, loop) -> bool:
    return ex.plan.nests.get(id(loop)) is not None


@pytest.mark.parametrize("scope, body", [
    pytest.param(scope, body, id=scope if body == "(sin x)" else f"{scope}-exact")
    for scope in ("loops", "map", "loop", "one-level map") for body in ("(sin x)", "(mul x x)")
])
def test_a_nest_that_runs_no_point_fetches_nothing(scope, body):
    # X is missing and T and G are untouched: the first point would read X
    # and zero-fill T and G, and there is none; an exact body makes a
    # direct nest, whose levels fetch at entry only when they have iterates
    b = ProgramBuilder(("n", "m"))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("T", ("n",), kind="real64")
    b.array("G", ("n",), role="gradient", kind="real64")
    b.scalar("O", role="output", kind="real64")

    def point(s):
        s.tasklet(ins={"x": ("X", ("i",))}, outs={"t": ("T", ("i",))}, body={"t": body})
        s.tasklet(ins={"t": ("T", ("i",))}, outs={"g": ("G", ("i",))}, body={"g": "t"}, wcr="sum")

    with b.state("init") as s:
        s.tasklet(ins={}, outs={"o": ("O", ())}, body={"o": "0"})
    if scope == "loops":
        with b.loop("k", "0", "m", label="outer"):
            with b.loop("i", "0", "n", label="inner"):
                with b.state("body") as s:
                    point(s)
    elif scope == "map":
        with b.state("body") as s:
            s.map_node(("k", "i"), (("0", "m", "1"), ("0", "n", "1")), point)
    elif scope == "loop":
        with b.loop("i", "0", "n", label="over"):
            with b.state("body") as s:
                point(s)
    else:
        with b.state("body") as s:
            s.map_node(("i",), (("0", "n", "1"),), point)
    p = b.finish("O", ["X"])
    # the two-level nests run no point at m = 0, the one-level ones at n = 0
    two = scope in ("loops", "map")
    ex, env = _run_env(p, {"n": 3, "m": 0} if two else {"n": 0, "m": 0})
    assert set(env) == {"O"}
    assert "map" in scope or _ran_as_nest(ex, p.region[1])
    with pytest.raises(UnboundName, match="no value for input 'X'"):
        _run_env(p, {"n": 3, "m": 1} if two else {"n": 1, "m": 0})


def _two_deep(subset: str, bound: str, params=("n",)):
    """for i < 2: for j < bound: O += X[subset], with parameters ``params``."""
    b = ProgramBuilder(params)
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "2", label="outer"):
        with b.loop("j", "0", bound, label="inner"):
            with b.state("s") as s:
                s.tasklet(ins={"a": ("X", (subset,))}, outs={"o": ("O", ())},
                          body={"o": "a"}, wcr="sum")
    return b.finish("O", ["X"])


def _map_in_a_loop(step: str):
    """for i < 2: map j in range(0, n, step): O += X[j]."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "2", label="outer"):
        with b.state("s") as s:
            s.map_node(("j",), (("0", "n", step),), lambda inner: inner.tasklet(
                ins={"a": ("X", ("j",))}, outs={"o": ("O", ())}, body={"o": "a"}, wcr="sum"))
    return b.finish("O", ["X"])


def _header_scalar_batch():
    """for i < 2: {m = X[i]; for j < m: O += 1}: the inner header reads a
    scalar the outer body writes, which differs across a batch."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("m", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "2", label="outer"):
        with b.state("set") as s:
            s.tasklet(ins={"x": ("X", ("i",))}, outs={"o": ("m", ())}, body={"o": "x"})
        with b.loop("j", "0", "m", label="inner"):
            with b.state("s") as s:
                s.tasklet(ins={"o": ("O", ())}, outs={"o": ("O", ())}, body={"o": "(add o 1)"})
    return b.finish("O", ["X"])


@pytest.mark.parametrize("make, x, error, msg", [
    (lambda: _two_deep("j", "(add n 1)"), np.ones(3), OutOfBounds,
     "'X' index 3 outside dimension of size 3"),
    (lambda: _two_deep("(div j 2)", "n"), np.ones(3), DomainError,
     "subset of 'X' evaluated to non-integer 0.5"),
    (lambda: _two_deep("k", "n", params=("n", "k")), np.ones(3), UnboundName, "no binding for 'k'"),
    (lambda: _map_in_a_loop("(sub 1 i)"), np.ones(3), DomainError,
     "map '{map}' step must be positive, got 0"),
    (lambda: _map_in_a_loop("(div 1 2)"), np.ones(3), DomainError,
     "map '{map}' step evaluated to non-integer 0.5"),
    (_header_scalar_batch, np.array([[1.0, 2.0, 0.0], [1.0, 3.0, 0.0]]), BatchDivergence,
     "scalar 'm' in a loop header differs across the batch"),
], ids=["bounds", "index", "unbound", "step", "step-int", "batch"])
def test_errors_deep_in_a_nest_keep_their_class_and_message(make, x, error, msg):
    program = make()
    maps = [n.id for _, st in ir.walk_blocks(program.region) if isinstance(st, ir.State)
            for n in st.graph.nodes if isinstance(n, ir.MapNode)]
    with pytest.raises(error) as info:
        run_forward(program, {"X": x}, {"n": 3})
    assert str(info.value) == msg.format(map=maps[0] if maps else None)


def test_inner_headers_that_read_the_nest_get_fresh_iterates(rng):
    # triangular: the inner header reads the outer iterator
    p = examples.build("triangular")
    a = rng.uniform(0.4, 1.6, (5, 5))
    ex, env = _run_env(p, {"n": 5}, {"A": a})
    assert _ran_as_nest(ex, p.region[0])
    assert env["acc"] == pytest.approx(np.square(np.tril(a)).sum(), rel=1e-14)
    # the inner header reads m, which the outer body writes first
    p = _header_scalar_batch()
    ex, env = _run_env(p, {"n": 3}, {"X": np.array([2.0, 3.0, 0.0])})
    assert _ran_as_nest(ex, p.region[0])
    assert env["O"] == 5.0


@pytest.mark.parametrize("skip, take, digits", [
    (0, None, 54321), (1, 2, 43), (1, 1, 4), (4, None, 1), (5, None, 0), (0, 10, 54321),
])
def test_a_peeled_reversed_loop_visits_its_positions(skip, take, digits):
    # O = 10 O + X[i] writes the visited iterates as digits, last first
    b = ProgramBuilder(())
    b.array("X", ("5",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "5", label="lp"):
        with b.state("s") as s:
            s.tasklet(ins={"o": ("O", ()), "x": ("X", ("i",))}, outs={"o": ("O", ())},
                      body={"o": "(add (mul o 10) x)"})
    p = b.finish("O", ["X"])
    loop = p.region[0]
    loop.reverse_of, loop.skip, loop.take = "lp", skip, take
    ex, env = _run_env(p, {}, {"X": np.arange(1.0, 6.0)})
    assert _ran_as_nest(ex, loop)
    assert env.get("O", 0.0) == digits


def test_a_tasklet_with_no_out_edge_fails_validation_before_it_runs(rng):
    # the init tasklet T = 1 loses its only out-edge: past parse_program
    # (parse_unvalidated), the run plan refuses the program before any state
    # runs, and the differentiator before it differentiates it
    doc = program_to_dict(examples.build("doubling_gather"))
    init = doc["region"][0]
    init["edges"] = [e for e in init["edges"] if e["src"] != "t1"]
    with pytest.raises(ValidationFailed, match="ArityMismatch: 't1' output 'o' has 0 edges"):
        parse_program(json.dumps(doc))
    p = parse_unvalidated(json.dumps(doc))
    inputs = sample_inputs(p, {}, rng)
    for run in (run_forward, gradient):
        with pytest.raises(ValidationFailed, match="ArityMismatch: 't1' output 'o' has 0 edges"):
            run(p, inputs, {})


# ---------------------------------------------------------------------------
# the run plan: the one door to execution


def _one_write_short(program):
    """``program`` rebuilt by ``dataclasses.replace`` without the first write
    edge of its first state, so it is not valid and carries no mark."""
    state = next(b for b in program.region if isinstance(b, ir.State))
    nodes = {n.id: n for n in state.graph.nodes}
    drop = next(e for e in state.graph.edges if isinstance(nodes[e.dst], ir.AccessNode))
    edges = [e for e in state.graph.edges if e is not drop]
    edited = ir.State(state.label, ir.Dataflow(list(state.graph.nodes), edges))
    return dataclasses.replace(program, region=ir.splice(program.region, {id(state): [edited]}))


def test_an_invalid_replaced_program_fails_at_the_run_plan_before_any_state_runs(monkeypatch):
    p, params = examples.build("scaled_product_chain"), {"N": 4}
    inputs = sample_inputs(p, params, np.random.default_rng(0))
    bundle = build_backward(p)
    bad, bad_backward = _one_write_short(p), _one_write_short(bundle.backward)
    ran = []
    monkeypatch.setattr(interpreter.Executor, "run", ran.append)
    for call in (
        lambda: interpreter.RunPlan(bad, params),
        lambda: run_forward(bad, inputs, params),
        lambda: interpreter.RunPlan(bad_backward, params, forwarding=bundle.forwarding, src_program=p),
    ):
        with pytest.raises(ValidationFailed, match="ArityMismatch: "):
            call()
    assert ran == [] and bad._kept == bad_backward._kept == {}


def test_a_run_under_a_kept_binding_builds_no_run_plan(monkeypatch):
    # gradient() keeps its two plans for the last binding it ran, plan()
    # those of its replay for the binding it planned; any other binding
    # builds a forward and a reverse plan for the call
    p = examples.build("scaled_product_chain")
    rng = np.random.default_rng(1)
    four, five = {"N": 4}, {"N": 5}
    x4, x5 = sample_inputs(p, four, rng), sample_inputs(p, five, rng)
    made = []
    init = interpreter.RunPlan.__init__

    def counted(self, program, *args, **kwargs):
        made.append(program)
        init(self, program, *args, **kwargs)

    def built(call, *args):
        made.clear()
        call(*args)
        return len(made)

    monkeypatch.setattr(interpreter.RunPlan, "__init__", counted)
    assert [built(gradient, p, x, n) for x, n in ((x4, four), (x4, four), (x5, five), (x5, five))] == [2, 0, 2, 0]
    result = plan(p, None, four)
    assert [built(run_planned, result, x, n) for x, n in ((x4, four), (x4, four), (x5, five))] == [0, 0, 2]
    assert made == [result.forward, result.backward]


# ---------------------------------------------------------------------------
# array lifetimes: what a run copies, keeps and releases


def _reverse_env(program, inputs, params=None):
    """Run ``program`` with a reverse run's releases; return its env."""
    env = dict(inputs)
    run_plan = interpreter.RunPlan(program, dict(params or {}), src_program=program)
    interpreter.Executor(run_plan, env, ()).run()
    return env


def test_loop_header_scalar_and_branch_condition_array_stay_live():
    # T's last edge is in 'init', but the branch condition reads it later; m
    # is read only by the loop header
    b = ProgramBuilder(())
    b.array("X", ("4",), role="input", kind="real64")
    b.array("T", ("4",), role="gradient", kind="real64")
    b.scalar("m", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("init") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "T"}, op="scale", const=2.0)
        s.tasklet(ins={}, outs={"o": ("m", ())}, body={"o": "3"})
        s.tasklet(ins={}, outs={"o": ("O", ())}, body={"o": "0"})
    with b.loop("i", "0", "m", label="lp"):
        with b.state("step") as s:
            s.tasklet(ins={"t": ("O", ())}, outs={"o": ("O", ())}, body={"o": "(add t 1)"})
    with b.branch("(gt (idx T 1) 1)", label="pick") as br:
        with br.then():
            with b.state("hi") as s:
                s.tasklet(ins={"t": ("O", ())}, outs={"o": ("O", ())}, body={"o": "(mul t 10)"})
        with br.orelse():
            with b.state("lo") as s:
                s.tasklet(ins={"t": ("O", ())}, outs={"o": ("O", ())}, body={"o": "(sub t 100)"})
    p = b.finish("O", ["X"])
    x = np.array([0.5, 0.75, 1.0, 2.0])
    env = _reverse_env(p, {"X": x})
    assert env["O"] == 30.0 == run_forward(p, {"X": x}).value  # 3 visits, then arm
    assert "T" not in env and env["m"] == 3.0  # released after the branch; scalars stay


def test_gradient_accumulated_in_a_loop_is_released_after_the_loop():
    # G is read after the loop; H only inside it, where each iteration reads
    # the sum of the ones before: releasing either inside the loop restarts
    # it from zero
    b = ProgramBuilder(())
    b.array("X", ("4",), role="input", kind="real64")
    b.array("G", ("4",), role="gradient", kind="real64")
    b.array("H", ("4",), role="gradient", kind="real64")
    b.scalar("t", kind="real64")
    b.scalar("u", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "3", label="lp"):
        with b.state("acc") as s:
            s.library("ew_binary", {"a": "G", "b": "X"}, {"c": "G"}, op="add")
            s.library("ew_binary", {"a": "H", "b": "X"}, {"c": "H"}, op="add")
            s.library("reduce_sum", {"x": "H"}, {"y": "t"})
            s.tasklet(ins={"a": ("O", ()), "b": ("t", ())}, outs={"o": ("O", ())},
                      body={"o": "(add a b)"})
    with b.state("after") as s:
        s.library("reduce_sum", {"x": "G"}, {"y": "u"})
        s.tasklet(ins={"a": ("O", ()), "b": ("u", ())}, outs={"o": ("O", ())},
                  body={"o": "(add a b)"})
    p = b.finish("O", ["X"])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    env = _reverse_env(p, {"X": x})
    assert env["O"] == (1 + 2 + 3 + 3) * x.sum() == run_forward(p, {"X": x}).value
    assert "G" not in env and "H" not in env


def test_map_body_reads_keep_their_arrays_live():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("T", ("n",), role="gradient", kind="real64")
    b.array("P", ("n",), role="output", kind="real64")
    b.scalar("O", role="output", kind="real64")

    def square(inner):
        inner.tasklet(ins={"a": ("T", ("i",))}, outs={"o": ("P", ("i",))}, body={"o": "(mul a a)"})

    # T is written by the first node and read last in the map's body: its
    # release waits for the map
    with b.state("main") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "T"}, op="scale", const=2.0)
        s.map_node(("i",), (("0", "n", "1"),), square)
        s.library("reduce_sum", {"x": "P"}, {"y": "O"})
    p = b.finish("O", ["X"])
    x = np.array([0.5, 1.0, 1.5])
    env = _reverse_env(p, {"X": x}, {"n": 3})
    np.testing.assert_array_equal(env["P"], (2 * x) ** 2)
    assert "T" not in env


def _compute_ordinals(program):
    """id of each compute node -> its ordinal among all compute nodes of a
    straight-line program."""
    out, k = {}, 0
    for state in program.region:
        for node in ir.schedule(state.graph):
            if not isinstance(node, ir.AccessNode):
                out[id(node)] = k
                k += 1
    return out


@pytest.mark.parametrize("program, params", [
    (examples.build("scaled_product_chain"), {"N": 4}),
    (examples.build("exp_sin_chain"), {"n": 5}),
    (genprog.sin_chain(5, side=4), {}),
    *((examples.build(n), examples.DEFAULT_PARAMS[n]) for n in ("double_read", "overwrite_chain", "matmul_sum")),
], ids=["scaled_product_chain", "exp_sin_chain", "sin_chain", "double_read", "overwrite_chain", "matmul_sum"])
def test_reverse_releases_where_the_memory_model_frees(program, params):
    # on a straight-line program each release point is the model's: the
    # compute node that reads or writes the value last (ir.node_accesses,
    # a map's body names included), for exactly the names the model's
    # backward frees
    bundle = build_backward(program)
    fvs = collect_forwarded(program, bundle, params)
    (seq,) = build_memory_sequences(program, bundle, fvs, params)
    bwd = bundle.backward
    freed = [ev.label[len("free "):] for ev in seq.events if ev.label.startswith("free ")]
    model = {n for n in freed if n in bwd.descriptors and bwd.descriptors[n].role != "output"}
    accesses = []
    for st in bwd.region:
        touched = ir.node_accesses(st.graph)
        accesses += [touched[n.id] for n in ir.schedule(st.graph) if n.id in touched]
    want = {n: max(k for k, names in enumerate(accesses) if n in names) for n in model}

    run_plan = interpreter.RunPlan(bwd, params, forwarding=bundle.forwarding, src_program=program)
    ordinal = _compute_ordinals(bwd)
    owner = {(e.data, c.version): n for n, e in bundle.forwarding.items() for c in e.candidates}
    got = {}
    for at, entries in run_plan.releases[0].items():
        for key in entries:
            n = key if isinstance(key, str) else owner[key[:2]]
            if bwd.descriptors[n].rank:
                got[n] = ordinal[at]
    assert model and got == want


@pytest.mark.parametrize("share", [None, 0.6], ids=["gradient", "run_planned-60%"])
def test_a_released_array_is_freed_at_once(monkeypatch, share):
    # no local of the running code holds an array past the node that reads
    # it last: what a release pops from env or the tape is dead right after
    # the pop, without the cycle collector
    p = genprog.sin_chain(5, side=4)
    inputs = sample_inputs(p, {}, np.random.default_rng(0))
    release = interpreter.Executor._release
    checked = {"forward": [], "reverse": []}

    def watched(ex, at):
        refs = []
        for key in ex.frees[at]:
            if key.__class__ is str:
                refs += [weakref.ref(ex.env[key])] if key in ex.env else []
            else:
                refs += [weakref.ref(ex.src_tape.values[k]) for k in ex.drops.get(key, ())]
        release(ex, at)
        checked["forward" if ex.tape is not None else "reverse"].extend(ref() is None for ref in refs)

    monkeypatch.setattr(interpreter.Executor, "_release", watched)
    if share is None:
        gradient(p, inputs)
    else:
        keep_all = plan(p, None).solution.t_star
        run_planned(plan(p, share * keep_all / (1 << 20)), inputs)
    # gradient()'s forward run tapes A0..A3 by reference and frees only A4
    assert len(checked["forward"]) >= 1 and len(checked["reverse"]) >= 5
    assert all(checked["forward"] + checked["reverse"])


def _released(run_plan) -> set:
    return {key for keys in run_plan.releases[0].values() for key in keys}


def test_a_forward_plan_frees_no_array_its_tape_holds_by_reference():
    # gradient()'s forward run of sin_chain(4) tapes L, A0, A1 and A2 as the
    # arrays themselves (a library node writes each): popping one from env
    # would free nothing, so only A3, which no reverse node reads, goes
    p = genprog.sin_chain(4, side=4)
    bundle = build_backward(p)
    recorded = interpreter.RunPlan(p, {}, record=_recorded(bundle.forwarding), vinfo=bundle.vinfo)
    assert {n for n, _ in recorded.record} - recorded.mutated == {"L", "A0", "A1", "A2"}
    assert _released(recorded) == {"A3"}
    assert _released(interpreter.RunPlan(p, {})) == {"L", "A0", "A1", "A2", "A3"}


def test_a_tape_record_is_a_touch_of_the_array_it_copies():
    # a tasklet writes T, so T's snapshot is a copy, taken at the access node
    # after its writer; no node reads T later, so the record is its last
    # touch and T is released after it, not after the writer
    b = ProgramBuilder(())
    b.array("X", ("2",), role="input", kind="real64")
    b.array("T", ("2",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("main") as s:
        s.tasklet(ins={"a": ("X", ("0",))}, outs={"o": ("T", ("0",))}, body={"o": "(sin a)"})
        s.tasklet(ins={"a": ("X", ("1",))}, outs={"o": ("O", ())}, body={"o": "(mul a a)"})
    p = b.finish("O", ["X"])
    run_plan = interpreter.RunPlan(p, {}, record={("T", 1)})
    assert "T" in run_plan.mutated and _released(run_plan) == {"T"}
    x = np.array([0.5, 2.0])
    res = run_forward(p, {"X": x}, run_plan=run_plan)
    np.testing.assert_array_equal(res.tape.values[("T", 1, ())], [np.sin(0.5), 0.0])
    assert "T" not in res.env


def _planned_forward_peak(k: int, side: int, share: float) -> tuple[int, int]:
    """The values a plan of ``sin_chain(k, side=side)`` at ``share`` of its
    keep-all peak stores, and the ``tracemalloc`` peak of its warmed-up
    forward run; the inputs exist before tracing starts."""
    p = genprog.sin_chain(k, side=side)
    result = plan(p, share * plan(p, None, {}).solution.t_star / (1 << 20), {})
    inputs = sample_inputs(p, {}, np.random.default_rng(0))
    run_planned(result, inputs)
    gc.collect()
    tracemalloc.start()
    try:
        run_forward(result.forward, inputs, run_plan=result.backward._kept["runs"][0])
        return sum(result.solution.assignment), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_planned_forward_run_holds_its_kept_copies_and_two_transients():
    # sin_chain(12) at 80% of keep-all, arrays of 16 x 16 real64: each kept
    # array, the array a sin reads and the one it writes, and one library
    # result before it is stored; the Python objects as measured at 2 x 2.
    # Holding all 13 transients to the end of the run peaks at 46,392 B,
    # about 20 KB over this bound.
    _, python_bytes = _planned_forward_peak(12, 2, 0.8)
    kept, measured = _planned_forward_peak(12, 16, 0.8)
    assert 0 < kept < 12
    assert measured <= (kept + 2 + 1) * 16 * 16 * 8 + python_bytes, (measured, python_bytes)


def test_a_planned_forward_run_ends_with_inputs_and_outputs_and_tapes_what_it_keeps(rng):
    # the planned forward is the program itself: its env ends with the
    # inputs and outputs, and each value the plan keeps is on the tape
    p, params = examples.build("scaled_product_chain"), {"N": 4}
    result = plan(p, 10 * 4 * 4 * 4 / (1 << 20), params)
    inputs = sample_inputs(p, params, rng)
    fwd = run_forward(result.forward, inputs, run_plan=result.backward._kept["runs"][0])
    kept = {(fv.data, fv.versions[0], ()) for fv, v in zip(result.fvs, result.solution.assignment) if v}
    assert result.forward is p and set(fwd.env) == set(inputs) | {"O"}
    assert 0 in result.solution.assignment and kept and set(fwd.tape.values) == kept


def test_only_inputs_the_program_mutates_are_copied():
    p = examples.build("exp_sin_chain")
    x = np.linspace(0.5, 1.5, 5)
    assert run_forward(p, {"X": x}, {"n": 5}).env["X"] is x
    # X = sin(X) by a library node gives X a new array: the run neither
    # copies x nor changes it, and x is X's version-0 snapshot
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("main") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "X"}, op="sin")
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    q = b.finish("O", ["X"])
    before = x.copy()
    assert ir.written_descriptors(q) == {"X", "O"} and ir.mutated_descriptors(q) == set()
    assert interpreter._prepare_inputs(interpreter.RunPlan(q, {"n": 5}), {"X": x})[0]["X"] is x
    res = run_forward(q, {"X": x}, run_plan=interpreter.RunPlan(q, {"n": 5}, record={("X", 0)}))
    assert res.env["X"] is not x and np.array_equal(x, before)
    np.testing.assert_array_equal(res.env["X"], np.sin(before))
    assert res.tape.values[("X", 0, ())] is x
    g = gradient(q, {"X": x}, {"n": 5})
    assert np.array_equal(x, before)
    np.testing.assert_array_equal(g.grads["X"], np.cos(before))
    # seidel_stencil writes its input in place through tasklets: a copy
    seidel, params = examples.build("seidel_stencil"), examples.DEFAULT_PARAMS["seidel_stencil"]
    a = sample_inputs(seidel, params, np.random.default_rng(1))["A"]
    assert "A" in ir.mutated_descriptors(seidel)
    assert interpreter._prepare_inputs(interpreter.RunPlan(seidel, params), {"A": a})[0]["A"] is not a


def _snapshots_and_env(program, inputs, params) -> tuple[dict, dict]:
    """The tape and the env of the forward run ``gradient()`` makes, read
    before the run drops its intermediates."""
    bundle = build_backward(program)
    run_plan = interpreter.RunPlan(program, params, record=_recorded(bundle.forwarding), vinfo=bundle.vinfo)
    env, batch = interpreter._prepare_inputs(run_plan, inputs)
    tape = interpreter.Tape()
    interpreter.Executor(run_plan, env, batch, tape=tape).run()
    return tape.values, env


def test_a_snapshot_is_its_array_unless_the_program_mutates_it(rng):
    # sin_chain's arrays are each written once, by a library node: every
    # snapshot is the array the run holds. Seidel's sweep writes A in place
    # through tasklets: each snapshot of A, its version 0 and one per point
    # of the sweep, is a copy of its own.
    p = genprog.sin_chain(4, side=4)
    snaps, env = _snapshots_and_env(p, sample_inputs(p, {}, rng), {})
    assert len(snaps) == 4 and all(arr is env[name] for (name, _, _), arr in snaps.items())
    p, params = examples.build("seidel_stencil"), {"N": 5, "TSTEPS": 2}
    inputs = sample_inputs(p, params, rng)
    fwd = run_forward(p, inputs, run_plan=interpreter.RunPlan(p, params, record={("A", 0), ("A", 1)}))
    snaps = list(fwd.tape.values.values())
    assert len(snaps) == 1 + 2 * 3 * 3
    assert len({id(a) for a in snaps + [fwd.env["A"], inputs["A"]]}) == len(snaps) + 2
    assert np.array_equal(snaps[0], inputs["A"]) and np.array_equal(snaps[-1], fwd.env["A"])


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
@pytest.mark.parametrize("case", [*examples.EXAMPLES, *((make, seed) for make, seeds in (
    (make_loop_program, 12), (make_map_program, 8), (make_stencil_program, 8), (make_elementwise_program, 8))
    for seed in range(seeds))], ids=lambda c: c if isinstance(c, str) else f"{c[0].__name__}-{c[1]}")
def test_snapshots_taken_by_reference_give_the_gradients_of_copied_ones(case, monkeypatch):
    # copying every snapshot and every written input, as when every written
    # name counted as mutated, gives the same gradients bit for bit
    def build():
        if isinstance(case, str):
            return examples.build(case), examples.DEFAULT_PARAMS[case]
        p = case[0](case[1])
        return p, {name: 5 for name in p.parameters}

    p, params = build()
    inputs = sample_inputs(p, params, np.random.default_rng(5))
    before = {name: np.array(v, copy=True) for name, v in inputs.items()}
    shipped = _outcome(p, inputs, params)
    monkeypatch.setattr(interpreter, "mutated_descriptors", ir.written_descriptors)
    copied = _outcome(build()[0], inputs, params)
    assert all(np.array_equal(inputs[name], v) for name, v in before.items())
    if isinstance(shipped[0], type):
        assert copied == shipped
        return
    assert np.array_equal(copied[0], shipped[0]) and copied[1].keys() == shipped[1].keys()
    assert all(np.array_equal(copied[1][name], g) for name, g in shipped[1].items())
    assert copied[2:] == shipped[2:]


def test_reverse_run_consumes_the_snapshots_it_reads(rng):
    p = genprog.sin_chain(4, side=4)
    inputs = sample_inputs(p, {}, rng)
    bundle = build_backward(p)
    forward, reverse = _replay_plans(p, bundle.backward, bundle, {})
    fwd = run_forward(p, inputs, run_plan=forward)
    assert len(fwd.tape.values) == len(bundle.forwarding) > 0
    run_backward(reverse, inputs, tape=fwd.tape)
    assert fwd.tape.values == {}
    # a pristine input's own snapshot is the caller's array, not a copy
    x = np.linspace(0.5, 1.5, 5)
    q = examples.build("exp_sin_chain")
    tape = run_forward(q, {"X": x}, run_plan=interpreter.RunPlan(q, {"n": 5}, record={("X", 0)})).tape
    assert tape.values[("X", 0, ())] is x


# ---------------------------------------------------------------------------
# prepared library steps: kept with each graph, shared by every run


def _kept_steps(*programs) -> dict:
    """id of each graph holding a library node, map bodies included -> the
    id of its kept steps, or None before they are prepared."""
    out = {}

    def visit(df):
        if any(isinstance(n, ir.LibraryNode) for n in df.nodes):
            out[id(df)] = None if df._steps is None else id(df._steps)
        for n in df.nodes:
            if isinstance(n, ir.MapNode):
                visit(n.body)

    for program in programs:
        for _, block in ir.walk_blocks(program.region):
            if isinstance(block, ir.State):
                visit(block.graph)
    return out


def _same_gradient(a, b):
    assert np.array_equal(a.value, b.value)
    assert a.grads.keys() == b.grads.keys()
    for name in a.grads:
        assert np.array_equal(a.grads[name], b.grads[name]), name


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES) + ["sin_chain"])
def test_prepared_steps_give_every_run_the_same_results(name):
    # the first gradient() prepares the steps of the program and its
    # backward, both arms of a branch included, and plan() those of the
    # graphs it builds; later runs and the planned replays reuse them, never
    # prepare them again, and agree bit for bit with the first run, and the
    # op counts with count_flops
    build = (lambda: genprog.sin_chain(5)) if name == "sin_chain" else (lambda: examples.build(name))
    fresh, program = build(), build()
    params = {} if name == "sin_chain" else examples.DEFAULT_PARAMS[name]
    kept = None
    for inputs in _each_arm(program, params, 11):
        first = gradient(program, inputs, params)
        kept = kept or _kept_steps(program, first.bundle.backward)
        assert None not in kept.values()
        second = gradient(program, inputs, params)
        _same_gradient(first, second)
        assert (second.forward.op_count, second.backward.op_count) == (first.forward.op_count, first.backward.op_count)
        _count_matches_run(program, params, inputs)
        keep_all = plan(program, None, params)
        budgets = [None, 0.6 * keep_all.solution.t_star / (1 << 20)] if name == "sin_chain" else [None]
        for limit in budgets:
            planned = plan(program, limit, params)
            assert None not in _kept_steps(planned.forward, planned.backward).values()
            replays = [run_planned(planned, inputs, params) for _ in range(2)]
            for replay in replays:
                _same_gradient(first, replay)
            assert replays[0].forward.op_count == replays[1].forward.op_count
            assert replays[0].backward.op_count == replays[1].backward.op_count
    assert _kept_steps(program, first.bundle.backward) == kept
    assert count_flops(program, params) == count_flops(fresh, params)
    assert count_flops(first.bundle.backward, params) == count_flops(build_backward(fresh).backward, params)


def test_prepared_steps_serve_batched_and_single_runs_alike(rng):
    p = genprog.sin_chain(4, side=3)
    xs = rng.uniform(0.4, 1.6, (2, 3, 3))
    singles = [gradient(p, {"X": x}, {}) for x in xs]
    batched = gradient(p, {"X": xs}, {})
    assert np.array_equal(batched.value, np.stack([s.value for s in singles]))
    assert np.array_equal(batched.grads["X"], np.stack([s.grads["X"] for s in singles]))
    assert batched.forward.op_count == singles[0].forward.op_count
    _same_gradient(gradient(p, {"X": xs[1]}, {}), singles[1])


def _library_in_a_map():
    """O = sum over i of sin(X)[i]^2, with the sin a library node in the
    map body, so the body's nest calls it back at every point."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")

    def point(inner):
        inner.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
        inner.tasklet(ins={"a": ("Y", ("i",))}, outs={"o": ("O", ())}, body={"o": "(mul a a)"}, wcr="sum")

    with b.state("s") as s:
        s.map_node(("i",), (("0", "n", "1"),), point)
    return b.finish("O", ["X"])


def test_a_library_node_in_a_map_body_runs_its_kept_step(rng):
    p, x = _library_in_a_map(), rng.uniform(0.4, 1.6, 4)
    runs = [run_forward(p, {"X": x}, {"n": 4}) for _ in range(2)]
    body = next(n.body for n in p.region[0].graph.nodes if isinstance(n, ir.MapNode))
    assert body._steps is not None
    ref = 0.0
    for v in np.sin(x):
        ref += v * v
    assert runs[0].value == runs[1].value == ref
    # 4 points, each a sin over 4 elements and one multiply
    assert runs[0].op_count == runs[1].op_count == count_flops(p, {"n": 4})[()] == 20


def test_an_array_a_library_node_replaces_in_a_map_body_is_read_anew(rng):
    # each point's library node replaces Y with half of Z, whose element 0
    # the point before wrote; a handle to the old Y would read stale values
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.array("Z", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")

    def point(inner):
        inner.library("ew_unary", {"x": "Z"}, {"y": "Y"}, op="scale", const=0.5)
        inner.tasklet(ins={"y": ("Y", ("0",)), "z": ("Z", ("i",))}, outs={"o": ("Z", ("0",))},
                      body={"o": "(add y z)"})

    with b.state("copy") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Z"}, op="copy")
    with b.state("s") as s:
        s.map_node(("i",), (("0", "n", "1"),), point)
    with b.state("sum") as s:
        s.library("reduce_sum", {"x": "Z"}, {"y": "O"})
    p = b.finish("O", ["X"])
    x = rng.uniform(0.4, 1.6, 5)
    z = x.copy()
    for i in range(5):
        z[0] = 0.5 * z[0] + z[i]
    for batch in ((), (1,)):
        got = run_forward(p, {"X": x.reshape(batch + (5,))}, {"n": 5}).value
        assert got.reshape(-1)[0] == z.sum()


_LIBRARY_ERRORS = {
    # kind, ins, outs, op, declared shapes, inputs at n=3, error, message
    "operand-shape": ("ew_binary", {"a": "X", "b": "Z"}, {"c": "Y"}, "add", {"X": ("n",), "Z": ("(add n 1)",)},
                      {"X": np.ones(3), "Z": np.ones(4)}, ShapeMismatch,
                      r"^'n\d+': operand 'b' has shape \(4,\), output \(3,\)$"),
    "matmul-inner": ("matmul", {"a": "X", "b": "Z"}, {"c": "Y"}, None, {"X": ("n", "n"), "Z": ("(add n 1)", "n")},
                     {"X": np.ones((3, 3)), "Z": np.ones((4, 3))}, ShapeMismatch,
                     r"^matmul 'n\d+': inner dims 3 vs 4$"),
    "no-value": ("ew_unary", {"x": "X"}, {"y": "Y"}, "sin", {"X": ("n",)}, {}, UnboundName,
                 r"^no value for input 'X'$"),
    "log": ("ew_unary", {"x": "X"}, {"y": "Y"}, "log", {"X": ("n",)}, {"X": np.array([1.0, -2.0, 3.0])},
            DomainError, r"^log of non-positive value$"),
}


@pytest.mark.parametrize("where, case", [
    ("state", "matmul-inner"), ("state", "no-value"),
    ("map", "operand-shape"), ("map", "matmul-inner"), ("map", "no-value"), ("map", "log"),
])
def test_a_library_node_keeps_its_error_class_and_message(where, case):
    # the cases no other test covers, for a library node at the state level
    # and in a map body
    kind, ins, outs, op, shapes, inputs, error, msg = _LIBRARY_ERRORS[case]
    b = ProgramBuilder(("n",))
    for name, shape in shapes.items():
        b.array(name, shape, role="input", kind="real64")
    b.array("Y", shapes["X"], kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        if where == "state":
            s.library(kind, ins, outs, op=op)
        else:
            s.map_node(("i",), (("0", "1", "1"),), lambda inner: inner.library(kind, ins, outs, op=op))
    with b.state("sum") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    p = b.finish("O", list(shapes))
    if case in ("operand-shape", "matmul-inner"):  # the binding decides: the plan build raises
        with pytest.raises(error, match=msg):
            interpreter.RunPlan(p, {"n": 3})
    with pytest.raises(error, match=msg):
        run_forward(p, inputs, {"n": 3})


def test_operand_shapes_that_do_not_fit_fail_the_plan_in_an_arm_the_run_does_not_take():
    # if n > 5 {Y = X + Z; O = sum Y} else {O = sum X}: at n = 3 the run
    # takes the else arm, yet Z's n + 1 elements do not fit Y's n
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Z", ("(add n 1)",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.branch("(gt n 5)", label="big") as br:
        with br.then():
            with b.state("add") as st:
                st.library("ew_binary", {"a": "X", "b": "Z"}, {"c": "Y"}, op="add")
                st.library("reduce_sum", {"x": "Y"}, {"y": "O"})
        with br.orelse():
            with b.state("sum") as st:
                st.library("reduce_sum", {"x": "X"}, {"y": "O"})
    p = b.finish("O", ["X"])
    inputs, msg = {"X": np.ones(3), "Z": np.ones(4)}, _LIBRARY_ERRORS["operand-shape"][-1]
    for call in (lambda: interpreter.RunPlan(p, {"n": 3}), lambda: run_forward(p, inputs, {"n": 3}),
                 lambda: gradient(p, inputs, {"n": 3}), lambda: plan(p, None, {"n": 3})):
        with pytest.raises(ShapeMismatch, match=msg):
            call()


def test_a_prepared_step_keeps_error_classes_and_messages():
    shaped = _scaled_by_scalar("(add n 1)")
    messages = []
    for _ in range(2):
        with pytest.raises(ShapeMismatch) as exc:
            run_forward(shaped, {"X": np.ones(4), "s": 2.0}, {"n": 4})
        messages.append(str(exc.value))
    assert messages == ["'n1': operand 'a' has shape (4,), output (5,)"] * 2
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="log")
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    logs = b.finish("O", ["X"])
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^log of non-positive value$"):
            gradient(logs, {"X": np.array([1.0, -2.0])}, {"n": 2})
        assert gradient(logs, {"X": np.array([1.0, 2.0])}, {"n": 2}).value == math.log(2.0)
