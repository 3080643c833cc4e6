"""Planner unit tests: forwarded-value collection, parametric memory
sequences, the exact solver, and plan application.

The running example is the three-product chain at N=3620 with a 500 MiB
budget. All byte numbers derive from S = 3620^2 * 4 = 52,417,600.
"""

import itertools

import numpy as np
import pytest

import gradflow.examples as examples
from gradflow import (
    ProgramBuilder,
    apply_plan,
    brute_force_plan,
    build_backward,
    build_ilp,
    build_memory_sequences,
    collect_forwarded,
    gradient,
    plan,
    run_planned,
    sample_inputs,
    simulate_memory,
    solve_ilp,
)
from gradflow.checkpointing import AffineBytes
from gradflow.errors import Infeasible
from genprog import make_chain_program

S = 3620 ** 2 * 4
MIB = 1 << 20
C_FLOPS = (13_104_400, 26_208_800, 39_313_200)


@pytest.fixture(scope="module")
def foo_plan():
    return plan(examples.build("scaled_product_chain"), 500, {"N": 3620})


# ---------------------------------------------------------------------------
# affine byte expressions


def test_affine_bytes_algebra():
    # 10 + 5*v0 + 3*(1-v1), with terms held sparse as (index, coefficient)
    a = AffineBytes(10, ((0, 5),), ((1, 3),))
    assert a.value((1, 1)) == 10 + 5
    assert a.value((0, 0)) == 10 + 3
    assert a.value((1, 0)) == 10 + 5 + 3
    assert a.add(a.neg()).is_zero
    # independent per-term minimum is a lower bound over all assignments
    assert all(a.low({}) <= a.value(v) for v in itertools.product((0, 1), repeat=2))
    # pinning a variable tightens the bound
    assert a.low({0: 1}) >= a.low({})


# ---------------------------------------------------------------------------
# forwarded-value collection


def test_collect_forwarded_listing(foo_plan):
    fvs = foo_plan.fvs
    assert [f.data for f in fvs] == ["A0", "A1", "A2"]
    assert [f.name for f in fvs] == ["A0__v1", "A1__v1", "A2__v1"]
    assert all(f.size_bytes == S for f in fvs)
    assert all(f.snapshots == 1 for f in fvs)
    assert all(not f.forced for f in fvs)
    assert tuple(f.c_flops for f in fvs) == C_FLOPS
    assert tuple(f.r_bytes for f in fvs) == (0, S, 2 * S)


def test_collect_forwarded_loop_history_is_pinned():
    p = examples.build("iterated_sin_map")
    bundle = build_backward(p)
    fvs = collect_forwarded(p, bundle, {"n": 6, "steps": 4})
    assert len(fvs) == 1
    fv = fvs[0]
    assert fv.forced
    assert fv.snapshots == 5  # the input plus one value per iteration
    assert fv.total_bytes == 5 * 6 * 8


def test_collect_forwarded_empty_for_linear_programs():
    p = examples.build("triangular")
    assert collect_forwarded(p, build_backward(p), {"n": 6}) == []


def test_scalars_are_not_planned():
    # the probe chain forwards scalar partials but only arrays become
    # decision variables
    for seed in (3, 4):
        p = make_chain_program(seed)
        fvs = collect_forwarded(p, build_backward(p), {})
        assert all(len(f.versions) >= 1 for f in fvs)
        for f in fvs:
            assert f.size_bytes > 8


# ---------------------------------------------------------------------------
# memory sequences


def test_sequence_peak_matches_hand_model(foo_plan):
    (seq,) = foo_plan.sequences
    # forward arena holds the 8 intermediate [N,N] arrays; each stored value
    # extends its lifetime into the backward pass
    for v in itertools.product((0, 1), repeat=3):
        assert seq.peak(v) == (8 + sum(v)) * S


def test_sequence_events_balance_to_zero(foo_plan):
    (seq,) = foo_plan.sequences
    for v in itertools.product((0, 1), repeat=3):
        assert sum(e.delta.value(v) for e in seq.events) == 0


def test_branch_program_has_one_sequence_per_path():
    p = examples.build("branchy_scale")
    bundle = build_backward(p)
    fvs = collect_forwarded(p, bundle, {"n": 8})
    seqs = build_memory_sequences(p, bundle, fvs, {"n": 8})
    assert len(seqs) == 2
    outcomes = {s.outcomes for s in seqs}
    assert outcomes == {(("pick", True),), (("pick", False),)}


# ---------------------------------------------------------------------------
# exact solver


def _solve_foo(foo_plan, limit_bytes):
    problem = build_ilp(foo_plan.fvs, foo_plan.sequences, limit_bytes)
    return solve_ilp(problem)


def test_unbounded_stores_everything(foo_plan):
    sol = _solve_foo(foo_plan, None)
    assert sol.assignment == (1, 1, 1)
    assert sol.objective_flops == 0


@pytest.mark.parametrize("limit,assignment,objective", [
    (11 * S, (1, 1, 1), 0),
    (10 * S, (0, 1, 1), C_FLOPS[0]),
    (9 * S, (0, 0, 1), C_FLOPS[0] + C_FLOPS[1]),
    (8 * S, (0, 0, 0), sum(C_FLOPS)),
])
def test_limit_ladder(foo_plan, limit, assignment, objective):
    sol = _solve_foo(foo_plan, limit)
    assert sol.assignment == assignment
    assert sol.objective_flops == objective
    assert sol.t_star <= limit
    brute = brute_force_plan(foo_plan.fvs, foo_plan.sequences, limit)
    assert brute.assignment == sol.assignment
    assert brute.objective_flops == sol.objective_flops
    assert brute.t_star == sol.t_star


def test_infeasible_reports_floor(foo_plan):
    for solver in (
        lambda: _solve_foo(foo_plan, 8 * S - 1),
        lambda: brute_force_plan(foo_plan.fvs, foo_plan.sequences, 8 * S - 1),
    ):
        with pytest.raises(Infeasible) as exc:
            solver()
        assert exc.value.min_peak_bytes == 8 * S


def test_solver_agrees_with_brute_force_on_random_chains():
    for seed in range(12):
        p = make_chain_program(seed)
        bundle = build_backward(p)
        fvs = collect_forwarded(p, bundle, {})
        seqs = build_memory_sequences(p, bundle, fvs, {})
        store_all = max(s.peak(tuple(1 for _ in fvs)) for s in seqs)
        for frac in (0.4, 0.8, 1.2):
            limit = int(store_all * frac)
            try:
                got = solve_ilp(build_ilp(fvs, seqs, limit))
            except Infeasible as e1:
                with pytest.raises(Infeasible) as e2:
                    brute_force_plan(fvs, seqs, limit)
                assert e2.value.min_peak_bytes == e1.min_peak_bytes
                continue
            ref = brute_force_plan(fvs, seqs, limit)
            assert got.assignment == ref.assignment, (seed, frac)
            assert got.objective_flops == ref.objective_flops


# ---------------------------------------------------------------------------
# plan application


def test_applied_forward_copies_stored_values(foo_plan):
    graph = foo_plan.forward.region[0].graph
    copies = [n for n in graph.nodes
              if getattr(n, "group", "") and n.group.startswith("store:")]
    assert len(copies) == 2
    assert {foo_plan.forward.descriptors[d].role
            for d in ("A1__v1", "A2__v1")} == {"stored-copy"}


def test_applied_backward_recomputes_first_value(foo_plan):
    labels = [b.label for b in foo_plan.backward.region]
    assert labels[0] == "rec_A0__v1"  # splice lands before the first use


def test_plan_report(foo_plan):
    rep = foo_plan.report
    assert rep["limit_bytes"] == 500 * MIB
    assert rep["objective_flops"] == C_FLOPS[0]
    assert rep["peak_bytes"] == 10 * S
    assert rep["paths_checked"] == 1
    decisions = {v["data"]: v["decision"] for v in rep["values"]}
    assert decisions == {"A0": "recompute", "A1": "store", "A2": "store"}


def test_plan_of_linear_program_is_empty():
    r = plan(examples.build("triangular"), None, {"n": 6})
    assert r.fvs == []
    assert r.solution.assignment == ()
    assert r.report["values"] == []


def test_forced_value_is_pinned_to_store():
    r = plan(examples.build("iterated_sin_map"), None, {"n": 6, "steps": 4})
    (v,) = r.report["values"]
    assert v["forced"] and v["decision"] == "store"
    assert v["snapshots"] == 5


def test_plan_infeasible_when_limit_is_zero():
    with pytest.raises(Infeasible) as exc:
        plan(examples.build("scaled_product_chain"), 0, {"N": 16})
    assert exc.value.min_peak_bytes == 8 * 16 * 16 * 4


# ---------------------------------------------------------------------------
# planned execution stays exact


def _planned_grads(limit_mib, n=16):
    p = examples.build("scaled_product_chain")
    result = plan(p, limit_mib, {"N": n})
    rng = np.random.default_rng(7)
    inputs = {k: rng.uniform(0.4, 1.6, (n, n)).astype(np.float32) for k in ("C", "D")}
    plain = gradient(p, inputs, {"N": n})
    planned = run_planned(result, inputs, {"N": n})
    return plain, planned, result


def test_replay_unbounded_bit_identical():
    plain, planned, result = _planned_grads(None)
    assert result.solution.assignment == (1, 1, 1)
    assert planned.value == plain.value
    assert np.array_equal(planned.grads["D"], plain.grads["D"])


def test_replay_tight_budget_bit_identical():
    # 10S at N=16 in MiB: force the recompute of A0 yet keep feasibility
    limit_mib = 10 * 16 * 16 * 4 / MIB
    plain, planned, result = _planned_grads(limit_mib)
    assert result.solution.assignment == (0, 1, 1)
    assert planned.value == plain.value
    assert np.array_equal(planned.grads["D"], plain.grads["D"])


def test_replay_forced_history():
    p = examples.build("iterated_sin_map")
    result = plan(p, None, {"n": 6, "steps": 4})
    rng = np.random.default_rng(11)
    x = rng.uniform(0.4, 1.6, 6)
    plain = gradient(p, {"X": x}, {"n": 6, "steps": 4})
    planned = run_planned(result, {"X": x}, {"n": 6, "steps": 4})
    assert np.array_equal(planned.grads["X"], plain.grads["X"])


# ---------------------------------------------------------------------------
# the two memory routes agree exactly


def test_simulated_peak_equals_model_on_every_config():
    p = examples.build("scaled_product_chain")
    bundle = build_backward(p)
    fvs = collect_forwarded(p, bundle, {"N": 64})
    seqs = build_memory_sequences(p, bundle, fvs, {"N": 64})
    (seq,) = seqs
    for v in itertools.product((0, 1), repeat=3):
        fwd, bwd = apply_plan(p, bundle, fvs, v)
        timeline = simulate_memory(fwd, bwd, {"N": 64})
        assert timeline.peak == seq.peak(v)


# ---------------------------------------------------------------------------
# in-place library nodes on inputs


def _inplace_input_program(op):
    """``X = sin(X)`` or ``X = mul(X, Y)`` on an input, then ``O = sum(X)``:
    the adjoint needs the input's value from before the overwrite."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("op") as s:
        if op == "sin":
            s.library("ew_unary", {"x": "X"}, {"y": "X"}, op="sin")
        else:
            b.array("Y", ("n",), role="input", kind="real64")
            s.library("ew_binary", {"a": "X", "b": "Y"}, {"c": "X"}, op="mul")
    with b.state("red") as s:
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    return b.finish("O", ["X", "Y"] if op == "mul" else ["X"])


@pytest.mark.parametrize("op,peak", [("sin", 96), ("mul", 144)])
def test_plan_keeps_an_input_overwritten_in_place(op, peak, rng):
    p = _inplace_input_program(op)
    params = {"n": 6}
    inputs = sample_inputs(p, params, rng)
    for limit in (None, peak / MIB):  # the value is forced, so the budget changes nothing
        result = plan(p, limit, params)
        (fv,) = result.fvs
        assert fv.forced and fv.forced_reason.startswith("input 'X' is overwritten")
        assert result.solution.t_star == peak
        assert simulate_memory(result.forward, result.backward, params).peak == peak
        replay = run_planned(result, inputs, params)
        plain = gradient(p, inputs, params)
        for k in plain.grads:
            assert np.array_equal(replay.grads[k], plain.grads[k]), k


def _arm_snapshot_program():
    """O = 0; for t: if s < 0.5 then {Y = sin X; Z = sin Y; O += sum Z}
    else {O += sum X}. Y's per-iteration snapshots are produced in an arm."""
    b = ProgramBuilder(("n", "steps"))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.array("Z", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("init") as st:
        st.tasklet(ins={}, outs={"o": ("O", ())}, body={"o": "0"})
    with b.loop("t", "0", "steps", label="iters"):
        with b.branch("(lt s 0.5)", label="pick") as br:
            with br.then():
                with b.state("hi") as st:
                    st.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
                    st.library("ew_unary", {"x": "Y"}, {"y": "Z"}, op="sin")
                    st.library("reduce_sum", {"x": "Z"}, {"y": "O"}, wcr="sum")
            with br.orelse():
                with b.state("lo") as st:
                    st.library("reduce_sum", {"x": "X"}, {"y": "O"}, wcr="sum")
    return b.finish("O", ["X"])


def test_tape_held_snapshots_count_once_on_every_path():
    p = _arm_snapshot_program()
    params = {"n": 6, "steps": 4}
    result = plan(p, None, params)
    (fv,) = result.fvs
    assert (fv.data, fv.snapshots, fv.total_bytes) == ("Y", 4, 4 * 48)
    hints = {fv.name: fv.total_bytes}
    peaks = {}
    for seq in result.sequences:
        timeline = simulate_memory(result.forward, result.backward, params,
                                   dict(seq.outcomes), stored_hints=hints)
        peaks[seq.outcomes] = (seq.peak(result.solution.assignment), timeline.peak)
    assert peaks == {(("pick", True),): (288, 288), (("pick", False),): (240, 240)}
