"""Planner unit tests: forwarded-value collection, parametric memory
sequences, the exact solver, and plan application.

The running example is the three-product chain at N=3620 with a 500 MiB
budget. All byte numbers derive from S = 3620^2 * 4 = 52,417,600.
"""

import gc
import itertools
import random
import sys
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

import gradflow.checkpointing as checkpointing
import gradflow.examples as examples
import gradflow.interpreter as interpreter
import gradflow.ir as ir
from gradflow import (
    ProgramBuilder,
    apply_plan,
    brute_force_plan,
    build_backward,
    build_ilp,
    build_memory_sequences,
    collect_forwarded,
    compare_gradients,
    count_flops,
    finite_difference_gradient,
    gradient,
    parse_program,
    plan,
    run_planned,
    sample_inputs,
    serialize_program,
    simulate_memory,
    solve_ilp,
)
from gradflow.checkpointing import AffineBytes, MemoryEvent, MemoryRows, PathSequence
from gradflow.errors import (
    Infeasible,
    ShapeMismatch,
    UnboundName,
    UnresolvableTripCount,
    UnsupportedConstruct,
    UnsupportedLoop,
    ValidationFailed,
)
from gradflow.ir import (
    LoopRegion,
    Program,
    State,
    Tasklet,
    dimensions,
    simulate_header,
    validate,
    visit_positions,
    walk_blocks,
)
from gradflow.symexpr import parse_sexpr
from gradflow.verification import _scratch_peak
from genprog import (
    make_chain_program,
    make_elementwise_program,
    make_loop_program,
    make_map_program,
    make_stencil_program,
    runtime_header_array_program,
    sin_chain,
)

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
    rows = MemoryRows.of([a], (0, 0), {})
    assert all(rows.values(v)[0] == a.value(v) for v in itertools.product((0, 1), repeat=2))
    # independent per-term minimum is a lower bound over all assignments
    low = rows.low()
    assert all(low[0] <= a.value(v) for v in itertools.product((0, 1), repeat=2))
    # the search's view of the row: storing v0 raises the bound by 5,
    # recomputing v1 by 3; the suffix sums of the rises when stored
    (row,) = rows.kept(0)
    assert row == (0, 18, 10, [5, 0], [0, 3], [5, 0, 0]) and row.low == low[0]


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


def _oracle_programs():
    for name in sorted(examples.EXAMPLES):
        yield name, examples.build(name), examples.DEFAULT_PARAMS[name]
    yield "sin_chain", sin_chain(12), {}
    for make, seed in itertools.product(
        (make_chain_program, make_loop_program, make_elementwise_program, make_map_program), range(20)
    ):
        yield f"{make.__name__}({seed})", make(seed), {"n": 4}


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
def test_rebuild_cost_and_peak_match_the_built_block():
    # c_flops and r_bytes come from per-(state, node) tables; the block is
    # built on demand. Build it for every plannable value, kept or not, and
    # count it as a program of its own: its flops, and the scratch peak of
    # the memory oracle's walk, the produced value excluded.
    checked = scratch = 0
    for label, program, params in _oracle_programs():
        try:
            bundle = build_backward(program)
        except (UnsupportedConstruct, UnsupportedLoop):
            continue
        for fv in collect_forwarded(program, bundle, params):
            if fv.recompute is None:
                continue
            # a valid program, which count_flops asks for: the source program's
            # scalar dependent stands in for the array the block produces
            desc = {**fv.recompute.descriptors, program.dependent: program.descriptors[program.dependent]}
            block = Program(desc, program.parameters, [fv.recompute.state], program.dependent, ())
            assert fv.c_flops == sum(count_flops(block, params).values()), (label, fv.name)
            assert fv.r_bytes == _scratch_peak(fv.recompute.state, block, params), (label, fv.name)
            checked += 1
            scratch += fv.r_bytes > 0
    assert checked >= 100 and scratch >= 50, (checked, scratch)


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


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
def test_every_event_total_is_the_running_sum_of_the_deltas():
    cases = [(examples.build(n), examples.DEFAULT_PARAMS[n]) for n in sorted(examples.EXAMPLES)]
    cases += [(sin_chain(12), {})] + [(make_loop_program(seed), {"n": 4}) for seed in range(60)]
    r = random.Random(5)
    seen = {"paths": 0, "tape-held": 0, "zero-byte snapshot": 0}
    for case, (program, params) in enumerate(cases):
        try:
            fvs, seqs = _problem(program, params)
        except (UnsupportedConstruct, UnsupportedLoop):
            continue
        k = len(fvs)
        assignments = [(1,) * k, (0,) * k] + [tuple(r.randint(0, 1) for _ in range(k)) for _ in range(3)]
        for seq in seqs:
            for v in assignments:
                running = 0
                for e in seq.events:
                    running += e.delta.value(v)
                    assert e.total.value(v) == running, (case, seq.outcomes, e.label, v)
                assert running == 0
            for e in seq.events:  # sparse: by value index, no zero coefficient
                for terms in (e.total.store, e.total.rec):
                    assert [i for i, _ in terms] == sorted({i for i, _ in terms})
                    assert all(c for _, c in terms)
        seen["paths"] += len(seqs) > 1
        seen["tape-held"] += any(fv.site is None for fv in fvs)
        seen["zero-byte snapshot"] += any(e.label.startswith("snapshot") and e.delta.value((1,) * k) == 0
                                          for seq in seqs for e in seq.events)
    assert all(seen.values()), seen


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
    return solve_ilp(build_ilp(foo_plan.fvs, foo_plan.sequences), limit_bytes)


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
                got = solve_ilp(build_ilp(fvs, seqs), limit)
            except Infeasible as e1:
                with pytest.raises(Infeasible) as e2:
                    brute_force_plan(fvs, seqs, limit)
                assert e2.value.min_peak_bytes == e1.min_peak_bytes
                continue
            ref = brute_force_plan(fvs, seqs, limit)
            assert got.assignment == ref.assignment, (seed, frac)
            assert got.objective_flops == ref.objective_flops


def _problem(program, params):
    bundle = build_backward(program)
    fvs = collect_forwarded(program, bundle, params)
    return fvs, build_memory_sequences(program, bundle, fvs, params)


def _keep_all(fvs, seqs):
    return max(s.peak(tuple(1 for _ in fvs)) for s in seqs)


def _floor(fvs, seqs):
    try:
        brute_force_plan(fvs, seqs, -1)
    except Infeasible as exc:
        return exc.min_peak_bytes
    return 0


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
def test_solver_agrees_with_brute_force_on_random_programs():
    # budgets between the floor and the keep-all peak; drawn shares of the
    # keep-all peak would mostly be infeasible
    seen = {"recompute": 0, "forced": 0, "paths": 0, "infeasible": 0}
    for make, seed in itertools.product((make_elementwise_program, make_loop_program), range(200)):
        try:
            fvs, seqs = _problem(make(seed), {"n": 4})
        except (UnsupportedConstruct, UnsupportedLoop):
            continue
        if not fvs:
            continue
        seen["forced"] += any(fv.forced for fv in fvs)
        seen["paths"] += len(seqs) > 1
        floor, keep = _floor(fvs, seqs), _keep_all(fvs, seqs)
        for limit in sorted({floor - 1, floor, (floor + keep) // 2, keep - 1}):
            try:
                got = solve_ilp(build_ilp(fvs, seqs), limit)
            except Infeasible as e1:
                with pytest.raises(Infeasible) as e2:
                    brute_force_plan(fvs, seqs, limit)
                assert e1.min_peak_bytes == e2.value.min_peak_bytes == floor, (make, seed, limit)
                seen["infeasible"] += 1
                continue
            ref = brute_force_plan(fvs, seqs, limit)
            assert (got.assignment, got.objective_flops, got.t_star) == \
                (ref.assignment, ref.objective_flops, ref.t_star), (make, seed, limit)
            seen["recompute"] += got.objective_flops > 0
    assert all(seen.values()), seen


def _random_problem(r: random.Random):
    """Up to 7 values, pinned or tied in cost, over two paths of random
    event totals, some of them repeated."""
    k = r.randint(0, 7)
    fvs = [SimpleNamespace(index=i, forced=r.random() < 0.2, c_flops=r.choice((0, 1, 2, 3, 5, 8)))
           for i in range(k)]

    def terms():
        return tuple((i, r.randint(-3, 9)) for i in range(k) if r.random() < 0.6)

    seqs = []
    for _ in range(2):
        totals = []
        for _ in range(r.randint(0, 6)):
            totals.append(r.choice(totals) if totals and r.random() < 0.3
                          else AffineBytes(r.randint(0, 20), terms(), terms()))
        seqs.append(PathSequence((), tuple(MemoryEvent("e", t, t) for t in totals)))
    return fvs, seqs


def test_solver_agrees_with_brute_force_on_random_rows():
    # arbitrary rows: floors away from recompute-everything, identical and
    # dominated rows, ties in cost, pinned values, empty paths
    r = random.Random(7)
    for case in range(400):
        fvs, seqs = _random_problem(r)
        floor, keep = _floor(fvs, seqs), _keep_all(fvs, seqs)
        for limit in sorted({floor - 1, floor, (floor + keep) // 2, keep}):
            try:
                got = solve_ilp(build_ilp(fvs, seqs), limit)
            except Infeasible as exc:
                assert exc.min_peak_bytes == floor, (case, limit)
                assert limit < floor
                continue
            ref = brute_force_plan(fvs, seqs, limit)
            assert (got.assignment, got.objective_flops, got.t_star) == \
                (ref.assignment, ref.objective_flops, ref.t_star), (case, limit)


def test_search_bound_is_admissible_on_random_rows():
    # every prefix the search can reach: the bound is at most the cheapest
    # completion that fits, and None exactly when one kept row alone cannot
    # get under the limit, so at a complete prefix exactly when it does
    # not fit; rows are bounded one at a time, so a finite bound can still
    # have no fitting completion
    r = random.Random(7)
    seen = {"bounded": 0, "none": 0, "no joint fit": 0, "pinned": 0}
    for case in range(400):
        fvs, seqs = _random_problem(r)
        floor, keep = _floor(fvs, seqs), _keep_all(fvs, seqs)
        for limit in sorted({floor - 1, floor, (floor + keep) // 2, keep}):
            problem = build_ilp(fvs, seqs)
            full, k = problem.rows, problem.k
            seen["pinned"] += bool(problem.fixed)
            rows = full.kept(limit)
            bound = checkpointing.search_bound(full, rows, limit)
            every = np.array([a for a in itertools.product((0, 1), repeat=k)
                              if all(a[i] == v for i, v in problem.fixed.items())], dtype=np.int64)
            totals = full.base + every @ full.delta.T  # [assignment, row]
            fits = totals.max(axis=1) <= limit
            kept = totals[:, [row.index for row in rows]] <= limit
            flops = (1 - every) * np.array(problem.costs, dtype=np.int64)

            def walk(depth, low, match):
                got = bound(depth, low)
                assert (got is None) == (not kept[match].any(axis=0).all()), (case, limit, depth)
                if depth == k:
                    assert (got is None) == (not fits[match].any()), (case, limit)
                if got is None:
                    seen["none"] += 1
                elif (match & fits).any():
                    assert got <= flops[match & fits, depth:].sum(axis=1).min(), (case, limit, depth)
                    seen["bounded"] += 1
                else:
                    seen["no joint fit"] += 1
                for v in () if depth == k else (problem.fixed[depth],) if depth in problem.fixed else (1, 0):
                    child = tuple(lo + (row.up if v else row.down)[depth] for row, lo in zip(rows, low))
                    walk(depth + 1, child, match & (every[:, depth] == v))

            walk(0, tuple(row.low for row in rows), np.ones(len(every), dtype=bool))
    assert all(seen.values()), seen


@pytest.mark.parametrize("k", [12, 14, 16, 20, 24])
def test_sin_chain_solves_in_k_plus_2_nodes(k):
    # equal sizes and rising recompute costs: the cardinality bound prices
    # the recompute prefix exactly, so the search pops only the answer's
    # k + 1 prefixes, and its count starts at 1
    fvs, seqs = _problem(sin_chain(k), {})
    keep = _keep_all(fvs, seqs)
    for share in (0.8, 0.7, 0.6):
        sol = solve_ilp(build_ilp(fvs, seqs), int(share * keep))
        m = sol.assignment.count(0)
        assert m and sol.assignment == (0,) * m + (1,) * (k - m), share
        assert sol.nodes == k + 2, share


def _pruned_per_limit(rows: MemoryRows, limit: int) -> list[int]:
    """Reference: the rows that can exceed ``limit``, pruned of dominated
    rows among themselves (of identical rows the first stays)."""
    live = np.flatnonzero(rows.base + rows.up.sum(axis=1) > limit)
    base, delta = rows.base[live], rows.delta[live]
    n = len(live)
    # dom[b, a]: b is at least a under every assignment
    dom = base[:, None] - base[None, :] + np.minimum(delta[:, None] - delta[None, :], 0).sum(axis=2) >= 0
    earlier = np.triu(np.ones((n, n), dtype=bool), 1)  # earlier[b, a]: b < a
    beaten = dom & (~dom.T | earlier)
    np.fill_diagonal(beaten, False)
    return live[~beaten.any(axis=0)].tolist()


def test_rows_kept_under_each_limit_match_a_per_limit_prune():
    r = random.Random(11)
    seen_dropped = 0
    for case in range(150):
        k = r.randint(0, 5)
        pool = [AffineBytes(r.randint(0, 12), tuple((i, r.randint(-3, 6)) for i in range(k) if r.random() < 0.5),
                            tuple((i, r.randint(-3, 6)) for i in range(k) if r.random() < 0.5))
                for _ in range(r.randint(1, 6))]
        # repeats give identical rows; constant shifts give dominated ones
        totals = [replace(t, const=t.const + r.choice((0, 0, -2, 3))) for t in r.choices(pool, k=r.randint(1, 12))]
        fixed = {i: 1 for i in range(k) if r.random() < 0.2}
        rows = MemoryRows.of(totals, (1,) * k, fixed)
        tops = (rows.base + rows.up.sum(axis=1)).tolist()
        for limit in sorted({t + d for t in tops for d in (-1, 0)} | {min(rows.low().tolist()) - 1}):
            want = _pruned_per_limit(rows, limit)
            assert [row.index for row in rows.kept(limit)] == want, (case, limit)
            seen_dropped += len(want) < sum(t > limit for t in tops)
    assert seen_dropped  # the set holds limits where dominance drops rows


@pytest.mark.parametrize("share", [0.8, 0.6])
def test_sin_chain_of_24_values_solves_in_under_a_second(share):
    k = 24
    fvs, seqs = _problem(sin_chain(k), {})
    limit = int(share * _keep_all(fvs, seqs))
    t0 = time.perf_counter()
    sol = solve_ilp(build_ilp(fvs, seqs), limit)
    assert time.perf_counter() - t0 < 1.0
    # equal sizes and rising recompute costs: recompute the shortest prefix
    # that fits
    m = next(m for m in range(k + 1)
             if max(s.peak((0,) * m + (1,) * (k - m)) for s in seqs) <= limit)
    assert sol.assignment == (0,) * m + (1,) * (k - m)
    assert sol.objective_flops == sum(fv.c_flops for fv in fvs[:m])
    assert sol.t_star == max(s.peak(sol.assignment) for s in seqs) <= limit
    assert sol.rows_kept == 1


def test_infeasible_floor_of_16_values_in_under_half_a_second():
    k = 16
    program = sin_chain(k)
    t0 = time.perf_counter()
    with pytest.raises(Infeasible) as exc:
        plan(program, 1e-5, {})
    assert time.perf_counter() - t0 < 0.5
    # on a sin chain recomputing everything reaches the floor (brute force
    # agrees at k=10)
    fvs, seqs = _problem(program, {})
    assert exc.value.min_peak_bytes == max(s.peak((0,) * k) for s in seqs)
    fvs, seqs = _problem(sin_chain(10), {})
    with pytest.raises(Infeasible) as small:
        solve_ilp(build_ilp(fvs, seqs), 10)
    assert small.value.min_peak_bytes == _floor(fvs, seqs)


@pytest.mark.parametrize("k", [20, 24])
@pytest.mark.parametrize("share", [0.8, 0.6])
def test_solver_objective_matches_scipy_milp(k, share):
    optimize = pytest.importorskip("scipy.optimize")
    fvs, seqs = _problem(sin_chain(k), {})
    limit = int(share * _keep_all(fvs, seqs))
    sol = solve_ilp(build_ilp(fvs, seqs), limit)
    # each event total is base + delta @ v over the store bits v
    totals = [ev.total for seq in seqs for ev in seq.events]
    base = np.array([t.const + sum(c for _, c in t.rec) for t in totals], dtype=float)
    delta = np.zeros((len(totals), k))
    for e, t in enumerate(totals):
        for i, c in t.store:
            delta[e, i] += c
        for i, c in t.rec:
            delta[e, i] -= c
    costs = np.array([fv.c_flops for fv in fvs], dtype=float)
    res = optimize.milp(
        -costs,  # recomputing costs sum(c) - c @ v
        constraints=optimize.LinearConstraint(delta, -np.inf, limit - base),
        integrality=np.ones(k),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.success
    assert sol.objective_flops == round(costs.sum() + res.fun)


# ---------------------------------------------------------------------------
# plan application


def test_the_planned_forward_is_the_program():
    # what a plan keeps travels on the tape, so no budget rewrites the forward
    program = examples.build("scaled_product_chain")
    for limit in (None, 10 * 16 * 16 * 4 / MIB, 8 * 16 * 16 * 4 / MIB):
        result = plan(program, limit, {"N": 16})
        assert result.forward is program, limit
    assert 0 in result.solution.assignment


def test_a_kept_value_is_its_forward_array_on_the_tape_unless_its_name_is_mutated(rng):
    # scaled_product_chain's values are library results; make_map_program(0)
    # keeps R0, which a map writes in place, so its snapshot is a copy
    seen = {}
    for program, params in ((examples.build("scaled_product_chain"), {"N": 4}), (make_map_program(0), {"n": 4})):
        result = plan(program, None, params)
        run_plan = result.pair.runs[0]
        env, batch = interpreter._prepare_inputs(program, sample_inputs(program, params, rng), run_plan)
        by_reference = {}

        class Witness(dict):
            def __setitem__(self, key, arr):
                by_reference[key] = arr is env.get(key[0])
                super().__setitem__(key, arr)

        interpreter.Executor(run_plan, env, batch, tape=interpreter.Tape(values=Witness())).run()
        for fv in result.fvs:
            if not fv.forced:
                mutated = fv.data in run_plan.mutated
                assert by_reference[(fv.data, fv.versions[0], ())] != mutated, fv.name
                seen[mutated] = fv.name
    assert seen == {False: "A2__v1", True: "R0__v1"}


def test_a_keep_all_replay_records_what_gradient_records(rng):
    cases = [(examples.build(name), examples.DEFAULT_PARAMS[name]) for name in sorted(examples.EXAMPLES)]
    for program, params in [*cases, (sin_chain(5), {})]:
        result = plan(program, None, params)
        inputs = sample_inputs(program, params, rng)
        gradient(program, inputs, params)
        recorded = result.pair.runs[0].record
        assert recorded == result.bundle.required == program._kept["runs"][0].record
        tapes = [interpreter.run_forward(program, inputs, run_plan=runs[0]).tape.values.keys()
                 for runs in (result.pair.runs, program._kept["runs"])]
        assert tapes[0] == tapes[1] and {k[:2] for k in tapes[0]} == recorded


def test_applied_backward_recomputes_first_value(foo_plan):
    labels = [b.label for b in foo_plan.backward.region]
    assert labels[0] == "rec_A0__v1"  # splice lands before the first use


def test_plan_report(foo_plan):
    rep = foo_plan.report
    assert rep["limit_bytes"] == 500 * MIB
    assert rep["objective_flops"] == C_FLOPS[0]
    assert rep["peak_bytes"] == 10 * S
    assert rep["paths_checked"] == 1
    assert rep["events"] == len(foo_plan.sequences[0].events)
    assert 0 < rep["rows_kept"] <= rep["events"]
    assert rep["solver_nodes"] == foo_plan.solution.nodes
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


def _states(program):
    return {b.label: b for _, b in walk_blocks(program.region) if isinstance(b, State)}


@pytest.mark.parametrize("name", [*sorted(examples.EXAMPLES), "sin_chain"])
def test_plan_leaves_its_inputs_untouched_and_shares_unchanged_states(name):
    if name == "sin_chain":
        program, params = sin_chain(12), {}
    else:
        program, params = examples.build(name), examples.DEFAULT_PARAMS[name]
    text = serialize_program(program)
    keep_all = plan(program, None, params).solution.t_star
    try:
        plan(program, 0, params)
        floor = 0
    except Infeasible as exc:
        floor = exc.min_peak_bytes
    merged = 0
    # no budget, halfway down to the floor, and the floor itself
    for limit in (None, (floor + keep_all) // 2, floor):
        result = plan(program, None if limit is None else limit / MIB, params)
        assert serialize_program(program) == text, limit
        bundle = result.bundle
        assert serialize_program(bundle.backward) == serialize_program(build_backward(program).backward)
        assert result.forward is program, limit
        recomputed = {fv.name: fv for fv, v in zip(result.fvs, result.solution.assignment) if not v}
        # every backward state is shared but the rebuild blocks; a block that
        # writes only its own value is the value's kept block, one that also
        # writes other recomputed values of its closure is built anew from
        # the same nodes, and each recomputed value is written by one block
        before = _states(bundle.backward)
        writer = {}
        for label, state in _states(result.backward).items():
            if label in before:
                assert state is before[label], (limit, label)
                continue
            host = recomputed[label.removeprefix("rec_")]
            names = {e.data for e in state.graph.edges
                     if result.backward.descriptors[e.data].role == "stored-copy"}
            assert host.name in names and names <= set(recomputed), (limit, label)
            if names == {host.name}:
                assert state is host.recompute.state, (limit, label)
            else:
                merged += 1
                assert state is not host.recompute.state, (limit, label)
                assert [n.id for n in state.graph.nodes] == [n.id for n in host.recompute.state.graph.nodes]
                assert all((fv.data, fv.versions[0]) in host.recompute.closure
                           for fv in map(recomputed.get, names)), (limit, label)
            for copy in names:
                assert writer.setdefault(copy, label) == label, (limit, copy)
        assert set(writer) == set(recomputed), limit
    assert (merged > 0) == (name == "sin_chain"), merged


# ---------------------------------------------------------------------------
# the budget-free analyses are kept with the program


def _count_calls(monkeypatch, *functions):
    """Replace every binding of each function in the loaded gradflow modules
    by a counting wrapper; returns function name -> calls."""
    calls = dict.fromkeys((fn.__name__ for fn in functions), 0)
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "gradflow" or name.startswith("gradflow."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counted)
    return calls


def _fresh(program):
    return parse_program(serialize_program(program))


def _plan_outputs(result, inputs, params):
    replay = run_planned(result, inputs, params)
    s = result.solution
    return (s.assignment, s.objective_flops, s.t_star,
            serialize_program(result.forward), serialize_program(result.backward),
            [(k, np.asarray(v).dtype.str, np.asarray(v).tobytes())
             for k, v in [("value", replay.value), *sorted(replay.grads.items())]])


@pytest.mark.parametrize("name", [*sorted(examples.EXAMPLES), "sin_chain"])
def test_a_second_gradient_or_plan_rebuilds_nothing(name, monkeypatch):
    if name == "sin_chain":
        program, params = sin_chain(12), {}
    else:
        program, params = examples.build(name), examples.DEFAULT_PARAMS[name]
    inputs = sample_inputs(program, params, np.random.default_rng(5))
    calls = _count_calls(monkeypatch, build_backward, collect_forwarded, build_memory_sequences)
    once = {"build_backward": 1, "collect_forwarded": 1, "build_memory_sequences": 1}
    first = gradient(program, inputs, params), plan(program, None, params)
    assert calls == once
    second = gradient(program, inputs, params), plan(program, None, params)
    assert calls == once
    assert second[0].bundle is second[1].bundle is first[0].bundle
    assert np.array_equal(second[0].value, first[0].value)


def test_budgets_in_any_order_plan_as_on_a_fresh_program():
    program, params = sin_chain(12), {}
    inputs = sample_inputs(program, params, np.random.default_rng(5))
    keep_all = plan(_fresh(program), None, params).solution.t_star
    with pytest.raises(Infeasible) as exc:
        plan(_fresh(program), 0, params)
    limits = [None, 0.8 * keep_all / MIB, 0.6 * keep_all / MIB, exc.value.min_peak_bytes / MIB]
    want = {lim: _plan_outputs(plan(_fresh(program), lim, params), inputs, params) for lim in limits}
    assert len({w[:3] for w in want.values()}) == 4  # four different plans
    for lim in limits + limits[::-1]:
        assert _plan_outputs(plan(program, lim, params), inputs, params) == want[lim], lim


def test_parameter_bindings_never_share_kept_analyses():
    program = examples.build("scaled_product_chain")
    # ten arrays' worth forces the recompute of A0, so rebuild blocks are built
    limit = {n: 10 * n * n * 4 / MIB for n in (8, 12)}
    inputs = {n: sample_inputs(program, {"N": n}, np.random.default_rng(n)) for n in (8, 12)}
    want = {n: _plan_outputs(plan(_fresh(program), limit[n], {"N": n}), inputs[n], {"N": n}) for n in (8, 12)}
    seen = {8: [], 12: []}
    for n in (8, 12, 8, 8, 12, 12, 8):
        result = plan(program, limit[n], {"N": n})
        assert _plan_outputs(result, inputs[n], {"N": n}) == want[n], n
        assert {fv.size_bytes for fv in result.fvs} == {n * n * 4}
        assert 0 in result.solution.assignment
        assert result.forward is program
        seen[n] += [*result.fvs, *(fv.recompute.state for fv in result.fvs), result.backward]
    assert not any(a is b for a in seen[8] for b in seen[12])


def test_planned_and_replaced_programs_start_with_nothing_kept(monkeypatch):
    program, params = sin_chain(12), {}
    inputs = sample_inputs(program, params, np.random.default_rng(5))
    result = plan(program, 0.6 * plan(program, None, params).solution.t_star / MIB, params)
    run_planned(result, inputs, params)
    assert program._kept and result.forward is program
    # the planned pair's run plans validated it, and build_backward its reverse program
    for made in (result.backward, result.bundle.backward):
        assert made._kept == {"validated": True}
    for made in (replace(program, independents=("X",)), replace(program)):
        assert made._kept == {}
    calls = _count_calls(monkeypatch, build_backward)
    gradient(replace(program), inputs, params)
    assert calls == {"build_backward": 1}


def _planned_cases():
    for name in sorted(examples.EXAMPLES):
        yield name, examples.build(name), examples.DEFAULT_PARAMS[name]
    yield "sin_chain(5)", sin_chain(5), {}
    for make, seed in itertools.product(
        (make_loop_program, make_map_program, make_elementwise_program, make_chain_program, make_stencil_program),
        range(8),
    ):
        yield f"{make.__name__}({seed})", make(seed), {"n": 4}


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
def test_every_planned_program_passes_the_whole_program_validation():
    # plan() checks only the blocks it builds; the programs it splices
    # them into must still pass validate as a whole
    checked = set()
    for label, program, params in _planned_cases():
        try:
            keep_all = plan(program, None, params).solution.t_star
        except (UnsupportedConstruct, UnsupportedLoop):
            continue
        try:
            plan(program, 0, params)
            floor = 0
        except Infeasible as exc:
            floor = exc.min_peak_bytes
        for limit in (None, 0.75 * keep_all, 0.5 * keep_all, floor):
            try:
                result = plan(program, None if limit is None else limit / MIB, params)
            except Infeasible:
                continue
            assert validate(result.forward) == [], (label, limit)
            assert validate(result.backward) == [], (label, limit)
            checked.add(label)
            if 0 in result.solution.assignment:
                checked.add("recomputes")
    assert len(checked) >= 40 and "recomputes" in checked, len(checked)


def test_a_second_plan_builds_and_validates_nothing(monkeypatch):
    program = sin_chain(12)
    limit = 0.6 * plan(sin_chain(12), None, {}).solution.t_star / MIB
    calls = _count_calls(monkeypatch, validate, checkpointing._rebuild_block)
    first = plan(program, limit, {})
    assert first.forward is program and 0 in first.solution.assignment
    # its backward (build_backward) and the planned backward (its run plan),
    # once each; ProgramBuilder.finish checked the program, which is the
    # planned forward
    assert calls["validate"] == 2 and calls["_rebuild_block"], calls
    built = dict(calls)
    second = plan(program, limit, {})
    assert calls == built
    for a, b in ((first.forward, second.forward), (first.backward, second.backward)):
        assert serialize_program(a) == serialize_program(b)


def test_solver_tables_are_built_once_per_binding(monkeypatch):
    made = {"dominance": 0, "tables": []}
    dominance, knapsack = MemoryRows._dominance, MemoryRows._knapsack

    def counted_dominance(self):
        made["dominance"] += 1
        return dominance(self)

    def counted_knapsack(self, r, depth):
        made["tables"].append((id(self), r, depth))
        return knapsack(self, r, depth)

    monkeypatch.setattr(MemoryRows, "_dominance", counted_dominance)
    monkeypatch.setattr(MemoryRows, "_knapsack", counted_knapsack)
    program = sin_chain(12)
    keep_all = plan(program, None, {}).solution.t_star
    assert made == {"dominance": 0, "tables": []}  # keep-all fits: nothing is built
    plan(program, 0.8 * keep_all / MIB, {})
    assert made["dominance"] == 1 and made["tables"]
    first = len(made["tables"])
    plan(program, 0.8 * keep_all / MIB, {})
    assert made["dominance"] == 1 and len(made["tables"]) == first
    plan(program, 0.6 * keep_all / MIB, {})  # a second budget adds only tables it lacks
    assert made["dominance"] == 1 and len(made["tables"]) > first
    assert len(set(made["tables"])) == len(made["tables"])
    plan(program, 0.8 * keep_all / MIB, {})
    plan(program, 0.6 * keep_all / MIB, {})
    assert made["dominance"] == 1 and len(set(made["tables"])) == len(made["tables"])


def test_a_built_program_is_validated_once_where_it_is_built(monkeypatch):
    program = sin_chain(5)
    inputs = sample_inputs(program, {}, np.random.default_rng(3))
    calls = _count_calls(monkeypatch, validate)
    gradient(program, inputs, {})
    assert calls == {"validate": 1}  # the reverse program, in build_backward
    gradient(replace(program), inputs, {})
    assert calls == {"validate": 3}  # a replaced program is checked once more


def test_a_repeated_plan_returns_the_kept_pair_of_its_assignment(monkeypatch):
    program = sin_chain(12)
    keep_all = plan(program, None, {}).solution.t_star
    calls = _count_calls(monkeypatch, checkpointing.apply_plan, validate)
    first = plan(program, 0.6 * keep_all / MIB, {})
    assert calls == {"apply_plan": 1, "validate": 1}  # the planned backward
    again = plan(program, 0.6 * keep_all / MIB, {})
    assert calls == {"apply_plan": 1, "validate": 1}
    assert again.forward is first.forward is program and again.backward is first.backward
    # then budgets B, A: B's assignment is new, A's pair is still kept
    other = plan(program, 0.8 * keep_all / MIB, {})
    assert other.solution.assignment != first.solution.assignment
    assert plan(program, 0.6 * keep_all / MIB, {}).backward is first.backward
    assert calls == {"apply_plan": 2, "validate": 2}


def test_a_block_built_wrong_fails_the_plan_that_builds_it(monkeypatch):
    limit = 0.6 * plan(sin_chain(12), None, {}).solution.t_star / MIB
    real = checkpointing._rebuild_block

    def one_edge_short(*args):
        block = real(*args)
        block[0].graph.edges.pop()  # the last out-edge of the last node
        return block

    monkeypatch.setattr(checkpointing, "_rebuild_block", one_edge_short)
    program = sin_chain(12)
    for _ in range(2):  # a block that fails its check is not kept
        with pytest.raises(ValidationFailed, match="ArityMismatch"):
            plan(program, limit, {})


def test_a_program_out_of_use_is_freed_without_the_cycle_collector():
    # nothing a program keeps refers back to it, so dropping the program
    # frees it and its analyses at once, as before anything was kept
    program = sin_chain(12)
    inputs = sample_inputs(program, {}, np.random.default_rng(5))
    gc.collect()
    gc.disable()
    try:
        gradient(program, inputs, {})
        result = plan(program, 0.6 * plan(program, None, {}).solution.t_star / MIB, {})
        run_planned(result, inputs, {})
        assert 0 in result.solution.assignment
        del result
        ref = weakref.ref(program)
        del program
        assert ref() is None
    finally:
        gc.enable()


def test_a_pair_is_kept_while_a_plan_result_holds_it(monkeypatch):
    # _Planning.pairs grows only with the pairs its callers hold: a dropped
    # result's pair, with its run plans, goes with it
    program = sin_chain(12)
    limit = 0.6 * plan(program, None, {}).solution.t_star / MIB
    calls = _count_calls(monkeypatch, checkpointing.apply_plan)
    first = plan(program, limit, {})
    assert plan(program, limit, {}).pair is first.pair and calls == {"apply_plan": 1}
    pairs = program._kept["planning"].pairs
    del first
    gc.collect()
    assert len(pairs) == 0
    again = plan(program, limit, {})
    assert calls == {"apply_plan": 2} and [ref() for ref in pairs.values()] == [again.pair]


# ---------------------------------------------------------------------------
# run plans: built once per program and binding, before the run


def _run_outputs(res) -> tuple:
    arrays = [("value", res.value), *sorted(res.grads.items())]
    return (res.forward.op_count, res.backward.op_count,
            [(k, np.asarray(v).dtype.str, np.asarray(v).shape, np.asarray(v).tobytes()) for k, v in arrays])


@pytest.mark.parametrize("name, share", [("seidel_stencil", None), ("scaled_product_chain", None), ("sin_chain", 0.6)])
def test_a_second_run_prepares_nothing(name, share, monkeypatch):
    # gradient() keeps its run plans with the program and plan() with the
    # pair: a second gradient() and every run_planned() evaluate no shape,
    # written set, last-touch table or parameter-only loop header
    if name == "sin_chain":
        program, params = sin_chain(12), {}
    else:
        program, params = examples.build(name), examples.DEFAULT_PARAMS[name]
    inputs = sample_inputs(program, params, np.random.default_rng(5))
    limit = None if share is None else share * plan(program, None, params).solution.t_star / MIB
    result = plan(program, limit, params)
    assert share is None or 0 in result.solution.assignment
    first = gradient(program, inputs, params), run_planned(result, inputs, params)
    assert any(isinstance(b, LoopRegion) for _, b in walk_blocks(program.region)) == (name == "seidel_stencil")
    calls = _count_calls(monkeypatch, ir.dimensions, ir.written_descriptors, ir.mutated_descriptors, ir.live_ranges,
                         simulate_header)
    second = gradient(program, inputs, params), run_planned(result, inputs, params)
    assert calls == dict.fromkeys(calls, 0)
    assert [_run_outputs(r) for r in second] == [_run_outputs(r) for r in first]


def test_alternating_bindings_run_as_fresh_programs_and_share_no_run_plan():
    program = examples.build("scaled_product_chain")
    limit = {n: 10 * n * n * 4 / MIB for n in (8, 12)}
    inputs = {n: sample_inputs(program, {"N": n}, np.random.default_rng(n)) for n in (8, 12)}
    want = {}
    for n in (8, 12):
        fresh, params = _fresh(program), {"N": n}
        want[n] = _run_outputs(gradient(fresh, inputs[n], params)), _run_outputs(
            run_planned(plan(fresh, limit[n], params), inputs[n], params))
    seen = {8: [], 12: []}
    for n in (8, 12, 8):
        params = {"N": n}
        got = _run_outputs(gradient(program, inputs[n], params))
        runs = program._kept["runs"]
        result = plan(program, limit[n], params)
        assert 0 in result.solution.assignment
        assert (got, _run_outputs(run_planned(result, inputs[n], params))) == want[n], n
        assert all(r.binding == (("N", n),) for r in (*runs, *result.pair.runs))
        seen[n] += [*runs, *result.pair.runs]
    assert not any(a is b for a in seen[8] for b in seen[12])


def test_a_header_that_reads_a_scalar_input_follows_each_run():
    # the run plan keeps no iterates of a header that reads a scalar: each
    # run simulates it from its own inputs
    program, params = runtime_header_array_program(), {"n": 4}
    x = np.random.default_rng(3).uniform(0.4, 1.6, 4)
    for m in (3, 5, 3):
        inputs = {"X": x, "m": np.float64(m)}
        got = gradient(program, inputs, params)
        assert got.forward.op_count == 8 + 4 * m  # the scale, m sins and the sum, on 4 elements
        assert _run_outputs(got) == _run_outputs(gradient(_fresh(program), inputs, params)), m


def test_run_planned_under_another_binding_builds_its_run_plans_for_the_call():
    program = examples.build("scaled_product_chain")
    result = plan(program, 10 * 8 * 8 * 4 / MIB, {"N": 8})
    assert 0 in result.solution.assignment
    small, large = (sample_inputs(program, {"N": n}, np.random.default_rng(n)) for n in (8, 12))
    replay = run_planned(result, large, {"N": 12})
    want = _run_outputs(gradient(_fresh(program), large, {"N": 12}))
    assert _run_outputs(replay)[2] == want[2]  # a replay is bit-identical whatever it recomputes
    assert replay.forward.op_count == count_flops(result.forward, {"N": 12})[()] == 1586
    assert replay.backward.op_count == count_flops(result.backward, {"N": 12})[()] == 1728
    with pytest.raises(ShapeMismatch, match=r"^input 'C': trailing shape \(8, 8\) does not end with \(12, 12\)$"):
        run_planned(result, small, {"N": 12})
    with pytest.raises(UnboundName, match="^no binding for 'N'$"):
        run_planned(result, small, {})
    assert all(r.binding == (("N", 8),) for r in result.pair.runs)
    assert _run_outputs(run_planned(result, small, {"N": 8}))[2] == _run_outputs(gradient(_fresh(program), small, {"N": 8}))[2]


def test_each_plan_result_owns_its_lists_of_shared_records():
    program = sin_chain(12)
    first = plan(program, None, {})
    kept = list(first.fvs), list(first.sequences)
    first.fvs.append(first.fvs[0])
    first.sequences.clear()
    second = plan(program, None, {})
    assert (second.fvs, second.sequences) == kept
    assert all(a is b for a, b in zip(second.fvs, kept[0]))
    for record, attr in ((second.fvs[0], "c_flops"), (second.bundle, "backward"), (second.bundle.ccs, "active")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, attr, None)


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


def _arm_copy_out_program():
    """if s < 0.5 {Y = sin X; Z = Y*Y; O = sum Z} else {O = sum X}: a kept
    Y is recorded in the then arm only."""
    b = ProgramBuilder(())
    b.array("X", ("4",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.array("Y", ("4",), kind="real64")
    b.array("Z", ("4",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.branch("(lt s 0.5)", label="pick") as br:
        with br.then():
            with b.state("hi") as st:
                st.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
                st.library("ew_binary", {"a": "Y", "b": "Y"}, {"c": "Z"}, op="mul")
                st.library("reduce_sum", {"x": "Z"}, {"y": "O"})
        with br.orelse():
            with b.state("lo") as st:
                st.library("reduce_sum", {"x": "X"}, {"y": "O"})
    return b.finish("O", ["X"])


def test_replay_of_a_value_kept_in_an_arm_the_run_does_not_take():
    p = _arm_copy_out_program()
    result = plan(p, None)
    assert [(fv.name, v) for fv, v in zip(result.fvs, result.solution.assignment)] == [("Y__v1", 1)]
    for s in (0.1, 0.9):
        inputs = {"X": np.linspace(0.2, 1.4, 4), "s": s}
        plain, planned = gradient(p, inputs), run_planned(result, inputs)
        assert planned.value == plain.value
        assert planned.grads["X"].tobytes() == plain.grads["X"].tobytes(), s
    # a kept value is charged from the start of every path, as a tape-held
    # snapshot is: the else path holds Y's 32 B besides X's gradient
    peaks = {}
    for seq in result.sequences:
        timeline = simulate_memory(result.forward, result.backward, {}, dict(seq.outcomes))
        peaks[seq.outcomes] = seq.peak(result.solution.assignment), timeline.peak
    assert peaks == {(("pick", True),): (96, 96), (("pick", False),): (64, 64)}


def _tape_bytes(tape):
    return {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in tape.values.items()}


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
def test_run_planned_records_what_a_reanalysed_forward_run_records(monkeypatch):
    # the planned forward program is the bundle's program, so the bundle's
    # version analysis names the same snapshots
    forward = checkpointing.run_forward
    seen = []

    def spy(program, inputs, **kw):
        res = forward(program, inputs, **kw)
        seen.append((program, kw, _tape_bytes(res.tape)))
        return res

    monkeypatch.setattr(checkpointing, "run_forward", spy)
    cases = [(examples.build(n), examples.DEFAULT_PARAMS[n]) for n in sorted(examples.EXAMPLES)]
    cases += [(make_loop_program(seed), {"n": 4}) for seed in range(50)]
    checked = recorded = 0
    for program, params in cases:
        try:
            keep_all = plan(program, None, params)
        except (UnsupportedConstruct, UnsupportedLoop):
            continue
        fvs, seqs = _problem(program, params)
        floor = _floor(fvs, seqs)
        inputs = sample_inputs(program, params, np.random.default_rng(3))
        limits = {None, floor, (floor + keep_all.solution.t_star) // 2} if fvs else {None}
        for limit in limits:
            result = keep_all if limit is None else plan(program, limit / MIB, params)
            run_planned(result, inputs, params)
            planned, kw, tape = seen.pop()
            run_plan = kw["run_plan"]
            assert planned is result.forward and run_plan.vinfo is result.bundle.vinfo
            reanalysed = forward(planned, inputs, run_plan=interpreter.RunPlan(planned, params, record=run_plan.record))
            assert tape == _tape_bytes(reanalysed.tape), (program, limit)
            checked += 1
            recorded += bool(tape)
    assert checked >= 60 and recorded >= 20


# ---------------------------------------------------------------------------
# the two memory routes agree exactly


def test_simulated_peak_equals_model_on_every_config():
    p = examples.build("scaled_product_chain")
    bundle = build_backward(p)
    fvs = collect_forwarded(p, bundle, {"N": 64})
    seqs = build_memory_sequences(p, bundle, fvs, {"N": 64})
    (seq,) = seqs
    for v in itertools.product((0, 1), repeat=3):
        fwd, bwd = apply_plan(p, bundle, fvs, v, seqs)
        timeline = simulate_memory(fwd, bwd, {"N": 64})
        assert timeline.peak == seq.peak(v)


# ---------------------------------------------------------------------------
# one block rebuilds several recomputed values


def _rebuild_blocks(program) -> dict[str, set[str]]:
    """Each rebuild block of a planned reverse program -> the stored copies
    it writes."""
    return {
        b.label: {e.data for e in b.graph.edges if program.descriptors[e.data].role == "stored-copy"}
        for _, b in walk_blocks(program.region)
        if isinstance(b, State) and b.label.startswith("rec_")
    }


def _assert_model_is_simulation(result, params):
    hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
    for seq in result.sequences:
        timeline = simulate_memory(result.forward, result.backward, params, dict(seq.outcomes), stored_hints=hints)
        assert timeline.peak == seq.peak(result.solution.assignment), seq.outcomes


def test_one_block_rebuilds_the_recomputed_sin_chain():
    # at 60% of keep-all, sin_chain(12) recomputes L and A0-A8. A8's block
    # writes all ten, each where the chain produces it; ten blocks of their
    # own each ran the chain from X again (20,480 reverse ops, 14,080 of
    # them rebuilds)
    program = sin_chain(12)
    result = plan(program, 0.6 * plan(program, None, {}).solution.t_star / MIB, {})
    recomputed = {fv.name for fv, v in zip(result.fvs, result.solution.assignment) if not v}
    assert len(recomputed) == 10
    assert _rebuild_blocks(result.backward) == {"rec_A8__v1": recomputed}
    inputs = sample_inputs(program, {}, np.random.default_rng(5))
    plain, replay = gradient(program, inputs, {}), run_planned(result, inputs, {})
    assert _run_outputs(replay)[2] == _run_outputs(plain)[2]
    assert (plain.backward.op_count, replay.backward.op_count) == (6400, 6400 + 10 * 256)
    _assert_model_is_simulation(result, {})


def _tasklet_headed_chain():
    """Y[0] = sin(X[0]) by a state-level tasklet, then A = sin Y, B = sin A
    and C = sin B by library nodes; O = sum C."""
    b = ProgramBuilder(())
    b.array("X", ("4",), role="input", kind="real64")
    for name in "YABC":
        b.array(name, ("4",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("chain") as s:
        s.tasklet(ins={"x": ("X", ("0",))}, outs={"y": ("Y", ("0",))}, body={"y": "(sin x)"})
        for src, dst in ("YA", "AB", "BC"):
            s.library("ew_unary", {"x": src}, {"y": dst}, op="sin")
        s.library("reduce_sum", {"x": "C"}, {"y": "O"})
    return b.finish("O", ["X"])


def test_a_rebuild_block_clones_a_state_level_tasklet(rng):
    # under each peak some assignment reaches, the plan recomputes Y where
    # it can, and Y's rebuild block runs a copy of the tasklet that wrote it
    p = _tasklet_headed_chain()
    inputs = sample_inputs(p, {}, rng)
    plain = gradient(p, inputs, {})
    fvs, seqs = _problem(p, {})
    peaks = {max(s.peak(v) for s in seqs) for v in itertools.product((0, 1), repeat=len(fvs))}
    results = [plan(p, peak / MIB, {}) for peak in sorted(peaks)]
    assert [r.solution.assignment for r in results] == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
    for result in results:
        assert simulate_memory(result.forward, result.backward, {}).peak == result.solution.t_star
        assert _run_outputs(run_planned(result, inputs, {}))[2] == _run_outputs(plain)[2]
        rebuilt = _rebuild_blocks(result.backward)
        assert ("Y__v1" in set().union(*rebuilt.values())) == (result.solution.assignment[0] == 0)
        tasklets = [n for _, b in walk_blocks(result.backward.region) if b.label in rebuilt
                    for n in b.graph.nodes if isinstance(n, Tasklet)]
        assert [t.body for t in tasklets] == [{"y": parse_sexpr("(sin x)")}] * bool(rebuilt)


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
def test_merged_rebuilds_pass_the_gates_on_random_chains():
    # finite differences, a bit-identical replay and modelled == simulated
    # peak on every path, at 75% and 50% of keep-all. Chain programs with
    # inputs of at most 24 x 24 elements keep the finite differences small.
    merged = {make_chain_program: 0, make_elementwise_program: 0}
    for make, seeds, params in ((make_chain_program, 30, {}), (make_elementwise_program, 40, {"n": 4})):
        for seed in range(seeds):
            program = make(seed)
            if any(np.prod(dimensions(program.descriptors[x], params)) > 576 for x in program.independents):
                continue
            inputs = sample_inputs(program, params, np.random.default_rng(3))
            plain = gradient(program, inputs, params)
            fd = finite_difference_gradient(program, inputs, params)
            keep_all = plan(program, None, params).solution.t_star
            for share in (0.75, 0.5):
                try:
                    result = plan(program, share * keep_all / MIB, params)
                except Infeasible:
                    continue
                replay = run_planned(result, inputs, params)
                assert _run_outputs(replay)[2] == _run_outputs(plain)[2], (make.__name__, seed, share)
                report = compare_gradients(replay.grads, fd, tolerance=1e-5)
                assert report["ok"], (make.__name__, seed, share, report)
                _assert_model_is_simulation(result, params)
                merged[make] += sum(len(names) > 1 for names in _rebuild_blocks(result.backward).values())
    assert merged[make_chain_program] >= 5 and merged[make_elementwise_program] >= 2, merged


def _gradients_beside_a_chain() -> Program:
    """L = X / 2, A0 = sin L, A1 = sin A0, C = Y / 2, A2 = sin A1,
    O = sum A2 + sum C, with X of n and Y of m elements. The reverse pass
    holds C's and Y's gradients between the first reader of A1 and that of
    A0."""
    b = ProgramBuilder(("n", "m"))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("m",), role="input", kind="real64")
    for name, size in (("L", "n"), ("A0", "n"), ("A1", "n"), ("C", "m"), ("A2", "n")):
        b.array(name, (size,), kind="real64")
    b.scalar("O", role="output", kind="real64")
    for label, x, y, op in (("s0", "X", "L", "scale"), ("s1", "L", "A0", "sin"), ("s2", "A0", "A1", "sin"),
                            ("s3", "Y", "C", "scale"), ("s4", "A1", "A2", "sin")):
        with b.state(label) as s:
            s.library("ew_unary", {"x": x}, {"y": y}, op=op, const=0.5 if op == "scale" else None)
    with b.state("s5") as s:
        s.library("reduce_sum", {"x": "A2"}, {"y": "O"})
    with b.state("s6") as s:
        s.library("reduce_sum", {"x": "C"}, {"y": "O"}, wcr="sum")
    return b.finish("O", ["X", "Y"])


def test_a_rebuild_that_would_raise_the_peak_keeps_its_own_block():
    # recomputing L, A0 and A1. With m = 64 the reverse pass sets the peak,
    # when Y's gradient is allocated, so A0 cannot be held from A1's block
    # on; L still joins A0's block. With m = 4 the forward pass sets it, A0
    # joins A1's block, and L, held from there, would raise the peak.
    program = _gradients_beside_a_chain()
    recompute = (0, 0, 0)
    for m, blocks in ((64, {"rec_A1__v1": {"A1__v1"}, "rec_A0__v1": {"A0__v1", "L__v1"}}),
                      (4, {"rec_A1__v1": {"A1__v1", "A0__v1"}, "rec_L__v1": {"L__v1"}})):
        params = {"n": 4, "m": m}
        keep_all = plan(program, None, params)
        assert [fv.name for fv in keep_all.fvs] == ["L__v1", "A0__v1", "A1__v1"]
        (seq,) = keep_all.sequences
        top = max(seq.events, key=lambda e: e.total.value(recompute))
        assert (top.label == "alloc Y__grad") == (m == 64)
        fwd, bwd = apply_plan(program, keep_all.bundle, keep_all.fvs, recompute, keep_all.sequences)
        assert _rebuild_blocks(bwd) == blocks, m
        result = replace(keep_all, forward=fwd, backward=bwd, pair=None,
                         solution=replace(keep_all.solution, assignment=recompute))
        _assert_model_is_simulation(result, params)
        inputs = sample_inputs(program, params, np.random.default_rng(m))
        assert _run_outputs(run_planned(result, inputs, params))[2] == _run_outputs(gradient(program, inputs, params))[2]


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


def test_count_flops_keys_are_the_sequence_outcomes():
    for program, params in (
        (examples.build("branchy_scale"), {"n": 4}),
        (_arm_snapshot_program(), {"n": 6, "steps": 4}),
    ):
        result = plan(program, None, params)
        outcomes = {seq.outcomes for seq in result.sequences}
        assert set(count_flops(program, params)) == outcomes
        assert set(count_flops(result.bundle.backward, params)) == outcomes


# ---------------------------------------------------------------------------
# a reversed loop body that visits no iterate is charged nothing


def _model_and_simulation(program, params):
    result = plan(program, None, params)
    hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
    for seq in result.sequences:
        timeline = simulate_memory(result.forward, result.backward, params,
                                   dict(seq.outcomes), stored_hints=hints)
        assert timeline.peak == seq.peak(result.solution.assignment), seq.outcomes
    return result


def test_zero_trip_loop_allocates_no_gradients():
    # the loop writing C runs no trip, so the backward run never touches
    # C's or X1's gradient
    result = _model_and_simulation(make_loop_program(417), {"n": 4})
    (taken,) = [seq for seq in result.sequences if seq.outcomes == (("pick", True),)]
    labels = {ev.label for ev in taken.events}
    assert not labels & {"alloc C__grad", "alloc X1__grad"}
    assert result.solution.t_star == 96


def test_peel_past_the_last_iterate_allocates_nothing():
    program = make_loop_program(273)
    (peel,) = [b for _, b in walk_blocks(build_backward(program).backward.region)
               if isinstance(b, LoopRegion) and b.label == "outer__bwd"]
    iterates = simulate_header(peel, {"n": 4})
    assert iterates and not visit_positions(peel, len(iterates))
    assert _model_and_simulation(program, {"n": 4}).solution.t_star == 160


# ---------------------------------------------------------------------------
# loop headers that read a scalar input


def test_plan_of_a_runtime_header_over_a_carried_array_names_the_loop():
    with pytest.raises(UnresolvableTripCount, match="loop 'lp'"):
        plan(runtime_header_array_program(), None, {"n": 4})


# ---------------------------------------------------------------------------
# the executor holds what the plan models


def _measured_peak(result, params, seed=0) -> int:
    """``tracemalloc`` peak of one warmed-up ``run_planned``; the inputs
    exist before tracing starts and are not counted."""
    inputs = sample_inputs(result.forward, params, np.random.default_rng(seed))
    run_planned(result, inputs, params)  # kernels compiled, caches filled
    return _traced_peak(lambda: run_planned(result, inputs, params))


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fresh_plan_runs_first_at_the_peak_of_a_second_run():
    # plan() prepares the library steps of the program and its backward
    # (with the bundle) and of the states it builds, so the first replay of
    # a fresh plan allocates none and peaks no higher than the second.
    # Without that, the first replay of sin_chain(6) at 60% peaks about 50%
    # higher. The 1% allows for the interpreter's free lists, which move a
    # traced peak by some dozens of bytes between two identical calls.
    warm = plan(sin_chain(6), None, {})  # numpy's dispatch caches, outside the trace
    run_planned(warm, sample_inputs(warm.forward, {}, np.random.default_rng(1)), {})
    program = sin_chain(6)
    inputs = sample_inputs(program, {}, np.random.default_rng(2))
    keep_all = plan(program, None, {}).solution.t_star
    result = plan(program, 0.6 * keep_all / MIB, {})
    assert not all(result.solution.assignment)  # rebuild blocks run too
    first, second = (_traced_peak(lambda: run_planned(result, inputs, {})) for _ in range(2))
    assert first <= 1.01 * second, (first, second)


@pytest.mark.parametrize("n", [96, 192])
def test_measured_peak_is_within_the_modelled_peak_and_the_backward_floor(n):
    # scaled_product_chain at N=n: one array is 4 n^2 B (36,864 B at 96).
    # The slack over the modelled peak t_star is derived, not fitted:
    # - one temporary of the largest array: a library node's result exists
    #   before it replaces or is added into its target, which the model
    #   does not count;
    # - the Python objects of a run (dicts, results, ndarray headers), whose
    #   size does not depend on N: the measured peak of the same keep-all
    #   run at N=2, where each array holds 16 B.
    # The forward run frees each transient after its last touch, which the
    # model's forward charge (each transient to the end of the pass) does
    # not see; so at every budget the backward pass sets the measured peak.
    # Its floor is 7 arrays under each of the 8 assignments, so the
    # measured peak is at most 7 arrays, one temporary and the Python
    # objects.
    program = examples.build("scaled_product_chain")
    params = {"N": n}
    size = n * n * 4
    python_bytes = _measured_peak(plan(program, None, {"N": 2}), {"N": 2})
    keep_all = plan(program, None, params).solution.t_star
    peaks = []
    for share in (None, 0.95, 0.8):
        result = plan(program, None if share is None else share * keep_all / MIB, params)
        measured = _measured_peak(result, params)
        assert measured <= result.solution.t_star + size + python_bytes, (share, measured)
        assert measured <= 7 * size + size + python_bytes, (share, measured)
        peaks.append(result.solution.t_star)
    assert peaks == [11 * size, 10 * size, 8 * size]


def test_a_block_that_rebuilds_a_chain_runs_within_the_measured_peak_bound():
    # the bound above: t_star, one temporary of one array (16 x 16 real64),
    # and the Python objects of a keep-all run of the same chain at 2 x 2
    program = sin_chain(12)
    python_bytes = _measured_peak(plan(sin_chain(12, side=2), None, {}), {})
    result = plan(program, 0.6 * plan(program, None, {}).solution.t_star / MIB, {})
    assert [len(names) for names in _rebuild_blocks(result.backward).values()] == [10]
    measured = _measured_peak(result, {})
    assert measured <= result.solution.t_star + 16 * 16 * 8 + python_bytes, measured


def _forward_peak(monkeypatch, program) -> int:
    """``tracemalloc`` peak of the forward run of one warmed-up
    ``gradient()``; the inputs exist before tracing starts."""
    inputs = sample_inputs(program, {}, np.random.default_rng(0))
    gradient(program, inputs, {})
    run, peaks = interpreter.run_forward, []

    def traced(*args, **kwargs):
        out = []
        peaks.append(_traced_peak(lambda: out.append(run(*args, **kwargs))))
        return out[0]

    monkeypatch.setattr(interpreter, "run_forward", traced)
    gradient(program, inputs, {})
    monkeypatch.undo()
    return peaks[0]


def test_the_forward_run_of_a_gradient_holds_each_array_once(monkeypatch):
    # sin_chain(12) at 16 x 16 real64: L and A0..A11 in env, their tape
    # snapshots being the same arrays (a library node gives its name a new
    # array, so none is copied), and one library result before it is
    # stored: k + 2 arrays; the Python objects as measured at 2 x 2. Copied
    # snapshots would hold the 12 taped arrays twice (58,640 B).
    k = 12
    python_bytes = _forward_peak(monkeypatch, sin_chain(k, side=2))
    measured = _forward_peak(monkeypatch, sin_chain(k))
    assert measured <= (k + 2) * 16 * 16 * 8 + python_bytes, (measured, python_bytes)


def test_infeasible_beyond_the_exact_floor_reports_a_lower_bound():
    # k > 20: the floor is the per-row bound, so the message says "at least"
    with pytest.raises(Infeasible) as exc:
        plan(sin_chain(24), 1e-5, {})
    assert not exc.value.exact and "at least" in str(exc.value)
    fvs, seqs = _problem(sin_chain(24), {})
    assert exc.value.min_peak_bytes == max(s.peak((0,) * 24) for s in seqs)
    with pytest.raises(Infeasible) as small:
        plan(sin_chain(8), 1e-5, {})
    assert small.value.exact and "best achievable" in str(small.value)
