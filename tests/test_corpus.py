"""Every built-in kernel, checked end to end: finite differences, slice
restriction, planned replay, and the two independent memory accountings.
Random elementwise, loop, map and stencil programs face the same gates."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow.examples as examples
from gradflow import (
    compare_gradients,
    finite_difference_gradient,
    gradient,
    plan,
    restrict_to_ccs,
    run_forward,
    run_planned,
    sample_inputs,
    serialize_program,
    simulate_memory,
)
from gradflow.errors import Infeasible, UnsupportedConstruct, UnsupportedLoop
from genprog import make_elementwise_program, make_loop_program, make_map_program, make_stencil_program


def _inputs(name, seed=101):
    program = examples.build(name)
    params = examples.DEFAULT_PARAMS[name]
    return program, params, sample_inputs(program, params, np.random.default_rng(seed))


# The stencil is linear, so central differences have no truncation error and
# a larger step only averages away float64 cancellation noise; the automatic
# sqrt(eps) step sits right at that noise floor for a 1600-element sum.
FD_EPS = {"seidel_stencil": 1e-5}


@pytest.mark.parametrize("name", sorted(examples.FD_CORPUS))
def test_gradient_matches_finite_differences(name):
    program, params, inputs = _inputs(name)
    ad = gradient(program, inputs, params)
    fd = finite_difference_gradient(program, inputs, params, eps=FD_EPS.get(name))
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], (name, report)


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES))
def test_ccs_restriction_preserves_the_dependent(name):
    program, params, inputs = _inputs(name)
    full = run_forward(program, inputs, params).value
    text = serialize_program(program)
    cut = run_forward(restrict_to_ccs(program), inputs, params).value
    assert full == cut  # bit-exact
    assert serialize_program(program) == text  # the input is left untouched


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES))
def test_planned_replay_is_bit_identical(name):
    program, params, inputs = _inputs(name)
    plain = gradient(program, inputs, params)

    for limit_mib in (None, 0.002):
        try:
            result = plan(program, limit_mib, params)
        except Infeasible:
            continue  # 2 KiB is below this kernel's floor; covered elsewhere
        replay = run_planned(result, inputs, params)
        assert replay.value == plain.value, (name, limit_mib)
        for k in plain.grads:
            assert np.array_equal(replay.grads[k], plain.grads[k]), (name, limit_mib, k)


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES))
def test_simulated_peak_matches_the_parametric_model(name):
    program = examples.build(name)
    params = examples.DEFAULT_PARAMS[name]
    result = plan(program, None, params)
    hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
    for seq in result.sequences:
        timeline = simulate_memory(
            result.forward, result.backward, params,
            dict(seq.outcomes), stored_hints=hints,
        )
        assert timeline.peak == seq.peak(result.solution.assignment), \
            (name, seq.outcomes)


def _assert_corpus_gates(program, params, inputs, plain):
    fd = finite_difference_gradient(program, inputs, params)
    report = compare_gradients(plain.grads, fd, tolerance=1e-5)
    assert report["ok"], report
    assert run_forward(restrict_to_ccs(program), inputs, params).value == plain.value

    # keep everything, then the tightest budget that fits: where anything
    # can be recomputed, that plan recomputes it
    try:
        plan(program, 0, params)
        floor = 0
    except Infeasible as exc:
        floor = exc.min_peak_bytes
    for limit_mib in (None, (floor + 1) / (1 << 20)):
        result = plan(program, limit_mib, params)
        replay = run_planned(result, inputs, params)
        assert replay.value == plain.value
        for k in plain.grads:
            assert np.array_equal(replay.grads[k], plain.grads[k]), (limit_mib, k)
        hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
        for seq in result.sequences:
            timeline = simulate_memory(
                result.forward, result.backward, params,
                dict(seq.outcomes), stored_hints=hints,
            )
            assert timeline.peak == seq.peak(result.solution.assignment)


@pytest.mark.filterwarnings("ignore::gradflow.errors.NonDifferentiableOp")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_elementwise_programs_pass_the_corpus_gates(seed):
    program = make_elementwise_program(seed)
    params = {"n": 4}
    inputs = sample_inputs(program, params, np.random.default_rng(seed))
    _assert_corpus_gates(program, params, inputs, gradient(program, inputs, params))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_loop_programs_pass_the_corpus_gates(seed):
    program = make_loop_program(seed)
    params = {"n": 4}
    inputs = sample_inputs(program, params, np.random.default_rng(seed))
    try:
        plain = gradient(program, inputs, params)
    except (UnsupportedConstruct, UnsupportedLoop) as exc:
        # a rejected construct raises its named error, in planning too
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            plan(program, None, params)
        return
    _assert_corpus_gates(program, params, inputs, plain)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_map_programs_pass_the_corpus_gates(seed):
    # maps with sum conflict resolution, and in-place overwrites of map
    # outputs, tasklet outputs and inputs
    program = make_map_program(seed)
    params = {"n": 4}
    inputs = sample_inputs(program, params, np.random.default_rng(seed))
    _assert_corpus_gates(program, params, inputs, gradient(program, inputs, params))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_stencil_programs_pass_the_corpus_gates(seed):
    # in-place neighbour sweeps in loop and map nests, whose innermost
    # levels carry element values between consecutive points
    program = make_stencil_program(seed)
    params = {"n": 4}
    inputs = sample_inputs(program, params, np.random.default_rng(seed))
    _assert_corpus_gates(program, params, inputs, gradient(program, inputs, params))
