import numpy as np
import pytest

import gradflow.examples as examples
from gradflow import (
    ProgramBuilder,
    brute_force_plan,
    build_backward,
    build_memory_sequences,
    collect_forwarded,
    compare_gradients,
    finite_difference_gradient,
    gradient,
    run_forward,
    sample_inputs,
    simulate_memory,
)
from gradflow.errors import BatchDivergence, Infeasible
from gradflow.verification import BRUTE_FORCE_CAP, fd_epsilon


def _sum_of_squares():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("P", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("main") as s:
        s.library("ew_binary", {"a": "X", "b": "X"}, {"c": "P"}, op="mul")
        s.library("reduce_sum", {"x": "P"}, {"y": "O"})
    return b.finish("O", ["X"])


# ---------------------------------------------------------------------------
# step sizes


def test_fd_epsilon_scales_with_magnitude():
    base = np.sqrt(np.finfo(np.float64).eps)
    assert fd_epsilon(np.array([0.0])) == pytest.approx(base)
    assert fd_epsilon(np.array([1e6])) == pytest.approx(base * 1e6)
    assert np.all(fd_epsilon(np.zeros(4), eps=1e-5) == 1e-5)


# ---------------------------------------------------------------------------
# the finite-difference oracle itself


def test_fd_sum_of_squares():
    fd = finite_difference_gradient(_sum_of_squares(), {"X": np.array([1.0, 2.0])}, {"n": 2})
    np.testing.assert_allclose(fd["X"], [2.0, 4.0], atol=1e-7)


def test_fd_constant_function_is_exactly_zero():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("K", ("n",), role="input", kind="real64")
    b.array("P", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("main") as s:
        s.library("ew_unary", {"x": "K"}, {"y": "P"}, op="sin")
        s.library("reduce_sum", {"x": "P"}, {"y": "O"})
    p = b.finish("O", ["X"])
    fd = finite_difference_gradient(p, {"X": np.ones(3), "K": np.ones(3)}, {"n": 3})
    assert np.all(fd["X"] == 0.0)


def test_fd_probes_in_float64_even_for_float32_programs(rng):
    # declared-precision evaluation would swallow the step entirely
    p = examples.build("scaled_product_chain")
    inputs = {k: rng.uniform(0.4, 1.6, (4, 4)) for k in ("C", "D")}
    fd = finite_difference_gradient(p, inputs, {"N": 4})
    ad = gradient(p, inputs, {"N": 4})
    report = compare_gradients(ad.grads, fd, tolerance=1e-5)
    assert report["ok"], report


def _threshold_program():
    b = ProgramBuilder(())
    b.scalar("t", role="input", kind="real64")
    b.scalar("u", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.branch("(lt t 0.5)", label="side") as br:
        with br.then():
            with b.state("low") as s:
                s.tasklet(ins={"a": ("t", ())}, outs={"o": ("u", ())},
                          body={"o": "(mul a 2)"})
        with br.orelse():
            with b.state("high") as s:
                s.tasklet(ins={"a": ("t", ())}, outs={"o": ("u", ())},
                          body={"o": "(mul a 3)"})
    with b.state("out") as s:
        s.tasklet(ins={"a": ("u", ())}, outs={"o": ("O", ())}, body={"o": "a"})
    return b.finish("O", ["t"])


def test_fd_branch_boundary_points_are_excluded():
    p = _threshold_program()
    # away from the threshold the probes stay on one arm
    fd = finite_difference_gradient(p, {"t": np.float64(0.3)})
    assert fd["t"] == pytest.approx(2.0, abs=1e-7)
    # on the threshold the two-sided probe lands on different arms: NaN
    fd = finite_difference_gradient(p, {"t": np.float64(0.5)})
    assert np.isnan(fd["t"])


def test_fd_probes_that_diverge_as_a_batch_agree_pairwise():
    # if X[0]^2 > 0 {O = sum(sin X)} else {O = sum X}, at X[0] = 0: the
    # probes of X[0] take the then arm and the others the else arm, so the
    # batched run diverges; each probe pair stays on one arm, with slope 1
    b = ProgramBuilder(())
    b.array("X", ("3",), role="input", kind="real64")
    b.array("S", ("3",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.branch("(gt (mul (idx X 0) (idx X 0)) 0)", label="pos") as br:
        with br.then():
            with b.state("sin") as s:
                s.library("ew_unary", {"x": "X"}, {"y": "S"}, op="sin")
                s.library("reduce_sum", {"x": "S"}, {"y": "O"})
        with br.orelse():
            with b.state("sum") as s:
                s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    p = b.finish("O", ["X"])
    x = np.array([0.0, 0.7, 1.1])
    with pytest.raises(BatchDivergence):
        run_forward(p, {"X": np.stack([x + [1e-3, 0, 0], x])})
    fd = finite_difference_gradient(p, {"X": x})["X"]
    assert not np.isnan(fd).any()
    grads = gradient(p, {"X": x}).grads["X"]
    np.testing.assert_array_equal(grads, np.ones(3))
    assert compare_gradients({"X": grads}, {"X": fd}, tolerance=1e-5)["ok"]


# ---------------------------------------------------------------------------
# gradient comparison reports


def test_compare_gradients_passes_and_fails():
    a = {"X": np.array([1.0, 2.0, 3.0])}
    assert compare_gradients(a, a, tolerance=1e-12)["ok"]
    b = {"X": np.array([1.0, 2.5, 3.0])}
    report = compare_gradients(a, b, tolerance=1e-3)
    assert not report["ok"]
    assert report["inputs"]["X"]["failing_indices"] == [1]  # flat indices
    assert report["max_rel_error"] == pytest.approx(0.5 / 2.5)


def test_compare_gradients_scale_guard():
    # tiny references are compared absolutely, not relatively
    a = {"X": np.array([1e-14])}
    b = {"X": np.array([0.0])}
    assert compare_gradients(a, b, tolerance=1e-5)["ok"]


def test_compare_gradients_skips_nan_reference():
    a = {"X": np.array([1.0, 2.0])}
    b = {"X": np.array([1.0, np.nan])}
    report = compare_gradients(a, b, tolerance=1e-5)
    assert report["ok"]
    assert report["inputs"]["X"]["excluded"] == 1


def test_failing_indices_capped_at_ten():
    a = {"X": np.zeros(64)}
    b = {"X": np.ones(64)}
    report = compare_gradients(a, b, tolerance=1e-3)
    assert len(report["inputs"]["X"]["failing_indices"]) == 10


# ---------------------------------------------------------------------------
# input sampling


def test_sample_inputs_deterministic_and_in_range():
    p = examples.build("matmul_sum")
    a = sample_inputs(p, {"d": 5}, np.random.default_rng(3))
    b = sample_inputs(p, {"d": 5}, np.random.default_rng(3))
    assert set(a) == {"A", "B"}
    for k in a:
        assert np.array_equal(a[k], b[k])
        assert a[k].dtype == np.float64
        assert np.all((a[k] >= 0.4) & (a[k] < 1.6))


def test_sample_inputs_respects_declared_dtype():
    p = examples.build("scaled_product_chain")
    got = sample_inputs(p, {"N": 3}, np.random.default_rng(0))
    assert got["C"].dtype == np.float32


# ---------------------------------------------------------------------------
# the independent planning route


def test_brute_force_k1():
    p = examples.build("exp_sin_chain")
    bundle = build_backward(p)
    fvs = collect_forwarded(p, bundle, {"n": 9})
    seqs = build_memory_sequences(p, bundle, fvs, {"n": 9})
    assert len(fvs) == 1
    store = brute_force_plan(fvs, seqs, None)
    assert store.assignment == (1,)
    assert store.objective_flops == 0
    tight = brute_force_plan(fvs, seqs, max(s.peak((0,)) for s in seqs))
    assert tight.assignment == (0,)


def test_brute_force_cap():
    assert BRUTE_FORCE_CAP == 20  # beyond this, 2^k enumeration is refused


def test_brute_force_infeasible_floor():
    p = examples.build("scaled_product_chain")
    bundle = build_backward(p)
    fvs = collect_forwarded(p, bundle, {"N": 8})
    seqs = build_memory_sequences(p, bundle, fvs, {"N": 8})
    with pytest.raises(Infeasible) as exc:
        brute_force_plan(fvs, seqs, 10)
    assert exc.value.min_peak_bytes == 8 * 8 * 8 * 4


# ---------------------------------------------------------------------------
# memory timeline simulation


def test_simulate_memory_resident_never_negative_and_ends_at_zero():
    p = examples.build("scaled_product_chain")
    bundle = build_backward(p)
    timeline = simulate_memory(p, bundle.backward, {"N": 8})
    resident = 0
    for _, delta, running in timeline.events:
        resident += delta
        assert resident == running
        assert resident >= 0
    assert resident == 0
    assert timeline.peak == max(r for _, _, r in timeline.events)


def test_simulate_memory_peak_scales_with_n():
    p = examples.build("scaled_product_chain")
    bundle = build_backward(p)
    t8 = simulate_memory(p, bundle.backward, {"N": 8})
    t16 = simulate_memory(p, bundle.backward, {"N": 16})
    assert t16.peak == 4 * t8.peak  # everything here is N^2-sized
