"""Tests of the benchmark itself: every workload at a tiny size reports
every metric that BENCHMARK.json names, a corrupted gradient is caught, and
the sin-chain generator poses the problem ROADMAP item 4 measured."""

import heapq
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gradflow  # noqa: E402
from perfbench import bench, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result, lines = bench.run(name, seed=7, seconds=0.01, trace=bool(trace), tiny=True)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert lines[0].startswith("context ")


def test_corrupted_gradient_makes_calls_fail(monkeypatch):
    honest = gradflow.gradient

    def corrupted(*args, **kwargs):
        res = honest(*args, **kwargs)
        res.grads = {k: v + np.asarray(1e-2, dtype=v.dtype) for k, v in res.grads.items()}
        return res

    monkeypatch.setattr(gradflow, "gradient", corrupted)
    result, lines = bench.run("wide_chain", seed=7, seconds=0.01, trace=False, tiny=True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["pass_rate"]["value"] < 1.0
    assert any(line.startswith("fail_rate") and not line.startswith("fail_rate 0.000000") for line in lines)


def reference_search_nodes(problem) -> int:
    """Nodes the exact solver expanded on ``problem`` when this benchmark was
    defined: best-first by recompute cost so far, ties to the assignment
    storing the earliest values, pruned by the lowest reachable peak. It
    fingerprints the problem and stays fixed when the solver changes."""
    k, limit = problem.k, problem.limit_bytes
    totals = [t for _, _, t in problem.events]
    const = np.array([t.const for t in totals], dtype=np.int64)
    store = np.zeros((len(totals), k), dtype=np.int64)
    rec = np.zeros((len(totals), k), dtype=np.int64)
    for e, t in enumerate(totals):
        for i, c in t.store:
            store[e, i] += c
        for i, c in t.rec:
            rec[e, i] += c

    def peak(assignment):
        a = np.asarray(assignment, dtype=np.int64)
        return int((const + store @ a + rec @ (1 - a)).max(initial=0))

    if limit is None or peak([1] * k) <= limit:
        return 1
    low = np.minimum(store, rec)
    root = const + low.sum(axis=1)
    for i, v in problem.fixed.items():
        root += (store[:, i] if v else rec[:, i]) - low[:, i]
    nodes = 1
    heap = [(0, (), root)]
    while heap:
        obj, bits, bound = heapq.heappop(heap)
        nodes += 1
        depth = len(bits)
        if depth == k:
            if peak([1 - b for b in bits]) <= limit:
                return nodes
            continue
        forced = problem.fixed.get(depth)
        for v in (1, 0) if forced is None else (forced,):
            # a pinned value is already decided in the root bound
            if forced is None:
                child = bound - low[:, depth] + (store[:, depth] if v else rec[:, depth])
            else:
                child = bound
            if child.max(initial=0) > limit:
                continue
            cost = problem.costs[depth] if v == 0 else 0
            heapq.heappush(heap, (obj + cost, bits + (1 - v,), child))
    raise AssertionError("infeasible")


@pytest.mark.parametrize("k, events, nodes", [(12, 102, 476), (16, 134, 3906)])
def test_sin_chain_poses_the_roadmap_item_4_problem(k, events, nodes):
    program = workloads.sin_chain(k)
    keep_all = gradflow.plan(program, None, {}).solution.t_star
    limit_mib = 0.8 * keep_all / (1 << 20)
    bundle = gradflow.build_backward(program)
    fvs = gradflow.collect_forwarded(program, bundle, {})
    sequences = gradflow.build_memory_sequences(program, bundle, fvs, {})
    problem = gradflow.build_ilp(fvs, sequences, int(limit_mib * (1 << 20)))
    assert (problem.k, len(problem.events)) == (k, events)
    assert reference_search_nodes(problem) == nodes
