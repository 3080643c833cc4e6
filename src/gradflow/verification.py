"""Independent checks for the differentiator and the memory planner.

Three oracles live here, each deliberately avoiding the machinery it checks:
finite differences replace the adjoint construction, exhaustive enumeration
replaces the branch-and-bound solver, and a concrete walk over the rewritten
programs replaces the affine event model.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace

import numpy as np

from .checkpointing import ILPSolution, PathSequence
from .errors import (
    BatchDivergence,
    GradflowError,
    Infeasible,
    NegativeResident,
    UnboundName,
)
from .interpreter import run_forward
from .ir import (
    AccessNode,
    Block,
    LoopRegion,
    Program,
    State,
    dimensions,
    schedule,
    simulate_header,
    size_bytes,
    visit_positions,
    walk_blocks,
)

BRUTE_FORCE_CAP = 20


# ---------------------------------------------------------------------------
# finite differences


def fd_epsilon(x: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Per-element step: sqrt(machine eps) scaled by the value's magnitude."""
    flat = np.abs(np.asarray(x, dtype=np.float64).reshape(-1))
    if eps is not None:
        return np.full(flat.size, float(eps))
    return np.sqrt(np.finfo(np.float64).eps) * np.maximum(1.0, flat)


def finite_difference_gradient(
    program: Program,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    eps: float | None = None,
) -> dict[str, np.ndarray]:
    """Central differences of the dependent with respect to each independent.

    All arithmetic runs in float64 regardless of the declared element kind
    (the sampled function is the mathematical one; a float32 evaluation
    would swallow the probe steps entirely). The perturbed evaluations ride
    the interpreter's batch axis, one run per independent; if the batch
    diverges at a branch the affected elements are probed pairwise, and an
    element whose two probes straddle a branch boundary comes back NaN
    (excluded from comparisons). Domain errors propagate: a gradient at an
    invalid point is not defined.
    """
    params = dict(params or {})
    program = _promote64(program)
    base = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    return {
        name: _fd_one(program, base, params, name, eps)
        for name in program.independents
    }


def _promote64(program: Program) -> Program:
    if all(d.element_kind == "real64" for d in program.descriptors.values()):
        return program
    return replace(program, descriptors={n: replace(d, element_kind="real64") for n, d in program.descriptors.items()})


def _fd_one(program, base, params, name, eps):
    x = base[name]
    n = x.size if x.shape else 1
    h = fd_epsilon(x, eps)
    batch = np.broadcast_to(x, (2 * n,) + x.shape).copy()
    flat = batch.reshape(2 * n, -1)
    idx = np.arange(n)
    flat[idx, idx] += h
    flat[n + idx, idx] -= h
    try:
        run = run_forward(program, {**base, name: batch}, params)
        vals = np.asarray(run.value, dtype=np.float64).reshape(2 * n)
        g = (vals[:n] - vals[n:]) / (2.0 * h)
    except BatchDivergence:
        g = np.empty(n)
        for i in range(n):
            try:
                run = run_forward(program, {**base, name: batch[[i, n + i]]}, params)
                pair = np.asarray(run.value, dtype=np.float64).reshape(2)
                g[i] = (pair[0] - pair[1]) / (2.0 * h[i])
            except BatchDivergence:
                g[i] = np.nan  # the probes straddle a branch boundary
    return g.reshape(x.shape)


def compare_gradients(
    computed: dict[str, np.ndarray],
    reference: dict[str, np.ndarray],
    *,
    tolerance: float,
) -> dict:
    """Elementwise relative comparison, NaN reference entries excluded.

    Relative error is |a - b| / max(1, |b|), guarding against blowup where
    the true gradient vanishes.
    """
    report: dict = {"tolerance": tolerance, "ok": True, "inputs": {}}
    worst = 0.0
    for name, ref in reference.items():
        a = np.asarray(computed[name], dtype=np.float64).reshape(-1)
        b = np.asarray(ref, dtype=np.float64).reshape(-1)
        mask = np.isfinite(b)
        rel = np.zeros(b.size)
        rel[mask] = np.abs(a[mask] - b[mask]) / np.maximum(1.0, np.abs(b[mask]))
        bad = np.flatnonzero(rel > tolerance)
        entry = {
            "max_rel_error": float(rel.max()) if rel.size else 0.0,
            "checked": int(mask.sum()),
            "excluded": int(b.size - mask.sum()),
            "failing_indices": [int(i) for i in bad[:10]],
        }
        report["inputs"][name] = entry
        worst = max(worst, entry["max_rel_error"])
        if bad.size:
            report["ok"] = False
    report["max_rel_error"] = worst
    return report


def sample_inputs(
    program: Program,
    params: dict[str, int] | None = None,
    rng: np.random.Generator | None = None,
    *,
    low: float = 0.4,
    high: float = 1.6,
) -> dict[str, np.ndarray]:
    """Random inputs over a kink-free positive range, in declared precision."""
    params = dict(params or {})
    rng = rng or np.random.default_rng(0)
    out = {}
    for d in program.descriptors.values():
        if d.role != "input":
            continue
        dt = np.float32 if d.element_kind == "real32" else np.float64
        out[d.name] = rng.uniform(low, high, dimensions(d, params)).astype(dt)
    return out


# ---------------------------------------------------------------------------
# exhaustive planning


def brute_force_plan(fvs, sequences: list[PathSequence], limit_bytes: int | None) -> ILPSolution:
    """Try every store/recompute assignment. The enumeration runs from the
    all-store end down, so the first minimum found is also the tie-break
    winner (store the earliest-produced values)."""
    k = len(fvs)
    if k > BRUTE_FORCE_CAP:
        raise GradflowError(f"brute force capped at {BRUTE_FORCE_CAP} values, got {k}")
    t0 = time.perf_counter()
    fixed = {fv.index: 1 for fv in fvs if fv.forced}
    costs = [fv.c_flops for fv in fvs]
    best = None
    best_obj = best_peak = 0
    floor = None
    nodes = 0
    for bits in itertools.product((1, 0), repeat=k):
        if any(bits[i] != v for i, v in fixed.items()):
            continue
        nodes += 1
        peak = max((seq.peak(bits) for seq in sequences), default=0)
        floor = peak if floor is None else min(floor, peak)
        if limit_bytes is not None and peak > limit_bytes:
            continue
        obj = sum(c for c, b in zip(costs, bits) if not b)
        if best is None or obj < best_obj:
            best, best_obj, best_peak = bits, obj, peak
    ms = (time.perf_counter() - t0) * 1e3
    if best is None:
        raise Infeasible(
            f"no plan fits in {limit_bytes} bytes; the best achievable peak is {floor} bytes",
            min_peak_bytes=floor,
        )
    return ILPSolution(best, best_obj, best_peak, nodes, ms)


# ---------------------------------------------------------------------------
# memory simulation


@dataclass(frozen=True)
class MemoryTimeline:
    """Resident bytes along one control-flow path of a planned run."""

    events: tuple[tuple[str, int, int], ...]  # (label, delta, resident)
    peak: int


def simulate_memory(
    forward: Program,
    backward: Program,
    params: dict[str, int] | None = None,
    trace: dict[str, bool] | None = None,
    *,
    stored_hints: dict[str, int] | None = None,
) -> MemoryTimeline:
    """Walk a planned forward/backward pair and meter resident bytes.

    This consumes only the program structure: transients alive from first
    write to the end of the forward pass; each stored copy the reverse
    program reads and no program writes, a value the tape carries, from the
    start of the path to its last backward read, on every path. A rebuild
    block is one spike, its scratch peak plus every stored copy it writes
    (one block may rebuild several values), after which each copy is held
    until its last backward read. A stored copy the forward program writes
    is held from that write. ``trace`` picks the arm of each branch;
    ``stored_hints`` sizes the values the tape carries (bytes per name, all
    snapshots of a value taken in a loop). The walk must end at zero
    resident bytes and never dip below.
    """
    params = dict(params or {})
    trace = dict(trace or {})
    events: list[tuple[str, int, int]] = []
    cur = peak = 0

    def emit(label: str, delta: int):
        nonlocal cur, peak
        if not delta:
            return
        cur += delta
        if cur < 0:
            raise NegativeResident(f"resident bytes went negative at '{label}'")
        peak = max(peak, cur)
        events.append((label, delta, cur))

    stored_live: dict[str, int] = {}

    # values resolved from the recording rather than a named array
    produced = _produced_names(forward) | _produced_names(backward)
    for name, d in backward.descriptors.items():
        if d.role != "stored-copy" or d.rank == 0 or name in produced:
            continue
        size = stored_hints.get(name, size_bytes(d, params)) if stored_hints else size_bytes(d, params)
        stored_live[name] = size
        emit(f"snapshot {name}", size)

    # forward
    allocated: list[tuple[str, int]] = []
    seen: set[str] = set()
    _walk_forward(forward, params, trace, emit, allocated, seen, stored_live)
    for name, size in reversed(allocated):
        emit(f"free {name}", -size)

    # backward
    linear = _linearize(backward, params, trace)
    stored_names = _stored_names(backward)
    touch: dict[str, tuple[int, int]] = {}
    stored_last: dict[str, int] = {}
    for pos, (_kind, _st, reads, writes) in enumerate(linear):
        for name in reads:
            if name in stored_names:
                stored_last[name] = pos
        for name in reads | writes:
            d = backward.descriptors.get(name)
            if d is None or d.rank == 0 or d.role not in ("gradient", "intermediate", "output"):
                continue
            first, _ = touch.get(name, (pos, pos))
            touch[name] = (min(first, pos), pos)
    galloc: set[str] = set()
    for pos, (kind, payload, reads, writes) in enumerate(linear):
        if kind == "rec":
            copies = {w: size_bytes(backward.descriptors[w], params)
                      for w in sorted(writes) if backward.descriptors[w].role == "stored-copy"}
            scratch = _scratch_peak(payload, backward, params)
            emit(f"recompute {', '.join(copies)}", scratch + sum(copies.values()))
            emit(f"drop scratch {', '.join(copies)}", -scratch)
            stored_live.update(copies)
            continue
        for name in sorted(reads | writes):
            if name in touch and touch[name][0] == pos and name not in galloc:
                galloc.add(name)
                emit(f"alloc {name}", size_bytes(backward.descriptors[name], params))
        for name in sorted(reads | writes):
            if name in touch and touch[name][1] == pos and backward.descriptors[name].role != "output":
                emit(f"free {name}", -size_bytes(backward.descriptors[name], params))
                touch.pop(name)
        for name in sorted(reads):
            if name in stored_live and stored_last.get(name) == pos:
                emit(f"free {name}", -stored_live.pop(name))
    for name in sorted(touch):
        if name in galloc:
            emit(f"free {name}", -size_bytes(backward.descriptors[name], params))
    for name in sorted(stored_live):
        emit(f"free {name}", -stored_live.pop(name))
    if cur != 0:
        raise GradflowError(f"internal: simulation ends with {cur} resident bytes")
    return MemoryTimeline(tuple(events), peak)


def _scratch_peak(state: State, program: Program, params: dict[str, int]) -> int:
    """Peak bytes of the scratch arrays a rebuild block holds besides the
    stored copies it writes: each rank >= 1 intermediate from the node that
    writes it first to the node that reads or writes it last."""
    graph = state.graph
    order = [n.id for n in schedule(graph) if not isinstance(n, AccessNode)]
    last = {e.data: k for k, nid in enumerate(order) for e in graph.in_edges(nid) + graph.out_edges(nid)}
    held: dict[str, int] = {}
    peak = 0
    for k, nid in enumerate(order):
        for e in graph.out_edges(nid):
            d = program.descriptors[e.data]
            if d.rank and d.role == "intermediate":
                held.setdefault(e.data, size_bytes(d, params))
        peak = max(peak, sum(held.values()))
        held = {n: b for n, b in held.items() if last[n] > k}
    return peak


def _stored_names(program: Program) -> set[str]:
    return {n for n, d in program.descriptors.items() if d.role == "stored-copy" and d.rank}


def _produced_names(program: Program) -> set[str]:
    out: set[str] = set()
    for _, block in walk_blocks(program.region):
        if not isinstance(block, State):
            continue
        byid = {n.id: n for n in block.graph.nodes}
        for e in block.graph.edges:
            dst = byid.get(e.dst)
            if isinstance(dst, AccessNode):
                d = program.descriptors.get(e.data)
                if d is not None and d.role == "stored-copy":
                    out.add(e.data)
    return out


def _body_runs(loop: LoopRegion, bind: dict[str, int]) -> list[dict[str, int]]:
    """The bindings the loop's body runs under: one per visited iterate, or
    the enclosing ones once when the header reads a value known only at run
    time."""
    try:
        iterates = simulate_header(loop, bind)
    except UnboundName:
        return [bind]
    return [{**bind, loop.iterator: iterates[p]} for p in visit_positions(loop, len(iterates))]


def _states_run(program: Program, params: dict[str, int], trace: dict[str, bool]) -> list[State]:
    """The states one path runs at least once, each once, in program order.
    ``trace`` picks each branch's arm (then, when absent); a reversed branch
    follows the forward branch it replays. Every loop iterate is visited."""
    ran: set[str] = set()

    def rec(region: list[Block], bind: dict[str, int]):
        for block in region:
            if isinstance(block, State):
                ran.add(block.label)
            elif isinstance(block, LoopRegion):
                for inner in _body_runs(block, bind):
                    rec(block.body, inner)
            else:
                taken = trace.get(block.trace_ref or block.label, True)
                rec(block.then_body if taken else block.else_body, bind)

    rec(program.region, params)
    return [b for _, b in walk_blocks(program.region) if isinstance(b, State) and b.label in ran]


def _walk_forward(program, params, trace, emit, allocated, seen, stored_live):
    for st in _states_run(program, params, trace):
        graph = st.graph
        byid = {n.id: n for n in graph.nodes}
        for node in schedule(graph):
            if isinstance(node, AccessNode):
                continue
            for e in graph.out_edges(node.id):
                if not isinstance(byid.get(e.dst), AccessNode) or e.data in seen:
                    continue
                d = program.descriptors.get(e.data)
                if d is None or d.rank == 0:
                    continue
                if d.role == "stored-copy":
                    seen.add(e.data)
                    size = size_bytes(d, params)
                    stored_live[e.data] = size
                    emit(f"keep {e.data}", size)
                elif d.role in ("intermediate", "output"):
                    seen.add(e.data)
                    size = size_bytes(d, params)
                    allocated.append((e.data, size))
                    emit(f"alloc {e.data}", size)


def _linearize(program: Program, params: dict[str, int], trace: dict[str, bool]) -> list:
    out = []
    for block in _states_run(program, params, trace):
        graph = block.graph
        byid = {n.id: n for n in graph.nodes}
        compute = [n.id for n in schedule(graph) if not isinstance(n, AccessNode)]
        groups = {getattr(byid[n], "group", None) for n in compute}
        if compute and all(g and g.startswith("rec:") for g in groups):
            reads = {e.data for e in graph.edges if isinstance(byid.get(e.src), AccessNode)}
            writes = {e.data for e in graph.edges if isinstance(byid.get(e.dst), AccessNode)}
            out.append(("rec", block, reads, writes))
            continue
        for nid in compute:
            reads = {e.data for e in graph.in_edges(nid) if isinstance(byid.get(e.src), AccessNode)}
            writes = {e.data for e in graph.out_edges(nid) if isinstance(byid.get(e.dst), AccessNode)}
            out.append(("node", nid, reads, writes))
    return out
