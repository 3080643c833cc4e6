"""Keep-or-recompute planning for reverse runs under a peak-memory budget.

The reverse pass consumes values the forward pass produced. Each one can
either stay resident from its production until its last backward use, or be
recomputed from program inputs right before it is needed. This module prices
both options per value, poses the choice as a small 0/1 program over
per-path memory-event sequences, solves it exactly, and rewrites the forward
and backward programs to execute the chosen plan.

Accounting model: payload bytes only; scalars are free; inputs and the
dependent live in the caller's context and are never counted. A forward
transient is resident from its first write to the end of the forward pass; a
gradient from its first touch to its last use. A kept value adds its bytes
from production to its last backward use; a recomputed one adds its scratch
peak plus its bytes at first backward use and drops the scratch right after.
Loop bodies count once (steady state). A value the tape holds (snapshots
across loop iterations, or an input's value before it is overwritten in
place) counts all its snapshots from the start of the forward pass.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import BackwardBundle, GradientResult, build_backward, grad_name
from .errors import (
    GradflowError,
    Infeasible,
    IrrecomputableValue,
)
from .interpreter import count_flops, default_trip_limit, run_backward, run_forward
from .ir import (
    AccessNode,
    Block,
    Conditional,
    DataDescriptor,
    Dataflow,
    LibraryNode,
    LoopRegion,
    MapNode,
    Memlet,
    Program,
    State,
    Tasklet,
    body_runs,
    branch_labels,
    copy_program,
    pristine_inputs,
    schedule,
    simulate_header,
    size_bytes,
    validate_or_raise,
    walk_blocks,
)
from .versions import VersionInfo


# ---------------------------------------------------------------------------
# byte amounts linear in the plan variables


@dataclass(frozen=True)
class AffineBytes:
    """const + sum(store[i] * v_i) + sum(rec[i] * (1 - v_i)) bytes."""

    const: int = 0
    store: tuple[tuple[int, int], ...] = ()
    rec: tuple[tuple[int, int], ...] = ()

    def add(self, other: "AffineBytes") -> "AffineBytes":
        s = dict(self.store)
        for i, c in other.store:
            s[i] = s.get(i, 0) + c
        r = dict(self.rec)
        for i, c in other.rec:
            r[i] = r.get(i, 0) + c
        return AffineBytes(
            self.const + other.const,
            tuple(sorted((i, c) for i, c in s.items() if c)),
            tuple(sorted((i, c) for i, c in r.items() if c)),
        )

    def neg(self) -> "AffineBytes":
        return AffineBytes(
            -self.const,
            tuple((i, -c) for i, c in self.store),
            tuple((i, -c) for i, c in self.rec),
        )

    def value(self, assignment) -> int:
        n = self.const
        for i, c in self.store:
            n += c * assignment[i]
        for i, c in self.rec:
            n += c * (1 - assignment[i])
        return n

    def low(self, partial: dict[int, int]) -> int:
        """Smallest value reachable from a partial assignment."""
        n = self.const
        coef: dict[int, tuple[int, int]] = {}
        for i, c in self.store:
            coef[i] = (c, 0)
        for i, c in self.rec:
            s, _ = coef.get(i, (0, 0))
            coef[i] = (s, c)
        for i, (s, r) in coef.items():
            v = partial.get(i)
            if v is None:
                n += min(s, r)
            else:
                n += s if v else r
        return n

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and not self.store and not self.rec


ZERO = AffineBytes()


@dataclass(frozen=True)
class MemoryEvent:
    label: str
    delta: AffineBytes
    total: AffineBytes


@dataclass(frozen=True)
class PathSequence:
    """Events along one (forward path, matching backward path) pair."""

    outcomes: tuple[tuple[str, bool], ...]
    events: tuple[MemoryEvent, ...]

    def peak(self, assignment) -> int:
        return max((e.total.value(assignment) for e in self.events), default=0)


# ---------------------------------------------------------------------------
# forwarded values


@dataclass
class RecomputePlan:
    """A self-contained block that rebuilds one value from pristine inputs."""

    state: State
    descriptors: dict[str, DataDescriptor]
    flops: int
    peak_bytes: int  # scratch high-water mark, produced value excluded


@dataclass
class ForwardedValue:
    index: int
    name: str  # stored descriptor name the reverse pass reads
    data: str  # forward array it captures
    versions: tuple[int, ...]
    size_bytes: int  # one snapshot
    snapshots: int  # snapshots held over the whole run
    site: tuple[str, str] | None  # (state, producer node) when plannable
    access: str | None  # access instance at the production site
    forced: bool
    forced_reason: str | None
    recompute: RecomputePlan | None
    c_flops: int
    r_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.size_bytes * self.snapshots


def _state_index(program: Program) -> dict[str, int]:
    return {
        b.label: i
        for i, (_, b) in enumerate(walk_blocks(program.region))
        if isinstance(b, State)
    }


def _producer(state: State, access_id: str) -> str:
    """Compute node that completes the given access instance (schedule-last
    when conflict resolution merges several writers)."""
    srcs = [e.src for e in state.graph.in_edges(access_id)]
    if not srcs:
        raise KeyError(access_id)
    if len(srcs) == 1:
        return srcs[0]
    pos = {nid: i for i, nid in enumerate(schedule(state.graph))}
    return max(srcs, key=pos.__getitem__)


def _site_visits(program: Program, label: str, params: dict[str, int], limit: int) -> int:
    """How many times the block with this label runs; branch arms use their
    own count (an upper bound when the condition is data-dependent)."""

    def rec(region: list[Block], bind: dict[str, int]) -> int:
        n = 0
        for block in region:
            if isinstance(block, State):
                n += 1 if block.label == label else 0
            elif isinstance(block, LoopRegion):
                if block.label == label:
                    return n + 1
                if not _contains(block.body, label):
                    continue
                for it in simulate_header(block, bind, limit):
                    n += rec(block.body, {**bind, block.iterator: it})
            else:
                if block.label == label:
                    return n + 1
                n += max(rec(block.then_body, bind), rec(block.else_body, bind))
        return n

    def _contains(region: list[Block], target: str) -> bool:
        return any(getattr(b, "label", None) == target for _, b in walk_blocks(region))

    return rec(program.region, dict(params))


def collect_forwarded(
    program: Program,
    bundle: BackwardBundle,
    params: dict[str, int],
    *,
    trip_limit: int | None = None,
) -> list[ForwardedValue]:
    """One entry per array value the reverse pass needs, in forward
    production order. Scalars ride the tape for free and are skipped."""
    limit = trip_limit if trip_limit is not None else default_trip_limit()
    vinfo = bundle.vinfo
    pristine = pristine_inputs(program)
    sidx = _state_index(program)
    states = {b.label: b for _, b in walk_blocks(program.region) if isinstance(b, State)}
    sched = {label: {n: i for i, n in enumerate(schedule(st.graph))} for label, st in states.items()}

    raw = []
    for entry in bundle.forwarding.values():
        desc = program.descriptors[entry.data]
        if desc.rank == 0:
            continue
        versions = tuple(c.version for c in entry.candidates)
        key = (len(sidx) + 1, 0)  # input snapshots sort ahead of everything
        for v in versions:
            site = vinfo.write_site.get((entry.data, v))
            if site is not None:
                slabel, acc = site
                prod = _producer(states[slabel], acc)
                key = min(key, (sidx[slabel], sched[slabel][prod]))
        if key == (len(sidx) + 1, 0):
            key = (-1, -1)
        raw.append((key, entry, versions))
    raw.sort(key=lambda t: t[0])

    out: list[ForwardedValue] = []
    for idx, (_, entry, versions) in enumerate(raw):
        desc = program.descriptors[entry.data]
        size = size_bytes(desc, params)
        cand = entry.candidates[0]
        single = (
            len(entry.candidates) == 1
            and not cand.directives
            and not vinfo.write_loops.get((entry.data, cand.version))
        )
        # an input's own value (version 0) has no producer to recompute
        plannable = single and (entry.data, cand.version) in vinfo.write_site
        site = access = None
        forced_reason = None
        rec_plan = None
        snapshots = 1
        if plannable:
            slabel, acc = vinfo.write_site[(entry.data, cand.version)]
            site = (slabel, _producer(states[slabel], acc))
            access = acc
            try:
                rec_plan = _recompute_plan(
                    program, vinfo, pristine, entry.name, entry.data, cand.version, idx, params
                )
            except IrrecomputableValue as exc:
                forced_reason = str(exc)
        elif single:
            forced_reason = f"input '{entry.data}' is overwritten in place; its original value is kept"
        else:
            forced_reason = "value history spans loop iterations"
            snapshots = 0
            for v in versions:
                st = vinfo.write_site.get((entry.data, v))
                if st is None:  # version 0: the input itself is snapshotted
                    snapshots += 1
                else:
                    snapshots += _site_visits(program, st[0], params, limit)
        out.append(
            ForwardedValue(
                index=idx,
                name=entry.name,
                data=entry.data,
                versions=versions,
                size_bytes=size,
                snapshots=snapshots,
                site=site,
                access=access,
                forced=rec_plan is None,
                forced_reason=forced_reason,
                recompute=rec_plan,
                c_flops=rec_plan.flops if rec_plan else 0,
                r_bytes=rec_plan.peak_bytes if rec_plan else 0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# recompute blocks


def _clone_node(node, fresh: str, rename: dict[str, str], group: str):
    if isinstance(node, Tasklet):
        return Tasklet(fresh, node.ins, node.outs, dict(node.body), group=group)
    if isinstance(node, LibraryNode):
        return replace(node, id=fresh, group=group)
    if isinstance(node, MapNode):
        body = Dataflow(
            nodes=[
                AccessNode(n.id, rename.get(n.data, n.data)) if isinstance(n, AccessNode) else n
                for n in node.body.nodes
            ],
            edges=[
                Memlet(e.src, e.src_conn, e.dst, e.dst_conn, rename.get(e.data, e.data), e.subset, e.wcr)
                for e in node.body.edges
            ],
        )
        return MapNode(fresh, node.params, node.ranges, body, group=group)
    raise IrrecomputableValue(f"cannot replay node kind {type(node).__name__}")


def _recompute_plan(
    program: Program,
    vinfo: VersionInfo,
    pristine: set[str],
    stored_name: str,
    data: str,
    version: int,
    fvid: int,
    params: dict[str, int],
) -> RecomputePlan:
    """Straight-line producer closure of (data, version), rebuilt as one
    state that reads only pristine inputs and writes ``stored_name``."""
    states = {b.label: b for _, b in walk_blocks(program.region) if isinstance(b, State)}
    sidx = _state_index(program)
    sched = {label: {n: i for i, n in enumerate(schedule(st.graph))} for label, st in states.items()}

    steps: dict[tuple[str, int], tuple[str, str]] = {}
    need = [(data, version)]
    while need:
        d, v = need.pop()
        if (d, v) in steps or (d in pristine and v == 0):
            continue
        site = vinfo.write_site.get((d, v))
        if site is None:
            raise IrrecomputableValue(f"'{d}' has no replayable producer")
        if vinfo.write_loops.get((d, v)):
            raise IrrecomputableValue(f"'{d}' is produced inside a loop")
        slabel, acc = site
        nid = _producer(states[slabel], acc)
        node = states[slabel].graph.node(nid)
        for e in states[slabel].graph.in_edges(nid):
            src = states[slabel].graph.node(e.src)
            if not isinstance(src, AccessNode):
                continue
            if e.data in pristine:
                continue
            rs = vinfo.reads.get((slabel, e.src))
            if rs is None or rs.branch_merged or len(rs.candidates) != 1 or rs.candidates[0].directives:
                raise IrrecomputableValue(f"'{e.data}' read at '{slabel}' has no single static version")
            need.append((e.data, rs.candidates[0].version))
        steps[(d, v)] = (slabel, nid)

    datas = [d for d, _ in steps]
    if len(set(datas)) != len(datas):
        raise IrrecomputableValue(f"closure of '{data}' touches several versions of one array")

    rename = {d: (stored_name if (d, v) == (data, version) else f"{d}__r{fvid}") for d, v in steps}
    ordered = sorted(steps.items(), key=lambda kv: (sidx[kv[1][0]], sched[kv[1][0]][kv[1][1]]))

    graph = Dataflow()
    acc_ids: dict[str, str] = {}
    descs: dict[str, DataDescriptor] = {}

    def access_of(name: str) -> str:
        nid = acc_ids.get(name)
        if nid is None:
            nid = f"rv{len(acc_ids)}"
            acc_ids[name] = nid
            graph.nodes.append(AccessNode(nid, name))
        return nid

    for k, ((d, v), (slabel, nid)) in enumerate(ordered):
        src_graph = states[slabel].graph
        node = src_graph.node(nid)
        in_ids = {e.src for e in src_graph.in_edges(nid)}
        for e in src_graph.out_edges(nid):
            # side outputs of a multi-output node become scratch too
            rename.setdefault(e.data, f"{e.data}__r{fvid}")
        clone = _clone_node(node, f"rn{k}", rename, f"rec:{fvid}")
        for e in src_graph.in_edges(nid):
            name = rename.get(e.data, e.data)
            graph.edges.append(Memlet(access_of(name), None, clone.id, e.dst_conn, name, e.subset, e.wcr))
            if e.data in pristine:
                descs.setdefault(e.data, program.descriptors[e.data])
        graph.nodes.append(clone)
        for e in src_graph.out_edges(nid):
            if e.dst in in_ids:
                continue
            name = rename[e.data]
            graph.edges.append(Memlet(clone.id, e.src_conn, access_of(name), None, name, e.subset, e.wcr))
            base = program.descriptors[e.data]
            role = "stored-copy" if name == stored_name else "intermediate"
            descs.setdefault(name, DataDescriptor(name, base.element_kind, base.shape, role))

    st = State(label=f"rec_{stored_name}", graph=graph)
    cost_prog = Program(
        descriptors=dict(descs),
        parameters=program.parameters,
        region=[st],
        dependent=stored_name,
        independents=(),
    )
    flops = sum(count_flops(cost_prog, params).values())
    peak = _block_peak(st, descs, params, exclude=stored_name)
    return RecomputePlan(st, descs, flops, peak)


def _block_peak(state: State, descs: dict[str, DataDescriptor], params: dict[str, int], exclude: str) -> int:
    """Scratch high-water mark of one state, the produced value excluded."""
    order = schedule(state.graph)
    byid = {n.id: n for n in state.graph.nodes}
    touch: dict[str, tuple[int, int]] = {}  # name -> (first write pos, last use pos)
    for pos, nid in enumerate(order):
        if isinstance(byid[nid], AccessNode):
            continue
        for e in state.graph.in_edges(nid):
            name = e.data
            if name in touch:
                touch[name] = (touch[name][0], pos)
        for e in state.graph.out_edges(nid):
            name = e.data
            d = descs.get(name)
            if d is None or d.rank == 0 or d.role != "intermediate" or name == exclude:
                continue
            first, _ = touch.get(name, (pos, pos))
            touch[name] = (min(first, pos), pos)
    sizes = {n: size_bytes(descs[n], params) for n in touch if n in descs and descs[n].role == "intermediate" and n != exclude and descs[n].rank}
    cur = peak = 0
    for pos, nid in enumerate(order):
        if isinstance(byid[nid], AccessNode):
            continue
        for n, (first, _) in touch.items():
            if first == pos and n in sizes:
                cur += sizes[n]
        peak = max(peak, cur)
        for n, (_, last) in touch.items():
            if last == pos and n in sizes:
                cur -= sizes[n]
    return peak


# ---------------------------------------------------------------------------
# memory-event sequences


def build_memory_sequences(
    program: Program,
    bundle: BackwardBundle,
    fvs: list[ForwardedValue],
    params: dict[str, int],
    *,
    trip_limit: int | None = None,
) -> list[PathSequence]:
    """Resident-byte event sequences, one per control-flow path pair. Every
    sequence starts and ends at zero; totals are affine in the plan bits."""
    labels = branch_labels(program)
    limit = trip_limit if trip_limit is not None else default_trip_limit()
    b = _SeqBuilder(program, bundle, fvs, params, limit)
    seqs = []
    for bits in itertools.product((True, False), repeat=len(labels)):
        outcome = dict(zip(labels, bits))
        seqs.append(b.path(outcome))
    return seqs


class _SeqBuilder:
    def __init__(self, program, bundle, fvs, params, limit):
        self.program = program
        self.backward = bundle.backward
        self.fvs = fvs
        self.params = params
        self.limit = limit
        # store events fire right after the node that completes the value;
        # tape-held snapshots are charged in full when the path starts
        self.store_sites: dict[tuple[str, str], list[ForwardedValue]] = {}
        self.tape_held: list[ForwardedValue] = []
        for fv in fvs:
            if fv.site is not None:
                self.store_sites.setdefault(fv.site, []).append(fv)
            else:
                self.tape_held.append(fv)

    def path(self, outcome: dict[str, bool]) -> PathSequence:
        events: list[MemoryEvent] = []
        self._cur = ZERO
        self._balance: dict[int, AffineBytes] = {}

        def emit(label: str, delta: AffineBytes):
            if delta.is_zero:
                return
            self._cur = self._cur.add(delta)
            events.append(MemoryEvent(label, delta, self._cur))

        # --- forward
        allocated: list[tuple[str, int]] = []
        seen: set[str] = set()
        for fv in self.tape_held:
            d = AffineBytes(store=((fv.index, fv.total_bytes),))
            self._balance[fv.index] = self._balance.get(fv.index, ZERO).add(d)
            emit(f"snapshot {fv.data}", d)
        self._walk_fw(self.program.region, outcome, emit, allocated, seen)
        for name, size in reversed(allocated):
            emit(f"free {name}", AffineBytes(const=-size))

        # --- backward
        linear = []
        self._linearize_bw(self.backward.region, outcome, linear)
        first_state: dict[int, str] = {}
        last_use: dict[int, int] = {}
        touch: dict[str, tuple[int, int]] = {}
        fv_names = {fv.name: fv for fv in self.fvs}
        for pos, (slabel, _nid, reads, writes) in enumerate(linear):
            for name in reads:
                fv = fv_names.get(name)
                if fv is not None:
                    first_state.setdefault(fv.index, slabel)
                    last_use[fv.index] = pos
            for name in reads | writes:
                d = self.backward.descriptors.get(name)
                if d is None or d.rank == 0 or d.role not in ("gradient", "intermediate", "output"):
                    continue
                first, _ = touch.get(name, (pos, pos))
                touch[name] = (min(first, pos), pos)
        cur_state = None
        galloc: set[str] = set()
        for pos, (slabel, _nid, reads, writes) in enumerate(linear):
            if slabel != cur_state:
                cur_state = slabel
                for fv in self.fvs:
                    if fv.forced or first_state.get(fv.index) != slabel:
                        continue
                    emit(f"recompute {fv.name}", AffineBytes(rec=((fv.index, fv.r_bytes + fv.size_bytes),)))
                    emit(f"drop scratch {fv.name}", AffineBytes(rec=((fv.index, -fv.r_bytes),)))
                    self._balance[fv.index] = self._balance.get(fv.index, ZERO).add(
                        AffineBytes(rec=((fv.index, fv.size_bytes),))
                    )
            for name in sorted(reads | writes):
                if name in galloc or name not in touch or touch[name][0] != pos:
                    continue
                galloc.add(name)
                emit(f"alloc {name}", AffineBytes(const=size_bytes(self.backward.descriptors[name], self.params)))
            for name in sorted(reads | writes):
                if name in touch and touch[name][1] == pos and self.backward.descriptors[name].role != "output":
                    emit(f"free {name}", AffineBytes(const=-size_bytes(self.backward.descriptors[name], self.params)))
                    touch.pop(name)
            for fv in self.fvs:
                if last_use.get(fv.index) == pos:
                    bal = self._balance.pop(fv.index, ZERO)
                    emit(f"free {fv.name}", bal.neg())
        for name, (_first, _last) in sorted(touch.items()):
            if name in galloc:
                emit(f"free {name}", AffineBytes(const=-size_bytes(self.backward.descriptors[name], self.params)))
        for i in sorted(self._balance):
            fv = self.fvs[i]
            emit(f"free {fv.name}", self._balance[i].neg())
        self._balance.clear()
        if not self._cur.is_zero:
            raise GradflowError(f"internal: path accounting leaks {self._cur}")
        return PathSequence(tuple(sorted(outcome.items())), tuple(events))

    # forward side

    def _walk_fw(self, region, outcome, emit, allocated, seen):
        for block in region:
            if isinstance(block, State):
                self._fw_state(block, emit, allocated, seen)
            elif isinstance(block, LoopRegion):
                if body_runs(block, self.params, self.limit):
                    self._walk_fw(block.body, outcome, emit, allocated, seen)
            else:
                arm = block.then_body if outcome[block.label] else block.else_body
                self._walk_fw(arm, outcome, emit, allocated, seen)

    def _fw_state(self, state: State, emit, allocated, seen):
        graph = state.graph
        byid = {n.id: n for n in graph.nodes}
        for nid in schedule(graph):
            if isinstance(byid[nid], AccessNode):
                continue
            for e in graph.out_edges(nid):
                d = self.program.descriptors.get(e.data)
                if d is None or d.rank == 0 or d.role not in ("intermediate", "output"):
                    continue
                if e.data not in seen:
                    seen.add(e.data)
                    size = size_bytes(d, self.params)
                    allocated.append((e.data, size))
                    emit(f"alloc {e.data}", AffineBytes(const=size))
            for fv in self.store_sites.get((state.label, nid), ()):
                delta = AffineBytes(store=((fv.index, fv.size_bytes),))
                self._balance[fv.index] = self._balance.get(fv.index, ZERO).add(delta)
                emit(f"keep {fv.name}", delta)

    # backward side

    def _linearize_bw(self, region, outcome, out):
        for block in region:
            if isinstance(block, State):
                graph = block.graph
                byid = {n.id: n for n in graph.nodes}
                for nid in schedule(graph):
                    if isinstance(byid[nid], AccessNode):
                        continue
                    reads = {e.data for e in graph.in_edges(nid) if isinstance(byid[e.src], AccessNode)}
                    writes = {e.data for e in graph.out_edges(nid) if isinstance(byid[e.dst], AccessNode)}
                    out.append((block.label, nid, reads, writes))
            elif isinstance(block, LoopRegion):
                self._linearize_bw(block.body, outcome, out)
            else:
                key = block.trace_ref or block.label
                arm = block.then_body if outcome[key] else block.else_body
                self._linearize_bw(arm, outcome, out)


# ---------------------------------------------------------------------------
# the integer program


@dataclass
class ILPProblem:
    k: int
    costs: tuple[int, ...]  # recompute flops per value
    fixed: dict[int, int]  # variables pinned (irrecomputable -> 1)
    events: tuple[tuple[int, str, AffineBytes], ...]  # (path, label, total)
    limit_bytes: int | None
    n_paths: int


@dataclass
class ILPSolution:
    assignment: tuple[int, ...]
    objective_flops: int
    t_star: int  # peak bytes under the assignment
    nodes: int
    wall_ms: float


def build_ilp(
    fvs: list[ForwardedValue],
    sequences: list[PathSequence],
    limit_bytes: int | None,
) -> ILPProblem:
    events = tuple(
        (p, ev.label, ev.total)
        for p, seq in enumerate(sequences)
        for ev in seq.events
    )
    return ILPProblem(
        k=len(fvs),
        costs=tuple(fv.c_flops for fv in fvs),
        fixed={fv.index: 1 for fv in fvs if fv.forced},
        events=events,
        limit_bytes=limit_bytes,
        n_paths=len(sequences),
    )


def _peak(problem: ILPProblem, assignment) -> int:
    return max((t.value(assignment) for _, _, t in problem.events), default=0)


def solve_ilp(problem: ILPProblem) -> ILPSolution:
    """Exact best-first branch and bound. Ties on recompute cost resolve to
    the assignment that stores the earliest-produced values."""
    t0 = time.perf_counter()
    k = problem.k
    limit = problem.limit_bytes
    nodes = 1

    all_store = tuple(1 for _ in range(k))
    if limit is None or _peak(problem, all_store) <= limit:
        # storing everything is free in flops, so it wins whenever it fits
        ms = (time.perf_counter() - t0) * 1e3
        return ILPSolution(all_store, 0, _peak(problem, all_store), nodes, ms)

    def low_peak(partial: dict[int, int]) -> int:
        return max((t.low(partial) for _, _, t in problem.events), default=0)

    # heap entries: (objective bound, decided bits as 1-v for largest-v ties)
    heap = [(0, (), dict(problem.fixed))]
    while heap:
        obj, bits, partial = heapq.heappop(heap)
        nodes += 1
        depth = len(bits)
        if depth == k:
            assignment = tuple(1 - b for b in bits)
            if _peak(problem, assignment) <= limit:
                ms = (time.perf_counter() - t0) * 1e3
                return ILPSolution(assignment, obj, _peak(problem, assignment), nodes, ms)
            continue
        forced = problem.fixed.get(depth)
        for v in (1, 0) if forced is None else (forced,):
            child = dict(partial)
            child[depth] = v
            if low_peak(child) > limit:
                continue
            heapq.heappush(
                heap,
                (obj + (problem.costs[depth] if v == 0 else 0), bits + (1 - v,), child),
            )

    if k <= 20:
        best = min(
            _peak(problem, a)
            for a in itertools.product((1, 0), repeat=k)
            if all(a[i] == v for i, v in problem.fixed.items())
        )
    else:
        best = low_peak(dict(problem.fixed))
    raise Infeasible(
        f"no plan fits in {limit} bytes; the best achievable peak is {best} bytes",
        min_peak_bytes=best,
    )


# ---------------------------------------------------------------------------
# program rewriting


def apply_plan(
    program: Program,
    bundle: BackwardBundle,
    fvs: list[ForwardedValue],
    assignment,
) -> tuple[Program, Program]:
    """Materialize a plan: kept values gain a copy-out at their production
    site; recomputed ones gain a rebuild block right before first use."""
    fwd = copy_program(program)
    bwd = copy_program(bundle.backward)
    fstates = {b.label: b for _, b in walk_blocks(fwd.region) if isinstance(b, State)}

    for fv, v in zip(fvs, assignment):
        if fv.forced:
            continue  # snapshots already live on the tape
        if v:
            slabel, prod = fv.site
            graph = fstates[slabel].graph
            lib = LibraryNode(f"keep{fv.index}", "ew_unary", op="copy", group=f"store:{fv.index}")
            acc = AccessNode(f"keep{fv.index}_out", fv.name)
            pos = max(
                i for i, n in enumerate(graph.nodes) if n.id in (prod, fv.access)
            )
            graph.nodes[pos + 1 : pos + 1] = [lib, acc]
            graph.edges.append(Memlet(fv.access, None, lib.id, "x", fv.data, None))
            graph.edges.append(Memlet(lib.id, "y", acc.id, None, fv.name, None))
            base = fwd.descriptors[fv.data]
            fwd.descriptors[fv.name] = DataDescriptor(fv.name, base.element_kind, base.shape, "stored-copy")
        else:
            block = fv.recompute
            for name, desc in block.descriptors.items():
                bwd.descriptors.setdefault(name, desc)
            spot = _first_use(bwd.region, fv.name)
            if spot is None:
                raise GradflowError(f"internal: '{fv.name}' is never read by the reverse program")
            region, pos = spot
            region.insert(pos, copy.deepcopy(block.state))

    validate_or_raise(fwd)
    validate_or_raise(bwd)
    return fwd, bwd


def _first_use(region: list[Block], name: str):
    """(containing region list, index) of the first state reading ``name``."""
    for i, block in enumerate(region):
        if isinstance(block, State):
            if any(
                isinstance(block.graph.node(e.src), AccessNode) and e.data == name
                for e in block.graph.edges
            ):
                return region, i
        elif isinstance(block, LoopRegion):
            hit = _first_use(block.body, name)
            if hit:
                return hit
        elif isinstance(block, Conditional):
            hit = _first_use(block.then_body, name) or _first_use(block.else_body, name)
            if hit:
                return hit
    return None


# ---------------------------------------------------------------------------
# one-call planning


@dataclass
class PlanResult:
    forward: Program
    backward: Program
    solution: ILPSolution
    report: dict
    bundle: BackwardBundle = field(repr=False, default=None)
    fvs: list[ForwardedValue] = field(repr=False, default_factory=list)
    sequences: list[PathSequence] = field(repr=False, default_factory=list)


def plan(
    program: Program,
    limit_mib: float | None,
    params: dict[str, int] | None = None,
    *,
    trip_limit: int | None = None,
) -> PlanResult:
    """Choose and apply a keep-or-recompute plan under ``limit_mib``."""
    params = dict(params or {})
    bundle = build_backward(program)
    fvs = collect_forwarded(program, bundle, params, trip_limit=trip_limit)
    sequences = build_memory_sequences(program, bundle, fvs, params, trip_limit=trip_limit)
    limit_bytes = None if limit_mib is None else int(limit_mib * (1 << 20))
    problem = build_ilp(fvs, sequences, limit_bytes)
    solution = solve_ilp(problem)
    fwd, bwd = apply_plan(program, bundle, fvs, solution.assignment)
    report = {
        "values": [
            {
                "id": fv.index,
                "name": fv.name,
                "data": fv.data,
                "S_bytes": fv.size_bytes,
                "snapshots": fv.snapshots,
                "c_flops": fv.c_flops,
                "R_bytes": fv.r_bytes,
                "forced": fv.forced,
                "decision": "store" if solution.assignment[fv.index] else "recompute",
            }
            for fv in fvs
        ],
        "objective_flops": solution.objective_flops,
        "peak_bytes": solution.t_star,
        "limit_bytes": limit_bytes,
        "solver_ms": solution.wall_ms,
        "paths_checked": problem.n_paths,
    }
    return PlanResult(fwd, bwd, solution, report, bundle, fvs, sequences)


def run_planned(
    result: PlanResult,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    seed=1.0,
    trip_limit: int | None = None,
):
    """Execute a planned forward/backward pair; returns the same result shape
    as ``gradient``.

    The forward run records only what the rewritten programs cannot carry:
    scalar values and loop-iteration snapshots. Kept arrays travel by name.
    """
    keep = {
        (fv.data, v)
        for fv in result.fvs
        if fv.forced
        for v in fv.versions
    }
    scalars = {
        name: e
        for name, e in result.bundle.forwarding.items()
        if result.forward.descriptors[e.data].rank == 0
    }
    for e in scalars.values():
        keep |= {(e.data, c.version) for c in e.candidates}
    forwarding = dict(scalars)
    for fv in result.fvs:
        if fv.forced:
            forwarding[fv.name] = result.bundle.forwarding[fv.name]
    fwd_run = run_forward(
        result.forward, inputs, params,
        record=keep, trip_limit=trip_limit, vinfo=None,
    )
    stored = {
        fv.name: fwd_run.env[fv.name]
        for fv, v in zip(result.fvs, result.solution.assignment)
        if v and not fv.forced
    }
    bwd_run = run_backward(
        result.forward, result.backward, inputs, params,
        tape=fwd_run.tape, forwarding=forwarding, seed=seed,
        extra_env=stored, trip_limit=trip_limit,
    )
    grads = {}
    for ind in result.forward.independents:
        got = bwd_run.env.get(grad_name(ind))
        if got is None:
            got = np.zeros_like(np.asarray(fwd_run.env[ind]))
        grads[ind] = got
    return GradientResult(
        value=fwd_run.value, grads=grads,
        forward=fwd_run, backward=bwd_run, bundle=result.bundle,
    )
