"""Keep-or-recompute planning for reverse runs under a peak-memory budget.

The reverse pass consumes values the forward pass produced. Each one can
either stay resident from its production until its last backward use, or be
recomputed from program inputs right before it is needed. This module prices
both options per value, poses the choice as a small 0/1 program over
per-path memory-event sequences, solves it exactly, and rewrites the forward
and backward programs to execute the chosen plan.

Accounting model: payload bytes only; scalars are free; inputs and the
dependent live in the caller's context and are never counted. A forward
transient is resident from its first write to the end of the forward pass.
That charge is an upper bound on what the executor holds: a forward run
frees each intermediate after its last touch, unless its tape holds the
array itself.
Backward, an array lives from the compute node that touches it first to the
one that touches it last: ``ir.live_ranges`` over ``ir.node_accesses``, the
rule that also gives rebuild scratch and the executor's releases. A kept
value adds its bytes from production on; a recomputed one adds its scratch
peak plus its bytes at first backward use and drops the scratch right after.
``apply_plan`` lets one rebuild block write several recomputed values only
where that moves no path's modelled peak, so the model stays exact.
Both passes follow one static walk per path (``ir.path_visits``). A loop
body counts once (steady state); a loop that visits no iterate, such as a
zero-trip loop or a peel past the last iterate, counts nothing. A value the
tape holds (snapshots across loop iterations, or an input's value before it
is overwritten in place) counts all its snapshots from the start of the
forward pass: the most any path records.

Solver: each event total is one memory row, affine in the store bits. The
rows are dense int64 arrays for building, for the dominance test and for
the infeasible floor. Rows that never exceed the limit, and rows another
row dominates, are dropped before the search; the search reads the rest in
Python ints. Best-first branch and bound decides the values in production
order. Its key is the recompute flops paid so far plus a bound on the flops
still to pay (per row, the larger of a fractional-knapsack and a
cardinality bound, computed exactly), then the decided bits; so among the
cheapest plans it returns the one that stores the earliest-produced values.
The dominance mask and the knapsack tables do not depend on the limit: they
are built once per parameter binding, on first need, and kept with the rows.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import BackwardBundle, GradientResult, backward_of
from .errors import (
    GradflowError,
    Infeasible,
    IrrecomputableValue,
    UnresolvableTripCount,
)
from .interpreter import RunPlan, _node_cost, binding_of, run_backward, run_forward
from .ir import (
    AccessNode,
    Block,
    DataDescriptor,
    Dataflow,
    GraphBuilder,
    LibraryNode,
    MapNode,
    Memlet,
    Program,
    State,
    Tasklet,
    graph_names,
    live_ranges,
    node_accesses,
    path_outcomes,
    path_visits,
    pristine_inputs,
    runtime_loop,
    schedule,
    size_bytes,
    splice,
    walk_blocks,
)


# ---------------------------------------------------------------------------
# byte amounts linear in the plan variables


@dataclass(frozen=True)
class AffineBytes:
    """const + sum(store[i] * v_i) + sum(rec[i] * (1 - v_i)) bytes."""

    const: int = 0
    store: tuple[tuple[int, int], ...] = ()
    rec: tuple[tuple[int, int], ...] = ()

    def value(self, assignment) -> int:
        n = self.const
        for i, c in self.store:
            n += c * assignment[i]
        for i, c in self.rec:
            n += c * (1 - assignment[i])
        return n


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
    """A self-contained block that rebuilds one value from pristine inputs:
    its producer ``closure``, each (data, version) the value needs mapped to
    the (state, node) that writes it, run in program order. Its cost and
    scratch peak are known up front; the block itself, ``state`` and
    ``descriptors``, is built on demand (``apply_plan`` asks for those of
    the values it recomputes and checks it with the whole planned program)
    and then kept. A build that raises keeps nothing.

    One block can rebuild several values: ``build(guests)`` runs the same
    nodes but writes each array of ``guests`` (data -> stored name) under
    its stored name, not as scratch, and ``scratch(stored)`` is the scratch
    peak when the arrays in ``stored`` are not scratch. ``apply_plan``
    builds such a block anew for an assignment whose rebuilds it merges."""

    flops: int
    peak_bytes: int  # scratch high-water mark, produced value excluded
    closure: dict[tuple[str, int], tuple[str, str]] = field(repr=False, compare=False)
    scratch: Callable[[set[str]], int] = field(repr=False, compare=False)
    build: Callable[[dict[str, str]], tuple[State, dict[str, DataDescriptor]]] = field(repr=False, compare=False)

    @functools.cached_property
    def block(self) -> tuple[State, dict[str, DataDescriptor]]:
        return self.build({})

    state = property(lambda self: self.block[0])
    descriptors = property(lambda self: self.block[1])


@dataclass(frozen=True)
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


def collect_forwarded(
    program: Program,
    bundle: BackwardBundle,
    params: dict[str, int],
) -> list[ForwardedValue]:
    """One entry per array value the reverse pass needs, in forward
    production order. Scalars ride the tape for free and are skipped."""
    vinfo = bundle.vinfo
    pristine = pristine_inputs(program)
    states = _states_of(program.region)
    order = {  # (state, node) -> program position
        (label, n.id): (i, j)
        for i, (label, st) in enumerate(states.items())
        for j, n in enumerate(schedule(st.graph))
    }

    # per-call tables the producer walks and the rebuild closures share
    accesses = functools.cache(lambda label: node_accesses(states[label].graph))
    nbytes = functools.cache(lambda name: size_bytes(program.descriptors[name], params))

    @functools.cache
    def cost(label: str, nid: str) -> int:
        graph = states[label].graph
        return _node_cost(graph.node(nid), graph, program, params)

    @functools.cache
    def path_runs() -> list[list[tuple[str, int | None]]]:
        """Per path, the (state label, runs) it visits."""
        return [
            [(st.label, n) for st, _, n in path_visits(program.region, outcome, params)]
            for outcome in path_outcomes(program)
        ]

    def site_runs(visits: list[tuple[str, int | None]], label: str) -> int:
        runs = [n for st, n in visits if st == label]
        if None in runs:
            loop = runtime_loop(program.region, states[label], params)
            raise UnresolvableTripCount(f"loop '{loop}' needs runtime values to count snapshots")
        return sum(runs)

    @functools.cache
    def edges(label: str) -> tuple[dict[str, list[Memlet]], dict[str, list[Memlet]]]:
        """State ``label``'s in- and out-edges by node id, in edge order."""
        ins: dict[str, list[Memlet]] = {}
        outs: dict[str, list[Memlet]] = {}
        for e in states[label].graph.edges:
            ins.setdefault(e.dst, []).append(e)
            outs.setdefault(e.src, []).append(e)
        return ins, outs

    def producer(label: str, acc: str) -> str:
        """The compute node that completes access instance ``acc``: of its
        writers (several when conflict resolution merges them), the last in
        program position."""
        return max((e.src for e in edges(label)[0][acc]), key=lambda nid: order[label, nid])

    closures: dict[tuple[str, int], dict[tuple[str, int], tuple[str, str]]] = {}

    def closure(key: tuple[str, int]) -> dict[tuple[str, int], tuple[str, str]]:
        """The straight-line producer closure of (data, version) ``key``:
        each (data, version) it needs -> the (state, node) that writes it.
        The walk takes each forwarded value's closure from ``closures``
        once that value has been walked, so on a chain it is linear."""
        steps: dict[tuple[str, int], tuple[str, str]] = {}
        need = [key]
        while need:
            d, v = k = need.pop()
            if k in steps or (d in pristine and v == 0):
                continue
            if k in closures:
                steps.update(closures[k])
                continue
            site = vinfo.write_site.get(k)
            if site is None:
                raise IrrecomputableValue(f"'{d}' has no replayable producer")
            if vinfo.write_loops.get(k):
                raise IrrecomputableValue(f"'{d}' is produced inside a loop")
            slabel, acc = site
            nid = producer(slabel, acc)
            for e in edges(slabel)[0].get(nid, ()):  # each from an access node
                if e.data in pristine:
                    continue
                rs = vinfo.reads.get((slabel, e.src))
                if rs is None or rs.branch_merged or len(rs.candidates) != 1 or rs.candidates[0].directives:
                    raise IrrecomputableValue(f"'{e.data}' read at '{slabel}' has no single static version")
                need.append((e.data, rs.candidates[0].version))
            steps[k] = (slabel, nid)
        closures[key] = steps
        return steps

    raw = []
    for entry in bundle.forwarding.values():
        desc = program.descriptors[entry.data]
        if desc.rank == 0:
            continue
        versions = tuple(c.version for c in entry.candidates)
        sites = [vinfo.write_site.get((entry.data, v)) for v in versions]
        # input snapshots sort ahead of everything
        key = min((order[st, producer(st, acc)] for st, acc in filter(None, sites)), default=(-1, -1))
        raw.append((key, entry, versions, sites))
    raw.sort(key=lambda t: t[0])

    out: list[ForwardedValue] = []
    for idx, (_, entry, versions, sites) in enumerate(raw):
        size = nbytes(entry.data)
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
            site = (slabel, producer(slabel, acc))
            access = acc
            try:
                rec_plan = _recompute_plan(
                    program, pristine, states, order, edges, accesses, cost, nbytes,
                    closure((entry.data, cand.version)), entry.name, entry.data, cand.version, idx,
                )
            except IrrecomputableValue as exc:
                forced_reason = str(exc)
        elif single:
            forced_reason = f"input '{entry.data}' is overwritten in place; its original value is kept"
        else:
            forced_reason = "value history spans loop iterations"
            # version 0, the input itself, is one snapshot on every path
            snapshots = sites.count(None) + max(
                sum(site_runs(visits, st) for st, _ in filter(None, sites)) for visits in path_runs()
            )
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


def _recompute_plan(
    program: Program,
    pristine: set[str],
    states: dict[str, State],
    order: dict[tuple[str, str], tuple[int, int]],
    edges: Callable[[str], tuple[dict[str, list[Memlet]], dict[str, list[Memlet]]]],
    accesses: Callable[[str], dict[str, list[str]]],
    cost: Callable[[str, str], int],
    nbytes: Callable[[str], int],
    steps: dict[tuple[str, int], tuple[str, str]],
    stored_name: str,
    data: str,
    version: int,
    fvid: int,
) -> RecomputePlan:
    """The rebuild of (data, version) from its straight-line producer
    closure ``steps``, built on demand (``_rebuild_block``) as one state
    that reads only pristine inputs and writes ``stored_name``. ``order``
    gives each (state, node) its program position and ``edges`` each
    state's edges by node. The flops sum ``cost`` over the closure; the
    scratch peak is ``ir.live_ranges`` over its ``accesses`` in program
    order, with ``nbytes`` per array."""
    datas = [d for d, _ in steps]
    if len(set(datas)) != len(datas):
        raise IrrecomputableValue(f"closure of '{data}' touches several versions of one array")

    rename = {d: (stored_name if (d, v) == (data, version) else f"{d}__r{fvid}") for d, v in steps}
    ordered = sorted(steps.values(), key=order.__getitem__)
    sizes: dict[str, int] = {}  # rank >= 1 arrays the steps write
    for slabel, nid in ordered:
        for e in edges(slabel)[1][nid]:
            # side outputs of a multi-output node become scratch too
            rename.setdefault(e.data, f"{e.data}__r{fvid}")
            if program.descriptors[e.data].rank:
                sizes.setdefault(e.data, nbytes(e.data))
    flops = sum(cost(*site) for site in ordered)
    scratch = functools.partial(_scratch, [accesses(slabel)[nid] for slabel, nid in ordered], sizes)
    # the descriptors, not the program, so the program's kept values do not refer back to it
    build = functools.partial(_rebuild_block, program.descriptors, pristine, states, ordered, rename, stored_name, fvid)
    return RecomputePlan(flops, scratch({data}), steps, scratch, build)


def _scratch(touches: list[list[str]], sizes: dict[str, int], stored: set[str]) -> int:
    """Peak bytes of the arrays of ``sizes`` not in ``stored``, each from
    the first to the last of the steps (``touches``) that touches it."""
    held = [0] * (len(touches) + 1)  # bytes that start, minus bytes that end, at each step
    for name, (first, last) in live_ranges(enumerate(touches)).items():
        if name in sizes and name not in stored:
            held[first] += sizes[name]
            held[last + 1] -= sizes[name]
    return max(itertools.accumulate(held[:-1]), default=0)


def _rebuild_block(descriptors: dict[str, DataDescriptor], pristine: set[str], states: dict[str, State],
                   ordered: list[tuple[str, str]], rename: dict[str, str], stored_name: str,
                   fvid: int, guests: dict[str, str]) -> tuple[State, dict[str, DataDescriptor]]:
    """The rebuild state of a closure's (state, node) steps in program
    order, and its descriptors. It writes ``stored_name`` and each array
    of ``guests`` under its stored name; what else it writes is scratch."""
    rename = {**rename, **guests}
    stored = {stored_name, *guests.values()}
    ids = itertools.count()
    gb = GraphBuilder(lambda _: f"rv{next(ids)}")
    descs: dict[str, DataDescriptor] = {}
    for k, (slabel, nid) in enumerate(ordered):
        src_graph = states[slabel].graph
        clone = _clone_node(src_graph.node(nid), f"rn{k}", rename, f"rec:{fvid}")
        for e in src_graph.in_edges(nid):
            name = rename.get(e.data, e.data)
            gb.df.edges.append(Memlet(gb.read(name), None, clone.id, e.dst_conn, name, e.subset, e.wcr))
            if e.data in pristine:
                descs.setdefault(e.data, descriptors[e.data])
        gb.df.nodes.append(clone)
        for e in src_graph.out_edges(nid):
            name = rename[e.data]
            gb.df.edges.append(Memlet(clone.id, e.src_conn, gb.write(name), None, name, e.subset, e.wcr))
            base = descriptors[e.data]
            role = "stored-copy" if name in stored else "intermediate"
            descs.setdefault(name, DataDescriptor(name, base.element_kind, base.shape, role))
    return State(label=f"rec_{stored_name}", graph=gb.df), descs


def _states_of(region: list[Block]) -> dict[str, State]:
    return {b.label: b for _, b in walk_blocks(region) if isinstance(b, State)}


def _first_readers(region: list[Block]) -> dict[str, tuple[State, tuple[str, ...], int]]:
    """Each name -> the first state in program order that touches it, the
    labels of the blocks around that state, and its program position."""
    states = list(enumerate((path, b) for path, b in walk_blocks(region) if isinstance(b, State)))
    return {name: (b, path, pos) for pos, (path, b) in reversed(states) for name in graph_names(b.graph)}


# ---------------------------------------------------------------------------
# memory-event sequences


def build_memory_sequences(
    program: Program,
    bundle: BackwardBundle,
    fvs: list[ForwardedValue],
    params: dict[str, int],
) -> list[PathSequence]:
    """Resident-byte event sequences, one per control-flow path pair. Every
    sequence starts and ends at zero; totals are affine in the plan bits."""
    b = _SeqBuilder(program, bundle, fvs, params)
    return [b.path(outcome) for outcome in path_outcomes(program)]


class _SeqBuilder:
    def __init__(self, program, bundle, fvs, params):
        self.program = program
        self.backward = bundle.backward
        self.fvs = fvs
        self.params = params
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
        # the running total: a constant, and per value its store and
        # recompute coefficients, which are also the bytes it holds
        const = 0
        store, rec = [0] * len(self.fvs), [0] * len(self.fvs)
        terms = ((), ())  # the running total's sparse terms, as last frozen

        def emit(label: str, delta: AffineBytes):
            nonlocal const, terms
            if not (delta.const or delta.store or delta.rec):
                return  # a value's own event stays, even at zero bytes
            const += delta.const
            for i, c in delta.store:
                store[i] += c
            for i, c in delta.rec:
                rec[i] += c
            if delta.store or delta.rec:
                terms = (tuple((i, c) for i, c in enumerate(store) if c),
                         tuple((i, c) for i, c in enumerate(rec) if c))
            events.append(MemoryEvent(label, delta, AffineBytes(const, *terms)))

        def release(fv: ForwardedValue):
            i = fv.index
            emit(f"free {fv.name}", AffineBytes(store=((i, -store[i]),) if store[i] else (),
                                                rec=((i, -rec[i]),) if rec[i] else ()))

        # --- forward
        allocated: list[tuple[str, int]] = []
        seen: set[str] = set()
        for fv in self.tape_held:
            emit(f"snapshot {fv.data}", AffineBytes(store=((fv.index, fv.total_bytes),)))
        for state in self._path_states(self.program, outcome):
            self._fw_state(state, emit, allocated, seen)
        for name, size in reversed(allocated):
            emit(f"free {name}", AffineBytes(const=-size))

        # --- backward: each array lives from its first to its last touch
        steps = []  # (state label, names one compute node touches)
        for state in self._path_states(self.backward, outcome):
            acc = node_accesses(state.graph)
            steps += [(state.label, acc[n.id]) for n in schedule(state.graph) if n.id in acc]
        live = live_ranges(enumerate(names for _, names in steps))
        descs = self.backward.descriptors
        touch = {
            name: span for name, span in live.items()
            if name in descs and descs[name].rank and descs[name].role in ("gradient", "intermediate", "output")
        }
        cur_state = None
        for pos, (slabel, names) in enumerate(steps):
            if slabel != cur_state:
                cur_state = slabel
                for fv in self.fvs:
                    if fv.forced or fv.name not in live or steps[live[fv.name][0]][0] != slabel:
                        continue
                    emit(f"recompute {fv.name}", AffineBytes(rec=((fv.index, fv.r_bytes + fv.size_bytes),)))
                    emit(f"drop scratch {fv.name}", AffineBytes(rec=((fv.index, -fv.r_bytes),)))
            for name in sorted(names):
                if name in touch and touch[name][0] == pos:
                    emit(f"alloc {name}", AffineBytes(const=size_bytes(descs[name], self.params)))
            for name in sorted(names):
                if name in touch and touch[name][1] == pos and descs[name].role != "output":
                    emit(f"free {name}", AffineBytes(const=-size_bytes(descs[name], self.params)))
                    touch.pop(name)
            for fv in self.fvs:
                if fv.name in live and live[fv.name][1] == pos:
                    release(fv)
        for name in sorted(touch):
            emit(f"free {name}", AffineBytes(const=-size_bytes(descs[name], self.params)))
        for fv in self.fvs:
            release(fv)
        if const:
            raise GradflowError(f"internal: path accounting leaks {const} bytes")
        return PathSequence(tuple(sorted(outcome.items())), tuple(events))

    def _path_states(self, program: Program, outcome: dict[str, bool]) -> list[State]:
        """The states the path runs at all, each once, in program order: a
        loop body counts once (steady state), one that visits no iterate
        not at all."""
        ran = {st.label for st, _, _ in path_visits(program.region, outcome, self.params)}
        return [b for _, b in walk_blocks(program.region) if isinstance(b, State) and b.label in ran]

    # forward side

    def _fw_state(self, state: State, emit, allocated, seen):
        graph = state.graph
        for node in schedule(graph):
            if isinstance(node, AccessNode):
                continue
            nid = node.id
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
                emit(f"keep {fv.name}", AffineBytes(store=((fv.index, fv.size_bytes),)))


# ---------------------------------------------------------------------------
# the integer program


@dataclass
class ILPProblem:
    """The keep-or-recompute program. It does not depend on the memory
    budget, so ``plan()`` builds it once per parameter binding and passes
    each limit to ``solve_ilp``. ``limit_bytes`` only records a limit the
    caller of ``build_ilp`` names (perfbench's reference search reads it);
    the solver does not read it."""

    k: int
    costs: tuple[int, ...]  # recompute flops per value
    fixed: dict[int, int]  # variables pinned (irrecomputable -> 1)
    events: tuple[tuple[int, str, AffineBytes], ...]  # (path, label, total)
    n_paths: int
    rows: MemoryRows  # every event total, then the zero row of a path with no events
    keep_all_peak: int  # the peak with every value stored
    limit_bytes: int | None = None


@dataclass
class ILPSolution:
    assignment: tuple[int, ...]
    objective_flops: int
    t_star: int  # peak bytes under the assignment
    nodes: int
    wall_ms: float
    rows_kept: int = 0  # memory rows the search checked, after pruning


def build_ilp(
    fvs: list[ForwardedValue],
    sequences: list[PathSequence],
    limit_bytes: int | None = None,
) -> ILPProblem:
    events = tuple(
        (p, ev.label, ev.total)
        for p, seq in enumerate(sequences)
        for ev in seq.events
    )
    fixed = {fv.index: 1 for fv in fvs if fv.forced}
    costs = tuple(fv.c_flops for fv in fvs)
    rows = MemoryRows.of([*(t for _, _, t in events), AffineBytes()], costs, fixed)
    return ILPProblem(
        k=len(fvs),
        costs=costs,
        fixed=fixed,
        events=events,
        n_paths=len(sequences),
        rows=rows,
        keep_all_peak=int(rows.values([1] * len(fvs)).max()),
        limit_bytes=limit_bytes,
    )


class SearchRow(NamedTuple):
    """One memory row in Python ints, as the search reads it."""

    index: int  # in its MemoryRows
    top: int  # highest total under any assignment
    low: int  # lowest total under any assignment
    up: list[int]  # per value, the rise when it is stored
    down: list[int]  # per value, the rise when it is recomputed
    tail: list[int]  # suffix sums of ``up``, one per depth, then 0


class MemoryRows:
    """Event totals as dense int64 rows over the plan bits: row e holds
    ``base[e] + delta[e] @ v`` bytes, where ``base`` is the total when every
    value is recomputed and ``delta`` is store minus recompute bytes.
    ``costs`` are the recompute flops per value.

    What the search reads does not depend on the limit, so it is built on
    first need and kept with the rows: the rows no other row dominates, in
    Python ints, and their knapsack tables per depth."""

    def __init__(self, base: np.ndarray, delta: np.ndarray, costs: tuple[int, ...]):
        self.base = base
        self.delta = delta
        self.costs = costs
        self.up = np.maximum(delta, 0)  # rise when the value is stored
        self.down = np.maximum(-delta, 0)  # rise when it is recomputed
        self._undominated: list[SearchRow] | None = None
        self._tables: dict[tuple[int, int], tuple] = {}  # (row, depth) -> table(row, depth)

    @classmethod
    def of(cls, totals, costs: tuple[int, ...], fixed: dict[int, int]) -> "MemoryRows":
        """Rows of the given totals over ``len(costs)`` values, with the
        ``fixed`` values folded into ``base``."""
        k = len(costs)
        base, rows, which = [], [], []  # per total its base and its delta in rows
        terms = None
        for t in totals:
            if (t.store, t.rec) != terms:  # consecutive totals share their terms
                terms, row = (t.store, t.rec), [0] * k
                for i, c in t.store:
                    row[i] += c
                for i, c in t.rec:
                    row[i] -= c
                rows.append(row)
                rec = sum(c for _, c in t.rec)
            base.append(t.const + rec)
            which.append(len(rows) - 1)
        base = np.array(base, dtype=np.int64)
        delta = np.array(rows, dtype=np.int64).reshape(len(rows), k)[which]
        for i, v in fixed.items():
            base += v * delta[:, i]
            delta[:, i] = 0
        return cls(base, delta, costs)

    def values(self, assignment) -> np.ndarray:
        return self.base + self.delta @ np.asarray(assignment, dtype=np.int64)

    def low(self) -> np.ndarray:
        """Lowest total each row reaches under any assignment."""
        return self.base - self.down.sum(axis=1)

    def kept(self, limit: int) -> list[SearchRow]:
        """The rows that can exceed ``limit`` and that no other row
        dominates; of identical rows the first stays. Row b dominates row a
        when it is at least a under every assignment, so if a can exceed a
        limit, b can too: masking the rows undominated among all of them
        keeps what pruning the rows that can exceed the limit among
        themselves keeps."""
        if self._undominated is None:
            self._undominated = [self._search_row(r) for r in np.flatnonzero(self._dominance()).tolist()]
        return [row for row in self._undominated if row.top > limit]

    def _dominance(self) -> np.ndarray:
        """The mask of the rows no other row beats: a row beats another it
        dominates unless that one dominates it back and comes first."""
        base, delta = self.base, self.delta
        n, k = delta.shape
        keep = np.empty(n, dtype=bool)
        step = max(1, (1 << 20) // max(1, n * k))
        for lo in range(0, n, step):
            a = np.arange(lo, min(lo + step, n))
            diff = delta - delta[a, None]  # [a, b]: row b minus row a
            over = base - base[a, None] + np.minimum(diff, 0).sum(axis=2) >= 0  # b dominates a
            under = base[a, None] - base - np.maximum(diff, 0).sum(axis=2) >= 0  # a dominates b
            beaten = over & (~under | (np.arange(n) < a[:, None]))
            beaten[np.arange(len(a)), a] = False
            keep[a] = ~beaten.any(axis=1)
        return keep

    def _search_row(self, r: int) -> SearchRow:
        up, down = self.up[r].tolist(), self.down[r].tolist()
        tail = [*itertools.accumulate(reversed(up), initial=0)][::-1]
        base = int(self.base[r])
        return SearchRow(r, base + tail[0], base - sum(down), up, down, tail)

    def table(self, r: int, depth: int) -> tuple[list, list[int], list[int], list[int], list[int]]:
        """Row r's undecided values whose recompute lowers it, as (flops,
        bytes) cheapest per byte first, with running byte and flop sums;
        then the running sums of their bytes, largest first, and of their
        flops, cheapest first."""
        got = self._tables.get((r, depth))
        if got is None:
            got = self._tables[r, depth] = self._knapsack(r, depth)
        return got

    def _knapsack(self, r: int, depth: int) -> tuple:
        up, costs = self.up[r].tolist(), self.costs
        items = sorted(
            ((costs[i], up[i]) for i in range(depth, len(up)) if up[i] > 0),
            key=functools.cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]),  # exact ratios
        )
        return (
            items,
            list(itertools.accumulate(b for _, b in items)),
            [0, *itertools.accumulate(c for c, _ in items)],
            list(itertools.accumulate(sorted((b for _, b in items), reverse=True))),
            [0, *itertools.accumulate(sorted(c for c, _ in items))],
        )

    def floor(self, free: list[int], rows: list[int]) -> int:
        """Exact least highest of ``rows`` over every assignment of the
        ``free`` values, enumerated as low-bit subsets against each high-bit
        one."""
        d = self.delta[rows][:, free]

        def subset_sums(cols: np.ndarray) -> np.ndarray:
            bits = (np.arange(1 << cols.shape[1])[:, None] >> np.arange(cols.shape[1])) & 1
            return bits @ cols.T

        split = min(len(free), 12)
        low = self.base[rows] + subset_sums(d[:, :split])
        return int(min((low + h).max(axis=1).min() for h in subset_sums(d[:, split:])))


def search_bound(full: MemoryRows, rows: list[SearchRow], limit: int) -> Callable[[int, tuple], int | None]:
    """The search's ``bound(depth, low)``: a lower bound on the flops the
    undecided values still cost, None if some row alone cannot get under
    ``limit``. ``low`` holds, per row of ``rows``, the lowest total it can
    still reach."""
    tails = [(row.index, row.tail) for row in rows]
    table = full.table

    def bound(depth: int, low: tuple[int, ...]) -> int | None:
        best = 0
        for (r, tail), lo in zip(tails, low):
            need = lo + tail[depth] - limit  # bytes the row must lose
            if need <= 0:
                continue
            items, cum_bytes, cum_flops, most_bytes, least_flops = table(r, depth)
            j = bisect.bisect_left(cum_bytes, need)
            if j == len(items):
                return None
            c, b = items[j]
            rest = need - (cum_bytes[j - 1] if j else 0)
            m = bisect.bisect_left(most_bytes, need) + 1  # fewest values that can lose it
            best = max(best, cum_flops[j] - (-c * rest // b), least_flops[m])
        return best

    return bound


def solve_ilp(problem: ILPProblem, limit_bytes: int | None) -> ILPSolution:
    """Exact best-first branch and bound over the plan bits, decided in
    production order, under ``limit_bytes`` (None: no limit).

    Storing everything costs no flops, so it wins whenever it fits.
    Otherwise only the memory rows that can bind stay (``MemoryRows.kept``):
    a row whose highest value is within the limit never binds, and a
    dominated row binds only where its dominator already does. The rows are
    dense int64 arrays for building, for the dominance mask and for the
    infeasible floor; the search reads each kept row in Python ints. A
    search node carries, as a tuple, the lowest total each kept row can
    still reach; a child adds one value's rise per row, and it is pruned
    when a row exceeds the limit. The heap key adds to the flops paid so far
    an admissible bound on the flops still to pay (``search_bound``). Each
    kept row over the limit with every undecided value stored must lose
    ``need`` bytes by recomputing undecided values whose recompute lowers
    it, and gets two lower bounds on their flops: the fractional knapsack,
    rounded up in exact integers, and the cardinality bound, the flops of
    the ``m`` cheapest of those values, where ``m`` is the fewest that can
    lose ``need`` bytes (largest first). The row's bound is the larger, and
    the key's bound is the largest over the rows. The dominance mask, the
    Python rows and the knapsack tables (both bounds' running sums) do not
    depend on the limit, so they are built once per ``MemoryRows``, on
    first need.

    Ties resolve to the assignment that stores the earliest-produced values:
    keys are ``(flops + bound, decided bits as 1 - v)``. Both bounds are at
    most the flops any fitting completion pays, so every prefix of that
    assignment has a key no larger than its own, and its key is smaller than
    any other complete assignment's, so it is the first complete node popped.
    The peak ``t_star`` is taken over every event row.
    """
    t0 = time.perf_counter()
    k, limit = problem.k, limit_bytes
    nodes = 1

    peak = problem.keep_all_peak
    if limit is None or peak <= limit:
        ms = (time.perf_counter() - t0) * 1e3
        return ILPSolution((1,) * k, 0, peak, nodes, ms)

    full = problem.rows
    rows = full.kept(limit)
    bound = search_bound(full, rows, limit)
    costs = problem.costs

    low = tuple(row.low for row in rows)
    h = bound(0, low)
    heap = [] if h is None else [(h, (), 0, low)]
    while heap:
        _, bits, obj, low = heapq.heappop(heap)
        nodes += 1
        depth = len(bits)
        if depth == k:
            assignment = tuple(1 - b for b in bits)
            t_star = int(full.values(assignment).max())
            ms = (time.perf_counter() - t0) * 1e3
            return ILPSolution(assignment, obj, t_star, nodes, ms, len(rows))
        forced = problem.fixed.get(depth)
        for v in (1, 0) if forced is None else (forced,):
            child = tuple(lo + (row.up if v else row.down)[depth] for row, lo in zip(rows, low))
            h = bound(depth + 1, child)
            if h is None:
                continue
            paid = obj + (costs[depth] if v == 0 else 0)
            heapq.heappush(heap, (paid + h, bits + (1 - v,), paid, child))

    if k <= 20:
        best = full.floor([i for i in range(k) if i not in problem.fixed], [row.index for row in rows])
        raise Infeasible(
            f"no plan fits in {limit} bytes; the best achievable peak is {best} bytes",
            min_peak_bytes=best,
        )
    best = int(full.low().max())  # the per-row lower bound
    raise Infeasible(
        f"no plan fits in {limit} bytes; the peak is at least {best} bytes",
        min_peak_bytes=best, exact=False,
    )


# ---------------------------------------------------------------------------
# program rewriting


def apply_plan(
    program: Program,
    bundle: BackwardBundle,
    fvs: list[ForwardedValue],
    assignment,
    sequences: list[PathSequence],
) -> tuple[Program, Program]:
    """Materialize a plan: kept values gain a copy-out at their production
    site; recomputed ones gain their rebuild block right before the first
    backward state that reads them, in value order. ``program`` and
    ``bundle`` are left untouched: each state that gains a copy-out is built
    anew, and the returned programs share every other block with them.

    One block rebuilds several values where it can (``_merged_rebuilds``):
    a recomputed value whose producer closure holds other recomputed values
    read first at or after its block, in the same block list, also writes
    them under their stored names, and their own blocks go, when no path's
    modelled peak in ``sequences`` moves. Such a block is built anew; every
    other block is the value's kept ``RecomputePlan.state``.

    The returned programs are not validated here: ``plan()`` calls this
    once per assignment it holds a pair for, and builds the pair's run
    plans, which validate both programs as a whole (``ValidationFailed``
    if either is not valid) before the pair is kept."""
    fstates = _states_of(program.region)
    fdescs, bdescs = dict(program.descriptors), dict(bundle.backward.descriptors)
    kept: dict[str, list[ForwardedValue]] = {}  # production state -> values
    recomputed: list[ForwardedValue] = []
    for fv, v in zip(fvs, assignment):
        if fv.forced:
            continue  # snapshots already live on the tape
        if v:
            kept.setdefault(fv.site[0], []).append(fv)
            base = program.descriptors[fv.data]
            fdescs[fv.name] = DataDescriptor(fv.name, base.element_kind, base.shape, "stored-copy")
        else:
            recomputed.append(fv)

    rebuilt: dict[int, list[Block]] = {}  # id of a first reader -> rebuilds, reader
    if recomputed:
        readers = _first_readers(bundle.backward.region)
        for fv in recomputed:
            if fv.name not in readers:
                raise GradflowError(f"internal: '{fv.name}' is never read by the reverse program")
        guests = _merged_rebuilds(recomputed, readers, sequences, assignment)
        hosted = {u.index for us in guests.values() for u in us}
        for fv in recomputed:
            if fv.index in hosted:
                continue
            us = guests.get(fv.index)
            state, descs = fv.recompute.build({u.data: u.name for u in us}) if us else fv.recompute.block
            for name, desc in descs.items():
                bdescs.setdefault(name, desc)
            reader = readers[fv.name][0]
            rebuilt.setdefault(id(reader), [reader]).insert(-1, state)

    grown = {id(fstates[label]): [_copy_out_state(fstates[label], values)] for label, values in kept.items()}
    fwd = replace(program, descriptors=fdescs, region=splice(program.region, grown))
    bwd = replace(bundle.backward, descriptors=bdescs, region=splice(bundle.backward.region, rebuilt))
    return fwd, bwd


def _merged_rebuilds(
    recomputed: list[ForwardedValue],
    readers: dict[str, tuple[State, tuple[str, ...], int]],
    sequences: list[PathSequence],
    assignment,
) -> dict[int, list[ForwardedValue]]:
    """Host value index -> the recomputed values its rebuild block also
    writes, decided greedily: hosts by first reader, latest produced first,
    and their guests in the same order. Value u joins host v's block when
    (u's data, version) lies in v's closure, u's first reader sits at or
    after v's in the same block list (so no loop or branch lies between
    them), and every path of ``sequences`` keeps its peak at the
    assignment: u's bytes are held from v's recompute event, u's own spike
    goes, and v's spike counts the scratch of the merged block."""
    lists: dict[tuple[str, ...], list[ForwardedValue]] = {}  # blocks around a first reader -> values
    for fv in sorted(recomputed, key=lambda fv: (readers[fv.name][2], -fv.index)):
        lists.setdefault(readers[fv.name][1], []).append(fv)
    groups = [g for g in lists.values() if len(g) > 1]
    if not groups:
        return {}
    # per path: its peak, each event's total under the merges so far, and each event's position
    paths = []
    for seq in sequences:
        totals = [e.total.value(assignment) for e in seq.events]
        paths.append((max(totals, default=0), totals, {e.label: i for i, e in enumerate(seq.events)}))

    guests: dict[int, list[ForwardedValue]] = {}
    hosted: set[int] = set()
    for group in groups:
        for a, v in enumerate(group):
            if v.index in hosted:
                continue
            stored, scratch = {v.data}, v.r_bytes
            for u in group[a + 1:]:
                if u.index in hosted or (u.data, u.versions[0]) not in v.recompute.closure:
                    continue
                merged = v.recompute.scratch(stored | {u.data})
                trial = [_with_guest(totals, at, v, u, merged - scratch) for _, totals, at in paths]
                if any(t is None or max(t, default=0) != peak for t, (peak, _, _) in zip(trial, paths)):
                    continue
                for t, (_, totals, _) in zip(trial, paths):
                    totals[:] = t
                stored.add(u.data)
                scratch = merged
                hosted.add(u.index)
                guests.setdefault(v.index, []).append(u)
    return guests


def _with_guest(totals: list[int], at: dict[str, int], v: ForwardedValue, u: ForwardedValue,
                scratch: int) -> list[int] | None:
    """One path's event totals once v's block also writes u and its
    scratch peak changes by ``scratch`` bytes; None if the path rebuilds
    only one of them."""
    rv, ru = at.get(f"recompute {v.name}"), at.get(f"recompute {u.name}")
    if rv is None or ru is None:
        return totals if rv is ru else None
    du = at[f"drop scratch {u.name}"]
    out = list(totals)
    out[rv] += scratch
    spike = u.r_bytes + u.size_bytes
    for e in range(min(rv, ru), max(rv, du)):
        out[e] += u.size_bytes * (e >= rv) - spike * (e == ru) - u.size_bytes * (e >= du)
    return out


def _copy_out_state(state: State, values: list[ForwardedValue]) -> State:
    """``state`` with a copy of each of ``values`` right after the value is
    produced, into the array it is stored as."""
    nodes, edges = list(state.graph.nodes), list(state.graph.edges)
    for fv in values:
        lib = LibraryNode(f"keep{fv.index}", "ew_unary", op="copy", group=f"store:{fv.index}")
        acc = AccessNode(f"keep{fv.index}_out", fv.name)
        pos = max(i for i, n in enumerate(nodes) if n.id in (fv.site[1], fv.access))
        nodes[pos + 1 : pos + 1] = [lib, acc]
        edges += [Memlet(fv.access, None, lib.id, "x", fv.data, None),
                  Memlet(lib.id, "y", acc.id, None, fv.name, None)]
    return State(state.label, Dataflow(nodes, edges))


@dataclass(eq=False)
class _Pair:
    """The validated planned pair of one assignment, with the run plans of
    its replay under the binding planned (``_replay_runs``)."""

    forward: Program
    backward: Program
    runs: tuple


@dataclass
class _Planning:
    """What ``plan()`` keeps with a program for the last parameter binding
    it planned: the forwarded values, the memory sequences, the integer
    program under no limit, and the planned pair of each assignment while
    a ``PlanResult`` holds it. Nothing here refers back to the program."""

    binding: tuple
    fvs: tuple[ForwardedValue, ...]
    sequences: tuple[PathSequence, ...]
    problem: ILPProblem
    pairs: dict[tuple[int, ...], weakref.ref] = field(default_factory=dict)  # to each _Pair, see _held


def _held(pairs: dict, key: tuple, pair: _Pair) -> weakref.ref:
    """A reference to ``pair`` that drops ``pairs[key]`` when the pair goes,
    which is when no ``PlanResult`` holds it any more (a
    ``WeakValueDictionary`` costs ``plan()`` more per lookup)."""
    return weakref.ref(pair, lambda ref: pairs.pop(key) if pairs.get(key) is ref else None)


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
    pair: _Pair | None = field(repr=False, default=None)


def plan(
    program: Program,
    limit_mib: float | None,
    params: dict[str, int] | None = None,
) -> PlanResult:
    """Choose and apply a keep-or-recompute plan under ``limit_mib``.

    What does not depend on the budget is kept with ``program``: its
    backward bundle (``backward_of``) and, for the last parameter binding
    planned, the forwarded values, the memory sequences, the integer
    program with its memory rows and keep-all peak, and the planned pair
    of each assignment applied, with the run plans of its replay, for as
    long as a ``PlanResult`` holds it (``_Planning``). Each call then only
    solves that program under its limit; ``apply_plan`` builds a pair only
    for an assignment not held, its run plans validate it, and a pair that
    fails validation is not kept.

    The report's ``objective_flops`` is the model's recompute cost: each
    recomputed value pays for its whole producer closure. Where one block
    rebuilds several values (``apply_plan``), the replay runs each node of
    their closures once, so the objective bounds what it recomputes from
    above."""
    params = dict(params or {})
    bundle = backward_of(program)
    binding = binding_of(params)
    planning = program._kept.get("planning")
    if planning is None or planning.binding != binding:
        fvs = collect_forwarded(program, bundle, params)
        sequences = build_memory_sequences(program, bundle, fvs, params)
        problem = build_ilp(fvs, sequences)
        planning = program._kept["planning"] = _Planning(binding, tuple(fvs), tuple(sequences), problem)
    fvs, sequences, problem = planning.fvs, planning.sequences, planning.problem
    limit_bytes = None if limit_mib is None else int(limit_mib * (1 << 20))
    solution = solve_ilp(problem, limit_bytes)
    held = planning.pairs.get(solution.assignment)
    pair = held() if held is not None else None
    if pair is None:
        fwd, bwd = apply_plan(program, bundle, fvs, solution.assignment, sequences)
        pair = _Pair(fwd, bwd, _replay_runs(fvs, bundle, fwd, bwd, params))
        planning.pairs[solution.assignment] = _held(planning.pairs, solution.assignment, pair)
    fwd, bwd = pair.forward, pair.backward
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
        "solver_nodes": solution.nodes,
        "rows_kept": solution.rows_kept,
        "events": len(problem.events),
        "paths_checked": problem.n_paths,
    }
    return PlanResult(fwd, bwd, solution, report, bundle, list(fvs), list(sequences), pair)


def _replay_runs(fvs, bundle: BackwardBundle, forward: Program, backward: Program,
                 params: dict[str, int] | None) -> tuple[RunPlan, RunPlan]:
    """The run plans of a replay of the planned pair ``forward`` and
    ``backward``. Its forward run records, and its reverse run reads
    through its forwarding table, only the snapshots of scalar forwarded
    values and of loop iterations (forced values), which the planned
    programs cannot carry."""
    keep = {(fv.data, v) for fv in fvs if fv.forced for v in fv.versions}
    scalars = {name: e for name, e in bundle.forwarding.items() if forward.descriptors[e.data].rank == 0}
    for e in scalars.values():
        keep |= {(e.data, c.version) for c in e.candidates}
    forwarding = dict(scalars)
    for fv in fvs:
        if fv.forced:
            forwarding[fv.name] = bundle.forwarding[fv.name]
    params = params or {}
    return (RunPlan(forward, params, record=frozenset(keep), vinfo=bundle.vinfo),
            RunPlan(backward, params, forwarding=forwarding, src_program=forward))


def run_planned(
    result: PlanResult,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    seed=1.0,
):
    """Execute a planned forward/backward pair; returns the same result shape
    as ``gradient``.

    The forward run records only what the rewritten programs cannot carry:
    scalar values and loop-iteration snapshots. Kept arrays travel by name.
    The reverse run rebuilds each recomputed value in a block before its
    first reader; one block rebuilds several values of one chain where
    ``apply_plan`` merged them, and each is freed after its last read.
    Both runs go by the run plans ``plan()`` built with the pair; under any
    other parameter binding they are built anew for the call.
    """
    runs = result.pair.runs if result.pair is not None else None
    if runs is None or runs[0].binding != binding_of(params or {}):
        runs = _replay_runs(result.fvs, result.bundle, result.forward, result.backward, params)
    # the planned program only adds copy-outs, which write no version in the record
    fwd_run = run_forward(result.forward, inputs, run_plan=runs[0])
    # moved, so the reverse run's release frees them; a copy-out in an arm
    # the run did not take made none
    stored = {
        fv.name: fwd_run.env.pop(fv.name)
        for fv, v in zip(result.fvs, result.solution.assignment)
        if v and not fv.forced and fv.name in fwd_run.env
    }
    bwd_run = run_backward(
        result.forward, result.backward, inputs,
        tape=fwd_run.tape, seed=seed, extra_env=stored, run_plan=runs[1],
    )
    return GradientResult.of(result.forward, fwd_run, bwd_run, result.bundle)
