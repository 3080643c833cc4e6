"""Reference executor for programs, forward and reverse.

Arrays are numpy; element kind fixes the dtype. Every array may carry extra
*leading* batch dimensions on top of its declared shape, so a batch of
inputs evaluates in one run (the finite-difference oracle's vectorized
passes); an input the program overwrites takes the batch dimensions of the
others, and branch conditions must agree across the batch
(``BatchDivergence`` otherwise).

A run goes by a ``RunPlan``: what depends only on the (validated) program
and the parameter binding, built whole before the run. It holds each
name's shape and dtype, the names the program writes, a step list per
state (the tape records, library runs and compiled nests in schedule
order), each loop's compiled nest, the iterates of each loop whose header
reads only parameters, and a reverse run's release table; a binding under
which any of them cannot be prepared fails the build, before any state
runs. ``gradient()`` keeps its two plans with the program
for the last binding it ran, and ``plan()`` keeps them with each planned
pair; both hand them to ``run_forward`` and ``run_backward`` through
``prepared``. Any other run builds its own plan. A header that reads a
scalar or an enclosing iterator is simulated once per distinct value of the
names it reads, memoized for the run.

Execution is deterministic: states run in the schedule order, loops iterate
their simulated header sequence and maps enumerate range products in order.
Tasklets, maps and loop nests run as compiled nests: one generated Python
function per nest structure (its loops, map ranges, edges, bodies and
resolved shapes), cached for the whole process. A tasklet alone is a nest
of depth 0; a map is a ``for`` per parameter around its body; a loop whose
body holds only states of tasklets and maps, or further such loops, is a
``for`` per loop over its iterates in visit order, with no branch,
state-level library node, forwarded read or tape record inside. Any other
loop runs block by block. A nest inlines index arithmetic and bounds
checks; a loop or map nest over real64 arrays whose tasklet bodies round
alike on Python floats and numpy scalars reads and writes through flat
memoryviews with hoisted bounds checks (``nests._compiled_tasklet``). A
library node runs once on whole arrays, from the step its graph keeps
(``ir.library_steps``) and its op count and operand checks, which the plan
resolves; rank-0 operands broadcast behind their batch dimensions.
Intermediate and gradient arrays are zero-initialized on first touch, which
is also what accumulation via ``sum`` conflict resolution assumes.

Array lifetimes follow ``checkpointing``'s memory model. An input is copied
only if the running program writes it (or its dtype differs); caller arrays
are never mutated. A forward run drops its intermediates when it ends, so
its ``env`` holds inputs, outputs and stored copies. A reverse run releases
every rank >= 1 gradient, scratch array and stored copy, and every tape
snapshot it reads, by the model's last-touch rule (``ir.live_ranges``):
right after the compute node that touches it last; a last touch inside a
loop or a branch arm releases after the enclosing top-level block. Loop
headers, branch conditions and map ranges count as touches. Scalars are
never released.

A ``Tape`` holds array snapshots keyed by ``(name, static version, loop
coordinates)`` and branch outcomes per label in execution order. A forward
run records the ``(name, version)`` pairs of its ``record`` set, or keeps no
tape when ``record`` is None. A reverse run reads the tape through
forwarded value reads (resolved against snapshot candidates) and
``trace_ref`` conditionals (recorded outcomes replayed backwards). Loop
iterates are never taped: a reversed loop walks its forward header's
iterates backwards, and a read after a loop that needs its last iterate
re-simulates that forward loop's header, with the enclosing loops'
iterators at the coordinates the read resolved for them.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BatchDivergence, MissingTapeValue, ShapeMismatch, UnboundName, UnresolvableTripCount
from .ir import (
    AccessNode,
    Block,
    Conditional,
    Dataflow,
    LibraryNode,
    LibraryStep,
    LoopRegion,
    MapNode,
    Program,
    State,
    Tasklet,
    dimensions,
    graph_names,
    header_names,
    library_steps,
    live_ranges,
    node_accesses,
    path_outcomes,
    path_visits,
    runtime_loop,
    schedule,
    simulate_header,
    uniform_int,
    visit_positions,
    walk_blocks,
    written_descriptors,
)
from .nests import _compiled_tasklet, _map_range
from .symexpr import count_ops, eval_expr, free_names
from .versions import CUR, LAST, PREV, VersionInfo, analyze_versions

_DTYPE = {"real32": np.float32, "real64": np.float64}


@dataclass
class Tape:
    values: dict[tuple[str, int, tuple], np.ndarray] = field(default_factory=dict)
    branch_trace: dict[str, list[bool]] = field(default_factory=dict)


@dataclass
class RunResult:
    env: dict[str, np.ndarray]
    value: np.ndarray
    op_count: int
    tape: Tape | None = None


class _LoopCtx:
    __slots__ = ("iterates", "pos")

    def __init__(self, iterates: list[int], pos: int = 0):
        self.iterates = iterates
        self.pos = pos

    @property
    def current(self) -> int:
        return self.iterates[self.pos]


def _tasklet_ops(node: Tasklet, df: Dataflow) -> int:
    """Operators of one run of a tasklet, summed over its out-edges'
    bodies: the one count the executor and ``count_flops`` share."""
    return sum(count_ops(node.body[e.src_conn]) for e in df.out_edges(node.id))


@dataclass(frozen=True, slots=True)
class _LibraryRun:
    """A library node as its runs take it: its graph's step, its op count
    and, for an elementwise node, its operand checks (``_operand_checks``;
    None for a matmul or a sum)."""

    node: LibraryNode
    step: LibraryStep
    cost: int
    checks: tuple | None


def _visits(loop: LoopRegion, fwd: list[int]) -> list[int]:
    """The iterates the loop's body runs at, in visit order (``visit_positions``)."""
    return fwd if loop.reverse_of is None else [fwd[q] for q in visit_positions(loop, len(fwd))]


def binding_of(params: dict) -> tuple:
    """A parameter binding as a key: kept analyses and run plans are reused
    only under an equal one."""
    return tuple(sorted(params.items()))


class RunPlan:
    """What a run of ``program`` needs that depends only on the program and
    the parameter binding (see the module docstring). ``record`` and
    ``vinfo`` give a forward run its tape records; ``forwarding`` and
    ``src_program`` (whose shapes a reverse run's inputs are checked
    against) serve a reverse run. The plan is built whole: what cannot be
    prepared under ``params`` raises here. A plan refers to no program
    (``of`` is the ``id()`` of the one it runs), so a program that keeps
    plans is freed without the cycle collector."""

    def __init__(self, program: Program, params: dict[str, int], *, record=None,
                 vinfo: VersionInfo | None = None, forwarding: dict | None = None,
                 src_program: Program | None = None):
        self.of, self.params, self.binding = id(program), dict(params), binding_of(params)
        self.descriptors, self.region = program.descriptors, program.region
        if record is not None and vinfo is None:
            vinfo = analyze_versions(program)
        self.record, self.vinfo, self.forwarding = record, vinfo, forwarding or {}
        evaluated: dict = {}
        self.shapes = _shapes(program, self.params, evaluated)
        self.dtypes = {n: _DTYPE[d.element_kind] for n, d in program.descriptors.items()}
        self.declared = self.shapes if src_program is None else _shapes(src_program, self.params, evaluated)
        self.written = written_descriptors(program)
        desc = program.descriptors
        self.scalars = tuple(name for name, d in desc.items() if d.rank == 0)
        self.intermediates = tuple(name for name, d in desc.items() if d.role == "intermediate")
        self.taped = tuple(n for n, d in desc.items() if d.role == "input" and record is not None and (n, 0) in record)
        src = [b for _, b in walk_blocks(src_program.region) if isinstance(b, LoopRegion)] if src_program else []
        self.forward_loops = {b.label: b for b in src}  # for a read after a loop that has ended
        loops = [b for _, b in walk_blocks(program.region) if isinstance(b, LoopRegion)] + src
        self.headers = {id(b): sorted(header_names(b)) for b in loops}
        free = self.params.keys() - {b.iterator for b in loops}
        self.iterates: dict[int, tuple[list[int], list[int]]] = {}
        for b in loops:
            if b.iterator not in self.params and header_names(b) - {b.iterator} <= free:
                fwd = simulate_header(b, self.params)
                self.iterates[id(b)] = fwd, _visits(b, fwd)
        self.nests: dict = {}  # by loop id or (graph id, node id)
        self.steps: dict[int, tuple] = {}  # by state id
        self._prepare(program.region)
        self.releases = self._release_table()

    def shape_of(self, name: str) -> tuple[int, ...]:
        return self.shapes[name]

    def _prepare(self, region: list[Block]):
        """Prepare the blocks of ``region`` that run block by block."""
        for block in region:
            if isinstance(block, State):
                self.steps[id(block)] = self._state_steps(block)
            elif isinstance(block, LoopRegion):
                if self._nest(block) is None:
                    self._prepare(block.body)
            else:
                self._prepare(block.then_body + block.else_body)

    def _state_steps(self, state: State) -> tuple:
        """One state's steps in schedule order, each ``(run, arg, key)``: the
        run calls ``run(executor, arg)`` and then releases what the release
        table holds under ``key``. A tape record at each access node whose
        version the plan records, and a compute node's library run or
        compiled nest."""
        steps = []
        for node in schedule(state.graph):
            if isinstance(node, AccessNode):
                v = self._recorded(state.label, node)
                if v is not None:
                    steps.append((Executor._record, (node.data, v, self.vinfo.write_loops[(node.data, v)]), None))
            elif isinstance(node, LibraryNode):
                steps.append((Executor._exec_library, self._library(node, state.graph), id(node)))
            else:
                steps.append((Executor._run_nest, self._nest(node, state.graph), id(node)))
        return tuple(steps)

    def _recorded(self, state_label: str, node: AccessNode) -> int | None:
        """The version of ``node.data`` the tape records at this access node, if any."""
        if self.record is None or self.vinfo is None:
            return None
        v = self.vinfo.write_version.get((state_label, node.id))
        return v if v is not None and (node.data, v) in self.record else None

    def _library(self, node: LibraryNode, df: Dataflow) -> _LibraryRun:
        step = library_steps(df)[node.id]
        checks = None if node.kind in ("matmul", "reduce_sum") else _operand_checks(node, step, self.shape_of)
        return _LibraryRun(node, step, _library_cost(node, step, self.shape_of), checks)

    def _nest(self, root, df: Dataflow | None = None) -> tuple | None:
        """The compiled nest of a tasklet or map in ``df``, or of a loop, with
        the loops and library runs it calls back, kept in ``nests``. None
        for a loop whose body holds a branch, a state-level library node, a
        read of a forwarded name or a tape record: those run block by
        block."""
        acc = ([], [], {})  # loops, library runs, array names
        item = self._loop_item(root, acc) if df is None else self._compute_item(root, df, acc)
        nest = None
        if item is not None:
            loops, libs, names = acc
            desc = self.descriptors
            described = tuple((n, self.shape_of(n), desc[n].element_kind) if n in desc else (n, None, None) for n in names)
            nest = _compiled_tasklet((item, described)), tuple(loops), tuple(libs)
        self.nests[id(root) if df is None else (id(df), root.id)] = nest
        return nest

    def _compute_item(self, node, df: Dataflow, acc: tuple) -> tuple:
        _, libs, names = acc
        if isinstance(node, Tasklet):
            ins = tuple((e.data, e.subset, e.dst_conn) for e in df.in_edges(node.id))
            outs = tuple((e.data, e.subset, node.body[e.src_conn], e.wcr) for e in df.out_edges(node.id))
            names.update(dict.fromkeys(e[0] for e in ins + outs))
            return "tasklet", ins, outs, _tasklet_ops(node, df)
        if isinstance(node, MapNode):
            order = schedule(node.body)
            items = tuple(self._compute_item(n, node.body, acc) for n in order if not isinstance(n, AccessNode))
            return "map", node.id, node.params, node.ranges, items
        libs.append(self._library(node, df))
        return "library", len(libs) - 1, tuple(e.data for e in df.out_edges(node.id))

    def _loop_item(self, loop: LoopRegion, acc: tuple) -> tuple | None:
        loops = acc[0]
        loops.append(loop)
        j, items = len(loops) - 1, []
        for block in loop.body:
            if isinstance(block, LoopRegion):
                items.append(self._loop_item(block, acc))
                if items[-1] is None:
                    return None
                continue
            if isinstance(block, Conditional) or not self.forwarding.keys().isdisjoint(graph_names(block.graph)):
                return None
            for node in schedule(block.graph):
                if isinstance(node, AccessNode):
                    if self._recorded(block.label, node) is not None:
                        return None
                elif isinstance(node, LibraryNode):
                    return None
                else:
                    items.append(self._compute_item(node, block.graph, acc))
        return "loop", j, loop.iterator, tuple(sorted(header_names(loop))), tuple(items)

    def _release_table(self) -> tuple[dict[int, tuple], frozenset]:
        """A reverse run's release table (``releases``): by the ``id()`` of
        the top-level compute node that touches a value last, or of the
        top-level loop or branch holding its last touch, what is released
        there: names in
        ``env`` (rank >= 1 gradients, scratch arrays and stored copies) and
        ``(data, version)`` pairs, whose tape snapshots go after the last
        read of any forwarded name that shares them; and the set of those
        pairs. A step of ``ir.live_ranges`` is one compute node of a
        top-level state (``ir.node_accesses``) or one whole top-level loop
        or branch."""

        def steps():
            for block in self.region:
                if isinstance(block, State):
                    acc = node_accesses(block.graph)
                    for node in schedule(block.graph):
                        if not isinstance(node, AccessNode):
                            at.append(id(node))
                            yield len(at) - 1, acc[node.id]
                    continue
                names: set[str] = set()
                for _, b in walk_blocks([block]):
                    if isinstance(b, State):
                        names |= graph_names(b.graph)
                    elif isinstance(b, LoopRegion):
                        names |= header_names(b)
                    else:
                        names |= free_names(b.condition)
                at.append(id(block))
                yield len(at) - 1, names

        at: list[int] = []  # the id of each step's compute node or block, filled by steps()
        frees: dict[int, list] = {}
        shared: dict[tuple[str, int], int] = {}  # the step of the last read
        for name, (_, last) in live_ranges(steps()).items():
            entry = self.forwarding.get(name)
            if entry is not None:
                for c in entry.candidates:
                    key = (entry.data, c.version)
                    shared[key] = max(shared.get(key, last), last)
                continue
            d = self.descriptors.get(name)
            if d is not None and d.rank and d.role in ("gradient", "intermediate", "stored-copy"):
                frees.setdefault(at[last], []).append(name)
        for key, last in shared.items():
            frees.setdefault(at[last], []).append(key)
        return {k: tuple(keys) for k, keys in frees.items()}, frozenset(shared)


def _shapes(program: Program, params: dict[str, int], evaluated: dict) -> dict[str, tuple[int, ...]]:
    """Each name's evaluated shape. ``evaluated`` keeps one tuple per
    declared shape, so a plan's names of one shape share it."""
    shapes = {}
    for name, desc in program.descriptors.items():
        s = evaluated.get(desc.shape)
        if s is None:
            s = evaluated[desc.shape] = dimensions(desc, params)
        shapes[name] = s
    return shapes


def _operand_checks(node: LibraryNode, step: LibraryStep, shape_of) -> tuple[tuple, str | None]:
    """An elementwise node's operand checks, from shapes alone: ``(conn,
    trailing ones)`` for each rank-0 operand ahead of the first operand
    whose shape is not the output's, and that operand's ``ShapeMismatch``
    message (None if there is none)."""
    shape = shape_of(step.outs[0][0])
    pads = []
    for conn, data in step.ins:
        s = shape_of(data)
        if not s:
            pads.append((conn, (1,) * len(shape)))
        elif s != shape:
            return tuple(pads), f"'{node.id}': operand '{conn}' has shape {s}, output {shape}"
    return tuple(pads), None


class Executor:
    """One run of a program by its ``RunPlan``."""

    def __init__(self, plan: RunPlan, env: dict[str, np.ndarray], batch: tuple[int, ...], *,
                 tape: Tape | None = None, src_tape: Tape | None = None):
        self.plan = plan
        self.descriptors = plan.descriptors
        self.shape_of = plan.shape_of
        self.env = env
        self.batch = batch
        self.tape = tape
        self.src_tape = src_tape  # the forward run's tape, which a reverse run reads
        self.bind: dict = dict(plan.params)  # params + live iterators
        self.ctx: dict[str, _LoopCtx] = {}
        self.branch_down: dict[str, int] = {}
        self.op_count = 0
        self.frees: dict[int, tuple] = {}  # a reverse run's release table, see run_reverse
        self.drops: dict[tuple[str, int], list] = {}  # the tape keys of each released (data, version)
        self.memo: dict[tuple, list[int]] = {}  # iterates of headers that read scalars or iterators

    # -- shared helpers ------------------------------------------------------

    def _dtype(self, name: str):
        return self.plan.dtypes[name]

    def read_array(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is not None:
            return arr
        if name in self.plan.forwarding:
            return self._fetch_forwarded(name)
        desc = self.descriptors.get(name)
        if desc is None or desc.role == "input":
            raise UnboundName(f"no value for input '{name}'")
        return self.write_target(name)

    def write_target(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is None:
            arr = np.zeros(self.batch + self.shape_of(name), dtype=self._dtype(name))
            self.env[name] = arr
        return arr

    def _uniform_bool(self, value, where: str) -> bool:
        if isinstance(value, np.ndarray) and value.size > 1:
            flat = value.reshape(-1)
            if not bool(np.all(flat == flat[0])):
                raise BatchDivergence(f"condition of '{where}' differs across the batch")
            return bool(flat[0])
        return bool(np.asarray(value).reshape(-1)[0]) if isinstance(value, np.ndarray) else bool(value)

    def _loop_iterates(self, loop: LoopRegion, local: dict | None = None) -> list[int]:
        """The loop's simulated iterates: the plan's for a header that reads
        only parameters. Any other header reads live bindings (a nest's
        iterators in ``local``) and scalar arrays, and is memoized for the
        run on the values of the names it reads, so a loop nested in
        another simulates once per distinct header."""
        kept = self.plan.iterates.get(id(loop))
        if kept is not None:
            return kept[0]
        extra = {} if local is None else local  # then the scalars the header reads
        values = []
        for name in self.plan.headers[id(loop)]:
            if name not in extra and name not in self.bind:
                desc = self.descriptors.get(name)
                if name != loop.iterator and desc is not None and desc.rank == 0 and name in self.env:
                    extra[name] = uniform_int(self.env[name], f"scalar '{name}' in a loop header")
            values.append(extra[name] if name in extra else self.bind.get(name))
        key = (id(loop), tuple(values))
        iterates = self.memo.get(key)
        if iterates is None:
            iterates = self.memo[key] = simulate_header(loop, {**self.bind, **extra} if extra else self.bind)
        return iterates

    def _loop_visits(self, loop: LoopRegion, local: dict | None = None) -> list[int]:
        """The iterates the loop's body runs at, in visit order: a nest runs ``for i in visits``."""
        kept = self.plan.iterates.get(id(loop))
        return kept[1] if kept is not None else _visits(loop, self._loop_iterates(loop, local))

    # -- control flow --------------------------------------------------------

    def run(self):
        self._exec_region(self.plan.region)

    def run_reverse(self):
        """Run the region, releasing each array and tape snapshot where the
        plan's release table puts it: after its last touch, by the rule the
        memory model prices (``ir.live_ranges``). The tape keys of each
        released ``(data, version)`` are found once, here."""
        self.frees, shared = self.plan.releases
        if shared and self.src_tape is not None:
            for key in self.src_tape.values:
                if key[:2] in shared:
                    self.drops.setdefault(key[:2], []).append(key)
        self.run()

    def _release(self, at: int):
        for key in self.frees[at]:
            if key.__class__ is str:
                self.env.pop(key, None)
            else:
                for k in self.drops.pop(key, ()):
                    self.src_tape.values.pop(k, None)

    def _exec_region(self, region: list[Block]):
        for block in region:
            if isinstance(block, State):
                self._exec_state(block)
                continue
            if isinstance(block, LoopRegion):
                self._exec_loop(block)
            else:
                self._exec_branch(block)
            if id(block) in self.frees:  # a state releases per node
                self._release(id(block))

    def _exec_loop(self, loop: LoopRegion):
        nest = self.plan.nests[id(loop)]
        if nest is not None:
            return self._run_nest(nest)
        self._run_iterates(loop, self._loop_iterates(loop))

    def _run_iterates(self, loop: LoopRegion, fwd: list[int]):
        """Run the body at the iterates ``visit_positions`` picks. A reversed
        loop's context is its forward loop's, so forwarded reads locate
        the snapshots the forward run took."""
        label = loop.reverse_of or loop.label
        ctx = self.ctx[label] = _LoopCtx(fwd)
        had = loop.iterator in self.bind
        saved = self.bind.get(loop.iterator)
        try:
            for pos in visit_positions(loop, len(fwd)):
                ctx.pos = pos
                self.bind[loop.iterator] = fwd[pos]
                self._exec_region(loop.body)
        finally:
            del self.ctx[label]
            if had:
                self.bind[loop.iterator] = saved
            else:
                self.bind.pop(loop.iterator, None)

    def _exec_branch(self, br: Conditional):
        if br.trace_ref is not None:
            outcomes = (self.src_tape.branch_trace if self.src_tape else {}).get(br.trace_ref)
            if not outcomes:
                raise MissingTapeValue(f"no recorded outcomes for branch '{br.trace_ref}'")
            cursor = self.branch_down.get(br.trace_ref, len(outcomes)) - 1
            if cursor < 0:
                raise MissingTapeValue(f"branch trace of '{br.trace_ref}' exhausted")
            self.branch_down[br.trace_ref] = cursor
            outcome = outcomes[cursor]
        else:
            b = dict(self.bind)
            for name in self.plan.scalars:
                if name in self.env:
                    b[name] = self.env[name]
            raw = eval_expr(br.condition, b, self.env)
            outcome = self._uniform_bool(raw, br.label)
            if self.tape is not None:
                self.tape.branch_trace.setdefault(br.label, []).append(outcome)
        self._exec_region(br.then_body if outcome else br.else_body)

    # -- dataflow ------------------------------------------------------------

    def _exec_state(self, state: State):
        frees = self.frees
        for run, arg, key in self.plan.steps[id(state)]:
            run(self, arg)
            if key in frees:
                self._release(key)

    def _record(self, at: tuple):
        data, v, labels = at
        coords = tuple(self.ctx[l].current for l in labels)
        self.tape.values[(data, v, coords)] = np.array(self.read_array(data), copy=True)

    def _run_nest(self, nest: tuple):
        fn, loops, libs = nest
        ops = fn(self, loops, libs)
        self.op_count += ops  # after the call: a library node in the nest counts its own

    def _exec_library(self, run: _LibraryRun):
        node, step = run.node, run.step
        ins = {conn: self.read_array(data) for conn, data in step.ins}

        if node.kind == "matmul":
            a, b = ins["a"], ins["b"]
            if node.ta:
                a = np.swapaxes(a, -1, -2)
            if node.tb:
                b = np.swapaxes(b, -1, -2)
            if a.shape[-1] != b.shape[-2]:
                raise ShapeMismatch(f"matmul '{node.id}': inner dims {a.shape[-1]} vs {b.shape[-2]}")
            res = np.matmul(a, b)
        elif node.kind == "reduce_sum":
            x = ins["x"]
            rank = len(self.shape_of(dict(step.ins)["x"]))
            res = x.sum(axis=tuple(range(-rank, 0))) if rank else np.array(x, copy=True)
        else:  # elementwise: the node's compiled expression on whole arrays
            pads, mismatch = run.checks
            for conn, ones in pads:  # rank 0 broadcasts; its batch axes stay leading
                ins[conn] = ins[conn].reshape(ins[conn].shape + ones)
            if mismatch:
                raise ShapeMismatch(mismatch)
            res = np.asarray(step.fn(ins))
            for v in ins.values():
                if v is res:  # the output must not alias an input
                    res = np.array(res, copy=True)
                    break
        self.op_count += run.cost

        for data, wcr in step.outs:
            dtype = self._dtype(data)
            if wcr == "sum":
                tgt = self.write_target(data)
                tgt += res.astype(dtype, copy=False)
            else:
                want = self.batch + self.shape_of(data)
                out = np.asarray(res, dtype=dtype)
                if out.shape != want:
                    out = np.broadcast_to(out, want).astype(dtype)
                self.env[data] = np.array(out, copy=True) if out.base is not None else out

    # -- forwarded reads -----------------------------------------------------

    def _fetch_forwarded(self, name: str) -> np.ndarray:
        entry = self.plan.forwarding[name]
        if self.src_tape is None:
            raise MissingTapeValue(f"'{name}' requested but no tape is attached")
        for cand in entry.candidates:
            coords = self._cand_coords(cand.directives)
            if coords is None:
                continue
            key = (entry.data, cand.version, coords)
            arr = self.src_tape.values.get(key)
            if arr is not None:
                return arr
        raise MissingTapeValue(
            f"no recorded instance of '{entry.data}' matches '{name}' here"
        )

    def _cand_coords(self, directives) -> tuple | None:
        coords: list[int] = []
        for label, kind in directives:
            ctx = self.ctx.get(label)
            if kind == CUR:
                if ctx is None:
                    return None
                coords.append(ctx.current)
            elif kind == PREV:
                if ctx is None or ctx.pos == 0:
                    return None
                coords.append(ctx.iterates[ctx.pos - 1])
            elif kind == LAST:
                if ctx is None:  # the loop has ended: its forward header re-simulated, with
                    # the loops around it at the coordinates this read resolved for them
                    loops = self.plan.forward_loops
                    outer = {loops[l].iterator: c for (l, _), c in zip(directives, coords)}
                    ctx = _LoopCtx(self._loop_iterates(loops[label], outer))
                if not ctx.iterates:
                    return None
                coords.append(ctx.iterates[-1])
        return tuple(coords)


# ---------------------------------------------------------------------------
# entry points

_PREPARED: contextvars.ContextVar[tuple] = contextvars.ContextVar("prepared", default=())


@contextlib.contextmanager
def prepared(plans):
    """Within the block, ``run_forward`` and ``run_backward`` run a program
    from the one of ``plans`` built for it under the binding they are given,
    so ``gradient()`` and ``run_planned()`` hand them their kept plans with
    no parameter added; any other run builds its own."""
    token = _PREPARED.set(tuple(plans))
    try:
        yield
    finally:
        _PREPARED.reset(token)


def _plan_for(program: Program, params: dict[str, int], **how) -> RunPlan:
    binding = binding_of(params)
    for plan in _PREPARED.get():
        if plan.of == id(program) and plan.binding == binding:
            return plan
    return RunPlan(program, params, **how)


def prepare_runs(program: Program, backward: Program, params: dict[str, int] | None, *,
                 record, vinfo: VersionInfo, forwarding: dict) -> tuple[RunPlan, RunPlan]:
    """The run plans of a forward run of ``program`` that records
    ``record`` and of the reverse run of ``backward`` that reads its tape
    through ``forwarding``."""
    params = dict(params or {})
    return (RunPlan(program, params, record=record, vinfo=vinfo),
            RunPlan(backward, params, forwarding=forwarding, src_program=program))


def _prepare_inputs(program: Program, inputs: dict, plan: RunPlan) -> tuple[dict[str, np.ndarray], tuple[int, ...]]:
    """Check the inputs against ``program`` and decide the run's batch
    shape: the axes ahead of each input's declared shape, which every
    batched input must share (``ShapeMismatch`` otherwise). Returns the
    inputs that the running program (``plan``'s) declares, and the batch.
    An input is copied only if the running program writes it; a batched run
    gives such an input the batch axes."""
    env: dict[str, np.ndarray] = {}
    batch: tuple[int, ...] = ()
    for name, value in inputs.items():
        desc = program.descriptors.get(name)
        if desc is None:
            raise UnboundName(f"input '{name}' is not declared")
        shape = np.shape(value)
        declared = plan.declared[name]
        if desc.rank and shape[len(shape) - desc.rank :] != declared:
            raise ShapeMismatch(
                f"input '{name}': trailing shape {shape} does not end with {declared}"
            )
        lead = shape[: len(shape) - desc.rank]
        if lead and batch and lead != batch:
            raise ShapeMismatch(f"input '{name}' has batch shape {lead}, another input {batch}")
        batch = lead or batch
        if name in plan.descriptors:
            env[name] = np.asarray(value, dtype=_DTYPE[desc.element_kind])
    for name in plan.written & env.keys():
        arr = env[name]
        if batch and arr.ndim == plan.descriptors[name].rank:
            # an input written in place may take a different value per sample
            env[name] = np.broadcast_to(arr, batch + arr.shape).copy()
        else:
            env[name] = np.array(arr, copy=True)  # never mutate caller arrays
    return env, batch


def run_forward(
    program: Program,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    record=None,
    vinfo: VersionInfo | None = None,
) -> RunResult:
    """Execute the program. ``record`` is None (no tape) or a set of
    ``(name, version)`` pairs to snapshot; ``vinfo`` is the program's
    version analysis, computed when a tape needs it and none is given. The
    returned ``env`` holds the inputs, outputs and stored copies."""
    params = dict(params or {})
    plan = _plan_for(program, params, record=record, vinfo=vinfo)
    env, batch = _prepare_inputs(program, inputs, plan)
    tape = None
    if plan.record is not None:
        tape = Tape()
        for name in plan.taped:
            if name in env:
                # an input the program never writes is its own snapshot
                snap = env[name]
                tape.values[(name, 0, ())] = np.array(snap, copy=True) if name in plan.written else snap
    ex = Executor(plan, env, batch, tape=tape)
    ex.run()
    value = env.get(program.dependent)
    if value is None:
        raise UnboundName(f"dependent '{program.dependent}' was never written")
    for name in plan.intermediates:
        env.pop(name, None)
    return RunResult(env=env, value=value, op_count=ex.op_count, tape=tape)


def run_backward(
    program: Program,
    backward: Program,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    tape: Tape | None = None,
    forwarding: dict | None = None,
    seed=1.0,
    extra_env: dict | None = None,
) -> RunResult:
    """Run a reverse-mode program. ``inputs`` are the forward inputs (pristine
    arrays are read directly); ``extra_env`` carries materialized stored
    copies from a planned forward run and is emptied into the run;
    everything else resolves via ``tape`` and the ``forwarding`` table. The
    batch shape is the forward inputs' one, since the reverse program may
    read none of them.

    The run consumes what it holds: each stored copy, scratch array and
    gradient other than an output is released after its last touch, and
    each tape snapshot the run reads is popped from ``tape.values`` after
    its last read: the last-touch rule of ``ir.live_ranges``, which the
    memory model also prices."""
    params = dict(params or {})
    plan = _plan_for(backward, params, forwarding=forwarding, src_program=program)
    env, batch = _prepare_inputs(program, inputs, plan)
    if extra_env:
        env.update({k: np.asarray(v) for k, v in extra_env.items() if k in backward.descriptors})
        extra_env.clear()  # the run's env holds the only reference
    seed_name = program.dependent + "__grad"
    if seed_name in backward.descriptors and seed_name not in env:
        env[seed_name] = np.full(batch, seed, dtype=_DTYPE[backward.descriptors[seed_name].element_kind])
    ex = Executor(plan, env, batch, src_tape=tape)
    ex.run_reverse()
    return RunResult(env=env, value=env.get(seed_name), op_count=ex.op_count)


# ---------------------------------------------------------------------------
# static cost


def count_flops(program: Program, params: dict[str, int]) -> dict[tuple, int]:
    """Operation count per control-flow path, assuming each branch takes one
    arm for the whole execution. A path is keyed like
    ``PathSequence.outcomes``: the sorted ``(label, arm)`` pairs of every
    branch, a reversed branch under the label of the forward branch it
    replays; a branch-free program yields {(): total}. A loop whose trip
    count needs runtime values raises UnresolvableTripCount."""
    params = dict(params)
    out: dict[tuple, int] = {}
    for outcome in path_outcomes(program):
        total = 0
        for state, bind, runs in path_visits(program.region, outcome, params):
            if runs is None:
                raise UnresolvableTripCount(
                    f"loop '{runtime_loop(program.region, state, params)}' needs runtime values"
                )
            total += runs * _graph_cost(state.graph, program, bind)
        out[tuple(sorted(outcome.items()))] = total
    return out


def _graph_cost(df: Dataflow, program: Program, params: dict[str, int]) -> int:
    return sum(_node_cost(node, df, program, params) for node in df.nodes)


def _node_cost(node, df: Dataflow, program: Program, params: dict[str, int]) -> int:
    """Operations of one run of a node of ``df``; an access node costs 0."""
    if isinstance(node, Tasklet):
        return _tasklet_ops(node, df)
    if isinstance(node, LibraryNode):
        return _library_cost(node, library_steps(df)[node.id], lambda name: dimensions(program.descriptors[name], params))
    if isinstance(node, MapNode):
        body = _graph_cost(node.body, program, params)
        return body * _map_points(node, params) if body else 0
    return 0


def _library_cost(node: LibraryNode, step: LibraryStep, shape_of: Callable[[str], tuple[int, ...]]) -> int:
    """Operations of one run of a library node, from its step and the shapes
    ``shape_of`` gives its arrays: the one count the executor and
    ``count_flops`` share."""
    if node.kind == "matmul":
        arrays = dict(step.ins)
        sa, sb = shape_of(arrays["a"]), shape_of(arrays["b"])
        if node.ta:
            sa = sa[::-1]
        if node.tb:
            sb = sb[::-1]
        return 2 * sa[0] * sa[1] * sb[1]
    if node.kind == "reduce_sum":
        sx = shape_of(dict(step.ins)["x"])
        return math.prod(sx) if sx else 0
    n = math.prod(shape_of(step.outs[0][0]))
    return n * step.ops


def _map_points(node: MapNode, params: dict[str, int]) -> int:
    """Points in the map's range product, as the executor enumerates them. A
    parameter no later range reads multiplies; any other is enumerated."""
    later = [set().union(*(free_names(e) for r in node.ranges[k + 1:] for e in r)) for k in range(len(node.params))]

    def count(k: int, bind: dict[str, int]) -> int:
        if k == len(node.params):
            return 1
        points = _map_range(node.id, *(eval_expr(e, bind) for e in node.ranges[k]))
        if node.params[k] not in later[k]:
            return len(points) * count(k + 1, bind)
        return sum(count(k + 1, {**bind, node.params[k]: v}) for v in points)

    return count(0, params)
