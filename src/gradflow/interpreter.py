"""Reference executor for programs, forward and reverse.

Arrays are numpy; element kind fixes the dtype. Every array may carry extra
*leading* batch dimensions on top of its declared shape, so a batch of
inputs evaluates in one run (the finite-difference oracle's vectorized
passes); an input the program overwrites takes the batch dimensions of the
others, and branch conditions must agree across the batch
(``BatchDivergence`` otherwise).

A run goes by a ``RunPlan``, the one door to execution: it validates an
unmarked program (``ir.validated``) and holds what depends only on the
program and the parameter binding, built whole before the run: each
name's shape and dtype, the names the program mutates, each state's
generated function with its arguments, each loop's compiled nest, the
iterates of each loop whose header reads only parameters, and the run's
release table. A program that is not valid, or a binding under which
any of them cannot be prepared, fails the build, before any state runs; so
the run trusts a valid program. One rule builds the two plans of a replay
(``autodiff._replay_plans``) and keeps them with its reverse program for
the last binding it ran, and one runner runs them (``autodiff._replay``),
for ``gradient()`` and for ``checkpointing.run_planned``. A plan is the only
place a run's tape is configured: what a forward run records (``record``,
``vinfo``) and the table a reverse run reads it through
(``forwarding``). A forward run given no plan builds its
own, which records nothing; a reverse run always takes one. A header
that reads a scalar or an enclosing iterator is simulated once per
distinct value of the names it reads, memoized for the run.

Execution is deterministic: states run in the schedule order, loops iterate
their simulated header sequence and maps enumerate range products in order.
Nothing in a state is interpreted. Each state runs as one generated Python
function (``nests._compiled_state``), cached for the whole process by the
state's structure: its nodes in schedule order, their arrays' names,
resolved shapes and dtypes, and where the run releases. The function
inlines each library node, each tape record and each release, adds the
state's op count once, and calls the compiled nest of each tasklet or map.
A library node runs once on whole arrays, as code written from the step its
graph keeps (``ir.library_steps``) with its op count and operand checks
resolved by the plan; rank-0 operands broadcast behind their batch
dimensions. One emitter writes that code for a state and for a map body
alike (``nests._library_lines``). Tasklets, maps and loop nests run as
compiled nests: one generated function per nest structure (its loops, map
ranges, edges, bodies and resolved shapes). A tasklet alone is a nest of
depth 0; a map is a ``for`` per parameter around its body; a loop whose
body holds only states of tasklets and maps, or further such loops, is a
``for`` per loop over its iterates in visit order, with no branch,
state-level library node, forwarded read or tape record inside. Any other
loop runs block by block. A nest inlines index arithmetic and bounds
checks; a loop or map nest over real64 arrays whose tasklet bodies round
alike on Python floats and numpy scalars reads and writes through flat
memoryviews with hoisted bounds checks (``nests._compiled_tasklet``).
Intermediate and gradient arrays are zero-initialized on first touch, which
is also what accumulation via ``sum`` conflict resolution assumes.

Array lifetimes follow ``checkpointing``'s memory model. A name is
*mutated* when a tasklet, a map or a ``wcr="sum"`` write may change its
array in place (``ir.mutated_descriptors``); any other write is a library
node's, which gives the name a new array. An input is copied only if the
running program mutates it (or its dtype differs); caller arrays are never
changed. Both passes release by one last-touch rule (``ir.live_ranges``):
right after the compute node that touches an array last; a last touch
inside a loop or a branch arm releases after the enclosing top-level
block. Loop headers, branch conditions, map ranges and tape records count
as touches. A forward run releases every rank >= 1 intermediate except one
its tape holds as the array itself, which popping would not free; it keeps
outputs, so its ``env`` ends with inputs and outputs. A reverse run
releases every rank >= 1 gradient, scratch array and rebuilt value, and
every tape snapshot it reads: one taken outside any loop by its tape key,
the snapshots of a value taken in a loop by the keys the run finds on the
tape when it starts. Scalars are never released.

A ``Tape`` holds array snapshots keyed by ``(name, static version, loop
coordinates)`` and branch outcomes per label in execution order. A forward
run records the ``(name, version)`` pairs of its ``record`` set, or keeps no
tape when ``record`` is None. A snapshot is a copy only of a mutated name;
any other is the array itself, which no later write changes, so an array
the forward run holds and the tape keeps is held once. A reverse run reads
the tape through forwarded value reads (resolved against snapshot
candidates) and ``trace_ref`` conditionals (recorded outcomes replayed
backwards). Loop iterates are never taped: a reversed loop walks its
forward header's iterates backwards, and a read after a loop that needs
its last iterate re-simulates that forward loop's header, with the
enclosing loops' iterators at the coordinates the read resolved for them.
"""

from __future__ import annotations

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
    mutated_descriptors,
    node_accesses,
    path_outcomes,
    path_visits,
    runtime_loop,
    schedule,
    simulate_header,
    uniform_int,
    validated,
    visit_positions,
    walk_blocks,
)
from .nests import _compiled_state, _compiled_tasklet, _map_range, library_item, loop_step
from .symexpr import count_ops, eval_expr, free_names
from .versions import CUR, LAST, PREV, VersionInfo, analyze_versions

_DTYPE = {"real32": np.float32, "real64": np.float64}


@dataclass(slots=True)
class Tape:
    """Snapshots by ``(name, version, loop coordinates)``: a copy of a
    mutated name's array, else the array itself; and each branch's outcomes
    in execution order."""

    values: dict[tuple[str, int, tuple], np.ndarray] = field(default_factory=dict)
    branch_trace: dict[str, list[bool]] = field(default_factory=dict)


@dataclass(slots=True)
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


def _visits(loop: LoopRegion, fwd: list[int]) -> list[int]:
    """The iterates the loop's body runs at, in visit order (``visit_positions``)."""
    return fwd if loop.reverse_of is None else [fwd[q] for q in visit_positions(loop, len(fwd))]


def binding_of(params: dict) -> tuple:
    """A parameter binding as a key: kept analyses and run plans are reused
    only under an equal one."""
    return tuple(sorted(params.items()))


class RunPlan:
    """What a run of ``program`` needs that depends only on the program and
    the parameter binding (see the module docstring). ``mutated`` holds the
    names whose snapshots and inputs a run copies
    (``ir.mutated_descriptors``). ``record`` and ``vinfo`` give a forward
    run its tape records; ``forwarding`` and ``src_program`` (whose shapes
    a reverse run's inputs are checked against) serve a reverse run. The
    two plans of a replay, ``gradient()``'s or a planned one, take both
    from one rule (``autodiff._replay_plans``), which keeps them with the
    replay's reverse program. Both runs have a release table
    (``releases``). The plan is built whole: an unmarked ``program`` that
    is not valid (``ValidationFailed``) and what cannot be prepared under
    ``params`` raise here. A plan refers to no program, so a program that
    keeps plans is freed without the cycle collector."""

    def __init__(self, program: Program, params: dict[str, int], *, record=None,
                 vinfo: VersionInfo | None = None, forwarding: dict | None = None,
                 src_program: Program | None = None):
        self.params, self.binding = dict(params), binding_of(params)
        validated(program)
        self.descriptors, self.region = program.descriptors, program.region
        if record is not None and vinfo is None:
            vinfo = analyze_versions(program)
        self.record, self.vinfo, self.forwarding = record, vinfo, forwarding or {}
        evaluated: dict = {}
        self.shapes = _shapes(program, self.params, evaluated)
        self.dtypes = {n: _DTYPE[d.element_kind] for n, d in program.descriptors.items()}
        self.declared = self.shapes if src_program is None else _shapes(src_program, self.params, evaluated)
        self.mutated = mutated_descriptors(program)
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
        if src_program is None:  # a forward run keeps outputs and what its tape holds
            by_reference = {n for n, _ in record or ()} - self.mutated
            released = {n for n in self.intermediates if desc[n].rank and n not in by_reference}
        else:
            released = {n for n, d in desc.items() if d.rank and d.role in ("gradient", "intermediate", "stored-copy")}
        self.releases = self._release_table(released)
        self.nests: dict = {}  # by loop id or (graph id, node id)
        self.states: dict[int, tuple] = {}  # by state id
        self._prepare(program.region)

    def shape_of(self, name: str) -> tuple[int, ...]:
        return self.shapes[name]

    def _prepare(self, region: list[Block]):
        """Prepare the blocks of ``region`` that run block by block."""
        for block in region:
            if isinstance(block, State):
                self.states[id(block)] = self._state(block)
            elif isinstance(block, LoopRegion):
                if self._nest(block) is None:
                    self._prepare(block.body)
            else:
                self._prepare(block.then_body + block.else_body)

    def _state(self, state: State) -> tuple:
        """One state's compiled function (``nests._compiled_state``) and its
        arguments, from its nodes in schedule order: a tape record at each
        access node whose version the plan records, and a compute node's
        library code or compiled nest, each marked where the release table
        releases after it."""
        frees = self.releases[0]
        key, args = [], []
        for node in schedule(state.graph):
            at = id(node) if id(node) in frees else None
            if isinstance(node, AccessNode):
                v = self._recorded(state.label, node)
                if v is not None:
                    loops = self.vinfo.write_loops[(node.data, v)]
                    key.append((("record", node.data, loops, node.data in self.mutated), at is not None))
                    args.append((v, at))
                continue
            if isinstance(node, LibraryNode):
                key.append((self._library(node, state.graph), at is not None))
                args.append(at)
            else:
                writes = tuple(dict.fromkeys(e.data for e in state.graph.out_edges(node.id)))
                key.append((("nest", writes), at is not None))
                args.append((*self._nest(node, state.graph), at))
        return _compiled_state(tuple(key)), tuple(args)

    def _recorded(self, state_label: str, node: AccessNode) -> int | None:
        """The version of ``node.data`` the tape records at this access node, if any."""
        if self.record is None or self.vinfo is None:
            return None
        v = self.vinfo.write_version.get((state_label, node.id))
        return v if v is not None and (node.data, v) in self.record else None

    def _library(self, node: LibraryNode, df: Dataflow) -> tuple:
        step = library_steps(df)[node.id]
        return library_item(node, step, self.shape_of, self.descriptors, _library_cost(node, step, self.shape_of))

    def _nest(self, root, df: Dataflow | None = None) -> tuple | None:
        """The compiled nest of a tasklet or map in ``df``, or of a loop, with
        the loops it calls back, kept in ``nests``. None for a loop whose
        body holds a branch, a state-level library node, a read of a
        forwarded name or a tape record: those run block by block."""
        acc = ([], {})  # loops, array names
        item = self._loop_item(root, acc) if df is None else self._compute_item(root, df, acc)
        nest = None
        if item is not None:
            loops, names = acc
            desc = self.descriptors
            described = tuple((n, self.shape_of(n), desc[n].element_kind) for n in names)
            nest = _compiled_tasklet((item, described)), tuple(loops)
        self.nests[id(root) if df is None else (id(df), root.id)] = nest
        return nest

    def _compute_item(self, node, df: Dataflow, acc: tuple) -> tuple:
        names = acc[1]
        if isinstance(node, Tasklet):
            ins = tuple((e.data, e.subset, e.dst_conn) for e in df.in_edges(node.id))
            outs = tuple((e.data, e.subset, node.body[e.src_conn], e.wcr) for e in df.out_edges(node.id))
            names.update(dict.fromkeys(e[0] for e in ins + outs))
            return "tasklet", ins, outs, _tasklet_ops(node, df)
        if isinstance(node, MapNode):
            order = schedule(node.body)
            items = tuple(self._compute_item(n, node.body, acc) for n in order if not isinstance(n, AccessNode))
            return "map", node.id, node.params, node.ranges, items
        return self._library(node, df)

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
        return "loop", j, loop.iterator, tuple(sorted(header_names(loop))), loop_step(loop), tuple(items)

    def _release_table(self, released: set[str]) -> tuple[dict[int, tuple], frozenset]:
        """The run's release table (``releases``): by the ``id()`` of the
        top-level compute node or tape record that touches a value last, or
        of the top-level loop or branch holding its last touch, what is
        released there: the names of ``released`` in ``env`` (a forward
        run's rank >= 1 intermediates that its tape holds by copy or not at
        all; a reverse run's rank >= 1 gradients, scratch arrays and rebuilt
        values) and the tape snapshots of each ``(data, version)`` after the
        last read of any forwarded name that shares them: a snapshot taken
        outside any loop by its tape key ``(data, version, ())``, the
        snapshots taken in a loop by the pair, whose keys the run collects
        from the tape (``Executor.drops``); and the set of those pairs. A
        step of ``ir.live_ranges`` is one compute node of a top-level state
        (``ir.node_accesses``), one tape record there, or one whole
        top-level loop or branch."""

        def steps():
            for block in self.region:
                if isinstance(block, State):
                    acc = node_accesses(block.graph)
                    for node in schedule(block.graph):
                        if not isinstance(node, AccessNode):
                            names = acc[node.id]
                        elif self._recorded(block.label, node) is not None:
                            names = (node.data,)  # a tape record reads the array
                        else:
                            continue
                        at.append(id(node))
                        yield len(at) - 1, names
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
        shared: dict[tuple, int] = {}  # the step of the last read
        for name, (_, last) in live_ranges(steps()).items():
            entry = self.forwarding.get(name)
            if entry is not None:
                for c in entry.candidates:
                    # a snapshot taken outside any loop has one tape key
                    key = (entry.data, c.version) if c.directives else (entry.data, c.version, ())
                    shared[key] = max(shared.get(key, last), last)
                continue
            if name in released:
                frees.setdefault(at[last], []).append(name)
        for key, last in shared.items():
            frees.setdefault(at[last], []).append(key)
        return {k: tuple(keys) for k, keys in frees.items()}, frozenset(k for k in shared if len(k) == 2)


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


class Executor:
    """One run of a program by its ``RunPlan``. It, the ``Tape`` and the
    run results keep their fields in slots: CPython sizes an instance dict
    by the instances of its class made before, so the bytes a run allocates
    would shrink over a process's first few dozen runs."""

    __slots__ = ("plan", "descriptors", "shape_of", "env", "batch", "tape", "src_tape", "bind", "ctx",
                 "branch_down", "op_count", "frees", "drops", "memo")

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
        self.frees = plan.releases[0]  # the release table, see run
        self.drops: dict[tuple[str, int], list] = {}  # the tape keys of each (data, version) taken in a loop
        self.memo: dict[tuple, list[int]] = {}  # iterates of headers that read scalars or iterators

    # -- shared helpers ------------------------------------------------------

    def read_array(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is not None:
            return arr
        if name in self.plan.forwarding:
            return self._fetch_forwarded(name)
        if self.descriptors[name].role == "input":
            raise UnboundName(f"no value for input '{name}'")
        return self.write_target(name)

    def write_target(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is None:
            arr = np.zeros(self.batch + self.shape_of(name), dtype=self.plan.dtypes[name])
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
        """Run the region. The run releases each array and tape snapshot
        where its plan's release table puts it: after its last touch
        (``ir.live_ranges``). A snapshot taken outside any loop goes by its
        own tape key; the keys of each ``(data, version)`` taken in a loop
        are found once, here."""
        shared = self.plan.releases[1]
        if shared and self.src_tape is not None:
            for key in self.src_tape.values:
                if key[:2] in shared:
                    self.drops.setdefault(key[:2], []).append(key)
        self._exec_region(self.plan.region)

    def _release(self, at: int):
        for key in self.frees[at]:
            if key.__class__ is str:
                self.env.pop(key, None)
            elif len(key) == 3:
                self.src_tape.values.pop(key, None)
            else:
                for k in self.drops.pop(key, ()):
                    self.src_tape.values.pop(k, None)

    def _exec_region(self, region: list[Block]):
        for block in region:
            if isinstance(block, State):
                fn, args = self.plan.states[id(block)]
                self.op_count += fn(self, args)  # it releases per node
                continue
            if isinstance(block, LoopRegion):
                self._exec_loop(block)
            else:
                self._exec_branch(block)
            if id(block) in self.frees:
                self._release(id(block))

    def _exec_loop(self, loop: LoopRegion):
        nest = self.plan.nests[id(loop)]
        if nest is not None:
            fn, loops = nest
            self.op_count += fn(self, loops)
            return
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

def _prepare_inputs(program: Program, inputs: dict, plan: RunPlan) -> tuple[dict[str, np.ndarray], tuple[int, ...]]:
    """Check the inputs against ``program`` and decide the run's batch
    shape: the axes ahead of each input's declared shape, which every
    batched input must share (``ShapeMismatch`` otherwise). Returns the
    inputs that the running program (``plan``'s) declares, and the batch.
    An input is copied only if the running program mutates it
    (``plan.mutated``): one that a library node replaces is held as given,
    since the write gives the name a new array. A batched run gives a
    copied input the batch axes."""
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
    for name in plan.mutated & env.keys():
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
    run_plan: RunPlan | None = None,
) -> RunResult:
    """Execute the program by ``run_plan``, built for ``program``; without
    one, by a plan built here under ``params`` that records nothing; with
    one, ``params`` is not read. A plan whose ``record`` is a set of
    ``(name, version)`` pairs keeps a tape of them, each a copy only if the
    program mutates the name (``RunPlan.mutated``); else the snapshot is
    the array itself, an input's version 0 the array the run was given.
    The run frees each intermediate after its last touch, or when it ends
    if the tape holds it by reference; the returned ``env`` holds the
    inputs and outputs. ``gradient()`` and a planned replay
    (``checkpointing.run_planned``) make such a run of the program itself,
    by a plan that records what the reverse program reads from the tape
    (``autodiff._replay_plans``)."""
    plan = run_plan or RunPlan(program, dict(params or {}))
    env, batch = _prepare_inputs(program, inputs, plan)
    tape = None
    if plan.record is not None:
        tape = Tape()
        for name in plan.taped:
            if name in env:
                snap = env[name]
                tape.values[(name, 0, ())] = np.array(snap, copy=True) if name in plan.mutated else snap
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
    *,
    run_plan: RunPlan,
    tape: Tape | None = None,
    seed=1.0,
) -> RunResult:
    """Run the reverse-mode program ``backward`` of ``program`` by
    ``run_plan``, built for ``backward`` with ``src_program=program`` and
    the ``forwarding`` table through which the run reads ``tape``: every
    forwarded value, or for a planned replay each one the plan keeps.
    ``inputs`` are the forward inputs (pristine arrays are read directly).
    The batch shape is the forward inputs' one, since the reverse program
    may read none of them.

    The run consumes what it holds: each rebuilt value, scratch array and
    gradient other than an output is released after its last touch, and
    each tape snapshot the run reads is popped from ``tape.values`` after
    its last read: the last-touch rule of ``ir.live_ranges``, which the
    memory model also prices."""
    env, batch = _prepare_inputs(program, inputs, run_plan)
    seed_name = program.dependent + "__grad"
    if seed_name in backward.descriptors and seed_name not in env:
        env[seed_name] = np.full(batch, seed, dtype=_DTYPE[backward.descriptors[seed_name].element_kind])
    ex = Executor(run_plan, env, batch, src_tape=tape)
    ex.run()
    return RunResult(env=env, value=env.get(seed_name), op_count=ex.op_count)


# ---------------------------------------------------------------------------
# static cost


def count_flops(program: Program, params: dict[str, int]) -> dict[tuple, int]:
    """Operation count per control-flow path, assuming each branch takes one
    arm for the whole execution. A path is keyed like
    ``PathSequence.outcomes``: the sorted ``(label, arm)`` pairs of every
    branch, a reversed branch under the label of the forward branch it
    replays; a branch-free program yields {(): total}. An unmarked program
    is validated first (``ValidationFailed``); a loop whose trip count
    needs runtime values raises UnresolvableTripCount."""
    validated(program)
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
