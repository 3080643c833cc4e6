"""Reference executor for programs, forward and reverse.

Arrays are numpy; element kind fixes the dtype. Every array may carry extra
*leading* batch dimensions on top of its declared shape: all element access
goes through ``arr[..., i, j]``, so a batch of inputs evaluates in one run.
Branch conditions must agree across the batch (``BatchDivergence`` otherwise);
the finite-difference oracle leans on this to evaluate thousands of
perturbed inputs in a handful of vectorized passes.

Execution is deterministic: states run in the schedule order, loops iterate
their simulated header sequence, maps enumerate range products in order and
run their body once per point. A library node runs once on whole arrays; an
elementwise one evaluates its expression (``ir.library_expr``) with numpy,
broadcasting rank-0 operands over the output behind their batch dimensions.
Intermediate and gradient arrays are zero-initialized on first touch, which
is also what accumulation via ``sum`` conflict resolution assumes.

A ``Tape`` records what a later reverse pass may need: array snapshots keyed
by ``(name, static version, loop coordinates)``, branch outcomes per label in
execution order, and per-loop iterate sequences. Reverse-mode programs
consume the tape through two mechanisms: forwarded value reads (resolved
against snapshot candidates; a ``last`` candidate outside its loop reads the
recorded iterates) and ``trace_ref`` conditionals (replay recorded outcomes
backwards). A reversed loop needs no tape: it re-simulates its forward
header and walks the iterates backwards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BatchDivergence,
    DomainError,
    MissingTapeValue,
    OutOfBounds,
    ShapeMismatch,
    UnboundName,
    UnresolvableTripCount,
)
from .ir import (
    AccessNode,
    Block,
    Conditional,
    Dataflow,
    LibraryNode,
    LoopRegion,
    MapNode,
    Program,
    State,
    Tasklet,
    branch_labels,
    library_expr,
    schedule,
    simulate_header,
    uniform_int,
    visit_positions,
)
from .symexpr import compile_expr, count_ops, eval_expr, free_names
from .versions import CUR, LAST, PREV, VersionInfo, analyze_versions

TRIP_LIMIT_VAR = "GRADFLOW_TRIP_LIMIT"

_DTYPE = {"real32": np.float32, "real64": np.float64}


def default_trip_limit() -> int:
    raw = os.environ.get(TRIP_LIMIT_VAR)
    return int(raw) if raw else 10**9


@dataclass
class Tape:
    values: dict[tuple[str, int, tuple], np.ndarray] = field(default_factory=dict)
    branch_trace: dict[str, list[bool]] = field(default_factory=dict)
    iterate_records: dict[str, dict[tuple, list[int]]] = field(default_factory=dict)
    op_count: int = 0


@dataclass
class RunResult:
    env: dict[str, np.ndarray]
    value: np.ndarray
    op_count: int
    tape: Tape | None = None


class _LoopCtx:
    __slots__ = ("label", "iterates", "pos")

    def __init__(self, label: str, iterates: list[int], pos: int = 0):
        self.label = label
        self.iterates = iterates
        self.pos = pos

    @property
    def current(self) -> int:
        return self.iterates[self.pos]


class _TaskletPlan:
    """Precompiled element op: subset closures plus body closures."""

    __slots__ = ("ins", "outs", "flops")

    def __init__(self, node: Tasklet, df: Dataflow):
        self.ins = [
            (e.data, tuple(compile_expr(s) for s in e.subset), e.dst_conn)
            for e in df.in_edges(node.id)
        ]
        self.outs = [
            (e.data, tuple(compile_expr(s) for s in e.subset), compile_expr(node.body[e.src_conn]), e.wcr)
            for e in df.out_edges(node.id)
        ]
        self.flops = sum(count_ops(node.body[e.src_conn]) for e in df.out_edges(node.id))


class Executor:
    def __init__(
        self,
        program: Program,
        params: dict[str, int],
        env: dict[str, np.ndarray],
        *,
        trip_limit: int | None = None,
        tape: Tape | None = None,
        record=None,
        src_tape: Tape | None = None,
        forwarding: dict | None = None,
        vinfo: VersionInfo | None = None,
    ):
        self.program = program
        self.params = dict(params)
        self.env = env
        self.trip_limit = trip_limit if trip_limit is not None else default_trip_limit()
        self.tape = tape
        self.record = record
        self.src_tape = src_tape
        self.forwarding = forwarding or {}
        self.vinfo = vinfo
        self.bind: dict = dict(self.params)  # params + live iterators
        self.ctx: dict[str, _LoopCtx] = {}
        self.ctx_stack: list[_LoopCtx] = []
        self.branch_down: dict[str, int] = {}
        self.op_count = 0
        self._sched: dict[int, list] = {}
        self._plans: dict[tuple[int, str], _TaskletPlan] = {}
        self._shapes: dict[str, tuple[int, ...]] = {}

    # -- shared helpers ------------------------------------------------------

    def shape_of(self, name: str) -> tuple[int, ...]:
        s = self._shapes.get(name)
        if s is None:
            desc = self.program.descriptors[name]
            s = tuple(int(eval_expr(d, self.params)) for d in desc.shape)
            self._shapes[name] = s
        return s

    def _dtype(self, name: str):
        return _DTYPE[self.program.descriptors[name].element_kind]

    def _batch_shape(self) -> tuple[int, ...]:
        for name, arr in self.env.items():
            desc = self.program.descriptors.get(name)
            if desc is None:
                continue
            extra = arr.ndim - desc.rank
            if extra > 0:
                return arr.shape[:extra]
        return ()

    def read_array(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is not None:
            return arr
        if name in self.forwarding:
            return self._fetch_forwarded(name)
        desc = self.program.descriptors.get(name)
        if desc is None or desc.role == "input":
            raise UnboundName(f"no value for input '{name}'")
        arr = np.zeros(self._batch_shape() + self.shape_of(name), dtype=self._dtype(name))
        self.env[name] = arr
        return arr

    def write_target(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is None:
            arr = np.zeros(self._batch_shape() + self.shape_of(name), dtype=self._dtype(name))
            self.env[name] = arr
        return arr

    def _uniform_bool(self, value, where: str) -> bool:
        if isinstance(value, np.ndarray) and value.size > 1:
            flat = value.reshape(-1)
            if not bool(np.all(flat == flat[0])):
                raise BatchDivergence(f"condition of '{where}' differs across the batch")
            return bool(flat[0])
        return bool(np.asarray(value).reshape(-1)[0]) if isinstance(value, np.ndarray) else bool(value)

    def _header_bindings(self, loop: LoopRegion) -> dict:
        """The live bindings plus the scalar arrays the header reads.
        ``simulate_header`` copies its bindings, so the live dict itself
        serves a header that reads no scalar."""
        need = (
            free_names(loop.init) | free_names(loop.bound) | free_names(loop.update)
        ) - {loop.iterator} - self.bind.keys()
        scalars = {}
        for name in sorted(need):
            desc = self.program.descriptors.get(name)
            if desc is not None and desc.rank == 0 and name in self.env:
                scalars[name] = uniform_int(self.env[name], f"scalar '{name}' in a loop header")
        return {**self.bind, **scalars} if scalars else self.bind

    # -- control flow --------------------------------------------------------

    def run(self):
        self._exec_region(self.program.region)

    def _exec_region(self, region: list[Block]):
        for block in region:
            if isinstance(block, State):
                self._exec_state(block)
            elif isinstance(block, LoopRegion):
                self._exec_loop(block)
            else:
                self._exec_branch(block)

    def _exec_loop(self, loop: LoopRegion):
        iterates = simulate_header(loop, self._header_bindings(loop), self.trip_limit)
        if self.tape is not None and loop.reverse_of is None:
            key = tuple(c.current for c in self.ctx_stack)
            self.tape.iterate_records.setdefault(loop.label, {})[key] = list(iterates)
        self._run_iterates(loop, iterates)

    def _run_iterates(self, loop: LoopRegion, fwd: list[int]):
        """Run the body at the iterates ``visit_positions`` picks. A reversed
        loop's context is its forward loop's, so forwarded reads locate
        the snapshots the forward run took."""
        label = loop.reverse_of or loop.label
        ctx = _LoopCtx(label, fwd)
        self.ctx[label] = ctx
        self.ctx_stack.append(ctx)
        had = loop.iterator in self.bind
        saved = self.bind.get(loop.iterator)
        try:
            for pos in visit_positions(loop, len(fwd)):
                ctx.pos = pos
                self.bind[loop.iterator] = fwd[pos]
                self._exec_region(loop.body)
        finally:
            self.ctx_stack.pop()
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
            for name, desc in self.program.descriptors.items():
                if desc.rank == 0 and name in self.env:
                    b[name] = self.env[name]
            raw = eval_expr(br.condition, b, self.env)
            outcome = self._uniform_bool(raw, br.label)
            if self.tape is not None:
                self.tape.branch_trace.setdefault(br.label, []).append(outcome)
        self._exec_region(br.then_body if outcome else br.else_body)

    # -- dataflow ------------------------------------------------------------

    def _schedule(self, df: Dataflow) -> list:
        key = id(df)
        order = self._sched.get(key)
        if order is None:
            by_id = {n.id: n for n in df.nodes}
            order = [by_id[nid] for nid in schedule(df)]
            self._sched[key] = order
        return order

    def _exec_state(self, state: State):
        for node in self._schedule(state.graph):
            if isinstance(node, AccessNode):
                self._visit_access(state.label, node)
            else:
                self._exec_compute(node, state.graph)

    def _visit_access(self, state_label: str, node: AccessNode):
        if self.tape is None or self.vinfo is None:
            return
        v = self.vinfo.write_version.get((state_label, node.id))
        if v is None or not self._want(node.data, v):
            return
        labels = self.vinfo.write_loops[(node.data, v)]
        coords = tuple(self.ctx[l].current for l in labels)
        self.tape.values[(node.data, v, coords)] = np.array(
            self.read_array(node.data), copy=True
        )

    def _want(self, data: str, version: int) -> bool:
        if self.record == "all":
            return True
        return self.record is not None and (data, version) in self.record

    def _exec_compute(self, node, df: Dataflow):
        if isinstance(node, Tasklet):
            self._exec_tasklet(node, df)
        elif isinstance(node, LibraryNode):
            self._exec_library(node, df)
        else:
            self._exec_map(node, df)

    def _index(self, name: str, subset_fns, shape: tuple[int, ...]) -> tuple[int, ...]:
        idx = []
        for k, fn in enumerate(subset_fns):
            i = uniform_int(fn(self.bind), f"subset of '{name}'")
            if not 0 <= i < shape[k]:
                raise OutOfBounds(f"'{name}' index {i} outside dimension of size {shape[k]}")
            idx.append(i)
        return tuple(idx)

    def _exec_tasklet(self, node: Tasklet, df: Dataflow):
        key = (id(df), node.id)
        plan = self._plans.get(key)
        if plan is None:
            plan = _TaskletPlan(node, df)
            self._plans[key] = plan
        vals = {}
        for data, fns, conn in plan.ins:
            arr = self.read_array(data)
            idx = self._index(data, fns, self.shape_of(data))
            v = arr[(Ellipsis, *idx)]
            # rank-0 reads alias the backing array; outputs may overwrite it
            vals[conn] = np.array(v, copy=True) if isinstance(v, np.ndarray) else v
        for data, fns, body_fn, wcr in plan.outs:
            res = body_fn(vals)
            arr = self.write_target(data)
            idx = self._index(data, fns, self.shape_of(data))
            if wcr == "sum":
                arr[(Ellipsis, *idx)] += res
            else:
                arr[(Ellipsis, *idx)] = res
        self.op_count += plan.flops

    def _exec_library(self, node: LibraryNode, df: Dataflow):
        ins = {e.dst_conn: self.read_array(e.data) for e in df.in_edges(node.id)}
        out_edges = df.out_edges(node.id)
        in_shapes = {e.dst_conn: self.shape_of(e.data) for e in df.in_edges(node.id)}

        if node.kind == "matmul":
            a, b = ins["a"], ins["b"]
            if node.ta:
                a = np.swapaxes(a, -1, -2)
            if node.tb:
                b = np.swapaxes(b, -1, -2)
            if a.shape[-1] != b.shape[-2]:
                raise ShapeMismatch(
                    f"matmul '{node.id}': inner dims {a.shape[-1]} vs {b.shape[-2]}"
                )
            res = np.matmul(a, b)
            sa = in_shapes["a"][::-1] if node.ta else in_shapes["a"]
            sb = in_shapes["b"][::-1] if node.tb else in_shapes["b"]
            self.op_count += 2 * sa[0] * sa[1] * sb[1]
        elif node.kind == "reduce_sum":
            x = ins["x"]
            rank = self.program.descriptors[df.in_edges(node.id)[0].data].rank
            res = x.sum(axis=tuple(range(-rank, 0))) if rank else np.array(x, copy=True)
            self.op_count += int(np.prod(in_shapes["x"], dtype=np.int64)) if rank else 0
        else:  # elementwise: the node's scalar expression on whole arrays
            shape = self.shape_of(out_edges[0].data)
            for conn, s in in_shapes.items():
                if not s:
                    # rank 0 broadcasts; its batch axes stay leading
                    ins[conn] = ins[conn].reshape(ins[conn].shape + (1,) * len(shape))
                elif s != shape:
                    raise ShapeMismatch(
                        f"'{node.id}': operand '{conn}' has shape {s}, output {shape}"
                    )
            expr = library_expr(node)
            res = np.asarray(eval_expr(expr, ins))
            if any(res is v for v in ins.values()):
                res = np.array(res, copy=True)  # the output must not alias an input
            self.op_count += count_ops(expr) * int(np.prod(shape, dtype=np.int64))

        for e in out_edges:
            dtype = self._dtype(e.data)
            if e.wcr == "sum":
                tgt = self.write_target(e.data)
                tgt += res.astype(dtype, copy=False)
            else:
                batch = self._batch_shape()
                want = batch + self.shape_of(e.data)
                out = np.asarray(res, dtype=dtype)
                if out.shape != want:
                    out = np.broadcast_to(out, want).astype(dtype)
                self.env[e.data] = np.array(out, copy=True) if out.base is not None else out

    def _exec_map(self, node: MapNode, df: Dataflow):
        order = self._schedule(node.body)
        range_fns = [tuple(compile_expr(p) for p in r) for r in node.ranges]
        saved = {p: self.bind.get(p) for p in node.params if p in self.bind}

        def run_level(k: int):
            if k == len(node.params):
                for inner in order:
                    if not isinstance(inner, AccessNode):
                        self._exec_compute(inner, node.body)
                return
            f0, f1, f2 = range_fns[k]
            p = node.params[k]
            for v in _map_range(node, f0(self.bind), f1(self.bind), f2(self.bind)):
                self.bind[p] = v
                run_level(k + 1)

        try:
            run_level(0)
        finally:
            for p in node.params:
                if p in saved:
                    self.bind[p] = saved[p]
                else:
                    self.bind.pop(p, None)

    # -- forwarded reads -----------------------------------------------------

    def _fetch_forwarded(self, name: str) -> np.ndarray:
        entry = self.forwarding[name]
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
        for j, (label, kind) in enumerate(directives):
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
                if ctx is not None:
                    coords.append(ctx.iterates[-1])
                else:
                    recs = (self.src_tape.iterate_records if self.src_tape else {}).get(label)
                    if not recs:
                        return None
                    seq = recs.get(tuple(coords[:j]))
                    if not seq:
                        return None
                    coords.append(seq[-1])
        return tuple(coords)


# ---------------------------------------------------------------------------
# entry points


def _prepare_inputs(program: Program, inputs: dict, params: dict) -> dict[str, np.ndarray]:
    env: dict[str, np.ndarray] = {}
    for name, value in inputs.items():
        desc = program.descriptors.get(name)
        if desc is None:
            raise UnboundName(f"input '{name}' is not declared")
        arr = np.asarray(value, dtype=_DTYPE[desc.element_kind])
        declared = tuple(int(eval_expr(d, params)) for d in desc.shape)
        if desc.rank and arr.shape[arr.ndim - desc.rank :] != declared:
            raise ShapeMismatch(
                f"input '{name}': trailing shape {arr.shape} does not end with {declared}"
            )
        # the program may overwrite its inputs; never mutate caller arrays
        env[name] = np.array(arr, copy=True)
    return env


def run_forward(
    program: Program,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    record=None,
    trip_limit: int | None = None,
    vinfo: VersionInfo | None = None,
) -> RunResult:
    """Execute the program. ``record`` is None (no tape), "all", or a set of
    ``(name, version)`` pairs to snapshot."""
    params = dict(params or {})
    env = _prepare_inputs(program, inputs, params)
    tape = None
    if record is not None:
        tape = Tape()
        if vinfo is None:
            vinfo = analyze_versions(program)
        for name, desc in program.descriptors.items():
            if desc.role == "input" and name in env and _want0(record, name):
                tape.values[(name, 0, ())] = np.array(env[name], copy=True)
    ex = Executor(
        program, params, env,
        trip_limit=trip_limit, tape=tape, record=record, vinfo=vinfo,
    )
    ex.run()
    value = env.get(program.dependent)
    if value is None:
        raise UnboundName(f"dependent '{program.dependent}' was never written")
    if tape is not None:
        tape.op_count = ex.op_count
    return RunResult(env=env, value=value, op_count=ex.op_count, tape=tape)


def _want0(record, name: str) -> bool:
    return record == "all" or (name, 0) in record


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
    trip_limit: int | None = None,
) -> RunResult:
    """Run a reverse-mode program. ``inputs`` are the forward inputs (pristine
    arrays are read directly); ``extra_env`` carries materialized stored
    copies from a planned forward run; everything else resolves via ``tape``
    and the ``forwarding`` table."""
    params = dict(params or {})
    env = _prepare_inputs(backward, {k: v for k, v in inputs.items() if k in backward.descriptors}, params)
    if extra_env:
        for k, v in extra_env.items():
            if k in backward.descriptors:
                env[k] = np.asarray(v)
    seed_name = program.dependent + "__grad"
    if seed_name in backward.descriptors and seed_name not in env:
        batch = ()
        for name, arr in env.items():
            desc = backward.descriptors.get(name)
            if desc is not None and arr.ndim > desc.rank:
                batch = arr.shape[: arr.ndim - desc.rank]
                break
        env[seed_name] = np.full(batch, seed, dtype=_DTYPE[backward.descriptors[seed_name].element_kind])
    ex = Executor(
        backward, params, env,
        trip_limit=trip_limit, src_tape=tape, forwarding=forwarding,
    )
    ex.run()
    return RunResult(env=env, value=env.get(seed_name), op_count=ex.op_count)


# ---------------------------------------------------------------------------
# static cost


def count_flops(program: Program, params: dict[str, int], trip_limit: int | None = None) -> dict[tuple, int]:
    """Operation count per control-flow path, assuming each branch takes one
    arm for the whole execution. Paths are keyed by ((label, outcome), ...)
    in program order; a branch-free program yields {(): total}."""
    params = dict(params)
    limit = trip_limit if trip_limit is not None else default_trip_limit()
    branch_labels(program)  # raises PathExplosion past MAX_BRANCHES

    def region_cost(region: list[Block]) -> dict[tuple, int]:
        total: dict[tuple, int] = {(): 0}
        for block in region:
            total = _cross(total, block_cost(block))
        return total

    def block_cost(block: Block) -> dict[tuple, int]:
        if isinstance(block, State):
            return {(): _graph_cost(block.graph, program, params)}
        if isinstance(block, LoopRegion):
            try:
                iterates = simulate_header(block, params, limit)
                iterates = [iterates[p] for p in visit_positions(block, len(iterates))]
            except UnboundName as exc:
                raise UnresolvableTripCount(
                    f"loop '{block.label}' needs runtime values: {exc}"
                ) from None
            try:
                inner = region_cost(block.body)
            except (UnboundName, UnresolvableTripCount):
                inner = None
            if inner is not None:
                return {p: c * len(iterates) for p, c in inner.items()}
            # body cost depends on the iterate (triangular nests): sum per trip
            total: dict[tuple, int] | None = None
            had, saved = block.iterator in params, params.get(block.iterator)
            try:
                for i in iterates:
                    params[block.iterator] = i
                    once = region_cost(block.body)
                    if total is None:
                        total = once
                    else:
                        for p, c in once.items():
                            total[p] = total.get(p, 0) + c
            finally:
                if had:
                    params[block.iterator] = saved
                else:
                    params.pop(block.iterator, None)
            return total if total is not None else {(): 0}
        then_c = region_cost(block.then_body)
        else_c = region_cost(block.else_body)
        out: dict[tuple, int] = {}
        for p, c in then_c.items():
            out[((block.label, True),) + p] = c
        for p, c in else_c.items():
            out[((block.label, False),) + p] = c
        return out

    return region_cost(program.region)


def _cross(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    return {pa + pb: ca + cb for pa, ca in a.items() for pb, cb in b.items()}


def _graph_cost(df: Dataflow, program: Program, params: dict[str, int]) -> int:
    total = 0
    for node in df.nodes:
        if isinstance(node, Tasklet):
            total += sum(count_ops(e) for e in node.body.values())
        elif isinstance(node, LibraryNode):
            total += _library_cost(node, df, program, params)
        elif isinstance(node, MapNode):
            body = _graph_cost(node.body, program, params)
            if body:
                total += body * _map_points(node, params)
    return total


def _library_cost(node: LibraryNode, df: Dataflow, program: Program, params: dict[str, int]) -> int:
    def shape(conn: str) -> tuple[int, ...]:
        for e in df.in_edges(node.id):
            if e.dst_conn == conn:
                desc = program.descriptors[e.data]
                return tuple(int(eval_expr(d, params)) for d in desc.shape)
        raise KeyError(conn)

    if node.kind == "matmul":
        sa, sb = shape("a"), shape("b")
        if node.ta:
            sa = sa[::-1]
        if node.tb:
            sb = sb[::-1]
        return 2 * sa[0] * sa[1] * sb[1]
    if node.kind == "reduce_sum":
        sx = shape("x")
        return int(np.prod(sx, dtype=np.int64)) if sx else 0
    out = program.descriptors[df.out_edges(node.id)[0].data]
    n = int(np.prod([int(eval_expr(d, params)) for d in out.shape], dtype=np.int64))
    return n * count_ops(library_expr(node))


def _map_range(node: MapNode, start, stop, step) -> range:
    """One map parameter's range from its evaluated start, stop and step."""
    start = uniform_int(start, f"map '{node.id}' start")
    stop = uniform_int(stop, f"map '{node.id}' stop")
    step = uniform_int(step, f"map '{node.id}' step")
    if step <= 0:
        raise DomainError(f"map '{node.id}' step must be positive, got {step}")
    return range(start, stop, step)


def _map_points(node: MapNode, params: dict[str, int]) -> int:
    """Points in the map's range product, as the executor enumerates them."""
    independent = True
    for k, (start, stop, step) in enumerate(node.ranges):
        used = free_names(start) | free_names(stop) | free_names(step)
        if used & set(node.params[:k]):
            independent = False
            break
    if independent:
        total = 1
        for r in node.ranges:
            total *= len(_map_range(node, *(eval_expr(e, params) for e in r)))
        return total
    count = 0
    bind = dict(params)

    def rec(k: int):
        nonlocal count
        if k == len(node.params):
            count += 1
            return
        for v in _map_range(node, *(eval_expr(e, bind) for e in node.ranges[k])):
            bind[node.params[k]] = v
            rec(k + 1)
        bind.pop(node.params[k], None)

    rec(0)
    return count
