"""Dataflow IR: programs made of states, loops and branches over named arrays.

A ``Program`` owns data descriptors and a tree of control-flow blocks. Each
``State`` holds an acyclic dataflow graph whose nodes are access nodes (one
*instance* per version touched, ordered by the node list) and compute nodes
(tasklets, library nodes, maps). Edges are memlets: they move one element
(explicit subset) or a whole array (subset ``None``, library nodes only), and
may carry ``sum`` conflict resolution instead of overwriting.

Invariants enforced by :func:`validate`:

* graphs are acyclic within a state, including write-after-read ordering
  between successive access instances of the same array;
* tasklet bodies reference only declared input connectors;
* tasklet bodies and ``ew_expr`` payloads use no condition-only syntax;
* a loop body never writes the loop iterator or any name free in the header;
* ``skip``/``take`` appear only on reversed loops, with skip >= 0, take >= 1;
* branch conditions are comparisons over scalars, elements and parameters.
* a matmul's operands are matrices (rank 2).

Every pass that assembles graphs does so through :class:`GraphBuilder`:
``frontend.ProgramBuilder`` for its states and map bodies, the reverse
pass for the reversed states and their adjoint maps, and the planner for
its rebuild blocks. It holds the two assembly rules: a read reuses the
array's current access instance and a write opens a new one, and a map
has one edge per array its body reads or writes, whose write edge
carries ``sum`` only when every body write does.

Each program is checked once, as a whole, by :func:`validate_or_raise`,
which marks a valid program so. It is checked where it enters:
``frontend.parse_program`` (and ``load_program``) and
``ProgramBuilder.finish`` validate what they build, and
``autodiff.build_backward`` marks the reverse program it has checked.
An unmarked program (one made by ``dataclasses.replace`` or the
``Program`` constructor, such as a planned reverse program) is checked
where it is used, by :func:`validated`: ``autodiff.backward_of`` before
it differentiates it and ``interpreter.RunPlan`` before it runs it. So
everything past those doors trusts a valid program, and repeating a plan
whose result is held validates nothing.

A built ``Program`` is a value: no pass changes it. A pass that rewrites a
few states builds those states anew and rebuilds the program around them
with :func:`splice`, which shares every other block, graph and node. A
built graph keeps its :func:`schedule` and its prepared library steps
(:func:`library_steps`) once computed, so every program and every run that
shares the graph shares them. Each program keeps the analyses that do not
depend on a memory budget: its backward bundle
(``autodiff.backward_of``); for the last parameter binding planned, its
forwarded values, memory sequences, the budget-free part of the integer
program and the planned reverse program of each assignment, while a
``PlanResult`` holds it (``checkpointing.plan``); and, as a replay's
reverse program, the run plans of that replay's forward and reverse runs
(``interpreter.RunPlan``) for the last parameter binding it ran under
(``autodiff._replay_plans``). Nothing a program keeps refers back to it. So
neither a graph nor a program may be edited after it is built;
``dataclasses.replace`` makes a new program that starts with nothing kept.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Union

import numpy as np

from .errors import (
    BatchDivergence,
    Diagnostic,
    DomainError,
    NonTermination,
    PathExplosion,
    UnboundName,
    UnresolvableTripCount,
    ValidationFailed,
)
from .symexpr import (
    Binary,
    Const,
    Expr,
    Index,
    Name,
    Unary,
    contains_compare_or_index,
    count_ops,
    eval_expr,
    foreign_constant,
    free_names,
    is_condition,
)

ELEMENT_WIDTH = {"real32": 4, "real64": 8}
ROLES = ("input", "output", "intermediate", "gradient", "stored-copy")

EW_UNARY_OPS = ("sin", "cos", "exp", "log", "sqrt", "tanh", "abs", "neg", "sign", "scale", "copy")
EW_BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")
# every combination of branch outcomes is a path; beyond this many branches
# the per-path cost and memory models refuse the program
MAX_BRANCHES = 16
# a loop header that yields more iterates than this raises NonTermination
TRIP_LIMIT = 10**9


@dataclass(frozen=True)
class DataDescriptor:
    name: str
    element_kind: str  # real32 | real64
    shape: tuple[Expr, ...]  # () for scalars
    role: str

    @property
    def rank(self) -> int:
        return len(self.shape)


def dimensions(desc: DataDescriptor, bindings: dict[str, int]) -> tuple[int, ...]:
    """The descriptor's shape evaluated under ``bindings``. A dimension that
    is not a whole number at least 0 raises UnresolvableTripCount."""
    out = []
    for dim in desc.shape:
        d = eval_expr(dim, bindings)
        if not float(d).is_integer() or d < 0:
            raise UnresolvableTripCount(f"dimension of '{desc.name}' evaluated to {d}")
        out.append(int(d))
    return tuple(out)


def size_bytes(desc: DataDescriptor, bindings: dict[str, int]) -> int:
    """Payload bytes: element width times the product of evaluated dims."""
    n = ELEMENT_WIDTH[desc.element_kind]
    for d in dimensions(desc, bindings):
        n *= d
    return n


# ---------------------------------------------------------------------------
# dataflow nodes


@dataclass
class AccessNode:
    id: str
    data: str


@dataclass
class Tasklet:
    id: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    body: dict[str, Expr]  # one expression per output connector
    group: str | None = None


@dataclass
class LibraryNode:
    """Whole-array op: matmul (a,b)->c, reduce_sum x->y, ew_unary x->y,
    ew_binary (a,b)->c, and ew_expr, which applies the scalar expression
    ``expr`` elementwise: its input connectors are the expression's free
    names, its output connector is y. ``op`` selects the ew_unary/ew_binary
    function; ``const`` parameterizes ``scale``; ``ta``/``tb`` transpose
    matmul operands."""

    id: str
    kind: str
    op: str | None = None
    const: float | None = None
    ta: bool = False
    tb: bool = False
    group: str | None = None
    expr: Expr | None = None


@dataclass
class MapNode:
    """Parallel region: ``body`` runs once per point of the range product.
    Later ranges may reference earlier parameters (triangular spaces)."""

    id: str
    params: tuple[str, ...]
    ranges: tuple[tuple[Expr, Expr, Expr], ...]  # (start, stop, step), step > 0
    body: "Dataflow"
    group: str | None = None


ComputeNode = Union[Tasklet, LibraryNode, MapNode]
Node = Union[AccessNode, ComputeNode]

LIB_CONNECTORS = {
    "matmul": (("a", "b"), ("c",)),
    "reduce_sum": (("x",), ("y",)),
    "ew_unary": (("x",), ("y",)),
    "ew_binary": (("a", "b"), ("c",)),
    "ew_expr": ((), ("y",)),  # inputs: the free names of the expression
}


def library_connectors(node: LibraryNode) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(input connectors, output connectors) of a library node."""
    if node.kind == "ew_expr" and node.expr is not None:
        return tuple(sorted(free_names(node.expr))), ("y",)
    return LIB_CONNECTORS.get(node.kind, ((), ()))


def library_expr(node: LibraryNode) -> Expr:
    """The scalar expression an elementwise node applies to every element,
    over its input connector names: the payload of ``ew_expr``, ``(op a b)``
    for ``ew_binary``, ``x`` for copy, ``(mul c x)`` for scale and ``(op x)``
    for every other unary op. ``node``'s op is known: ``check_graph``
    refuses any other before a caller gets here.

    This is the one definition of the elementwise ops: the executor
    evaluates it on whole arrays, the cost model counts its operators and
    the differentiator derives the node's adjoints from it.
    """
    if node.kind == "ew_expr":
        return node.expr
    if node.kind == "ew_binary":
        return Binary(node.op, Name("a"), Name("b"))
    if node.op == "copy":
        return Name("x")
    if node.op == "scale":
        return Binary("mul", Const(node.const), Name("x"))
    return Unary(node.op, Name("x"))


@dataclass
class Memlet:
    src: str
    src_conn: str | None
    dst: str
    dst_conn: str | None
    data: str
    subset: tuple[Expr, ...] | None  # None = whole array (library edges)
    wcr: str | None = None  # None (overwrite) or "sum"


@dataclass
class Dataflow:
    nodes: list[Node] = field(default_factory=list)
    edges: list[Memlet] = field(default_factory=list)
    _order: tuple[Node, ...] | None = field(default=None, init=False, repr=False, compare=False)  # see schedule
    _steps: dict | None = field(default=None, init=False, repr=False, compare=False)  # see library_steps

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def in_edges(self, node_id: str) -> list[Memlet]:
        return [e for e in self.edges if e.dst == node_id]

    def out_edges(self, node_id: str) -> list[Memlet]:
        return [e for e in self.edges if e.src == node_id]


class GraphBuilder:
    """One graph under assembly, named by ``fresh(prefix)``, and the current
    access instance of each array in it. A read reuses an array's current
    instance, opening one if it has none; a node's writes open one new
    instance per array they write."""

    def __init__(self, fresh: Callable[[str], str]):
        self.fresh = fresh
        self.df = Dataflow()
        self.current: dict[str, str] = {}

    def read(self, data: str) -> str:
        nid = self.current.get(data)
        return self.write(data) if nid is None else nid

    def write(self, data: str) -> str:
        nid = self.fresh("a")
        self.df.nodes.append(AccessNode(nid, data))
        self.current[data] = nid
        return nid

    def library(self, node: Node, ins: dict, outs: dict, wcr: str | None = None) -> str:
        """Add ``node`` after the instances it reads, then its edges: ``ins``
        and ``outs`` map each connector to an array (a whole-array edge) or
        to an ``(array, subset)`` pair, and every write carries ``wcr``."""
        ins = {c: _operand(b) for c, b in ins.items()}
        outs = {c: _operand(b) for c, b in outs.items()}
        srcs = {c: self.read(data) for c, (data, _) in ins.items()}
        self.df.nodes.append(node)
        for c, (data, subset) in ins.items():
            self.df.edges.append(Memlet(srcs[c], None, node.id, c, data, subset))
        self.write_edges(node.id, [(c, data, subset, wcr) for c, (data, subset) in outs.items()])
        return node.id

    def write_edges(self, nid: str, outs: list[tuple]):
        """Add node ``nid``'s write edges, one per ``(connector, array,
        subset, wcr)`` in order, into one new instance per array."""
        dst = {data: self.write(data) for data in dict.fromkeys(data for _, data, *_ in outs)}
        self.df.edges += [Memlet(nid, c, dst[data], None, data, subset, wcr) for c, data, subset, wcr in outs]

    def map(self, node: MapNode) -> str:
        """Add ``node`` with one edge per array its body reads and one per
        array it writes; a write edge carries ``sum`` only when every body
        write of that array does."""
        body = node.body
        self.df.nodes.append(node)
        for data in sorted(data_read(body)):
            self.df.edges.append(Memlet(self.read(data), None, node.id, None, data, None))
        for data in sorted(data_written(body)):
            wcrs = {e.wcr for e in body.edges if e.data == data and e.src_conn is not None}
            self.df.edges.append(Memlet(node.id, None, self.write(data), None, data, None,
                                        "sum" if wcrs == {"sum"} else None))
        return node.id


def _operand(binding) -> tuple[str, tuple[Expr, ...] | None]:
    return binding if isinstance(binding, tuple) else (binding, None)


# ---------------------------------------------------------------------------
# control-flow blocks


@dataclass
class State:
    label: str
    graph: Dataflow = field(default_factory=Dataflow)


@dataclass
class LoopRegion:
    """``for iterator = init; iterator cmp bound; iterator = update``.

    A loop with ``reverse_of`` set is the reversal of the forward loop of
    that label, made by the differentiator. It keeps the forward header:
    execution simulates it and runs the body from the last iterate back to
    the first. A peel, an iteration that needs its own adjoint body, is such
    a loop that skips the last ``skip`` iterates and runs at most ``take``
    of the rest (``None``: all of them).
    """

    label: str
    iterator: str
    init: Expr
    bound: Expr
    cmp: str  # "<" or ">"
    update: Expr
    body: list["Block"] = field(default_factory=list)
    reverse_of: str | None = None
    skip: int = 0
    take: int | None = None


@dataclass
class Conditional:
    """Two-armed branch. ``trace_ref`` marks a reversed conditional: instead
    of evaluating ``condition`` it consumes the recorded outcome of forward
    branch ``trace_ref`` (in reverse execution order)."""

    label: str
    condition: Expr
    then_body: list["Block"] = field(default_factory=list)
    else_body: list["Block"] = field(default_factory=list)
    trace_ref: str | None = None


Block = Union[State, LoopRegion, Conditional]


@dataclass
class Program:
    descriptors: dict[str, DataDescriptor]
    parameters: tuple[str, ...]
    region: list[Block]
    dependent: str
    independents: tuple[str, ...]
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # see the module docstring


def splice(region: list[Block], states: dict[int, list[Block]]) -> list[Block]:
    """``region`` with each state ``s`` for which ``states`` holds ``id(s)``
    replaced by the blocks it maps to. A loop or branch is rebuilt around
    its bodies only when one of them changed; every other block, and every
    graph and node not replaced, is shared."""
    out: list[Block] = []
    for block in region:
        if isinstance(block, State):
            out += states.get(id(block), (block,))
        elif isinstance(block, LoopRegion):
            body = splice(block.body, states)
            out.append(block if _same(body, block.body) else replace(block, body=body))
        else:
            then, other = splice(block.then_body, states), splice(block.else_body, states)
            same = _same(then, block.then_body) and _same(other, block.else_body)
            out.append(block if same else replace(block, then_body=then, else_body=other))
    return out


def _same(blocks: list[Block], old: list[Block]) -> bool:
    return len(blocks) == len(old) and all(a is b for a, b in zip(blocks, old))


# ---------------------------------------------------------------------------
# traversal helpers


def walk_blocks(region: list[Block], path: tuple[str, ...] = ()) -> Iterator[tuple[tuple[str, ...], Block]]:
    """Depth-first, program order. Yields (enclosing-label path, block)."""
    for block in region:
        yield path, block
        if isinstance(block, LoopRegion):
            yield from walk_blocks(block.body, path + (block.label,))
        elif isinstance(block, Conditional):
            yield from walk_blocks(block.then_body, path + (block.label, "then"))
            yield from walk_blocks(block.else_body, path + (block.label, "else"))


def branch_labels(program: Program) -> list[str]:
    """The keys that pick the program's branch arms, in program order: a
    branch's label, or for a reversed branch the label of the forward branch
    it replays (``trace_ref``), once each. Raises PathExplosion beyond
    ``MAX_BRANCHES``."""
    labels = list(dict.fromkeys(
        b.trace_ref or b.label for _, b in walk_blocks(program.region) if isinstance(b, Conditional)
    ))
    if len(labels) > MAX_BRANCHES:
        raise PathExplosion(f"{len(labels)} branch blocks exceed the supported {MAX_BRANCHES}")
    return labels


def path_outcomes(program: Program) -> list[dict[str, bool]]:
    """One outcome per control-flow path: every combination of branch arms,
    keyed by :func:`branch_labels`."""
    labels = branch_labels(program)
    return [dict(zip(labels, bits)) for bits in itertools.product((True, False), repeat=len(labels))]


# ---------------------------------------------------------------------------
# scheduling


def schedule(df: Dataflow) -> tuple[Node, ...]:
    """Topological order of the graph's nodes, deterministic (node-list
    tie-break), computed on first use and kept with the graph.

    Beyond dataflow edges, consecutive access instances of the same array
    impose write-after-read/write-after-write order: everything attached to
    instance k runs before the producers of instance k+1.

    Raises ValueError on a cycle.
    """
    if df._order is not None:
        return df._order
    ids = [n.id for n in df.nodes]
    index = {nid: i for i, nid in enumerate(ids)}
    succ: dict[str, set[str]] = {nid: set() for nid in ids}
    indeg: dict[str, int] = {nid: 0 for nid in ids}

    def add(a: str, b: str):
        if a == b or b in succ[a]:
            return
        succ[a].add(b)
        indeg[b] += 1

    for e in df.edges:
        add(e.src, e.dst)

    instances: dict[str, list[str]] = {}
    for n in df.nodes:
        if isinstance(n, AccessNode):
            instances.setdefault(n.data, []).append(n.id)
    for chain in instances.values():
        for prev, nxt in zip(chain, chain[1:]):
            producers = [e.src for e in df.in_edges(nxt)]
            add(prev, nxt)
            for r in (e.dst for e in df.out_edges(prev)):
                for p in producers:
                    add(r, p)
            for p in producers:
                add(prev, p)

    heap = [i for i, nid in enumerate(ids) if indeg[nid] == 0]  # ascending, so a heap
    order: list[Node] = []
    while heap:
        i = heapq.heappop(heap)
        order.append(df.nodes[i])
        for m in succ[ids[i]]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(heap, index[m])
    if len(order) != len(ids):
        raise ValueError("cycle in state dataflow graph")
    df._order = tuple(order)
    return df._order


@dataclass(frozen=True)
class LibraryStep:
    """What a run of a library node takes from its graph: ``(connector,
    array)`` per in-edge and ``(array, wcr)`` per out-edge, in edge order.
    An elementwise node also has ``expr``, its :func:`library_expr` over
    its connector names, and ``ops``, the expression's operator count; a
    matmul or a sum has neither."""

    ins: tuple[tuple[str, str], ...]
    outs: tuple[tuple[str, str | None], ...]
    expr: Expr | None = None
    ops: int | None = None


def library_steps(df: Dataflow) -> dict[str, LibraryStep]:
    """The step of each library node of the graph, by node id, prepared on
    first use from one pass over the edges and kept with the graph, as
    :func:`schedule` keeps its order. Shapes, dtypes and the batch are not
    part of a step, so every run and every program sharing the graph
    shares it."""
    if df._steps is not None:
        return df._steps
    libs = [n for n in df.nodes if isinstance(n, LibraryNode)]
    ins: dict[str, list] = {n.id: [] for n in libs}
    outs: dict[str, list] = {n.id: [] for n in libs}
    for e in df.edges:
        if e.dst in ins:
            ins[e.dst].append((e.dst_conn, e.data))
        if e.src in outs:
            outs[e.src].append((e.data, e.wcr))
    steps = {}
    for n in libs:
        expr = ops = None
        if n.kind not in ("matmul", "reduce_sum"):
            expr = library_expr(n)
            ops = count_ops(expr)
        steps[n.id] = LibraryStep(tuple(ins[n.id]), tuple(outs[n.id]), expr, ops)
    df._steps = steps
    return steps


# ---------------------------------------------------------------------------
# loop header analysis


def uniform_int(value, what: str) -> int:
    """The integer an index, loop header or map range evaluated to.

    ``value`` may carry leading batch dimensions; every batch element must
    agree (``BatchDivergence`` otherwise). A value that is not a whole number
    raises ``DomainError`` rather than being truncated; ``what`` names the
    expression in both errors.
    """
    if isinstance(value, np.ndarray):
        flat = value.reshape(-1)
        if flat.size > 1 and not bool(np.all(flat == flat[0])):
            raise BatchDivergence(f"{what} differs across the batch")
        value = flat[0]
    f = float(value)
    if not f.is_integer():
        raise DomainError(f"{what} evaluated to non-integer {f}")
    return int(f)


def simulate_header(loop: LoopRegion, bindings: dict[str, int]) -> list[int]:
    """Iterate the header to enumerate the iteration values. Init, bound and
    update go through :func:`uniform_int`.

    The body never writes a header name (:func:`validate`), so each iterate
    fixes every later one: an iterate that repeats proves the loop never
    ends. That, and more than ``TRIP_LIMIT`` iterates, raise NonTermination.
    """
    out: list[int] = []
    seen: set[int] = set()
    env = dict(bindings)
    i = uniform_int(eval_expr(loop.init, env), f"init of '{loop.label}'")
    lt = loop.cmp == "<"
    while True:
        bound = uniform_int(eval_expr(loop.bound, env), f"bound of '{loop.label}'")
        if not (i < bound if lt else i > bound):
            return out
        if i in seen:
            raise NonTermination(f"loop '{loop.label}' repeats iterate {i}, so it never ends")
        seen.add(i)
        out.append(i)
        if len(out) > TRIP_LIMIT:
            raise NonTermination(f"loop '{loop.label}' exceeded the trip limit of {TRIP_LIMIT}")
        env[loop.iterator] = i
        i = uniform_int(eval_expr(loop.update, env), f"update of '{loop.label}'")


def visit_positions(loop: LoopRegion, n: int) -> range:
    """Positions into the ``n`` simulated iterates of ``loop`` that its body
    runs at, in order: all of them forward, or for a reversed loop the last
    one back to the first, less ``skip`` and at most ``take``."""
    if loop.reverse_of is None:
        return range(n)
    top = n - 1 - loop.skip
    stop = -1 if loop.take is None else max(-1, top - loop.take)
    return range(top, stop, -1)


def header_names(loop: LoopRegion) -> set[str]:
    """Names the loop's init, bound and update read, its iterator included."""
    return free_names(loop.init) | free_names(loop.bound) | free_names(loop.update)


def _body_reads_iterator(loop: LoopRegion) -> bool:
    """Whether a loop header or map range nested in the body reads the
    loop's iterator."""
    names: set[str] = set()
    for _, b in walk_blocks(loop.body):
        if isinstance(b, LoopRegion):
            names |= header_names(b)
        elif isinstance(b, State):
            names |= _range_names(b.graph)
    return loop.iterator in names


def _range_names(df: Dataflow) -> set[str]:
    """Names the map ranges of a graph read, nested maps included."""
    out: set[str] = set()
    for n in df.nodes:
        if isinstance(n, MapNode):
            out |= _range_names(n.body).union(*(free_names(e) for r in n.ranges for e in r))
    return out


def graph_names(df: Dataflow) -> set[str]:
    """Names a graph's edges carry and its map ranges read, nested maps
    included."""
    return {e.data for e in df.edges}.union(*node_accesses(df).values())


def node_accesses(df: Dataflow) -> dict[str, list[str]]:
    """The names each compute node of a graph reads or writes, each once, by
    node id, from one pass over the edges; a map also touches every name its
    body and its ranges do. Callers walk the nodes in their own schedule."""
    out: dict[str, list[str]] = {}
    for n in df.nodes:
        if isinstance(n, MapNode):
            out[n.id] = [*graph_names(n.body).union(*(free_names(e) for r in n.ranges for e in r))]
        elif not isinstance(n, AccessNode):
            out[n.id] = []
    for e in df.edges:
        names = out[e.dst] if e.dst in out else out.get(e.src)
        if names is not None and e.data not in names:
            names.append(e.data)
    return out


def live_ranges(steps: Iterable[tuple[Any, Iterable[str]]]) -> dict[str, tuple[Any, Any]]:
    """The one last-touch rule: each name lives from the first to the end
    of the last of ``steps`` that touches it. A step is ``(key, names)``:
    the names one compute node (or one block run as a whole) touches, in
    execution order. The memory model, a rebuild block's scratch peak and
    the executor's release tables all follow it. Returns name ->
    (first key, last key)."""
    out: dict[str, tuple[Any, Any]] = {}
    for key, names in steps:
        for name in names:
            out[name] = (out[name][0], key) if name in out else (key, key)
    return out


def path_visits(
    region: list[Block], outcome: dict[str, bool], bind: dict[str, int]
) -> Iterator[tuple[State, dict[str, int], int | None]]:
    """The states one control-flow path runs, in execution order, as
    ``(state, bindings, runs)``. ``outcome`` picks each branch's arm, keyed
    by :func:`branch_labels`. A loop runs its body at the simulated iterates
    :func:`visit_positions` picks, so one that visits none yields nothing. A
    body whose nested loop headers and map ranges never read the iterator is
    walked once with ``runs`` times the visit count, any other once per visit
    with the iterator bound. A header that reads a value known only at run
    time yields its body once with ``runs=None``."""

    def walk(region: list[Block], bind: dict[str, int], runs: int | None):
        for block in region:
            if isinstance(block, State):
                yield block, bind, runs
            elif isinstance(block, Conditional):
                key = block.trace_ref or block.label
                yield from walk(block.then_body if outcome[key] else block.else_body, bind, runs)
            else:
                try:
                    iterates = simulate_header(block, bind)
                except UnboundName:
                    yield from walk(block.body, bind, None)
                    continue
                visits = [iterates[p] for p in visit_positions(block, len(iterates))]
                if not visits:
                    continue
                if _body_reads_iterator(block):
                    for i in visits:
                        yield from walk(block.body, {**bind, block.iterator: i}, runs)
                else:
                    yield from walk(block.body, bind, None if runs is None else runs * len(visits))

    return walk(region, bind, 1)


def runtime_loop(region: list[Block], state: State, params: dict[str, int]) -> str | None:
    """The outermost loop around ``state`` whose header reads a name that is
    neither a parameter nor an enclosing iterator: a value known only at run
    time."""
    known = set(params)
    for _, loop in walk_blocks(region):
        if isinstance(loop, LoopRegion) and any(b is state for _, b in walk_blocks(loop.body)):
            if header_names(loop) - known - {loop.iterator}:
                return loop.label
            known.add(loop.iterator)


# ---------------------------------------------------------------------------
# validation


def validate(program: Program) -> list[Diagnostic]:
    """Structural checks. Returns diagnostics; empty list means valid.

    Each rule lives in one module-level ``check_*`` function. None of them
    keeps a reference to ``program`` once it returns."""
    diags: list[Diagnostic] = []
    add = diags.append
    for pname in program.parameters:
        if program.parameters.count(pname) > 1:
            add(Diagnostic("DuplicateName", f"parameter '{pname}' repeated"))
    for dname, desc in program.descriptors.items():
        check_descriptor(program, dname, desc, add)

    dep = program.descriptors.get(program.dependent)
    if dep is None:
        add(Diagnostic("BadDependent", f"dependent '{program.dependent}' is not declared"))
    elif dep.rank != 0:
        add(Diagnostic("BadDependent", f"dependent '{program.dependent}' must be a scalar"))
    for ind in program.independents:
        d = program.descriptors.get(ind)
        if d is None:
            add(Diagnostic("BadIndependent", f"independent '{ind}' is not declared"))
        elif d.role != "input":
            add(Diagnostic("BadIndependent", f"independent '{ind}' must have input role"))

    seen_labels: set[str] = set()
    for path, block in walk_blocks(program.region):
        label = block.label
        if not label:  # passes key branches and states by their label
            add(Diagnostic("EmptyLabel", f"{type(block).__name__} block has an empty label", "/".join(path)))
        elif label in seen_labels:
            add(Diagnostic("DuplicateName", f"block label '{label}' repeated"))
        seen_labels.add(label)

    check_region(program, program.region, (), add)
    return diags


def _check_constants(expr: Expr, where: str, what: str, add) -> None:
    """What a nest compiles (tasklet bodies, subsets, map ranges) needs
    plain int or float constants: ``python_source`` writes no other."""
    odd = foreign_constant(expr)
    if odd is not None:
        add(Diagnostic("BadConstant", f"{what} has constant {odd.value!r}, not an int or float", where))


def _check_scope(expr: Expr, scope: set[str], where: str, what: str, add) -> None:
    bad = free_names(expr) - scope
    if bad:
        add(Diagnostic("UnboundName", f"{what} uses {sorted(bad)}", where))


def _scalar_names(program: Program) -> set[str]:
    return {d.name for d in program.descriptors.values() if d.rank == 0}


def check_descriptor(program: Program, dname: str, desc: DataDescriptor, add) -> None:
    if dname != desc.name:
        add(Diagnostic("DuplicateName", f"descriptor key '{dname}' != name '{desc.name}'"))
    if dname in program.parameters:
        add(Diagnostic("DuplicateName", f"'{dname}' is both descriptor and parameter"))
    if desc.element_kind not in ELEMENT_WIDTH:
        add(Diagnostic("BadRole", f"'{dname}': unknown element kind '{desc.element_kind}'"))
    if desc.role not in ROLES:
        add(Diagnostic("BadRole", f"'{dname}': unknown role '{desc.role}'"))
    for dim in desc.shape:
        bad = free_names(dim) - set(program.parameters)
        if bad:
            add(Diagnostic("UnboundName", f"shape of '{dname}' uses {sorted(bad)}"))


def check_region(program: Program, region: list[Block], iterators: tuple[str, ...], add) -> None:
    for block in region:
        if isinstance(block, State):
            check_graph(program, block.graph, block.label, iterators, add)
        elif isinstance(block, LoopRegion):
            check_loop(program, block, iterators, add)
        elif isinstance(block, Conditional):
            check_branch(program, block, iterators, add)


def check_loop(program: Program, loop: LoopRegion, iterators: tuple[str, ...], add) -> None:
    where = loop.label
    scope = set(program.parameters) | set(iterators) | _scalar_names(program)
    for what, expr in (("init", loop.init), ("bound", loop.bound), ("update", loop.update)):
        _check_scope(expr, scope | {loop.iterator} if what == "update" else scope, where, f"loop {what}", add)
    if loop.cmp not in ("<", ">"):
        add(Diagnostic("BadLoop", f"comparison must be '<' or '>', got '{loop.cmp}'", where))
    if loop.reverse_of is None and (loop.skip or loop.take is not None):
        add(Diagnostic("BadLoop", "skip and take need a reversed loop (reverse_of)", where))
    if loop.skip < 0:  # skip and take index the simulated iterates
        add(Diagnostic("BadLoop", f"skip must be at least 0, got {loop.skip}", where))
    if loop.take is not None and loop.take < 1:
        add(Diagnostic("BadLoop", f"take must be at least 1, got {loop.take}", where))
    written: set[str] = set()
    for _, b in walk_blocks(loop.body):
        if isinstance(b, State):
            written |= data_written(b.graph)
    check_header(loop, written, add)
    check_region(program, loop.body, iterators + (loop.iterator,), add)


def check_header(loop: LoopRegion, written: set[str], add) -> None:
    """A name in ``written``, written in the loop's body, that the loop's
    header reads or that is its iterator."""
    for m in sorted(written & (header_names(loop) | {loop.iterator})):
        add(Diagnostic(
            "HeaderMutation",
            f"loop body writes '{m}' which the header of '{loop.label}' depends on",
            loop.label,
        ))


def check_branch(program: Program, br: Conditional, iterators: tuple[str, ...], add) -> None:
    where = br.label
    cond = br.condition
    if br.trace_ref is None:  # a replayed branch never evaluates its condition
        if not is_condition(cond):
            add(Diagnostic("BadCondition", "condition root must be a comparison", where))
        else:
            for side in (cond.x, cond.y):
                if contains_compare_or_index(side) and not _only_scalar_reads(side):
                    add(Diagnostic("BadCondition", "nested comparison in condition", where))
            scope = set(program.parameters) | set(iterators) | _scalar_names(program) | set(program.descriptors)
            _check_scope(cond, scope, where, "condition", add)
            _check_condition_indices(cond, program, add, where)
    check_region(program, br.then_body, iterators, add)
    check_region(program, br.else_body, iterators, add)


def check_graph(program: Program, df: Dataflow, where: str, symbol_scope: tuple[str, ...], add) -> None:
    """The checks of one graph, at ``where``, whose subsets and map ranges
    may read the parameters and ``symbol_scope``; a map body is checked
    with the map's parameters added."""
    ids = [n.id for n in df.nodes]
    if len(ids) != len(set(ids)):
        add(Diagnostic("DuplicateName", "node ids repeated", where))
        return
    by_id = {n.id: n for n in df.nodes}
    scope = set(program.parameters) | set(symbol_scope)

    for n in df.nodes:
        if isinstance(n, AccessNode) and n.data not in program.descriptors:
            add(Diagnostic("UnknownData", f"access node '{n.id}' names '{n.data}'", where))
        if isinstance(n, Tasklet):
            if not n.outs:
                add(Diagnostic("ArityMismatch", f"tasklet '{n.id}' has no output", where))
            for out in n.outs:
                if out not in n.body:
                    add(Diagnostic("ArityMismatch", f"tasklet '{n.id}' missing body for '{out}'", where))
            for key, expr in n.body.items():
                if key not in n.outs:
                    add(Diagnostic("ArityMismatch", f"tasklet '{n.id}' body for undeclared '{key}'", where))
                _check_constants(expr, where, f"tasklet '{n.id}' body", add)
                bad = free_names(expr) - set(n.ins)
                if bad:
                    add(Diagnostic("UnboundName", f"tasklet '{n.id}' body uses {sorted(bad)}", where))
                if contains_compare_or_index(expr):
                    add(Diagnostic("BadCondition", f"tasklet '{n.id}' body uses condition-only syntax", where))
        if isinstance(n, LibraryNode):
            if n.kind not in LIB_CONNECTORS:
                add(Diagnostic("BadLibrary", f"unknown library kind '{n.kind}'", where))
            elif n.kind == "ew_unary" and n.op not in EW_UNARY_OPS:
                add(Diagnostic("BadLibrary", f"'{n.id}': unknown elementwise op '{n.op}'", where))
            elif n.kind == "ew_binary" and n.op not in EW_BINARY_OPS:
                add(Diagnostic("BadLibrary", f"'{n.id}': unknown elementwise op '{n.op}'", where))
            if n.kind == "ew_unary" and n.op == "scale":
                if n.const is None:
                    add(Diagnostic("BadLibrary", f"'{n.id}': scale needs a constant", where))
                else:
                    _check_constants(Const(n.const), where, f"scale node '{n.id}'", add)
            if n.kind == "ew_expr":
                if n.expr is None:
                    add(Diagnostic("BadLibrary", f"'{n.id}': ew_expr needs an expression", where))
                elif contains_compare_or_index(n.expr):
                    add(Diagnostic("BadCondition", f"'{n.id}' expression uses condition-only syntax", where))
                else:
                    _check_constants(n.expr, where, f"'{n.id}' expression", add)
        if isinstance(n, MapNode):
            if len(n.params) != len(n.ranges):
                add(Diagnostic("ArityMismatch", f"map '{n.id}': {len(n.params)} params, {len(n.ranges)} ranges", where))
            inner = set(scope)
            for k, p in enumerate(n.params):
                if p in inner:
                    add(Diagnostic("DuplicateName", f"map '{n.id}' param '{p}' shadows", where))
                for part in n.ranges[k] if k < len(n.ranges) else ():
                    _check_scope(part, inner, where, f"map '{n.id}' range", add)
                    _check_constants(part, where, f"map '{n.id}' range", add)
                inner.add(p)
            check_graph(program, n.body, f"{where}/{n.id}", symbol_scope + n.params, add)

    # connector wiring
    in_count: dict[tuple[str, str], int] = {}
    out_count: dict[tuple[str, str], int] = {}
    dangling = False
    for e in df.edges:
        if e.src not in by_id or e.dst not in by_id:
            add(Diagnostic("UnknownNode", f"edge references '{e.src}'->'{e.dst}'", where))
            dangling = True
            continue
        src, dst = by_id[e.src], by_id[e.dst]
        if isinstance(src, AccessNode) == isinstance(dst, AccessNode):
            add(Diagnostic("AccessEdge", f"edge '{e.src}'->'{e.dst}' must join access and compute", where))
            continue
        acc = src if isinstance(src, AccessNode) else dst
        if e.data != acc.data:
            add(Diagnostic("UnknownData", f"edge data '{e.data}' != access '{acc.data}'", where))
        desc = program.descriptors.get(e.data)
        if desc is not None and e.subset is not None and len(e.subset) != desc.rank:
            add(Diagnostic("BadSubset", f"subset arity {len(e.subset)} != rank {desc.rank} for '{e.data}'", where))
        comp, conn, is_in = (dst, e.dst_conn, True) if isinstance(src, AccessNode) else (src, e.src_conn, False)
        if desc is not None and desc.rank != 2 and isinstance(comp, LibraryNode) and comp.kind == "matmul":
            add(Diagnostic("BadLibrary", f"matmul '{comp.id}': operand '{conn}' has rank {desc.rank}, not 2", where))
        if e.subset is not None:
            for part in e.subset:
                _check_scope(part, scope, where, f"subset of '{e.data}'", add)
                _check_constants(part, where, f"subset of '{e.data}'", add)
        if e.wcr not in (None, "sum"):
            add(Diagnostic("BadSubset", f"unknown wcr '{e.wcr}'", where))
        if isinstance(comp, MapNode):
            # map edges declare whole-array dependencies; elements move
            # via the body's own access nodes
            if conn is not None:
                add(Diagnostic("UnknownConnector", f"map '{comp.id}' takes no connectors", where))
            if e.subset is not None:
                add(Diagnostic("BadSubset", f"map edge on '{comp.id}' must cover the whole array", where))
            continue
        declared = _connectors(comp)
        if declared is not None:
            pool = declared[0] if is_in else declared[1]
            if conn not in pool:
                add(Diagnostic("UnknownConnector", f"'{comp.id}' has no connector '{conn}'", where))
            else:
                (in_count if is_in else out_count)[(comp.id, conn)] = (
                    (in_count if is_in else out_count).get((comp.id, conn), 0) + 1
                )
        if isinstance(comp, Tasklet) and e.subset is None:
            add(Diagnostic("BadSubset", f"tasklet edge on '{comp.id}' needs an element subset", where))

    for n in df.nodes:
        if isinstance(n, MapNode):
            ins_have = {e.data for e in df.in_edges(n.id)}
            outs_have = {e.data for e in df.out_edges(n.id)}
            if ins_have != data_read(n.body):
                add(Diagnostic("ArityMismatch", f"map '{n.id}' in-edges {sorted(ins_have)} != body reads {sorted(data_read(n.body))}", where))
            if outs_have != data_written(n.body):
                add(Diagnostic("ArityMismatch", f"map '{n.id}' out-edges {sorted(outs_have)} != body writes {sorted(data_written(n.body))}", where))
            continue
        decl = _connectors(n)
        if decl is None:
            continue
        ins, outs = decl
        for c in ins:
            if in_count.get((n.id, c), 0) != 1:
                add(Diagnostic("ArityMismatch", f"'{n.id}' input '{c}' has {in_count.get((n.id, c), 0)} edges", where))
        for c in outs:
            if out_count.get((n.id, c), 0) != 1:
                add(Diagnostic("ArityMismatch", f"'{n.id}' output '{c}' has {out_count.get((n.id, c), 0)} edges", where))

    if dangling:
        return  # a graph with an edge to a missing node cannot be ordered
    try:
        schedule(df)
    except ValueError:
        add(Diagnostic("CycleInState", "dataflow graph has a cycle", where))


def _connectors(n: Node) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    if isinstance(n, Tasklet):
        return n.ins, n.outs
    if isinstance(n, LibraryNode):
        return library_connectors(n)
    if isinstance(n, MapNode):
        return (), ()
    return None


def _only_scalar_reads(expr: Expr) -> bool:
    if isinstance(expr, Index):
        return True
    if isinstance(expr, Unary):
        return _only_scalar_reads(expr.x)
    if isinstance(expr, Binary):
        if expr.op in ("lt", "gt", "le", "ge"):
            return False
        return _only_scalar_reads(expr.x) and _only_scalar_reads(expr.y)
    return True


def _check_condition_indices(cond: Expr, program: Program, add, where: str):
    def walk(e: Expr):
        if isinstance(e, Index):
            desc = program.descriptors.get(e.base)
            if desc is None:
                add(Diagnostic("UnknownData", f"condition indexes unknown '{e.base}'", where))
            elif desc.rank != len(e.indices):
                add(Diagnostic("BadSubset", f"condition index arity for '{e.base}'", where))
        elif isinstance(e, Unary):
            walk(e.x)
        elif isinstance(e, Binary):
            walk(e.x)
            walk(e.y)

    walk(cond)


def data_written(df: Dataflow) -> set[str]:
    """Arrays written by this graph (edges into access nodes)."""
    by_id = {n.id: n for n in df.nodes}
    out: set[str] = set()
    for e in df.edges:
        dst = by_id.get(e.dst)
        if isinstance(dst, AccessNode):
            out.add(e.data)
    return out


def data_read(df: Dataflow) -> set[str]:
    """Arrays read by this graph (edges out of access nodes)."""
    by_id = {n.id: n for n in df.nodes}
    out: set[str] = set()
    for e in df.edges:
        src = by_id.get(e.src)
        if isinstance(src, AccessNode):
            out.add(e.data)
    return out


def validate_or_raise(program: Program) -> None:
    """``ValidationFailed`` unless ``program`` is valid; a valid program is
    marked so (``_kept``), and ``validated`` trusts the mark."""
    diags = validate(program)
    if diags:
        raise ValidationFailed(diags)
    program._kept["validated"] = True


def validated(program: Program) -> Program:
    """``program``, validated first unless it carries the mark."""
    if "validated" not in program._kept:
        validate_or_raise(program)
    return program


def written_descriptors(program: Program) -> set[str]:
    """Names of all descriptors written anywhere in the program."""
    out: set[str] = set()
    for _, block in walk_blocks(program.region):
        if isinstance(block, State):
            out |= data_written(block.graph)
    return out


def mutated_descriptors(program: Program) -> set[str]:
    """Names that a write may change in place: those written by a tasklet or
    a map (map bodies included) or through ``wcr="sum"``. Any other write
    is a library node's whole-array store, which gives its name a fresh
    array (``nests._library_lines``), so an array held under a name that
    is not mutated never changes."""
    out: set[str] = set()

    def graph(df: Dataflow):
        by_id = {n.id: n for n in df.nodes}
        for e in df.edges:
            if isinstance(by_id.get(e.dst), AccessNode) and (
                    e.wcr == "sum" or isinstance(by_id.get(e.src), (Tasklet, MapNode))):
                out.add(e.data)
        for n in df.nodes:
            if isinstance(n, MapNode):
                graph(n.body)

    for _, block in walk_blocks(program.region):
        if isinstance(block, State):
            graph(block.graph)
    return out


def pristine_inputs(program: Program) -> set[str]:
    """Input-role descriptors never written: always readable, even backward."""
    written = written_descriptors(program)
    return {
        d.name
        for d in program.descriptors.values()
        if d.role == "input" and d.name not in written
    }
