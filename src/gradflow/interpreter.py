"""Reference executor for programs, forward and reverse.

Arrays are numpy; element kind fixes the dtype. Every array may carry extra
*leading* batch dimensions on top of its declared shape, so a batch of
inputs evaluates in one run; an input the program overwrites takes the
batch dimensions of the others. Branch conditions must agree across the
batch (``BatchDivergence`` otherwise); the finite-difference oracle leans
on this to evaluate thousands of perturbed inputs in a handful of
vectorized passes.

Execution is deterministic: states run in the schedule order, loops iterate
their simulated header sequence and maps enumerate range products in order.
A loop's header is simulated once per distinct value of the names it reads,
and memoized for the run. Tasklets, maps and loop nests run as compiled
nests: one generated Python function per nest structure (its loops, map
ranges, edges, bodies and resolved shapes), cached for the whole process, so
a program built again, and the reverse program that ``gradient()`` builds
for it (once per ``Program``, then kept with it), reuses the nests of the
first build. A tasklet alone is a nest of depth 0; a map is a
``for`` per parameter around its body; a loop whose body holds only states
of tasklets and maps, or further such loops, is a ``for`` per loop over its
simulated iterates, with no branch, state-level library node, forwarded read
or tape record inside. Any other loop runs block by block, its body's
tasklets and maps still as nests. A nest inlines index arithmetic and bounds
checks, reads an array without batch axes as ``arr[i, j]`` and a batched one
as ``arr[..., i, j]``. A loop or map nest whose arrays are all real64 and
whose tasklet bodies use only add, sub, mul, neg, names and int or float
constants (which round alike on Python floats and numpy scalars) reads and
writes an array without batch axes whose buffer is C-contiguous through a
flat memoryview of that buffer, at offsets whose outer share is summed once
per outer iterate; a bounds check on an ``iterator ± const`` index becomes
one min/max test where the loop's iterates are fetched, and a point whose
test failed runs the checked path, which raises as before. A library node runs once on whole arrays, from the
step its graph keeps (``ir.library_steps``): the arrays of its in- and
out-edges, and for an elementwise node its expression (``ir.library_expr``)
compiled once and its operator count. The run adds the shapes, dtypes and
batch: an elementwise node evaluates the compiled expression with numpy,
broadcasting rank-0 operands over the output behind their batch dimensions.
Intermediate and gradient arrays are zero-initialized on first touch, which
is also what accumulation via ``sum`` conflict resolution assumes.

Array lifetimes follow ``checkpointing``'s memory model. An input is copied
only if the running program writes it (or its dtype differs); caller arrays
are never mutated. A forward run drops its intermediates when it ends, so
its ``env`` holds inputs, outputs and stored copies. A reverse run releases
every rank >= 1 gradient, scratch array and stored copy, and every tape
snapshot it reads, by the model's last-touch rule (``ir.live_ranges``):
right after the compute node that touches it last; a last touch inside a
loop or a branch arm releases after the enclosing top-level block, so no
release fires inside one. Loop headers, branch conditions and map ranges
count as touches. Scalars are never released.

A ``Tape`` holds array snapshots keyed by ``(name, static version, loop
coordinates)`` and branch outcomes per label in execution order. A forward
run records the ``(name, version)`` pairs of its ``record`` set, or keeps no
tape when ``record`` is None. Reverse-mode programs consume the tape through
two mechanisms: forwarded value reads (resolved against snapshot candidates)
and ``trace_ref`` conditionals (replay recorded outcomes backwards). Loop
iterates are never taped: a reversed loop re-simulates its forward header
and walks the iterates backwards, and a read after a loop that needs its
last iterate re-simulates that forward loop's header, with the enclosing
loops' iterators at the coordinates the read resolved for them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

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
    LibraryStep,
    LoopRegion,
    MapNode,
    Program,
    State,
    Tasklet,
    dimensions,
    graph_names,
    header_names,
    library_expr,
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
from .symexpr import SOURCE_NAMESPACE, Binary, Const, Name, Unary, count_ops, eval_expr, free_names, python_source
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


_UNSET = object()  # a bind name missing at nest entry
# numbers each compiled nest, so that profiles and tracebacks tell them apart
_NEST_ORDINAL = itertools.count()


@functools.lru_cache(maxsize=4096)
def _compiled_tasklet(key: tuple) -> Callable:
    """One generated Python function per nest structure, shared by every
    executor. ``key`` is ``(item, arrays)``: ``arrays`` gives each array's
    resolved shape (None: undeclared) and element kind, and ``item`` is one
    of ``("tasklet", ins, outs, ops)`` (``(data, subset, connector)`` per
    in-edge, ``(data, subset, body, wcr)`` per out-edge), ``("map", id,
    params, ranges, items)``, ``("loop", j, iterator, reversed, header,
    items)`` (``header`` the names it reads) or ``("library", j, outs)``
    (a library node in a map body). Returns ``nest(read, write, b,
    iterates, loops, libs)``, which runs the nest and returns its operator
    count: each level adds its tasklets' operators times its points. The
    function keeps its generated text as ``nest.source``.

    A loop runs at the iterates ``visit_positions`` picks from
    ``iterates(loops[j], ...)``, fetched on every entry when its header
    reads an enclosing iterator or a name the nest writes, else once.
    Iterators and map parameters are locals; any other name comes from
    ``b`` at entry and raises ``UnboundName`` where ``eval_expr`` would. An
    array is fetched by the first point that touches it, and again after a
    library node writes it. A tasklet runs its edges in the executor's
    order: each in-edge's index dimension by dimension, then each out-edge's
    body before its index. An index that may not be an ``int`` goes through
    ``uniform_int``; every index is bounds-checked, and an index expression
    repeated over a dimension of the same size, or a repeated body, is
    computed once per point. An array without batch axes is read as
    ``arr[i, j]``, an immutable scalar; a batched one as ``arr[..., i, j]``,
    copied, since a rank-0 read aliases the array an output may overwrite.

    Direct access: in a loop or map nest whose arrays are all real64 and
    whose tasklet bodies are all exact (``_exact``: add, sub, mul and neg
    round alike on Python floats and numpy scalars), fetching an array
    without batch axes also takes its direct handle (``_view``): a flat
    memoryview of its own C-contiguous buffer, or at rank 0 the array
    itself. A point whose arrays all have one, and whose levels' hoisted
    checks passed, reads and writes through the handles at flat offsets.
    An ``iterator ± const`` index is checked per dimension where its
    loop's iterates or its map's range are fetched, as one min/max test
    per level, and its share of the offset is summed once per iterate of
    the level that owns it. A constant index in range needs no check, and
    any other index is computed and checked at the point as above. Every
    other point runs the checked body above, so an error is raised at the
    same point with the same message.
    """
    item, described = key
    shape = {name: dims for name, dims, _ in described}
    arrays = {name: f"a{k}" for k, name in enumerate(shape)}
    views = {}
    if item[0] != "tasklet" and all(kind == "real64" for *_, kind in described) and _exact_item(item):
        views = {name: f"v{k}" for k, name in enumerate(shape)}
    entry = [f"{v} = None" for v in (*arrays.values(), *views.values())]
    lines: list = []  # source lines, and callables giving lines known once the whole nest is emitted
    bound: dict[str, str] = {}
    fresh = itertools.count()
    written = _item_writes(item)
    # per level of a direct nest, by its iterator's variable: the enclosing
    # level, the hoisted checks as (const, size) and the per-iterate lines
    up: dict[str, str | None] = {}
    checks: dict[str, list] = {}
    per_iterate: dict[str, list] = {}
    partials: dict[tuple, str] = {}

    def emit(d: int, text: str):
        lines.append("    " * d + text)

    def later(d: int, make: Callable[[], list]):
        lines.append(lambda: ["    " * d + text for text in make()])

    def source(e, scope: dict) -> str:
        def local(name: str) -> str:
            if name in scope:
                return scope[name]
            if name not in bound:
                bound[name] = f"n{len(bound)}"
                entry.append(f"{bound[name]} = b.get({name!r}, _UNSET)")
            return f"({bound[name]} if {bound[name]} is not _UNSET else _unbound({name!r}))"
        return python_source(e, local)

    def index(e, size: int, data: str, scope: dict, indices: dict, d: int) -> str:
        """The variable holding index ``e`` into a dimension of ``size``,
        computed and checked once per point."""
        if (e, size) not in indices:
            var = scope.get(e.id) if isinstance(e, Name) else None
            if var is None:
                var = f"x{next(fresh)}"
                emit(d, f"{var} = {source(e, scope)}")
            if not _int_valued(e, scope):
                what = "subset of '" + data + "'"
                emit(d, f"if {var}.__class__ is not int:")
                emit(d + 1, f"{var} = uniform_int({var}, {what!r})")
            emit(d, f"if not 0 <= {var} < {size}:")
            emit(d + 1, f"_out_of_bounds({data!r}, {var}, {size})")
            indices[(e, size)] = var
        return indices[(e, size)]

    def result(body, conns: dict, results: dict, d: int, convert: bool = False) -> str:
        res = results.get(body)
        if res is None:  # a body name with no in-edge raises where the body runs
            res = results[body] = f"r{next(fresh)}"
            src = python_source(body, lambda n: conns.get(n, f"_unbound({n!r})"))
            emit(d, f"{res} = float({src})" if convert else f"{res} = {src}")
        return res

    def tasklet(it: tuple, scope: dict, d: int, level: str | None):
        _, ins, outs, _ = it
        missing = [data for data, *_ in ins + outs if shape[data] is None]
        if missing:
            return emit(d, f"_no_value({missing[0]!r})")
        if level is None:
            return checked(it, scope, d)
        touched = dict.fromkeys(data for data, *_ in ins + outs)
        emit(d, f"if {' and '.join([f'ok_{level}'] + [f'{views[a]} is not None' for a in touched])}:")
        direct(it, scope, d + 1, level)
        emit(d, "else:")
        checked(it, scope, d + 1)

    def checked(it: tuple, scope: dict, d: int):
        _, ins, outs, _ = it
        fetched: set[str] = set()
        indices: dict[tuple, str] = {}
        conns: dict[str, str] = {}
        results: dict = {}

        def access(data: str, subset, fetch: str) -> tuple[str, str]:
            arr = arrays[data]
            if data not in fetched:
                fetched.add(data)
                emit(d, f"if {arr} is None:")
                emit(d + 1, f"{arr} = {fetch}({data!r})")
                emit(d + 1, f"{arr}_flat = {arr}.ndim == {len(shape[data])}")
                if views:
                    emit(d + 1, f"{views[data]} = _view({arr}, {len(shape[data])})")
            return arr, ", ".join(index(e, shape[data][k], data, scope, indices, d) for k, e in enumerate(subset))

        for data, subset, conn in ins:
            arr, idx = access(data, subset, "read")
            var = conns[conn] = f"c{next(fresh)}"
            emit(d, f"{var} = {arr}[{idx or '()'}] if {arr}_flat else _copy({arr}[..., {idx}])")
        for data, subset, body, wcr in outs:
            res = result(body, conns, results, d)
            arr, idx = access(data, subset, "write")
            op = "+=" if wcr == "sum" else "="
            emit(d, f"if {arr}_flat:")
            emit(d + 1, f"{arr}[{idx or '()'}] {op} {res}")
            emit(d, "else:")
            emit(d + 1, f"{arr}[..., {idx}] {op} {res}")

    def direct(it: tuple, scope: dict, d: int, level: str):
        """A point through the direct handles, its hoisted checks passed:
        what may still fail runs in the checked body's order."""
        _, ins, outs, _ = it
        indices: dict[tuple, str] = {}
        offsets: dict[str, str] = {}
        conns: dict[str, str] = {}
        results: dict = {}

        def element(data: str, subset) -> str:
            dims = shape[data]
            if not dims:
                return f"{views[data]}[()]"
            const, outer, terms = 0, [], []
            for k, e in enumerate(subset):
                size, stride = dims[k], math.prod(dims[k + 1:])
                shift = _affine(e, scope)
                if isinstance(e, Const) and e.value.__class__ is int and 0 <= e.value < size:
                    const += e.value * stride
                elif shift is not None:
                    var, c = shift
                    checks[var].append((c, size))
                    const += c * stride
                    if var == level:
                        terms.append(_times(var, stride))
                    else:
                        outer.append((var, stride))
                else:
                    terms.append(_times(index(e, size, data, scope, indices, d), stride))
            if outer:
                terms.insert(0, partial(outer))
            if len(terms) > 1:
                text = " + ".join(terms)
                if text not in offsets:
                    offsets[text] = f"o{next(fresh)}"
                    emit(d, f"{offsets[text]} = {text}")
                terms = [offsets[text]]
            if not terms:
                return f"{views[data]}[{const}]"
            return f"{views[data]}[{terms[0]}{const:+d}]" if const else f"{views[data]}[{terms[0]}]"

        for data, subset, conn in ins:
            ref = element(data, subset)
            var = conns[conn] = f"c{next(fresh)}"
            emit(d, f"{var} = {ref}")
        for data, subset, body, wcr in outs:
            # a body of constants alone may be an int: converted as a numpy
            # store converts it, one too large for a double raises alike
            res = result(body, conns, results, d, convert=not free_names(body))
            emit(d, f"{element(data, subset)} {'+=' if wcr == 'sum' else '='} {res}")

    def partial(terms: list) -> str:
        """The variable holding the sum of ``(iterator, stride)`` terms of
        enclosing levels: each partial sum is taken once per iterate of the
        innermost level it reads."""
        depth = {v: k for k, v in enumerate(up)}  # a level opens after the levels around it
        var = None
        terms = sorted(terms, key=lambda t: depth[t[0]])
        for k, (v, stride) in enumerate(terms):
            key = tuple(terms[: k + 1])
            if key not in partials:
                if var is None and stride == 1:
                    partials[key] = v
                else:
                    partials[key] = f"h{next(fresh)}"
                    term = _times(v, stride)
                    per_iterate[v].append(f"{partials[key]} = {term if var is None else f'{var} + {term}'}")
            var = partials[key]
        return var

    def open_level(var: str, level: str | None):
        up[var], checks[var], per_iterate[var] = level, [], []

    def bounded(var: str, test: str) -> str:
        """``test`` with the bounds the iterates of ``var``'s level must keep
        to for every check hoisted to it."""
        return test.format(lo=max(-c for c, _ in checks[var]), hi=min(size - 1 - c for c, size in checks[var]))

    def ok(var: str, test: str) -> list[str]:
        """``ok_<var>``: every hoisted check of this level and the levels
        around it passes."""
        outer = f"ok_{up[var]}" if up[var] else "True"
        return [f"ok_{var} = {outer} and {bounded(var, test)}" if checks[var] else f"ok_{var} = {outer}"]

    def count(items: tuple, d: int, seq: str | None = None):
        ops = sum(it[3] for it in items if it[0] == "tasklet")
        if ops:
            emit(d, f"ops += len({seq}) * {ops}" if seq else f"ops += {ops}")

    def body(items: tuple, scope: dict, d: int, level: str | None):
        start = len(lines)
        for it in items:
            emitters[it[0]](it, scope, d, level)
        if not any(isinstance(x, str) for x in lines[start:]):
            emit(d, "pass")

    def mapping(it: tuple, scope: dict, d: int, level: str | None, k: int = 0):
        _, mid, params, ranges, items = it
        if k == len(params):
            count(items, d)
            return body(items, scope, d, level)
        seq, var, last = f"g{next(fresh)}", f"i{next(fresh)}", k + 1 == len(params)
        emit(d, f"{seq} = _map_range({mid!r}, {', '.join(source(e, scope) for e in ranges[k])})")
        if views:  # a range with a positive step: its first and last values bound it
            open_level(var, level)
            later(d, lambda: ok(var, f"(not {seq} or ({{lo}} <= {seq}[0] and {seq}[-1] <= {{hi}}))"))
        if last:
            count(items, d, seq)
        emit(d, f"for {var} in {seq}:")
        if views:
            later(d + 1, lambda: per_iterate[var])
        inner, within = {**scope, params[k]: var}, var if views else None
        if last:
            body(items, inner, d + 1, within)
        else:
            mapping(it, inner, d + 1, within, k + 1)

    def loop(it: tuple, scope: dict, d: int, level: str | None):
        _, j, iterator, reverse, header, items = it
        seq, var = f"s{j}", f"i{next(fresh)}"
        passed = ", ".join(f"{n!r}: {scope[n]}" for n in header if n in scope)
        call = f"iterates(loops[{j}], {{{passed}}})" if passed else f"iterates(loops[{j}])"
        test = f"(not {seq} or ({{lo}} <= min({seq}) and max({seq}) <= {{hi}}))"
        if views:
            open_level(var, level)
        if not scope or any(n in scope or n in written for n in header):
            emit(d, f"{seq} = {call}")
            if views:
                later(d, lambda: ok(var, test))
        else:  # the same iterates at every entry
            entry.append(f"{seq} = None")
            emit(d, f"if {seq} is None:")
            emit(d + 1, f"{seq} = {call}")
            if views:  # and the same test of them, kept in k<j>
                later(d + 1, lambda: [f"k{j} = {bounded(var, test)}"] if checks[var] else [])
                later(d, lambda: ok(var, f"k{j}"))
        if reverse:
            emit(d, f"p{j} = _visit(loops[{j}], len({seq}))")
            count(items, d, f"p{j}")
            emit(d, f"for q{j} in p{j}:")
            emit(d + 1, f"{var} = {seq}[q{j}]")
        else:
            count(items, d, seq)
            emit(d, f"for {var} in {seq}:")
        if views:
            later(d + 1, lambda: per_iterate[var])
        body(items, {**scope, iterator: var}, d + 1, var if views else None)

    def library(it: tuple, scope: dict, d: int, level: str | None):
        _, j, outs = it
        emit(d, f"libs[{j}]()")
        for data in outs:  # a library node may replace the array
            if data in arrays:
                emit(d, f"{arrays[data]} = None")
                if views:
                    emit(d, f"{views[data]} = None")

    emitters = {"tasklet": tasklet, "map": mapping, "loop": loop, "library": library}
    count((item,), 1)
    body((item,), {}, 1, None)
    text = [s for x in lines for s in (x() if callable(x) else (x,))]
    src = "\n".join(["def nest(read, write, b, iterates, loops, libs):", "    ops = 0"]
                    + ["    " + s for s in entry] + text + ["    return ops"])
    ns = {
        **SOURCE_NAMESPACE, "uniform_int": uniform_int, "_copy": _copy_element,
        "_out_of_bounds": _out_of_bounds, "_no_value": _no_value,
        "_map_range": _map_range, "_visit": visit_positions, "_UNSET": _UNSET,
        "_view": _view,
    }
    # a map by its id, a loop by its iterator, a tasklet by what it writes
    root = item[1] if item[0] == "map" else item[2] if item[0] == "loop" else ",".join(sorted(written))
    filename = f"<nest {next(_NEST_ORDINAL)}: {item[0]} {root}>"
    exec(compile(src, filename, "exec"), ns)
    nest = ns["nest"]
    nest.source = src
    return nest


def _exact(e) -> bool:
    """Whether ``e`` rounds alike on Python floats and on numpy float64
    scalars: names and int or float constants under add, sub, mul and neg,
    which IEEE 754 rounds the same in both."""
    if isinstance(e, Name):
        return True
    if isinstance(e, Const):
        return e.value.__class__ in (int, float)
    if isinstance(e, Unary):
        return e.op == "neg" and _exact(e.x)
    if isinstance(e, Binary):
        return e.op in ("add", "sub", "mul") and _exact(e.x) and _exact(e.y)
    return False


def _exact_item(item: tuple) -> bool:
    """Whether every tasklet body of a nest item is ``_exact``."""
    if item[0] == "tasklet":
        return all(_exact(body) for _, _, body, _ in item[2])
    return item[0] == "library" or all(map(_exact_item, item[-1]))


def _affine(e, scope: dict) -> tuple[str, int] | None:
    """``(variable, c)`` when index ``e`` is an iterator or map parameter
    plus or minus an int constant ``c``, else None."""
    if isinstance(e, Name):
        return (scope[e.id], 0) if e.id in scope else None
    if not isinstance(e, Binary) or e.op not in ("add", "sub"):
        return None
    x, y = (e.y, e.x) if e.op == "add" and isinstance(e.x, Const) else (e.x, e.y)
    if isinstance(x, Name) and x.id in scope and isinstance(y, Const) and y.value.__class__ is int:
        return scope[x.id], y.value if e.op == "add" else -y.value
    return None


def _times(var: str, stride: int) -> str:
    return var if stride == 1 else f"{var} * {stride}"


def _view(arr: np.ndarray, rank: int):
    """The direct handle of a fetched array, or None when it has batch axes
    or is not a C-contiguous float64 buffer: a flat memoryview of the
    array's own buffer, so writes through it need no write-back, or at rank
    0 the array itself (a view would cost more than it saves)."""
    if arr.ndim != rank:
        return None
    if not rank:
        return arr
    if arr.dtype != np.float64 or not arr.flags.c_contiguous:
        return None
    return arr.data.cast("B").cast("d")


def _copy_element(v):
    return np.array(v, copy=True) if isinstance(v, np.ndarray) else v


def _int_valued(e, scope: dict) -> bool:
    """Whether an index expression always yields an ``int``: iterators and
    integer constants under add, sub, mul and neg."""
    if isinstance(e, Name):
        return e.id in scope
    if isinstance(e, Const):
        return e.value.__class__ is int
    if isinstance(e, Unary):
        return e.op == "neg" and _int_valued(e.x, scope)
    if isinstance(e, Binary):
        return e.op in ("add", "sub", "mul") and _int_valued(e.x, scope) and _int_valued(e.y, scope)
    return False


def _no_value(name: str):
    raise UnboundName(f"no value for input '{name}'")


def _item_writes(item: tuple) -> set[str]:
    """Arrays a nest item writes."""
    if item[0] == "tasklet":
        return {data for data, *_ in item[2]}
    if item[0] == "library":
        return set(item[2])
    return set().union(*map(_item_writes, item[-1]))


def _tasklet_ops(node: Tasklet, df: Dataflow) -> int:
    """Operators of one run of a tasklet, summed over its out-edges'
    bodies: the one count the executor and ``count_flops`` share."""
    return sum(count_ops(node.body[e.src_conn]) for e in df.out_edges(node.id))


def _out_of_bounds(data: str, i: int, size: int):
    raise OutOfBounds(f"'{data}' index {i} outside dimension of size {size}")


class Executor:
    def __init__(
        self,
        program: Program,
        params: dict[str, int],
        env: dict[str, np.ndarray],
        batch: tuple[int, ...],
        *,
        tape: Tape | None = None,
        record=None,
        src_tape: Tape | None = None,
        forwarding: dict | None = None,
        vinfo: VersionInfo | None = None,
        src_program: Program | None = None,
    ):
        self.program = program
        self.params = dict(params)
        self.env = env
        self.batch = batch
        self.tape = tape
        self.record = record
        self.src_tape = src_tape
        self.forwarding = forwarding or {}
        self.vinfo = vinfo
        self.src_program = src_program  # the forward program a reverse run reads
        self.bind: dict = dict(self.params)  # params + live iterators
        self.ctx: dict[str, _LoopCtx] = {}
        self.branch_down: dict[str, int] = {}
        self.op_count = 0
        self.frees: dict[int, list] = {}  # a reverse run's releases, see run_reverse
        self._kernels: dict = {}  # compiled nests by loop id or (graph id, node id)
        self._header_names: dict[int, list[str]] = {}
        self._iterates: dict[tuple, list[int]] = {}
        self._shapes: dict[str, tuple[int, ...]] = {}

    # -- shared helpers ------------------------------------------------------

    def shape_of(self, name: str) -> tuple[int, ...]:
        s = self._shapes.get(name)
        if s is None:
            s = self._shapes[name] = dimensions(self.program.descriptors[name], self.params)
        return s

    def _dtype(self, name: str):
        return _DTYPE[self.program.descriptors[name].element_kind]

    def read_array(self, name: str) -> np.ndarray:
        arr = self.env.get(name)
        if arr is not None:
            return arr
        if name in self.forwarding:
            return self._fetch_forwarded(name)
        desc = self.program.descriptors.get(name)
        if desc is None or desc.role == "input":
            raise UnboundName(f"no value for input '{name}'")
        arr = np.zeros(self.batch + self.shape_of(name), dtype=self._dtype(name))
        self.env[name] = arr
        return arr

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
        """The loop's simulated iterates. The header reads live bindings (a
        nest's iterators in ``local``) and scalar arrays; the result is
        memoized on the values of the names it reads, so a loop nested in
        another simulates once per distinct header."""
        names = self._header_names.get(id(loop))
        if names is None:
            names = self._header_names[id(loop)] = sorted(header_names(loop))
        extra = {} if local is None else local  # then the scalars the header reads
        values = []
        for name in names:
            if name not in extra and name not in self.bind:
                desc = self.program.descriptors.get(name)
                if name != loop.iterator and desc is not None and desc.rank == 0 and name in self.env:
                    extra[name] = uniform_int(self.env[name], f"scalar '{name}' in a loop header")
            values.append(extra[name] if name in extra else self.bind.get(name))
        key = (id(loop), tuple(values))
        iterates = self._iterates.get(key)
        if iterates is None:
            iterates = self._iterates[key] = simulate_header(loop, {**self.bind, **extra} if extra else self.bind)
        return iterates

    # -- control flow --------------------------------------------------------

    def run(self):
        self._exec_region(self.program.region)

    def run_reverse(self):
        """Run the region, releasing each array and tape snapshot where
        ``_release_points`` puts it: after its last touch, by the rule the
        memory model prices (``ir.live_ranges``)."""
        self.frees = self._release_points()
        self.run()

    def _release_points(self) -> dict[int, list]:
        """Where a reverse run releases what it holds, keyed by the ``id()``
        of the top-level compute node that touches a value last, or of the
        top-level loop or branch holding its last touch. Each entry lists
        ``(store, key)`` pairs: rank >= 1 gradients, scratch arrays and
        stored copies in ``env``, and the tape snapshots of a forwarded
        name, released after the last read of any name that shares them. A
        step of ``ir.live_ranges`` is one compute node of a top-level state
        (``ir.node_accesses``, on the cached schedule) or one whole
        top-level loop or branch."""
        for block in self.program.region:  # schedule first: its scratch is gone before touches are held
            if isinstance(block, State):
                schedule(block.graph)

        def steps():  # a generator, so one state's touches are held at a time
            for block in self.program.region:
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
            d = self.program.descriptors.get(name)
            if d is not None and d.rank and d.role in ("gradient", "intermediate", "stored-copy"):
                frees.setdefault(at[last], []).append((self.env, name))
        if shared and self.src_tape is not None:
            for key in self.src_tape.values:
                if key[:2] in shared:
                    frees.setdefault(at[shared[key[:2]]], []).append((self.src_tape.values, key))
        return frees

    def _exec_region(self, region: list[Block]):
        for block in region:
            if isinstance(block, State):
                self._exec_state(block)
                continue
            if isinstance(block, LoopRegion):
                self._exec_loop(block)
            else:
                self._exec_branch(block)
            for store, key in self.frees.get(id(block), ()):  # a state releases per node
                store.pop(key, None)

    def _exec_loop(self, loop: LoopRegion):
        if id(loop) not in self._kernels:
            self._kernels[id(loop)] = self._nest(loop)
        if self._kernels[id(loop)] is not None:
            return self._run_nest(self._kernels[id(loop)])
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
            for name, desc in self.program.descriptors.items():
                if desc.rank == 0 and name in self.env:
                    b[name] = self.env[name]
            raw = eval_expr(br.condition, b, self.env)
            outcome = self._uniform_bool(raw, br.label)
            if self.tape is not None:
                self.tape.branch_trace.setdefault(br.label, []).append(outcome)
        self._exec_region(br.then_body if outcome else br.else_body)

    # -- dataflow ------------------------------------------------------------

    def _exec_state(self, state: State):
        for node in schedule(state.graph):
            if isinstance(node, AccessNode):
                self._visit_access(state.label, node)
            else:
                self._exec_compute(node, state.graph)
                for store, key in self.frees.get(id(node), ()):
                    store.pop(key, None)

    def _recorded_version(self, state_label: str, node: AccessNode) -> int | None:
        """The version of ``node.data`` the tape records at this access
        node, if any."""
        if self.tape is None or self.vinfo is None:
            return None
        v = self.vinfo.write_version.get((state_label, node.id))
        return v if v is not None and (node.data, v) in self.record else None

    def _visit_access(self, state_label: str, node: AccessNode):
        v = self._recorded_version(state_label, node)
        if v is None:
            return
        labels = self.vinfo.write_loops[(node.data, v)]
        coords = tuple(self.ctx[l].current for l in labels)
        self.tape.values[(node.data, v, coords)] = np.array(
            self.read_array(node.data), copy=True
        )

    def _exec_compute(self, node, df: Dataflow):
        if isinstance(node, LibraryNode):
            return self._exec_library(node, df)
        key = (id(df), node.id)
        nest = self._kernels.get(key)
        if nest is None:
            nest = self._kernels[key] = self._nest(node, df)
        self._run_nest(nest)

    def _run_nest(self, nest: tuple):
        fn, loops, libs = nest
        ops = fn(self.read_array, self.write_target, self.bind, self._loop_iterates, loops, libs)
        self.op_count += ops  # after the call: a library node in the nest counts its own

    def _exec_library(self, node: LibraryNode, df: Dataflow):
        step = library_steps(df)[node.id]
        ins = {conn: self.read_array(data) for conn, data in step.ins}

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
        elif node.kind == "reduce_sum":
            x = ins["x"]
            rank = len(self.shape_of(dict(step.ins)["x"]))
            res = x.sum(axis=tuple(range(-rank, 0))) if rank else np.array(x, copy=True)
        else:  # elementwise: the node's compiled expression on whole arrays
            shape = self.shape_of(step.outs[0][0])
            for conn, data in step.ins:
                s = self.shape_of(data)
                if not s:
                    # rank 0 broadcasts; its batch axes stay leading
                    ins[conn] = ins[conn].reshape(ins[conn].shape + (1,) * len(shape))
                elif s != shape:
                    raise ShapeMismatch(
                        f"'{node.id}': operand '{conn}' has shape {s}, output {shape}"
                    )
            res = np.asarray(step.fn(ins) if step.fn is not None else eval_expr(library_expr(node), ins))
            if any(res is v for v in ins.values()):
                res = np.array(res, copy=True)  # the output must not alias an input
        self.op_count += _library_cost(node, step, self.shape_of)

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

    def _nest(self, root, df: Dataflow | None = None) -> tuple | None:
        """The compiled nest of a tasklet or map in ``df``, or of a loop, with
        the loops and library nodes it calls back. None for a loop whose
        body holds a branch, a state-level library node, a read of a
        forwarded name or a tape record: those run block by block."""
        acc = ([], [], {})  # loops, library calls, array names
        item = self._loop_item(root, acc) if df is None else self._compute_item(root, df, acc)
        if item is None:
            return None
        loops, libs, names = acc
        desc = self.program.descriptors
        described = tuple((n, self.shape_of(n), desc[n].element_kind) if n in desc else (n, None, None) for n in names)
        return _compiled_tasklet((item, described)), tuple(loops), tuple(libs)

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
        libs.append(functools.partial(self._exec_library, node, df))
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
                    if self._recorded_version(block.label, node) is not None:
                        return None
                elif isinstance(node, LibraryNode):
                    return None
                else:
                    items.append(self._compute_item(node, block.graph, acc))
        header = tuple(sorted(header_names(loop)))
        return "loop", j, loop.iterator, loop.reverse_of is not None, header, tuple(items)

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
                    loops = self._forward_loops
                    outer = {loops[l].iterator: c for (l, _), c in zip(directives, coords)}
                    ctx = _LoopCtx(self._loop_iterates(loops[label], outer))
                if not ctx.iterates:
                    return None
                coords.append(ctx.iterates[-1])
        return tuple(coords)

    @functools.cached_property
    def _forward_loops(self) -> dict[str, LoopRegion]:
        """The forward program's loops by label: one with no adjoint has no reversed copy."""
        return {b.label: b for _, b in walk_blocks(self.src_program.region) if isinstance(b, LoopRegion)}


# ---------------------------------------------------------------------------
# entry points


def _prepare_inputs(
    program: Program, inputs: dict, params: dict, running: Program | None = None
) -> tuple[dict[str, np.ndarray], tuple[int, ...], set[str]]:
    """Check the inputs against ``program`` and decide the run's batch
    shape: the axes ahead of each input's declared shape, which every
    batched input must share (``ShapeMismatch`` otherwise). Returns the
    inputs that ``running`` (default ``program``) declares, the batch, and
    the names ``running`` writes. An input is copied only if ``running``
    writes it; a batched run gives such an input the batch axes."""
    running = running or program
    written = written_descriptors(running)
    env: dict[str, np.ndarray] = {}
    batch: tuple[int, ...] = ()
    for name, value in inputs.items():
        desc = program.descriptors.get(name)
        if desc is None:
            raise UnboundName(f"input '{name}' is not declared")
        shape = np.shape(value)
        declared = dimensions(desc, params)
        if desc.rank and shape[len(shape) - desc.rank :] != declared:
            raise ShapeMismatch(
                f"input '{name}': trailing shape {shape} does not end with {declared}"
            )
        lead = shape[: len(shape) - desc.rank]
        if lead and batch and lead != batch:
            raise ShapeMismatch(f"input '{name}' has batch shape {lead}, another input {batch}")
        batch = lead or batch
        if name in running.descriptors:
            env[name] = np.asarray(value, dtype=_DTYPE[desc.element_kind])
    for name in written & env.keys():
        arr = env[name]
        if batch and arr.ndim == running.descriptors[name].rank:
            # an input written in place may take a different value per sample
            env[name] = np.broadcast_to(arr, batch + arr.shape).copy()
        else:
            env[name] = np.array(arr, copy=True)  # never mutate caller arrays
    return env, batch, written


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
    env, batch, written = _prepare_inputs(program, inputs, params)
    tape = None
    if record is not None:
        tape = Tape()
        if vinfo is None:
            vinfo = analyze_versions(program)
        for name, desc in program.descriptors.items():
            if desc.role == "input" and name in env and (name, 0) in record:
                # an input the program never writes is its own snapshot
                snap = env[name]
                tape.values[(name, 0, ())] = np.array(snap, copy=True) if name in written else snap
    ex = Executor(program, params, env, batch, tape=tape, record=record, vinfo=vinfo)
    ex.run()
    value = env.get(program.dependent)
    if value is None:
        raise UnboundName(f"dependent '{program.dependent}' was never written")
    for name, desc in program.descriptors.items():
        if desc.role == "intermediate":
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
    env, batch, _ = _prepare_inputs(program, inputs, params, backward)
    if extra_env:
        env.update({k: np.asarray(v) for k, v in extra_env.items() if k in backward.descriptors})
        extra_env.clear()  # the run's env holds the only reference
    seed_name = program.dependent + "__grad"
    if seed_name in backward.descriptors and seed_name not in env:
        env[seed_name] = np.full(batch, seed, dtype=_DTYPE[backward.descriptors[seed_name].element_kind])
    ex = Executor(backward, params, env, batch, src_tape=tape, forwarding=forwarding, src_program=program)
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
    return n * (step.ops if step.ops is not None else count_ops(library_expr(node)))


def _map_range(node_id: str, start, stop, step) -> range:
    """One map parameter's range from its evaluated start, stop and step."""
    start = uniform_int(start, f"map '{node_id}' start")
    stop = uniform_int(stop, f"map '{node_id}' stop")
    step = uniform_int(step, f"map '{node_id}' step")
    if step <= 0:
        raise DomainError(f"map '{node_id}' step must be positive, got {step}")
    return range(start, stop, step)


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
