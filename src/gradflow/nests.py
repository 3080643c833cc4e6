"""Generated code: one Python function per state structure
(``_compiled_state``) and one per tasklet, map or loop nest structure
(``_compiled_tasklet``), each cached for the whole process.

A state's function runs its nodes in schedule order: it inlines each
library node, each tape record and each release, and calls the compiled
nest of each tasklet or map. A nest inlines index arithmetic and bounds
checks and runs its levels as plain ``for`` loops. One emitter writes a
library node's code (``_library_lines``), for a state and for a map body
alike. ``interpreter.RunPlan`` builds each key from the program and the
parameter binding, and passes what is not structure (release keys, tape
versions, nests and loops) to the function as data; the executor runs what
it gets. See ``_compiled_tasklet`` for what a nest does, and the direct
access a real64 nest with exact bodies takes: there a level of tasklets
whose indices its entry checks runs, when they pass, as one loop of direct
points, which keeps each element it loads or stores in a local for the
points after it (scalar replacement: Callahan, Carr and Kennedy, PLDI
1990), so a stencil sweep loads each element once and stores an element
that the next point overwrites only after the last point; else it runs
checked points. Checks and the order of errors are those of the checked
points, and every array holds the same values when the loop ends.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, OutOfBounds, ShapeMismatch
from .ir import LibraryNode, LibraryStep, LoopRegion, uniform_int
from .symexpr import SOURCE_NAMESPACE, Binary, Const, Name, Unary, free_names, python_source

_UNSET = object()  # a bind name missing at nest entry
# numbers each compiled nest and state, so that profiles and tracebacks tell them apart
_NEST_ORDINAL = itertools.count()
_STATE_ORDINAL = itertools.count()


@functools.lru_cache(maxsize=4096)
def _compiled_state(key: tuple) -> Callable:
    """One generated Python function per state structure, shared by every
    executor. ``key`` holds one ``(step, releases)`` per step of the state
    in schedule order; ``step`` is ``("record", data, labels, copy)`` (a
    tape record at an access node, in the loops ``labels``), a library node's
    item (``library_item``) or ``("nest", writes)`` (a tasklet or map,
    writing the arrays ``writes``), and ``releases`` tells whether the run
    releases after it. Returns ``state(ex, args)``, which runs the state
    on executor ``ex`` and returns its operator count, with ``args[j]``
    the data of step ``j``: a record's ``(version its snapshot is keyed
    by, release key)``, a library node's release key, or a nest's ``(nest,
    loops, release key)``; a step that releases nothing has None for its
    key.

    Each step is inlined in order: a record reads its array and stores it
    in ``ex.tape``, as a copy when ``copy`` is set (``data`` is mutated,
    ``ir.mutated_descriptors``), else the array itself, which no later
    write changes; a library node runs as ``_library_lines`` writes
    it; a nest is called. A step that releases then calls ``ex._release``
    with its key, in a forward and a reverse run alike. No local
    holds an array past its step, so a release frees what it pops. The
    library nodes' operators are one constant, to which each nest adds its
    own. The function keeps its generated text as ``state.source``.
    """
    lines: list[str] = []
    ops, written = 0, {}
    for j, (step, releases) in enumerate(key):
        if step[0] == "record":
            _, data, labels, copy = step
            coords = "".join(f"ex.ctx[{label!r}].current, " for label in labels)
            snap = "np.array(p0, copy=True)" if copy else "p0"
            lines += [*_read("p0", data), f"ex.tape.values[({data!r}, args[{j}][0], ({coords}))] = {snap}", "p0 = None"]
        elif step[0] == "library":
            lines += _library_lines(step)
            ops += step[-1]
            written.update(dict.fromkeys(data for data, *_ in step[2]))
        else:
            lines.append(f"ops += args[{j}][0](ex, args[{j}][1])")
            written.update(dict.fromkeys(step[1]))
        if releases:
            at = f"args[{j}]" if step[0] == "library" else f"args[{j}][-1]"
            lines.append(f"ex._release({at})")
    head = ["def state(ex, args):", "    env, batch = ex.env, ex.batch", f"    ops = {ops}"]
    src = "\n".join(head + ["    " + s for s in lines] + ["    return ops"])
    ns = dict(_NAMESPACE)
    exec(compile(src, f"<state {next(_STATE_ORDINAL)}: writes {','.join(sorted(written))}>", "exec"), ns)
    state = ns["state"]
    state.source = src
    return state


def library_item(node: LibraryNode, step: LibraryStep, shape_of: Callable, descriptors: dict, cost: int) -> tuple:
    """A library node's item: the key of its code (``_library_lines``),
    from its graph's step and the shapes ``shape_of`` gives its arrays.
    ``("library", ins, outs, how, cost)``: ``(connector, array)`` per
    in-edge, ``(array, wcr, shape, element kind)`` per out-edge, ``cost``
    its operators per run, and ``how`` one of ``("matmul", ta, tb)``,
    ``("reduce_sum", rank)`` (the rank of ``x``) or ``("elementwise",
    source, pads)``: the node's expression as Python over its operands (the
    k-th in-edge's is ``p<k>``) and its rank-0 operands' pads
    (``_operand_checks``). The shapes decide whether the operands fit, so a
    node whose operands do not raises ``ShapeMismatch`` here, when the run
    plan is built: a matmul whose inner dimensions differ once ``ta`` and
    ``tb`` are applied, or an elementwise node with an operand of rank >= 1
    whose shape is not the output's."""
    outs = tuple((data, wcr, shape_of(data), descriptors[data].element_kind) for data, wcr in step.outs)
    if node.kind == "matmul":
        arrays = dict(step.ins)
        sa, sb = shape_of(arrays["a"]), shape_of(arrays["b"])
        inner = sa[0] if node.ta else sa[1], sb[1] if node.tb else sb[0]
        if inner[0] != inner[1]:
            raise ShapeMismatch(f"matmul '{node.id}': inner dims {inner[0]} vs {inner[1]}")
        how = ("matmul", node.ta, node.tb)
    elif node.kind == "reduce_sum":
        how = ("reduce_sum", len(shape_of(dict(step.ins)["x"])))
    else:
        operand = _operands(step.ins)
        how = ("elementwise", python_source(step.expr, operand.__getitem__), _operand_checks(node, step, shape_of))
    return "library", step.ins, outs, how, cost


def _operands(ins: tuple) -> dict[str, str]:
    """The local holding each connector's operand: ``p<k>`` for the last
    in-edge ``k`` on it."""
    return {conn: f"p{k}" for k, (conn, _) in enumerate(ins)}


def _operand_checks(node: LibraryNode, step: LibraryStep, shape_of) -> tuple:
    """An elementwise node's operand checks, from shapes alone: ``(conn,
    trailing ones)`` for each rank-0 operand, which broadcasts behind its
    batch axes; ``ShapeMismatch`` for the first operand of rank >= 1 whose
    shape is not the output's."""
    shape = shape_of(step.outs[0][0])
    pads = []
    for conn, data in step.ins:
        s = shape_of(data)
        if not s:
            pads.append((conn, (1,) * len(shape)))
        elif s != shape:
            raise ShapeMismatch(f"'{node.id}': operand '{conn}' has shape {s}, output {shape}")
    return tuple(pads)


def _read(var: str, data: str) -> list[str]:
    """Lines reading array ``data`` into ``var``: from ``env``, else through
    ``ex.read_array`` (a forwarded value, a zero-initialized array or
    ``UnboundName``)."""
    return [f"{var} = env.get({data!r})", f"if {var} is None:", f"    {var} = ex.read_array({data!r})"]


def _library_lines(item: tuple) -> list[str]:
    """The code of one run of a library node on whole arrays, from its item
    (``library_item``), for a state's function and a nest alike. It reads
    each in-edge's array, in edge order, and checks no shape: building the
    item did. A matmul transposes as flagged; a sum over all declared axes
    keeps the batch axes; an elementwise node broadcasts its rank-0
    operands behind their batch axes and evaluates its expression, copied
    if it aliases an operand. Each out-edge then adds the result
    (``wcr="sum"``) or stores it, cast to the array's dtype and broadcast
    to its batched shape, as an array of its own. The code counts no
    operators, and ends by clearing its locals."""
    _, ins, outs, how, _ = item
    var = _operands(ins)
    lines = [text for k, (_, data) in enumerate(ins) for text in _read(f"p{k}", data)]
    if how[0] == "matmul":
        _, ta, tb = how
        a, b = var["a"], var["b"]
        lines += [f"{x} = np.swapaxes({x}, -1, -2)" for x, flag in ((a, ta), (b, tb)) if flag]
        lines.append(f"q = np.matmul({a}, {b})")
    elif how[0] == "reduce_sum":
        x, rank = var["x"], how[1]
        lines.append(f"q = {x}.sum(axis={tuple(range(-rank, 0))!r})" if rank else f"q = np.array({x}, copy=True)")
    else:
        _, source, pads = how
        lines += [f"{var[conn]} = {var[conn]}.reshape({var[conn]}.shape + {ones!r})" for conn, ones in pads]
        lines.append(f"q = np.asarray({source})")
        if var:  # the output must not alias an input
            lines += [f"if {' or '.join(f'q is {v}' for v in dict.fromkeys(var.values()))}:",
                      "    q = np.array(q, copy=True)"]
    for data, wcr, shape, kind in outs:
        if wcr == "sum":
            lines += [f"t = env.get({data!r})", "if t is None:", f"    t = ex.write_target({data!r})",
                      f"t += q.astype({kind}, copy=False)"]
        else:
            want = f"batch + {shape!r}" if shape else "batch"
            lines += [f"t = np.asarray(q, dtype={kind})", f"if t.shape != {want}:",
                      f"    t = np.broadcast_to(t, {want}).astype({kind})",
                      f"env[{data!r}] = np.array(t, copy=True) if t.base is not None else t"]
    return lines + [" = ".join([*(f"p{k}" for k in range(len(ins))), "q", "t", "None"])]


@functools.lru_cache(maxsize=4096)
def _compiled_tasklet(key: tuple) -> Callable:
    """One generated Python function per nest structure, shared by every
    executor. ``key`` is ``(item, arrays)``: ``arrays`` gives each array's
    resolved shape and element kind, and ``item`` is one
    of ``("tasklet", ins, outs, ops)`` (``(data, subset, connector)`` per
    in-edge, ``(data, subset, body, wcr)`` per out-edge), ``("map", id,
    params, ranges, items)``, ``("loop", j, iterator, header, step, items)``
    (``header`` the names it reads, ``step`` its visits' even step, from
    ``loop_step``) or a library node's item in a map body
    (``library_item``, inlined by ``_library_lines``). Returns ``nest(ex,
    loops)``, which runs the nest on executor ``ex`` and returns its
    operator count: each level adds its tasklets' and library nodes'
    operators times its points. The function keeps its generated text as
    ``nest.source``.

    A loop runs ``for i in visits`` over ``ex._loop_visits(loops[j], ...)``,
    its iterates in visit order, fetched on every entry when its header
    reads an enclosing iterator or a name the nest writes, else once.
    Iterators and map parameters are locals; any other name comes from ``b``
    at entry and raises ``UnboundName`` where ``eval_expr`` would. An array
    is fetched by the first point that touches it (or by a direct level's
    entry, below), and again after a library node writes it. A tasklet runs
    its edges in the executor's order: each in-edge's index dimension by
    dimension, then each out-edge's body before its index. An index that may
    not be an ``int`` goes through ``uniform_int``; every index is
    bounds-checked, and an index expression repeated over a dimension of the
    same size, or a repeated body, is computed once per point. An array
    without batch axes is read as ``arr[i, j]``, an immutable scalar; a
    batched one as ``arr[..., i, j]``, copied, since a rank-0 read aliases
    the array an output may overwrite.

    Direct access: in a loop or map nest whose arrays are all real64 and
    whose tasklet bodies are all exact (``_exact``: add, sub, mul and neg
    round alike on Python floats and numpy scalars), fetching an array
    without batch axes also takes its direct handle (``_view``): a flat
    memoryview of its own C-contiguous buffer, or at rank 0 the array
    itself. A level is direct when its items are tasklets whose every index
    is an int constant in range or ``iterator ± const`` (``_hoisted``). Each
    ``iterator ± const`` index is checked per dimension where its loop's
    iterates or its map's range are fetched, as one min/max test per level
    that, with those of the levels around it, gives ``ok_<iterator>``; its
    share of the offset is summed once per iterate of the level that owns
    it. Every other tasklet runs checked points, as above.

    Direct loops: a direct level, a nest's outermost one included, is
    entered through one test, its ``ok_<iterator>`` and every handle it
    touches. Before that test, a level whose checks pass and that has
    iterates fetches every array it touches, in its first point's order and
    by that point's fetch, so a level with no iterates fetches nothing. A
    level holding a body of constants alone fetches as its points do, since
    its direct point converts the constant by ``float``, which may raise
    before a later fetch would; it runs direct from its next entry on. When
    the test passes, all its iterates run as one loop of direct points with
    no per-point test; else the level runs checked points, after which their
    locals are cleared. In the direct loop a point keeps each element of a
    tracked array (``_carries``: every access through one offset term) in a
    local: it reads an element it has touched from that local, and writes a
    ``wcr="sum"`` update as ``u = v[o+c] + r; v[o+c] = u`` when the sum is
    read again. When the level's iterates step evenly by a step known here
    (a map's constant range step, a loop's ``loop_step``: +c for a forward
    loop, -c reversed), an element read at constant ``c`` takes the value
    the point before left at ``c + stride * step``, its offset term having
    moved by that much; the first point's carried values are loaded before
    the loop. A store ``v[o+c] = u`` (a kept sum's included, never a
    ``v[o+c] += r``) is sunk when the point also writes ``c - shift``, the
    element the next point writes, ``shift`` being ``stride * step`` or 0
    for a term without the iterator: its value stays in a local, which every
    read before the next write takes, and the last point's sunk values are
    stored once after the loop. An element the point writes more than once
    is stored once, with its last value. With every index checked at the
    level's entry, a direct point raises only where a body of constants
    alone is too large for a double, and then at the first point. No load or
    local can raise, so a direct loop counts the same operators and raises
    the same error at the same point as checked points, and every array
    holds the same values when the loop ends. Distinct arrays never share a
    buffer a nest writes: an input a nest writes is copied (a mutated name,
    ``ir.mutated_descriptors``) and every other written array is the run's
    own.
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
    temps: list[str] = []  # a point's locals, in the order made
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

    def temp(prefix: str) -> str:
        temps.append(f"{prefix}{next(fresh)}")
        return temps[-1]

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
                var = temp("x")
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
        """The local holding ``body``'s value, computed once per distinct
        source in ``results``: each local a point reads is set once per
        point, so one source is one value."""
        src = python_source(body, conns.__getitem__)
        res = results.get((src, convert))
        if res is None:
            res = results[(src, convert)] = temp("r")
            emit(d, f"{res} = float({src})" if convert else f"{res} = {src}")
        return res

    def fetch(data: str, how: str, d: int):
        """Fetch array ``data`` by ``how`` (``read`` or ``write``) if unset."""
        arr = arrays[data]
        emit(d, f"if {arr} is None:")
        emit(d + 1, f"{arr} = {how}({data!r})")
        emit(d + 1, f"{arr}_flat = {arr}.ndim == {len(shape[data])}")
        if views:
            emit(d + 1, f"{views[data]} = _view({arr}, {len(shape[data])})")

    def tasklet(it: tuple, scope: dict, d: int, level: str | None):
        """A checked point of a tasklet."""
        _, ins, outs, _ = it
        fetched: set[str] = set()
        indices: dict[tuple, str] = {}
        conns: dict[str, str] = {}
        results: dict = {}

        def access(data: str, subset, how: str) -> tuple[str, str]:
            arr = arrays[data]
            if data not in fetched:
                fetched.add(data)
                fetch(data, how, d)
            return arr, ", ".join(index(e, shape[data][k], data, scope, indices, d) for k, e in enumerate(subset))

        for data, subset, conn in ins:
            arr, idx = access(data, subset, "read")
            var = conns[conn] = temp("c")
            emit(d, f"{var} = {arr}[{idx or '()'}] if {arr}_flat else _copy({arr}[..., {idx}])")
        for data, subset, body, wcr in outs:
            res = result(body, conns, results, d)
            arr, idx = access(data, subset, "write")
            op = "+=" if wcr == "sum" else "="
            emit(d, f"if {arr}_flat:")
            emit(d + 1, f"{arr}[{idx or '()'}] {op} {res}")
            emit(d, "else:")
            emit(d + 1, f"{arr}[..., {idx}] {op} {res}")

    def element(data: str, subset, scope: dict, level: str, d: int, offsets: dict) -> str:
        """An element through its direct handle, at its flat offset, each
        index of which its level's entry checked (``_hoisted``)."""
        dims = shape[data]
        if not dims:
            return f"{views[data]}[()]"
        const, outer, terms = 0, [], []
        for k, e in enumerate(subset):
            stride = math.prod(dims[k + 1:])
            var, c = _dim(e, dims[k], scope)
            const += c * stride
            if var == level:
                terms.append(_times(var, stride))
            elif var is not None:
                outer.append((var, stride))
        if outer:
            terms.insert(0, partial(outer))
        if len(terms) > 1:
            text = " + ".join(terms)
            if text not in offsets:
                offsets[text] = temp("o")
                emit(d, f"{offsets[text]} = {text}")
            terms = [offsets[text]]
        if not terms:
            return f"{views[data]}[{const}]"
        return f"{views[data]}[{terms[0]}{const:+d}]" if const else f"{views[data]}[{terms[0]}]"

    def innermost(seq: str, var: str, scope: dict, d: int, items: tuple, step: int | None):
        """The head of a direct level ("Direct loops" above): its fetch at
        entry, its one test and the loop of direct points that runs when the
        test passes, carrying each tracked element's value to the next
        point when the iterates step evenly by ``step``; the caller emits
        the ``else:`` arm of checked points."""
        touched: dict[str, str] = {}  # by array, the fetch of its first access
        for _, ins, outs, _ in items:
            for data, how in [(data, "read") for data, *_ in ins] + [(data, "write") for data, *_ in outs]:
                touched.setdefault(data, how)
        if all(free_names(body) for _, _, outs, _ in items for _, _, body, _ in outs):
            emit(d, f"if {seq} and ok_{var}:")
            for data, how in touched.items():
                fetch(data, how, d + 1)
        emit(d, f"if {' and '.join([f'ok_{var}'] + [f'{views[a]} is not None' for a in touched])}:")
        tracked, kept, carried, sunk, left = _carries(items, shape, scope, var, step)
        entering = {(data, c): f"e{next(fresh)}" for data, c, *_ in carried}
        if carried:
            emit(d + 1, f"if {seq}:")
            emit(d + 2, f"{var} = {seq}[0]")
            first: dict[str, str] = {}
            for data, c, subset, _ in carried:
                emit(d + 2, f"{entering[(data, c)]} = {element(data, subset, scope, var, d + 2, first)}")
        emit(d + 1, f"for {var} in {seq}:")
        e = d + 2  # a point's depth
        # by (array, constant), the local holding each element's value that
        # a read takes in place of a load and every access sets; the offsets
        # and results the point's tasklets share; each sunk element's store,
        # made once after the loop (``left`` counts the stores a later write
        # replaces)
        known, offsets, results, flush = dict(entering), {}, {}, dict.fromkeys(sunk)
        for _, ins, outs, _ in items:
            conns: dict[str, str] = {}
            for data, subset, conn in ins:
                at = (data, tracked[data][subset]) if data in tracked else None
                if at in known:
                    conns[conn] = known[at]
                    continue
                value = conns[conn] = temp("c")
                emit(e, f"{value} = {element(data, subset, scope, var, e, offsets)}")
                if at:
                    known[at] = value
            for data, subset, body, wcr in outs:
                # a body of constants alone may be an int: converted as a numpy
                # store converts it, one too large for a double raises alike
                res = result(body, conns, results, e, convert=not free_names(body))
                ref = element(data, subset, scope, var, e, offsets)
                at = (data, tracked[data][subset]) if data in tracked else None
                if wcr == "sum" and at not in known and at not in kept:
                    emit(e, f"{ref} += {res}")
                    continue
                if wcr == "sum":  # as v[o] += r, from the element's value if known
                    res = f"{known.get(at, ref)} + {res}"
                    if at in kept or at in flush:
                        total = temp("u")
                        emit(e, f"{total} = {res}")
                        res = total
                if left.get(at):  # a later write of this point stores the element
                    left[at] -= 1
                elif at in flush:
                    flush[at] = f"{ref} = {res}"
                else:
                    emit(e, f"{ref} = {res}")
                if at in kept:
                    known[at] = res
        moves = [(entering[(data, c)], known[(data, c + shift)]) for data, c, _, shift in carried]
        moves = [(to, at) for to, at in moves if to != at]
        if moves:
            emit(e, f"{', '.join(to for to, _ in moves)} = {', '.join(at for _, at in moves)}")
        stores = [text for text in flush.values() if text]  # a memory v[o+c] += r is never sunk
        if stores:
            emit(d + 1, f"if {seq}:")
            for text in stores:
                emit(e, text)
        emit(d, "else:")

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
        ops = sum(it[-1] for it in items if it[0] in ("tasklet", "library"))
        if ops:
            emit(d, f"ops += len({seq}) * {ops}" if seq else f"ops += {ops}")

    def body(items: tuple, scope: dict, d: int, level: str | None):
        start = len(lines)
        for it in items:
            emitters[it[0]](it, scope, d, level)
        if not any(isinstance(x, str) for x in lines[start:]):
            emit(d, "pass")

    def level_loop(seq: str, var: str, scope: dict, d: int, items: tuple, step: int | None, inner: Callable):
        """``for var in seq:`` around the lines ``inner(depth)`` emits, in
        the ``else:`` arm of an ``innermost`` head when the level is direct
        (``_hoisted``), whose checks it hoists to their levels."""
        hoisted = _hoisted(items, shape, scope) if views else None
        if hoisted is not None:
            for v, c, size in hoisted:
                checks[v].append((c, size))
            innermost(seq, var, scope, d, items, step)
            d += 1
        made = len(temps)
        emit(d, f"for {var} in {seq}:")
        if views:
            later(d + 1, lambda: per_iterate[var])
        inner(d + 1)
        if hoisted is not None and temps[made:]:  # so a later direct loop holds no more values than these points
            emit(d, " = ".join([*dict.fromkeys(temps[made:]), "None"]))

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
        inner = {**scope, params[k]: var}
        step = ranges[k][2].value if isinstance(ranges[k][2], Const) and ranges[k][2].value.__class__ is int else None
        if last:
            level_loop(seq, var, inner, d, items, step, lambda e: body(items, inner, e, var))
        else:
            level_loop(seq, var, inner, d, (), None, lambda e: mapping(it, inner, e, var, k + 1))

    def loop(it: tuple, scope: dict, d: int, level: str | None):
        _, j, iterator, header, step, items = it
        seq, var = f"s{j}", f"i{next(fresh)}"
        passed = ", ".join(f"{n!r}: {scope[n]}" for n in header if n in scope)
        call = f"visits(loops[{j}], {{{passed}}})" if passed else f"visits(loops[{j}])"
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
        count(items, d, seq)
        inner = {**scope, iterator: var}
        level_loop(seq, var, inner, d, items, step, lambda e: body(items, inner, e, var))

    def library(it: tuple, scope: dict, d: int, level: str | None):
        for text in _library_lines(it):
            emit(d, text)
        for data in dict.fromkeys(data for data, *_ in it[2]):  # a library node may replace the array
            if data in arrays:
                emit(d, f"{arrays[data]} = None")
                if views:
                    emit(d, f"{views[data]} = None")

    emitters = {"tasklet": tasklet, "map": mapping, "loop": loop, "library": library}
    count((item,), 1)
    body((item,), {}, 1, None)
    text = [s for x in lines for s in (x() if callable(x) else (x,))]
    head = ["def nest(ex, loops):", "    read, write, visits, b = ex.read_array, ex.write_target, ex._loop_visits, ex.bind",
            "    env, batch = ex.env, ex.batch"]
    src = "\n".join(head + ["    ops = 0"]
                    + ["    " + s for s in entry] + text + ["    return ops"])
    ns = {
        **_NAMESPACE, "uniform_int": uniform_int, "_copy": _copy_element,
        "_out_of_bounds": _out_of_bounds,
        "_map_range": _map_range, "_UNSET": _UNSET, "_view": _view,
    }
    # a map by its id, a loop by its iterator, a tasklet by what it writes
    root = item[1] if item[0] == "map" else item[2] if item[0] == "loop" else ",".join(sorted(written))
    filename = f"<nest {next(_NEST_ORDINAL)}: {item[0]} {root}>"
    exec(compile(src, filename, "exec"), ns)
    nest = ns["nest"]
    nest.source = src
    return nest


# what every generated function may call; dtypes by element kind
_NAMESPACE = {**SOURCE_NAMESPACE, "np": np, "real32": np.float32, "real64": np.float64}


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


def _dim(e, size: int, scope: dict) -> tuple[str | None, int] | None:
    """An index into a dimension of ``size`` as ``(variable, c)``: ``(None,
    c)`` for an int constant in range, ``_affine``'s pair for ``iterator ±
    const``, else None (computed and checked at the point)."""
    if isinstance(e, Const) and e.value.__class__ is int and 0 <= e.value < size:
        return None, e.value
    return _affine(e, scope)


def _hoisted(items: tuple, shape: dict, scope: dict) -> list[tuple] | None:
    """A direct level's entry checks, when its items are tasklets whose every
    index is ``_dim``'s: ``(variable, c, size)`` per ``iterator ± const``
    index, else None. They come from every index, not from the loads a
    point makes, since a carried point reads an element it has touched from
    a local."""
    if not items or any(it[0] != "tasklet" for it in items):
        return None
    dims = [(_dim(e, size, scope), size) for _, ins, outs, _ in items for data, subset, *_ in ins + outs
            for e, size in zip(subset, shape[data])]
    if any(dim is None for dim, _ in dims):
        return None
    return [(var, c, size) for (var, c), size in dims if var is not None]


def _carries(items: tuple, shape: dict, scope: dict, level: str,
             step: int | None) -> tuple[dict, set, list, list, dict]:
    """What a point of a direct level keeps in locals, as ``(tracked,
    kept, carried, sunk, overwritten)``. ``tracked`` holds each array of
    rank >= 1 whose every access in the point has the same offset term (the
    same iterators at the same strides), with each subset's constant
    offset. ``carried`` holds
    ``(array, c, subset, shift)`` for each tracked element that the point
    reads before any store to it, and whose element at ``c + shift`` the
    point touches too: that is the same element one point earlier,
    ``shift`` being the level iterator's stride in the term times ``step``
    (0 for a term without the iterator, whatever the visit order; with no
    ``step``, only such terms carry). ``kept`` holds, by ``(array,
    constant)``, each element whose value a later access reads: one the
    point touches again, or one it carries to the next point. A level that
    reads a rank-0 array tracks nothing: its values are numpy scalars, and
    a local holding one would change the arithmetic of a later read, which
    loads a Python float.

    ``sunk`` holds, in the order first written, each tracked element the
    point writes at ``c`` while it also writes ``c - shift``, the element
    the next point then writes, when the array's ``shift`` is known. Every
    read of such an element before that write takes a local: the point's
    own reads, or the next point's carried value. ``overwritten`` gives
    each tracked element the point writes more than once the number of its
    stores that a later write of the same point replaces: such an element
    is kept, so every read after its first write takes a local, and only
    its last value is stored."""
    if any(not shape[data] for it in items for data, *_ in it[1]):
        return {}, set(), [], [], {}
    terms: dict[str, tuple | None] = {}
    tracked: dict[str, dict] = {}
    first: dict[str, dict[int, tuple]] = {}  # by array and constant: (read first, subset)
    again = set()
    for it in items:
        for data, subset, reads in [(a, s, True) for a, s, _ in it[1]] + [(a, s, w == "sum") for a, s, _, w in it[2]]:
            dims = shape[data]
            if not dims:
                terms[data] = None
                continue
            parts = [_dim(e, dims[k], scope) for k, e in enumerate(subset)]
            strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
            term = tuple(sorted((v, st) for (v, _), st in zip(parts, strides) if v is not None))
            if terms.setdefault(data, term) != term:
                terms[data] = None
            const = sum(c * st for (_, c), st in zip(parts, strides))
            tracked.setdefault(data, {})[subset] = const
            if const in first.setdefault(data, {}):
                again.add((data, const))
            first[data].setdefault(const, (reads, subset))
    tracked = {data: at for data, at in tracked.items() if terms[data] is not None}
    writes = collections.Counter((data, tracked[data][subset]) for it in items for data, subset, *_ in it[2]
                                 if data in tracked)
    carried, sunk = [], []
    for data in tracked:
        stride = sum(st for v, st in terms[data] if v == level)
        if stride and step is None:
            continue
        shift = stride * step if stride else 0
        carried += [(data, c, subset, shift) for c, (reads, subset) in first[data].items()
                    if reads and c + shift in first[data]]
        sunk += [at for at in writes if at[0] == data and (data, at[1] - shift) in writes]
    kept = {(data, c + shift) for data, c, _, shift in carried} | {at for at in again if at[0] in tracked}
    overwritten = {at: n - 1 for at, n in writes.items() if n > 1}
    return tracked, kept, carried, sunk, overwritten


def loop_step(loop: LoopRegion) -> int | None:
    """The even step of a loop's visits, when its update is ``iterator ±
    const``: the constant, negated for a reversed loop, which runs its
    forward iterates back to front; else None."""
    shift = _affine(loop.update, {loop.iterator: loop.iterator})
    if shift is None:
        return None
    return -shift[1] if loop.reverse_of is not None else shift[1]


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


def _item_writes(item: tuple) -> set[str]:
    """Arrays a nest item writes."""
    if item[0] in ("tasklet", "library"):
        return {data for data, *_ in item[2]}
    return set().union(*map(_item_writes, item[-1]))


def _out_of_bounds(data: str, i: int, size: int):
    raise OutOfBounds(f"'{data}' index {i} outside dimension of size {size}")


def _map_range(node_id: str, start, stop, step) -> range:
    """One map parameter's range from its evaluated start, stop and step."""
    start = uniform_int(start, f"map '{node_id}' start")
    stop = uniform_int(stop, f"map '{node_id}' stop")
    step = uniform_int(step, f"map '{node_id}' step")
    if step <= 0:
        raise DomainError(f"map '{node_id}' step must be positive, got {step}")
    return range(start, stop, step)
