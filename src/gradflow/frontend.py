"""JSON program format: total parser, canonical serializer, builder.

``parse_program`` accepts arbitrary bytes and either returns a validated
``Program`` or raises ``ProgramSyntaxError`` with a path into the document
(``region/2/nodes/0/body/y``), or ``ValidationFailed`` for a well-formed
document whose program breaks a rule of ``ir.validate``. It never raises
anything else, with one exception: a loop of kind ``while`` is
structurally valid but unsupported, and surfaces as ``UnsupportedLoop`` so
callers can distinguish "malformed" from "recognized but out of scope".
``parse_unvalidated`` is the same parse without the final validation.

``serialize_program`` is canonical: keys sorted, two-space indent, trailing
newline, expressions re-rendered from their parsed form. Serializing the
result of a parse is byte-for-byte idempotent.
"""

from __future__ import annotations

import contextlib
import json
from types import SimpleNamespace

import numpy as np

from .errors import ProgramSyntaxError, UnsupportedLoop
from .ir import (
    AccessNode,
    Block,
    Conditional,
    DataDescriptor,
    Dataflow,
    GraphBuilder,
    LibraryNode,
    LoopRegion,
    MapNode,
    Memlet,
    Program,
    State,
    Tasklet,
    validate_or_raise,
)
from .symexpr import Binary, Const, Expr, Index, Name, Unary, parse_sexpr, to_sexpr

FORMAT_VERSION = 1

_PROGRAM_KEYS = {"format_version", "parameters", "descriptors", "dependent", "independents", "region"}
_DESC_KEYS = {"name", "element_kind", "shape", "role"}
_STATE_KEYS = {"kind", "label", "nodes", "edges"}
_LOOP_KEYS = {"kind", "label", "iterator", "init", "bound", "cmp", "update", "body", "reverse_of", "skip", "take"}
_BRANCH_KEYS = {"kind", "label", "condition", "then", "else", "trace_ref"}
_EDGE_KEYS = {"src", "src_conn", "dst", "dst_conn", "data", "subset", "wcr"}
_NODE_KEYS = {
    "access": {"id", "type", "data"},
    "tasklet": {"id", "type", "ins", "outs", "body", "group"},
    "matmul": {"id", "type", "ta", "tb", "group"},
    "reduce_sum": {"id", "type", "group"},
    "ew_unary": {"id", "type", "op", "const", "group"},
    "ew_binary": {"id", "type", "op", "group"},
    "ew_expr": {"id", "type", "expr", "group"},
    "map": {"id", "type", "params", "ranges", "nodes", "edges", "group"},
}


def _fail(path: list, message: str):
    raise ProgramSyntaxError(message, "/".join(str(p) for p in path))


def _get(obj: dict, key: str, path: list, kind: type | tuple, optional: bool = False, default=None):
    # an explicit null counts as absent for optional keys
    if key not in obj or (optional and obj[key] is None):
        if optional:
            return default
        _fail(path, f"missing key '{key}'")
    val = obj[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        want = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        _fail(path + [key], f"expected {want}, got {type(val).__name__}")
    return val


def _check_keys(obj: dict, allowed: set[str], path: list):
    extra = set(obj) - allowed
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}")


def _expr(text, path: list) -> Expr:
    if not isinstance(text, str):
        _fail(path, f"expected expression string, got {type(text).__name__}")
    try:
        return parse_sexpr(text)
    except ProgramSyntaxError as exc:
        _fail(path, f"bad expression: {exc}")


def _str_list(obj: dict, key: str, path: list, optional: bool = False) -> tuple[str, ...]:
    raw = _get(obj, key, path, list, optional=optional, default=[])
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            _fail(path + [key, i], "expected string")
        out.append(item)
    return tuple(out)


def parse_program(text: str | bytes) -> Program:
    program = parse_unvalidated(text)
    validate_or_raise(program)
    return program


def parse_unvalidated(text: str | bytes) -> Program:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProgramSyntaxError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProgramSyntaxError("top level must be an object")
    path: list = []
    _check_keys(doc, _PROGRAM_KEYS, path)
    version = _get(doc, "format_version", path, int)
    if version != FORMAT_VERSION:
        _fail(["format_version"], f"unsupported format version {version}")

    parameters = _str_list(doc, "parameters", path)

    descriptors: dict[str, DataDescriptor] = {}
    raw_descs = _get(doc, "descriptors", path, list)
    for i, rd in enumerate(raw_descs):
        p = ["descriptors", i]
        if not isinstance(rd, dict):
            _fail(p, "expected object")
        _check_keys(rd, _DESC_KEYS, p)
        name = _get(rd, "name", p, str)
        kind = _get(rd, "element_kind", p, str)
        role = _get(rd, "role", p, str)
        raw_shape = _get(rd, "shape", p, list)
        shape = tuple(_expr(s, p + ["shape", j]) for j, s in enumerate(raw_shape))
        if name in descriptors:
            _fail(p, f"descriptor '{name}' repeated")
        descriptors[name] = DataDescriptor(name, kind, shape, role)

    dependent = _get(doc, "dependent", path, str)
    independents = _str_list(doc, "independents", path)
    region = _parse_region(_get(doc, "region", path, list), ["region"])
    return Program(descriptors, parameters, region, dependent, independents)


def _parse_region(raw: list, path: list) -> list[Block]:
    out: list[Block] = []
    for i, rb in enumerate(raw):
        p = path + [i]
        if not isinstance(rb, dict):
            _fail(p, "expected object")
        kind = _get(rb, "kind", p, str)
        if kind == "state":
            out.append(_parse_state(rb, p))
        elif kind == "loop":
            out.append(_parse_loop(rb, p))
        elif kind == "branch":
            out.append(_parse_branch(rb, p))
        elif kind == "while":
            raise UnsupportedLoop(
                "while loops have no statically analyzable iteration space"
            )
        else:
            _fail(p, f"unknown block kind '{kind}'")
    return out


def _parse_state(rb: dict, p: list) -> State:
    _check_keys(rb, _STATE_KEYS, p)
    label = _get(rb, "label", p, str)
    graph = _parse_graph(rb, p)
    return State(label, graph)


def _parse_graph(rb: dict, p: list) -> Dataflow:
    df = Dataflow()
    for i, rn in enumerate(_get(rb, "nodes", p, list)):
        df.nodes.append(_parse_node(rn, p + ["nodes", i]))
    for i, re_ in enumerate(_get(rb, "edges", p, list)):
        df.edges.append(_parse_edge(re_, p + ["edges", i]))
    return df


def _parse_node(rn, p: list):
    if not isinstance(rn, dict):
        _fail(p, "expected object")
    ntype = _get(rn, "type", p, str)
    if ntype not in _NODE_KEYS:
        _fail(p, f"unknown node type '{ntype}'")
    _check_keys(rn, _NODE_KEYS[ntype], p)
    nid = _get(rn, "id", p, str)
    group = _get(rn, "group", p, str, optional=True) if "group" in _NODE_KEYS[ntype] else None
    if ntype == "access":
        return AccessNode(nid, _get(rn, "data", p, str))
    if ntype == "tasklet":
        ins = _str_list(rn, "ins", p)
        outs = _str_list(rn, "outs", p)
        raw_body = _get(rn, "body", p, dict)
        body = {k: _expr(v, p + ["body", k]) for k, v in raw_body.items()}
        return Tasklet(nid, ins, outs, body, group)
    if ntype == "matmul":
        return LibraryNode(
            nid, "matmul",
            ta=bool(_get(rn, "ta", p, bool, optional=True, default=False)),
            tb=bool(_get(rn, "tb", p, bool, optional=True, default=False)),
            group=group,
        )
    if ntype == "reduce_sum":
        return LibraryNode(nid, "reduce_sum", group=group)
    if ntype == "ew_unary":
        const = _get(rn, "const", p, (int, float), optional=True)
        return LibraryNode(
            nid, "ew_unary", op=_get(rn, "op", p, str),
            const=None if const is None else float(const), group=group,
        )
    if ntype == "ew_binary":
        return LibraryNode(nid, "ew_binary", op=_get(rn, "op", p, str), group=group)
    if ntype == "ew_expr":
        expr = _expr(_get(rn, "expr", p, str), p + ["expr"])
        return LibraryNode(nid, "ew_expr", expr=expr, group=group)
    # map
    params = _str_list(rn, "params", p)
    raw_ranges = _get(rn, "ranges", p, list)
    ranges = []
    for i, rr in enumerate(raw_ranges):
        rp = p + ["ranges", i]
        if not isinstance(rr, list) or len(rr) != 3:
            _fail(rp, "range must be [start, stop, step]")
        ranges.append(tuple(_expr(part, rp + [j]) for j, part in enumerate(rr)))
    body = _parse_graph(rn, p)
    return MapNode(nid, params, tuple(ranges), body, group)


def _parse_edge(re_, p: list) -> Memlet:
    if not isinstance(re_, dict):
        _fail(p, "expected object")
    _check_keys(re_, _EDGE_KEYS, p)
    raw_subset = _get(re_, "subset", p, list, optional=True)
    subset = None
    if raw_subset is not None:
        subset = tuple(_expr(s, p + ["subset", i]) for i, s in enumerate(raw_subset))
    wcr = _get(re_, "wcr", p, str, optional=True)
    if wcr not in (None, "sum"):
        _fail(p + ["wcr"], f"unknown wcr '{wcr}'")
    return Memlet(
        src=_get(re_, "src", p, str),
        src_conn=_get(re_, "src_conn", p, str, optional=True),
        dst=_get(re_, "dst", p, str),
        dst_conn=_get(re_, "dst_conn", p, str, optional=True),
        data=_get(re_, "data", p, str),
        subset=subset,
        wcr=wcr,
    )


def _parse_loop(rb: dict, p: list) -> LoopRegion:
    _check_keys(rb, _LOOP_KEYS, p)
    cmp = _get(rb, "cmp", p, str)
    if cmp not in ("<", ">"):
        _fail(p + ["cmp"], f"comparison must be '<' or '>', got '{cmp}'")
    return LoopRegion(
        label=_get(rb, "label", p, str),
        iterator=_get(rb, "iterator", p, str),
        init=_expr(_get(rb, "init", p, str), p + ["init"]),
        bound=_expr(_get(rb, "bound", p, str), p + ["bound"]),
        cmp=cmp,
        update=_expr(_get(rb, "update", p, str), p + ["update"]),
        body=_parse_region(_get(rb, "body", p, list), p + ["body"]),
        reverse_of=_get(rb, "reverse_of", p, str, optional=True),
        skip=_get(rb, "skip", p, int, optional=True, default=0),
        take=_get(rb, "take", p, int, optional=True),
    )


def _parse_branch(rb: dict, p: list) -> Conditional:
    _check_keys(rb, _BRANCH_KEYS, p)
    return Conditional(
        label=_get(rb, "label", p, str),
        condition=_expr(_get(rb, "condition", p, str), p + ["condition"]),
        then_body=_parse_region(_get(rb, "then", p, list), p + ["then"]),
        else_body=_parse_region(_get(rb, "else", p, list), p + ["else"]),
        trace_ref=_get(rb, "trace_ref", p, str, optional=True),
    )


# ---------------------------------------------------------------------------
# serialization


def program_to_dict(program: Program) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "parameters": list(program.parameters),
        "descriptors": [
            {
                "name": d.name,
                "element_kind": d.element_kind,
                "shape": [to_sexpr(s) for s in d.shape],
                "role": d.role,
            }
            for d in program.descriptors.values()
        ],
        "dependent": program.dependent,
        "independents": list(program.independents),
        "region": [_block_to_dict(b) for b in program.region],
    }


def _block_to_dict(block: Block) -> dict:
    if isinstance(block, State):
        return {
            "kind": "state",
            "label": block.label,
            "nodes": [_node_to_dict(n) for n in block.graph.nodes],
            "edges": [_edge_to_dict(e) for e in block.graph.edges],
        }
    if isinstance(block, LoopRegion):
        out = {
            "kind": "loop",
            "label": block.label,
            "iterator": block.iterator,
            "init": to_sexpr(block.init),
            "bound": to_sexpr(block.bound),
            "cmp": block.cmp,
            "update": to_sexpr(block.update),
            "body": [_block_to_dict(b) for b in block.body],
            "reverse_of": block.reverse_of,
            "skip": block.skip or None,
            "take": block.take,
        }
    else:
        out = {
            "kind": "branch",
            "label": block.label,
            "condition": to_sexpr(block.condition),
            "then": [_block_to_dict(b) for b in block.then_body],
            "else": [_block_to_dict(b) for b in block.else_body],
            "trace_ref": block.trace_ref,
        }
    return {k: v for k, v in out.items() if v is not None}


def _node_to_dict(n) -> dict:
    # canonical form: optional keys are dropped when unset
    if isinstance(n, AccessNode):
        return {"id": n.id, "type": "access", "data": n.data}
    if isinstance(n, Tasklet):
        out = {
            "id": n.id,
            "type": "tasklet",
            "ins": list(n.ins),
            "outs": list(n.outs),
            "body": {k: to_sexpr(v) for k, v in n.body.items()},
            "group": n.group,
        }
    elif isinstance(n, LibraryNode):
        if n.kind == "matmul":
            out = {"id": n.id, "type": "matmul", "ta": n.ta, "tb": n.tb, "group": n.group}
        elif n.kind == "reduce_sum":
            out = {"id": n.id, "type": "reduce_sum", "group": n.group}
        elif n.kind == "ew_unary":
            out = {"id": n.id, "type": "ew_unary", "op": n.op, "const": n.const, "group": n.group}
        elif n.kind == "ew_expr":
            out = {"id": n.id, "type": "ew_expr", "expr": to_sexpr(n.expr), "group": n.group}
        else:
            out = {"id": n.id, "type": "ew_binary", "op": n.op, "group": n.group}
    else:
        out = {
            "id": n.id,
            "type": "map",
            "params": list(n.params),
            "ranges": [[to_sexpr(a), to_sexpr(b), to_sexpr(c)] for a, b, c in n.ranges],
            "nodes": [_node_to_dict(m) for m in n.body.nodes],
            "edges": [_edge_to_dict(e) for e in n.body.edges],
            "group": n.group,
        }
    return {k: v for k, v in out.items() if not (k in ("group", "const") and v is None)}


def _edge_to_dict(e: Memlet) -> dict:
    out = {
        "src": e.src,
        "src_conn": e.src_conn,
        "dst": e.dst,
        "dst_conn": e.dst_conn,
        "data": e.data,
        "subset": None if e.subset is None else [to_sexpr(s) for s in e.subset],
        "wcr": e.wcr,
    }
    return {k: v for k, v in out.items() if v is not None}


def serialize_program(program: Program) -> str:
    return json.dumps(program_to_dict(program), sort_keys=True, indent=2) + "\n"


def load_program(path: str) -> Program:
    with open(path, "rb") as f:
        return parse_program(f.read())


# ---------------------------------------------------------------------------
# builder


class ProgramBuilder:
    """Incremental construction with automatic node ids.

    ``state``, ``loop`` and ``branch`` (with ``then`` and ``orelse``) are
    context managers: each appends its block to the enclosing region when
    its body does not raise; states do not nest. ``finish`` validates and
    returns the program. The open state, and each map body, is assembled
    by an ``ir.GraphBuilder``: the tasklet, library and map helpers take
    (data, subset) operand bindings, read each array's current access
    instance and open one fresh instance per array a node writes, and a
    map's edges to its state follow from its body's reads and writes.
    """

    def __init__(self, parameters: tuple[str, ...] = ()):
        self.parameters = tuple(parameters)
        self.descriptors: dict[str, DataDescriptor] = {}
        self.region: list[Block] = []
        self._stack: list[list[Block]] = [self.region]
        self._counter = 0
        self._graph: GraphBuilder | None = None

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def array(self, name: str, shape, role: str = "intermediate", kind: str = "real32") -> str:
        exprs = tuple(map(_built, shape))
        self.descriptors[name] = DataDescriptor(name, kind, exprs, role)
        return name

    def scalar(self, name: str, role: str = "intermediate", kind: str = "real32") -> str:
        return self.array(name, (), role, kind)

    # -- control flow -------------------------------------------------------

    @contextlib.contextmanager
    def _into(self, body: list[Block]):
        """Let the blocks built in the with-body go into ``body``."""
        self._stack.append(body)
        try:
            yield self
        finally:
            self._stack.pop()

    @contextlib.contextmanager
    def state(self, label: str | None = None):
        label = label or self.fresh("s")
        if self._graph is not None:
            raise RuntimeError("states do not nest")
        self._graph = GraphBuilder(self.fresh)
        try:
            yield self
        finally:
            graph, self._graph = self._graph, None
        self._stack[-1].append(State(label, graph.df))

    @contextlib.contextmanager
    def loop(self, iterator: str, init, bound, cmp: str = "<", update=None,
             label: str | None = None):
        update = update if update is not None else f"(add {iterator} 1)"
        loop = LoopRegion(label or self.fresh("l"), iterator, _built(init), _built(bound), cmp, _built(update))
        with self._into(loop.body):
            yield loop
        self._stack[-1].append(loop)

    @contextlib.contextmanager
    def branch(self, condition, label: str | None = None):
        br = Conditional(label or self.fresh("b"), _built(condition))
        yield SimpleNamespace(then=lambda: self._into(br.then_body), orelse=lambda: self._into(br.else_body))
        self._stack[-1].append(br)

    # -- dataflow (valid only inside a state context) ------------------------

    def _open(self) -> GraphBuilder:
        if self._graph is None:
            raise RuntimeError("dataflow helpers require an open state")
        return self._graph

    def read(self, data: str) -> str:
        """Current access instance for reading (created if absent)."""
        return self._open().read(data)

    def write(self, data: str) -> str:
        """Fresh access instance for writing."""
        return self._open().write(data)

    def tasklet(self, ins: dict[str, tuple[str, tuple]], outs: dict[str, tuple[str, tuple]],
                body: dict[str, str], wcr: str | None = None, group: str | None = None) -> str:
        g = self._open()
        node = Tasklet(self.fresh("t"), tuple(ins), tuple(outs), {k: _built(v) for k, v in body.items()}, group)
        return g.library(node, {c: (d, _subset(s)) for c, (d, s) in ins.items()},
                         {c: (d, _subset(s)) for c, (d, s) in outs.items()}, wcr)

    def library(self, kind: str, ins: dict[str, str], outs: dict[str, str],
                op: str | None = None, const: float | None = None,
                ta: bool = False, tb: bool = False, wcr: str | None = None,
                group: str | None = None) -> str:
        g = self._open()
        if isinstance(const, np.generic):
            const = const.item()  # as _built converts an expression's constants
        return g.library(LibraryNode(self.fresh("n"), kind, op=op, const=const, ta=ta, tb=tb, group=group),
                         ins, outs, wcr)

    def map_node(self, params, ranges, build_body, group: str | None = None) -> str:
        """``build_body(self)`` populates the map body, which is assembled
        as a graph of its own while it runs; the map's edges to the
        enclosing state are wired from the body's reads and writes."""
        outer = self._open()
        nid = self.fresh("m")
        self._graph = GraphBuilder(self.fresh)
        try:
            build_body(self)
        finally:
            body, self._graph = self._graph, outer
        rng = tuple(tuple(map(_built, r)) for r in ranges)
        return outer.map(MapNode(nid, tuple(params), rng, body.df, group))

    def finish(self, dependent: str, independents) -> Program:
        program = Program(
            self.descriptors, self.parameters, self.region, dependent, tuple(independents)
        )
        validate_or_raise(program)
        return program


def _subset(subset) -> tuple[Expr, ...]:
    return tuple(map(_built, subset))


def _built(v) -> Expr:
    """An expression given to the builder: s-expression text, a number
    other than a bool (a ``Const``), or an ``Expr`` whose numpy-scalar
    constants become the Python numbers ``.item()`` gives (``validate``
    rejects any other constant). Anything else raises
    ``ProgramSyntaxError``."""
    if isinstance(v, str):
        return parse_sexpr(v)
    if isinstance(v, (int, float, np.number)) and not isinstance(v, bool):
        v = Const(v)
    if isinstance(v, Const):
        return Const(v.value.item()) if isinstance(v.value, np.generic) else v
    if isinstance(v, Unary):
        return Unary(v.op, _built(v.x))
    if isinstance(v, Binary):
        return Binary(v.op, _built(v.x), _built(v.y))
    if isinstance(v, Index):
        return Index(v.base, tuple(map(_built, v.indices)))
    if isinstance(v, Name):
        return v
    raise ProgramSyntaxError(f"not an expression: {v!r}")
