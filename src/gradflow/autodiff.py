"""Reverse-mode differentiation of dataflow programs.

The pipeline:

1. ``extract_ccs`` walks the program backwards from the dependent and keeps
   every compute node whose result the gradient chain can touch. Tracking is
   per array name, not per version (sound; gradient clearing compensates for
   overwrites). Loop bodies are swept repeatedly until the kept/tracked pair
   stabilizes; if the first passes differ from the steady state, the last
   iterations of the reversed loop need their own (larger or smaller) body,
   which is emitted as peeled one-trip loops.

2. ``build_backward`` emits the adjoint program: control flow mirrored in
   reverse, each loop reversed by one rule (the reversed loop keeps the
   forward header, which the executor re-simulates and walks backwards;
   peels are such loops restricted to single iterates), conditionals
   replaying recorded outcomes. Each kept node
   becomes adjoint nodes writing gradient contributions with ``sum``
   conflict resolution: tasklets and maps get adjoint tasklets and maps, a
   matmul gets matmuls, and every other library node gets one whole-array
   ``ew_expr`` node per active operand, holding the derivative of its
   elementwise expression. A write that killed a previous value clears the
   gradient buffer after consuming it; when an operand aliases the output
   at the same subset, the overwrite itself plays the role of the clear.

Gradient buffers are named ``<data>__grad``; forwarded values are read
through ``<data>__v<version>`` descriptors resolved against the forward
tape; a store/recompute plan writes each value it recomputes under its
descriptor in a rebuild block instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DependentUnreachable,
    IrrecomputableValue,
    NoFixpoint,
    NonDifferentiableOp,
    UnsupportedConstruct,
    UnsupportedLoop,
)
from .interpreter import RunPlan, binding_of, run_backward, run_forward
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
    header_names,
    library_connectors,
    library_expr,
    pristine_inputs,
    schedule,
    splice,
    validate,
    validated,
    walk_blocks,
    written_descriptors,
)
from .symexpr import (
    Binary,
    Const,
    Expr,
    Name,
    Unary,
    free_names,
    simplify,
)
from .versions import LAST, ForwardingEntry, ReachSet, VersionInfo, analyze_versions

NodeRef = tuple[str, str]  # (state label, node id)


def grad_name(data: str) -> str:
    return data + "__grad"


def stored_name(data: str, versions: tuple[int, ...]) -> str:
    return data + "__v" + "_".join(str(v) for v in versions)


# ---------------------------------------------------------------------------
# scalar derivatives


def _warn_ae(op: str):
    warnings.warn(
        f"'{op}' is not differentiable everywhere; using its almost-everywhere derivative",
        NonDifferentiableOp,
        stacklevel=3,
    )


def derivative(expr: Expr, wrt: str) -> Expr:
    """Symbolic partial derivative with respect to the name ``wrt``."""
    return simplify(_deriv(expr, wrt, Const(1)))


def _deriv(e: Expr, w: str, seed: Expr) -> Expr:
    """Forward-mode derivative of ``e`` when the name ``w`` carries the
    derivative ``seed`` and every other name carries 0.

    With ``seed = 1`` this is the partial derivative. Every rule is linear in
    the operand derivatives, so a symbolic seed ``g`` yields ``g * de/dw``:
    for a scalar ``e`` the Jacobian is 1x1 and equals its transpose, so that
    pushforward is also the adjoint contribution reverse mode sends to ``w``.
    """
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Name):
        return seed if e.id == w else Const(0)
    if isinstance(e, Unary):
        dx = _deriv(e.x, w, seed)
        if isinstance(dx, Const) and dx.value == 0 and e.op != "sign":
            return Const(0)
        x = e.x
        if e.op == "neg":
            return Unary("neg", dx)
        if e.op == "sin":
            return Binary("mul", Unary("cos", x), dx)
        if e.op == "cos":
            return Unary("neg", Binary("mul", Unary("sin", x), dx))
        if e.op == "exp":
            return Binary("mul", Unary("exp", x), dx)
        if e.op == "log":
            return Binary("div", dx, x)
        if e.op == "sqrt":
            return Binary("div", dx, Binary("mul", Const(2), Unary("sqrt", x)))
        if e.op == "tanh":
            t = Unary("tanh", x)
            return Binary("mul", Binary("sub", Const(1), Binary("mul", t, t)), dx)
        if e.op == "abs":
            _warn_ae("abs")
            return Binary("mul", Unary("sign", x), dx)
        if e.op == "sign":
            if not (isinstance(dx, Const) and dx.value == 0):
                _warn_ae("sign")
            return Const(0)
        raise UnsupportedConstruct(f"no derivative rule for '{e.op}'")
    if isinstance(e, Binary):
        dx, dy = _deriv(e.x, w, seed), _deriv(e.y, w, seed)
        x, y = e.x, e.y
        zx = isinstance(dx, Const) and dx.value == 0
        zy = isinstance(dy, Const) and dy.value == 0
        if e.op == "add":
            return Binary("add", dx, dy)
        if e.op == "sub":
            return Binary("sub", dx, dy)
        if e.op == "mul":
            return Binary("add", Binary("mul", dx, y), Binary("mul", x, dy))
        if e.op == "div":
            # x'/y - x*y'/y^2, without the term that vanishes; with both
            # terms, (x' - (x/y)*y')/y: y*y can underflow to 0 where y
            # itself does not
            if zx and zy:
                return Const(0)
            if zy:
                return Binary("div", dx, y)
            if zx:
                return Unary("neg", Binary("div", Binary("mul", x, dy), Binary("mul", y, y)))
            return Binary("div", Binary("sub", dx, Binary("mul", Binary("div", x, y), dy)), y)
        if e.op == "pow":
            if zx and zy:
                return Const(0)
            if isinstance(y, Const):
                c = y.value
                return Binary(
                    "mul",
                    Binary("mul", Const(c), Binary("pow", x, Const(c - 1))),
                    dx,
                )
            # general: x^y * (y' log x + y x' / x)
            return Binary(
                "mul",
                Binary("pow", x, y),
                Binary(
                    "add",
                    Binary("mul", dy, Unary("log", x)),
                    Binary("div", Binary("mul", y, dx), x),
                ),
            )
        if e.op in ("min", "max"):
            if zx and zy:
                return Const(0)
            _warn_ae(e.op)
            s = Unary("sign", Binary("sub", x, y))  # -1 / 0 / +1
            lo = Binary("mul", Const(0.5), Binary("sub", Const(1), s))  # picks x for min
            hi = Binary("mul", Const(0.5), Binary("add", Const(1), s))  # picks x for max
            wx = hi if e.op == "max" else lo
            wy = lo if e.op == "max" else hi
            return Binary("add", Binary("mul", wx, dx), Binary("mul", wy, dy))
        if e.op == "idiv":
            if not (zx and zy):
                _warn_ae(e.op)
            return Const(0)
        if e.op == "mod":
            # x mod y = x - y*idiv(x, y): x' - idiv(x, y)*y' almost
            # everywhere, without the term that vanishes
            if zx and zy:
                return Const(0)
            _warn_ae(e.op)
            if zy:
                return dx
            q = Binary("mul", Binary("idiv", x, y), dy)
            return Unary("neg", q) if zx else Binary("sub", dx, q)
        raise UnsupportedConstruct(f"no derivative rule for '{e.op}'")
    raise UnsupportedConstruct("conditions are not differentiable")


# ---------------------------------------------------------------------------
# contributing computation slice


@dataclass(frozen=True)
class CCS:
    active: frozenset[str]
    kept_union: frozenset[NodeRef]
    # per loop label: kept sets of the distinct leading reverse passes;
    # the last entry is the steady state, earlier ones become peels
    loop_passes: dict[str, list[frozenset[NodeRef]]] = field(default_factory=dict)


def _node_reads(df: Dataflow, nid: str) -> set[str]:
    return {e.data for e in df.in_edges(nid)}


def _node_writes(df: Dataflow, nid: str) -> set[str]:
    return {e.data for e in df.out_edges(nid)}


def extract_ccs(program: Program) -> CCS:
    if program.dependent not in written_descriptors(program):
        raise DependentUnreachable(
            f"'{program.dependent}' is never written; nothing to differentiate"
        )
    n_descs = len(program.descriptors)
    loop_passes: dict[str, list[frozenset[NodeRef]]] = {}

    def sweep_state(state: State, tracked: set[str]) -> set[NodeRef]:
        kept: set[NodeRef] = set()
        df = state.graph
        for node in reversed(schedule(df)):
            nid = node.id
            if isinstance(node, AccessNode):
                continue
            if _node_writes(df, nid) & tracked:
                kept.add((state.label, nid))
                tracked |= _node_reads(df, nid)
        return kept

    def sweep_region(region: list[Block], tracked: set[str]) -> set[NodeRef]:
        kept: set[NodeRef] = set()
        for block in reversed(region):
            if isinstance(block, State):
                kept |= sweep_state(block, tracked)
            elif isinstance(block, Conditional):
                t_then, t_else = set(tracked), set(tracked)
                kept |= sweep_region(block.then_body, t_then)
                kept |= sweep_region(block.else_body, t_else)
                tracked |= t_then | t_else
            elif isinstance(block, LoopRegion):
                passes: list[tuple[frozenset[NodeRef], frozenset[str]]] = []
                while True:
                    k = frozenset(sweep_region(block.body, tracked))
                    passes.append((k, frozenset(tracked)))
                    if len(passes) >= 2 and passes[-1] == passes[-2]:
                        break
                    if len(passes) > n_descs + 2:
                        raise NoFixpoint(
                            f"slice of loop '{block.label}' failed to stabilize"
                        )
                kept_seq = [p[0] for p in passes]
                while len(kept_seq) >= 2 and kept_seq[-1] == kept_seq[-2]:
                    kept_seq.pop()
                loop_passes[block.label] = kept_seq
                for ks in kept_seq:
                    kept |= ks
        return kept

    tracked: set[str] = {program.dependent}
    kept_union = frozenset(sweep_region(program.region, tracked))

    # forward reachability from the independents
    active: set[str] = set(program.independents)
    for _ in range(n_descs + 1):
        before = len(active)
        for _, block in walk_blocks(program.region):
            if not isinstance(block, State):
                continue
            df = block.graph
            for node in df.nodes:
                if isinstance(node, AccessNode):
                    continue
                if _node_reads(df, node.id) & active:
                    active |= _node_writes(df, node.id)
        if len(active) == before:
            break

    return CCS(
        active=frozenset(active & tracked),
        kept_union=kept_union,
        loop_passes=loop_passes,
    )


def restrict_to_ccs(program: Program) -> Program:
    """Forward program with every compute node outside the slice removed.
    The dependent's value is unchanged. Only the states that lose nodes are
    built anew; ``program`` is left untouched."""
    ccs = extract_ccs(program)
    cut: dict[int, list[Block]] = {}
    for _, block in walk_blocks(program.region):
        if not isinstance(block, State):
            continue
        df = block.graph
        drop = {
            n.id
            for n in df.nodes
            if not isinstance(n, AccessNode) and (block.label, n.id) not in ccs.kept_union
        }
        edges = [e for e in df.edges if e.src not in drop and e.dst not in drop]
        touched = {e.src for e in edges} | {e.dst for e in edges}
        nodes = [
            n for n in df.nodes
            if n.id not in drop and (not isinstance(n, AccessNode) or n.id in touched)
        ]
        if len(nodes) < len(df.nodes):
            cut[id(block)] = [State(block.label, Dataflow(nodes, edges))]
    return replace(program, region=splice(program.region, cut))


# ---------------------------------------------------------------------------
# loop reversal


def reverse_loop_header(loop: LoopRegion) -> LoopRegion:
    """The reversal of ``loop``: its forward header under ``reverse_of``,
    which the executor re-simulates and walks from the last iterate back."""
    return LoopRegion(
        label=loop.label + "__bwd",
        iterator=loop.iterator,
        init=loop.init,
        bound=loop.bound,
        cmp=loop.cmp,
        update=loop.update,
        reverse_of=loop.label,
    )


# ---------------------------------------------------------------------------
# backward construction


@dataclass(frozen=True)
class BackwardBundle:
    backward: Program
    forwarding: dict[str, ForwardingEntry]
    vinfo: VersionInfo
    ccs: CCS


class _BackwardBuilder:
    def __init__(self, program: Program, vinfo: VersionInfo, ccs: CCS):
        self.p = program
        self.vinfo = vinfo
        self.ccs = ccs
        self.pristine = pristine_inputs(program)
        self.gradset = set(ccs.active) | {program.dependent}
        self.entries: dict[tuple, ForwardingEntry] = {}
        self.used_inputs: set[str] = set()
        self.used_grads: set[str] = {program.dependent}
        self.temps: dict[str, DataDescriptor] = {}  # broadcast contributions
        self.loops = {b.label: b for _, b in walk_blocks(program.region) if isinstance(b, LoopRegion)}
        self._n = 0

    def fresh(self, prefix: str) -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    # -- value sourcing ------------------------------------------------------

    def value_source(self, state_label: str, access_id: str, data: str) -> str:
        """Name to read the forward value of ``data`` from, as seen by the
        node that read it through the given access instance."""
        if data in self.pristine:
            self.used_inputs.add(data)
            return data
        rs = self.vinfo.reads.get((state_label, access_id), ReachSet(()))
        if rs.branch_merged:
            raise UnsupportedConstruct(
                f"the reverse pass needs the value of '{data}', which merges "
                "across branch arms; materialize it outside the branch"
            )
        if not rs.candidates:
            raise IrrecomputableValue(
                f"the reverse pass needs '{data}' before any write to it"
            )
        key = (data, rs.candidates)
        entry = self.entries.get(key)
        if entry is None:
            # a read after a loop finds its last iterate by re-simulating the header
            for label in sorted({l for c in rs.candidates for l, kind in c.directives if kind == LAST}):
                self.read_header(self.loops[label])
            versions = tuple(c.version for c in rs.candidates)
            entry = ForwardingEntry(stored_name(data, versions), data, rs.candidates)
            self.entries[key] = entry
        return entry.name

    def grad_of(self, data: str) -> str:
        self.used_grads.add(data)
        return grad_name(data)

    # -- region reversal -----------------------------------------------------

    def rev_region(self, region: list[Block], kept: frozenset[NodeRef]) -> list[Block]:
        out: list[Block] = []
        for block in reversed(region):
            if isinstance(block, State):
                state = self.rev_state(block, kept)
                if state is not None:
                    out.append(state)
            elif isinstance(block, Conditional):
                then_b = self.rev_region(block.then_body, kept)
                else_b = self.rev_region(block.else_body, kept)
                if then_b or else_b:
                    out.append(
                        Conditional(
                            label=block.label + "__bwd",
                            condition=block.condition,
                            then_body=then_b,
                            else_body=else_b,
                            trace_ref=block.label,
                        )
                    )
            elif isinstance(block, LoopRegion):
                out.extend(self.rev_loop(block))
        return out

    def rev_loop(self, loop: LoopRegion) -> list[Block]:
        passes = self.ccs.loop_passes.get(loop.label, [])
        if not passes or not any(passes):
            return []
        out = self._rev_loop_blocks(loop, passes)
        if out:
            self.read_header(loop)
        return out

    def read_header(self, loop: LoopRegion):
        """Let the reverse program re-simulate the forward header of
        ``loop``, as a reversed loop and a read after the loop both do: each
        input the header reads joins the reverse program's inputs, and a
        scalar the program writes, which no longer holds the value the
        forward header saw, raises ``UnsupportedLoop``."""
        for name in sorted(header_names(loop) & set(self.p.descriptors)):
            if name not in self.pristine:
                raise UnsupportedLoop(
                    f"loop '{loop.label}': its header reads '{name}', which the "
                    "program writes, so the reverse pass cannot re-simulate it"
                )
            self.used_inputs.add(name)

    def _rev_loop_blocks(self, loop: LoopRegion, passes: list[frozenset[NodeRef]]) -> list[Block]:
        k = len(passes) - 1
        steady = passes[-1]
        if k == 0:
            body = self.rev_region(loop.body, steady)
            if not body:
                return []
            rev = reverse_loop_header(loop)
            rev.body = body
            return [rev]
        if any(not isinstance(b, State) for b in loop.body):
            raise UnsupportedLoop(
                f"loop '{loop.label}' needs peeled reversal, which requires a flat body"
            )
        out: list[Block] = []
        for p in range(k):
            body = self.rev_region(loop.body, passes[p])
            if body:
                # the p-th reversed iterate alone
                peel = reverse_loop_header(loop)
                peel.label, peel.skip, peel.take = f"{loop.label}__peel{p}", p, 1
                # state labels must stay unique across the peeled copies; a
                # flat body reverses to states alone
                for b in body:
                    b.label += f"__p{p}"
                peel.body = body
                out.append(peel)
        body = self.rev_region(loop.body, steady)
        if body:
            main = reverse_loop_header(loop)
            main.skip, main.body = k, body
            out.append(main)
        return out

    # -- state reversal ------------------------------------------------------

    def rev_state(self, state: State, kept: frozenset[NodeRef]) -> State | None:
        df = state.graph
        gb = GraphBuilder(self.fresh)
        for node in reversed(schedule(df)):
            nid = node.id
            if isinstance(node, AccessNode) or (state.label, nid) not in kept:
                continue
            writes = _node_writes(df, nid)
            if not writes & self.gradset:
                continue
            if isinstance(node, Tasklet):
                self.emit_tasklet_adjoint(
                    state.label, df, node,
                    site=lambda e: e.src if e.dst == node.id else e.dst,
                    gb=gb, read=gb.read, prefix="adj", where=f"tasklet '{node.id}'",
                )
            elif isinstance(node, LibraryNode):
                self.adj_library(gb, state, df, node)
            else:
                self.adj_map(gb, state, df, node)
        if all(isinstance(n, AccessNode) for n in gb.df.nodes):
            return None
        return State(state.label + "__bwd", gb.df)

    # -- adjoint emission ----------------------------------------------------

    def _killed(self, state_label: str, access_id: str) -> bool:
        rs = self.vinfo.killed.get((state_label, access_id), ReachSet(()))
        return bool(rs.candidates)

    def emit_tasklet_adjoint(self, state_label: str, fwd_graph: Dataflow, node: Tasklet, *,
                             site, gb: GraphBuilder, read, prefix: str,
                             where: str) -> str | None:
        """Emit the adjoint tasklet of the forward tasklet ``node`` (which
        lives in ``fwd_graph``) into ``gb``. Returns the adjoint's id, or
        None when it would do nothing.

        The adjoint reads the gradient of every active output and the forward
        values its partials need, and sends each active input connector its
        contribution with ``sum`` conflict resolution. A connector that reads
        the element its tasklet overwrites (same array and subset) replaces
        that gradient instead; when several do, their partials merge into one
        replacement write. An output that killed a consumed value, and is not
        such a self-overwrite, clears its gradient. Either rule needs a single
        active output; ``where`` names the node in that error. The replacing
        write or the clear comes before the ``sum`` contributions, as the
        adjoint of an overwrite reads, zeroes, then adds (Griewank and
        Walther, "Evaluating Derivatives", 2008): a read that aliases the
        written element, such as ``A[j, i]`` beside a write to ``A[i, j]``
        where i == j, keeps its contribution.

        The caller places the adjoint. ``site(edge)`` is the state-level
        access instance behind a forward edge, for value sourcing and kill
        lookup. ``read(data)`` gives the access node in ``gb`` that an
        adjoint edge reads from; its writes go through ``gb.write_edges``.
        ``prefix`` starts the adjoint's id.
        """
        in_by_conn = {e.dst_conn: e for e in fwd_graph.in_edges(node.id)}
        outs_info = [e for e in fwd_graph.out_edges(node.id) if e.data in self.gradset]
        if not outs_info:
            return None

        # per active in connector: total contribution expression
        contribs: dict[str, Expr] = {}
        needed_values: set[str] = set()
        self_pairs: list[tuple[str, Memlet]] = []  # (in conn, out edge) same data+subset
        for conn, ie in in_by_conn.items():
            if ie.data not in self.gradset:
                continue
            total: Expr | None = None
            for oi, oe in enumerate(outs_info):
                part = derivative(node.body[oe.src_conn], conn)
                if isinstance(part, Const) and part.value == 0:
                    continue
                term = Binary("mul", part, Name(f"_g{oi}"))
                total = term if total is None else Binary("add", total, term)
                needed_values |= free_names(part) & set(node.ins)
            if total is None:
                continue
            contribs[conn] = simplify(total)
            for oe in outs_info:
                if oe.wcr is None and (ie.data, _sub_key(ie.subset)) == (oe.data, _sub_key(oe.subset)):
                    self_pairs.append((conn, oe))

        clears = [
            oe
            for oe in outs_info
            if oe.wcr is None
            and self._killed(state_label, site(oe))
            and not any(se is oe for _, se in self_pairs)
        ]
        if not contribs and not clears:
            return None
        if (self_pairs or clears) and len(outs_info) > 1:
            raise UnsupportedConstruct(f"{where}: gradient clearing with multiple outputs")

        tid = self.fresh(prefix)
        ins: list[str] = []
        edges: list[Memlet] = []
        for oi, oe in enumerate(outs_info):
            gconn = f"_g{oi}"
            ins.append(gconn)
            gdata = self.grad_of(oe.data)
            edges.append(Memlet(read(gdata), None, tid, gconn, gdata, oe.subset))
        for conn in sorted(needed_values):
            ie = in_by_conn[conn]
            vname = self.value_source(state_label, site(ie), ie.data)
            ins.append(conn)
            edges.append(Memlet(read(vname), None, tid, conn, vname, ie.subset))

        self_conns = {c for c, _ in self_pairs}
        if len(self_conns) > 1:
            # several connectors read the overwritten element: their partials
            # sum into one replacement write
            merged = sorted(self_conns & set(contribs))
            if len(merged) > 1:
                total = contribs[merged[0]]
                for c in merged[1:]:
                    total = Binary("add", total, contribs.pop(c))
                contribs[merged[0]] = simplify(total)
            self_conns = set(merged[:1])

        # (connector, expression, forward edge, wcr) per write: the replacing
        # writes and the clears first, then the contributions
        writes = [(f"_d{conn}", expr, in_by_conn[conn], None if conn in self_conns else "sum")
                  for conn, expr in contribs.items()]
        writes += [("_z", Const(0), oe, None) for oe in clears]
        writes.sort(key=lambda w: w[3] == "sum")
        gb.df.edges.extend(edges)
        gb.write_edges(tid, [(c, self.grad_of(e.data), e.subset, wcr) for c, _, e, wcr in writes])
        gb.df.nodes.append(Tasklet(tid, tuple(ins), tuple(c for c, *_ in writes), {c: x for c, x, *_ in writes}))
        return tid

    def adj_library(self, gb: GraphBuilder, state: State, df: Dataflow, node: LibraryNode):
        """Emit the adjoint of a library node: matmuls for a matmul, and one
        whole-array ``ew_expr`` node per active operand otherwise, holding
        the operand's derived contribution over the output gradient ``_g``
        (``_g`` itself, broadcast, for ``reduce_sum``; ``_g_`` and so on when
        the node has a connector ``_g``). Contributions
        accumulate with ``sum``; one whose operand is the overwritten output
        replaces that gradient instead and comes last. A consumed output
        that no contribution replaces has its gradient cleared."""
        out_e = df.out_edges(node.id)[0]
        if out_e.data not in self.gradset:
            return
        in_by_conn = {e.dst_conn: e for e in df.in_edges(node.id)}
        g = self.grad_of(out_e.data)
        accumulate = out_e.wcr == "sum"
        killed = out_e.wcr is None and self._killed(state.label, out_e.dst)

        def val(conn: str) -> str:
            ie = in_by_conn[conn]
            return self.value_source(state.label, ie.src, ie.data)

        def active(conn: str) -> bool:
            return in_by_conn[conn].data in self.gradset

        def is_self(conn: str) -> bool:
            return in_by_conn[conn].data == out_e.data and not accumulate

        def lib(kind: str, ins: dict[str, str], out_data: str, wcr, prefix="adjn", **attrs):
            adj = LibraryNode(self.fresh(prefix), kind, **attrs)
            gb.library(adj, ins, {library_connectors(adj)[1][0]: out_data}, wcr)

        jobs = []  # (operand connector, adjoint kind, its inputs, its attributes)
        if node.kind == "matmul":
            if active("a"):
                jobs.append(("a", "matmul", {"a": g, "b": val("b")}, dict(ta=False, tb=not node.tb))
                            if not node.ta else
                            ("a", "matmul", {"a": val("b"), "b": g}, dict(ta=node.tb, tb=True)))
            if active("b"):
                jobs.append(("b", "matmul", {"a": val("a"), "b": g}, dict(ta=not node.ta, tb=False))
                            if not node.tb else
                            ("b", "matmul", {"a": g, "b": val("a")}, dict(ta=True, tb=node.ta)))
        else:
            conns = [c for c in library_connectors(node)[0] if active(c)]
            if sum(map(is_self, conns)) > 1:
                raise UnsupportedConstruct(
                    f"'{node.id}': several operands alias the overwritten output"
                )
            seed = "_g"
            while seed in in_by_conn:  # an ew_expr may name a connector _g
                seed += "_"
            for conn in sorted(conns, key=is_self):
                adj = Name(seed) if node.kind == "reduce_sum" else simplify(
                    _deriv(library_expr(node), conn, Name(seed)))
                if adj != Const(0):
                    ins = {n: g if n == seed else val(n) for n in sorted(free_names(adj))}
                    jobs.append((conn, "ew_expr", ins, dict(expr=adj)))

        emitted_self = False
        out_desc = self.p.descriptors[out_e.data]
        for conn, kind, ins, attrs in sorted(jobs, key=lambda j: is_self(j[0])):  # self last
            emitted_self |= is_self(conn)
            data = in_by_conn[conn].data
            if kind == "ew_expr" and out_desc.rank and not self.p.descriptors[data].rank:
                # a rank-0 operand broadcast over the output: its gradient
                # is the sum of the contributions at every output element
                tmp = self.fresh(f"{grad_name(data)}_bcast")
                self.temps[tmp] = DataDescriptor(tmp, self.p.descriptors[data].element_kind, out_desc.shape, "gradient")
                lib(kind, ins, tmp, None, **attrs)
                kind, ins, attrs = "reduce_sum", {"x": tmp}, {}
            lib(kind, ins, self.grad_of(data), None if is_self(conn) else "sum", **attrs)
        if killed and not emitted_self:
            lib("ew_unary", {"x": g}, g, None, prefix="adjz", op="scale", const=0.0)

    def adj_map(self, gb: GraphBuilder, state: State, df: Dataflow, node: MapNode):
        computes = [n for n in node.body.nodes if not isinstance(n, AccessNode)]
        if len(computes) != 1 or not isinstance(computes[0], Tasklet):
            raise UnsupportedConstruct(
                f"map '{node.id}': reversal supports single-tasklet bodies"
            )
        fwd_t = computes[0]
        # state-level access instances of the forward map, for value sourcing
        state_in_src = {e.data: e.src for e in df.in_edges(node.id)}
        state_out_dst = {e.data: e.dst for e in df.out_edges(node.id)}
        body = GraphBuilder(self.fresh)
        tid = self.emit_tasklet_adjoint(
            state.label, node.body, fwd_t,
            site=lambda e: (state_in_src if e.dst == fwd_t.id else state_out_dst)[e.data],
            gb=body, read=body.write, prefix="adjt", where=f"map '{node.id}'",  # a body access node per use
        )
        if tid is not None:
            gb.map(MapNode(self.fresh("adjm"), node.params, node.ranges, body.df))


def _sub_key(subset):
    return None if subset is None else tuple(subset)


def build_backward(program: Program) -> BackwardBundle:
    for name, d in program.descriptors.items():
        if d.role == "stored-copy":
            raise UnsupportedConstruct(f"'{name}' is declared 'stored-copy', the role of a forwarded value")
    vinfo = analyze_versions(program)
    ccs = extract_ccs(program)
    builder = _BackwardBuilder(program, vinfo, ccs)
    region = builder.rev_region(program.region, ccs.kept_union)

    descriptors: dict[str, DataDescriptor] = {}
    dep_grad = grad_name(program.dependent)
    for data in sorted(builder.used_grads):
        d = program.descriptors[data]
        name = grad_name(data)
        if name == dep_grad:
            role = "input"
        elif data in program.independents:
            role = "output"
        else:
            role = "gradient"
        descriptors[name] = DataDescriptor(name, d.element_kind, d.shape, role)
    if dep_grad not in descriptors:
        descriptors[dep_grad] = DataDescriptor(
            dep_grad, program.descriptors[program.dependent].element_kind, (), "input"
        )
    descriptors.update(builder.temps)
    for data in sorted(builder.used_inputs):
        descriptors[data] = program.descriptors[data]
    forwarding: dict[str, ForwardingEntry] = {}
    for entry in builder.entries.values():
        d = program.descriptors[entry.data]
        descriptors[entry.name] = DataDescriptor(entry.name, d.element_kind, d.shape, "stored-copy")
        forwarding[entry.name] = entry

    backward = Program(
        descriptors=descriptors,
        parameters=program.parameters,
        region=region,
        dependent=dep_grad,
        independents=(),
    )
    diags = validate(backward)
    if diags:
        raise AssertionError(f"internal: backward program invalid: {diags[:5]}")
    backward._kept["validated"] = True
    return BackwardBundle(backward=backward, forwarding=forwarding, vinfo=vinfo, ccs=ccs)


def backward_of(program: Program) -> BackwardBundle:
    """``build_backward(program)``, built on first use and kept with the
    program, which is never changed. The first use validates the program
    unless it was validated where it entered (``ir.validated``;
    ``ValidationFailed`` if it is not valid) and refuses one that declares
    a ``stored-copy`` array (``UnsupportedConstruct``); a kept bundle
    stands for those checks, and a build that raises keeps nothing. What
    depends on the parameter binding is kept apart: a replay's run plans
    with its reverse program (``_replay_plans``) and ``plan()``'s analyses
    with the program; the plans also prepare the library steps their runs
    take (``ir.library_steps``)."""
    bundle = program._kept.get("bundle")
    if bundle is None:
        bundle = program._kept["bundle"] = build_backward(validated(program))
    return bundle


def _recorded(forwarding: dict[str, ForwardingEntry]) -> frozenset[tuple[str, int]]:
    """The ``(data, version)`` pairs a forward run records so that a reverse
    run can read each entry of ``forwarding``: every candidate of each."""
    return frozenset((e.data, c.version) for e in forwarding.values() for c in e.candidates)


def _replay_plans(program: Program, backward: Program, bundle: BackwardBundle,
                  params: dict[str, int] | None) -> tuple[RunPlan, RunPlan]:
    """The run plans of a replay of ``program`` whose reverse program is
    ``backward``: ``bundle.backward`` itself, or a planned reverse program
    that rebuilds some forwarded values under their stored names. One rule
    gives both what the forward run records and the table the reverse run
    reads the tape through: every forwarding entry of ``bundle`` that
    ``backward`` does not write (a bundle's own reverse program writes
    none). The plans are built on the first replay under a parameter
    binding and kept with ``backward`` for the last binding run, so a
    later replay under it prepares nothing."""
    params = params or {}
    runs = backward._kept.get("runs")
    if runs is None or runs[0].binding != binding_of(params):
        written = written_descriptors(backward)
        forwarding = {name: e for name, e in bundle.forwarding.items() if name not in written}
        runs = backward._kept["runs"] = (
            RunPlan(program, params, record=_recorded(forwarding), vinfo=bundle.vinfo),
            RunPlan(backward, params, forwarding=forwarding, src_program=program))
    return runs


# ---------------------------------------------------------------------------
# one-call differentiation


@dataclass(slots=True)
class GradientResult:
    value: object
    grads: dict[str, object]
    forward: object
    backward: object
    bundle: BackwardBundle


def _replay(program: Program, backward: Program, bundle: BackwardBundle, inputs: dict,
            params: dict[str, int] | None, seed) -> GradientResult:
    """A forward run of ``program`` and a reverse run of ``backward`` by
    their run plans under ``params`` (``_replay_plans``): the one runner of
    ``gradient()`` and ``checkpointing.run_planned``. Each independent's
    gradient is ``<ind>__grad`` from the reverse run, or zeros shaped like
    the input where the reverse program writes none."""
    runs = _replay_plans(program, backward, bundle, params)
    fwd = run_forward(program, inputs, run_plan=runs[0])
    bwd = run_backward(runs[1], inputs, tape=fwd.tape, seed=seed)
    grads = {}
    for ind in program.independents:
        got = bwd.env.get(grad_name(ind))
        grads[ind] = np.zeros_like(np.asarray(fwd.env[ind])) if got is None else got
    return GradientResult(value=fwd.value, grads=grads, forward=fwd, backward=bwd, bundle=bundle)


def gradient(
    program: Program,
    inputs: dict,
    params: dict[str, int] | None = None,
    *,
    seed=1.0,
) -> GradientResult:
    """Differentiate the dependent with respect to the independents at the
    given inputs, running forward (recording only what the adjoints need)
    and then the reverse program. The reverse program is built on the first
    call and kept with ``program`` (``backward_of``); later calls, and
    ``plan()``, reuse it. The run plans of both runs (``_replay_plans``)
    are kept with that reverse program for the last binding run, so a later
    call under it, or a keep-all ``run_planned()``, prepares nothing."""
    bundle = backward_of(program)
    return _replay(program, bundle.backward, bundle, inputs, params, seed)
