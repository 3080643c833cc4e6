"""Seeded random straight-line programs.

``make_chain_program`` feeds the planner exactness tests. Each program is a
handful of elementwise chains over [d,d] real64 arrays. Chains alternate
linear scalings with sin, so the sin inputs become the planner's decision
variables. The first op of every chain is a scaling, which keeps raw inputs
out of the forwarded set and makes the variable count equal to the number
of sins on intermediates. ``sin_chain`` is one such chain of a given length,
sized for solver-speed tests.

``make_elementwise_program`` draws from every elementwise library op, with
in-place overwrites of inputs and intermediates, for the gradient and memory
gates.

``make_loop_program`` wraps elementwise updates in one loop with a drawn
header (unit, non-unit and negative strides, doubling and halving, zero
trips) and a drawn body (in place, ping-pong, nested loop, branch on a
scalar input), for the same gates.

``make_map_program`` chains scalar tasklets, most inside maps: maps with
``sum`` conflict resolution, and in-place overwrites of map outputs,
tasklet outputs and inputs, for the same gates.

``make_stencil_program`` draws in-place neighbour sweeps over a square
array in loop and map nests, with innermost steps of +1, -1 and +2 and a
doubling header, for the same gates and for the direct access of exact
real64 nests, which carries element values between consecutive points.
"""

from __future__ import annotations

import json
import math
import random

from gradflow import ProgramBuilder, program_to_dict
from gradflow.frontend import parse_unvalidated
from gradflow.ir import EW_BINARY_OPS, EW_UNARY_OPS, Program

MAX_SINS = 12


def make_chain_program(seed: int) -> Program:
    r = random.Random(seed)
    d = r.randrange(8, 65)
    n_chains = r.randint(1, 3)
    b = ProgramBuilder(())
    sins = 0
    partials = []
    for c in range(n_chains):
        x = f"X{c}"
        b.array(x, (str(d), str(d)), role="input", kind="real64")
        cur = f"L{c}"
        b.array(cur, (str(d), str(d)), kind="real64")
        with b.state(f"in{c}") as s:
            s.library("ew_unary", {"x": x}, {"y": cur}, op="scale", const=0.5)
        for j in range(r.randint(1, 6)):
            if sins < MAX_SINS and r.random() < 0.7:
                nxt = f"A{c}_{j}"
                b.array(nxt, (str(d), str(d)), kind="real64")
                with b.state(f"s{c}_{j}") as s:
                    s.library("ew_unary", {"x": cur}, {"y": nxt}, op="sin")
                sins += 1
            else:
                nxt = f"B{c}_{j}"
                b.array(nxt, (str(d), str(d)), kind="real64")
                with b.state(f"l{c}_{j}") as s:
                    s.library("ew_unary", {"x": cur}, {"y": nxt}, op="scale", const=1.25)
            cur = nxt
        o = f"o{c}"
        b.scalar(o, kind="real64")
        with b.state(f"red{c}") as s:
            s.library("reduce_sum", {"x": cur}, {"y": o})
        partials.append(o)
    b.scalar("O", role="output", kind="real64")
    with b.state("fin") as s:
        if len(partials) == 1:
            s.library("ew_unary", {"x": partials[0]}, {"y": "O"}, op="copy")
        else:
            expr = partials[0]
            for p in partials[1:]:
                expr = f"(add {expr} {p})"
            s.tasklet(
                ins={p: (p, ()) for p in partials},
                outs={"o": ("O", ())},
                body={"o": expr},
            )
    return b.finish("O", [f"X{c}" for c in range(n_chains)])


def sin_chain(k: int, side: int = 16) -> Program:
    """A scale, then k sins, then ``reduce_sum``, over [side, side] real64:
    k decision variables of equal size, each dearer to recompute than the
    one before."""
    shape = (str(side), str(side))
    b = ProgramBuilder(())
    b.array("X", shape, role="input", kind="real64")
    b.array("L", shape, kind="real64")
    with b.state("scale") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "L"}, op="scale", const=0.5)
    cur = "L"
    for j in range(k):
        b.array(f"A{j}", shape, kind="real64")
        with b.state(f"sin{j}") as s:
            s.library("ew_unary", {"x": cur}, {"y": f"A{j}"}, op="sin")
        cur = f"A{j}"
    b.scalar("O", role="output", kind="real64")
    with b.state("reduce") as s:
        s.library("reduce_sum", {"x": cur}, {"y": "O"})
    return b.finish("O", ["X"])


def pingpong_nonaffine() -> Program:
    """Two arrays updated in a geometric loop (k = 1, 2, 4, 8) with the
    dependent reading only B: the reversal peels the last iteration, which
    needs no affine update, since every reversed loop re-simulates the
    forward header."""
    b = ProgramBuilder(())
    b.array("A", ("4",), role="input", kind="real64")
    b.array("B", ("4",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("k", "1", "16", update="(mul k 2)", label="swap"):
        with b.state("step") as s:
            s.library("ew_unary", {"x": "A"}, {"y": "B"}, op="scale", const=2.0)
            s.library("ew_unary", {"x": "B"}, {"y": "A"}, op="scale", const=3.0)
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "B"}, {"y": "O"})
    return b.finish("O", ["A"])


def scalar_header_program(written: bool) -> Program:
    """acc = acc*sin(A[i]) + A[i] for i < m, with m a scalar input or a
    scalar the program writes before the loop (whose reversal is then
    unsupported)."""
    b = ProgramBuilder(())
    b.array("A", ("16",), role="input", kind="real64")
    b.scalar("m", role="intermediate" if written else "input", kind="real64")
    b.scalar("acc", role="output", kind="real64")
    with b.state("init") as s:
        s.tasklet(ins={}, outs={"o": ("acc", ())}, body={"o": "0"})
        if written:
            s.tasklet(ins={}, outs={"o": ("m", ())}, body={"o": "3"})
    with b.loop("i", "0", "m", label="lp"):
        with b.state("push") as s:
            s.tasklet(ins={"t": ("acc", ()), "a": ("A", ("i",))},
                      outs={"o": ("acc", ())},
                      body={"o": "(add (mul t (sin a)) a)"})
    return b.finish("acc", ["A"])


def runtime_header_array_program() -> Program:
    """Y = 0.5 X; Y = sin(Y) for i < m, with m a scalar input; O = sum Y.
    The carried array's snapshot count is known only at run time."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("m", role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("init") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="scale", const=0.5)
    with b.loop("i", "0", "m", label="lp"):
        with b.state("step") as s:
            s.library("ew_unary", {"x": "Y"}, {"y": "Y"}, op="sin")
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


def ew_expr_program(expr: str) -> Program:
    """E = ``expr`` elementwise over inputs G (connector ``_g``) and X
    (connector ``x``), both [n] real64; O = sum E. Built through JSON, the
    only spelling of a forward ``ew_expr`` node; not validated
    (``parse_unvalidated``), so an invalid expression reaches the caller."""
    b = ProgramBuilder(("n",))
    for name in ("G", "X"):
        b.array(name, ("n",), role="input", kind="real64")
    b.array("E", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        nid = s.library("ew_binary", {"a": "G", "b": "X"}, {"c": "E"}, op="mul")
        s.library("reduce_sum", {"x": "E"}, {"y": "O"})
    doc = program_to_dict(b.finish("O", ["G", "X"]))
    graph = doc["region"][0]
    graph["nodes"] = [{"id": nid, "type": "ew_expr", "expr": expr} if n["id"] == nid else n
                      for n in graph["nodes"]]
    rename = {"a": "_g", "b": "x", "c": "y"}
    for e in graph["edges"]:
        for end in ("src", "dst"):
            if e[end] == nid:
                e[end + "_conn"] = rename[e[end + "_conn"]]
    return parse_unvalidated(json.dumps(doc))


def _unary_box(op: str, lo: float, hi: float, const: float):
    """Bounds of ``op`` over [lo, hi], or None where the op would leave its
    domain or hit a kink (the finite-difference oracle needs smoothness)."""
    away = lo >= 0.1 or hi <= -0.1
    if op in ("sin", "cos"):
        return -1.0, 1.0
    if op == "tanh":
        return math.tanh(lo), math.tanh(hi)
    if op == "exp":
        return (math.exp(lo), math.exp(hi)) if hi <= 3 else None
    if op in ("log", "sqrt"):
        f = math.log if op == "log" else math.sqrt
        return (f(lo), f(hi)) if lo >= 0.1 else None
    if op == "abs":
        return (min(abs(lo), abs(hi)), max(abs(lo), abs(hi))) if away else None
    if op == "sign":
        return ((1.0, 1.0) if lo > 0 else (-1.0, -1.0)) if away else None
    if op == "neg":
        return -hi, -lo
    if op == "scale":
        return min(const * lo, const * hi), max(const * lo, const * hi)
    return lo, hi  # copy


def _binary_box(op: str, a: tuple[float, float], b: tuple[float, float]):
    if op == "div":
        if not (b[0] >= 0.2 or b[1] <= -0.2):
            return None
        b = (1 / b[1], 1 / b[0])
    if op in ("mul", "div"):
        corners = [x * y for x in a for y in b]
        return min(corners), max(corners)
    if op == "add":
        return a[0] + b[0], a[1] + b[1]
    if op == "sub":
        return a[0] - b[1], a[1] - b[0]
    f = min if op == "min" else max
    return f(a[0], b[0]), f(a[1], b[1])


def make_elementwise_program(seed: int) -> Program:
    """Two [n] real64 inputs in [0.4, 1.6], then 2-8 elementwise library
    nodes, then ``O = sum`` of the last array written.

    Ops are drawn from ``EW_UNARY_OPS`` and ``EW_BINARY_OPS``; each operand's
    value bounds are tracked, and an op whose operands fall outside its
    domain or its smooth region is redrawn. About a third of the nodes
    overwrite one of their operands in place, inputs included (never when
    both operands are the same array), and about a third share a state with
    the node before.
    """
    r = random.Random(seed)
    b = ProgramBuilder(("n",))
    box: dict[str, tuple[float, float]] = {}
    for name in ("X0", "X1"):
        b.array(name, ("n",), role="input", kind="real64")
        box[name] = (0.4, 1.6)
    states: list[list[tuple]] = []
    last = ""
    n_nodes = r.randint(2, 8)
    while n_nodes:
        op = r.choice(EW_UNARY_OPS + EW_BINARY_OPS)
        names = sorted(box)
        a = r.choice(names)
        if op in EW_UNARY_OPS:
            const = r.choice((0.5, -1.25, 2.0))
            new_box = _unary_box(op, *box[a], const)
            ins, operands = {"x": a}, [a]
        else:
            c = a if r.random() < 0.2 else r.choice(names)
            new_box = _binary_box(op, box[a], box[c])
            ins, operands = {"a": a, "b": c}, [a, c]
        if new_box is None or max(abs(new_box[0]), abs(new_box[1])) > 50:
            continue
        if len(set(operands)) == len(operands) and r.random() < 0.35:
            out = r.choice(operands)
        else:
            out = f"T{len(box)}"
            b.array(out, ("n",), kind="real64")
        box[out] = new_box
        node = ("ew_unary" if op in EW_UNARY_OPS else "ew_binary", ins,
                {"y" if op in EW_UNARY_OPS else "c": out}, op,
                const if op == "scale" else None)
        if states and r.random() < 0.35:
            states[-1].append(node)
        else:
            states.append([node])
        last = out
        n_nodes -= 1
    for k, nodes in enumerate(states):
        with b.state(f"s{k}") as s:
            for kind, ins, outs, op, const in nodes:
                s.library(kind, ins, outs, op=op, const=const)
    b.scalar("O", role="output", kind="real64")
    with b.state("red") as s:
        s.library("reduce_sum", {"x": last}, {"y": "O"})
    return b.finish("O", ["X0", "X1"])


# smooth everywhere, so repeated application never leaves a domain
_LOOP_UNARY = ("sin", "cos", "tanh", "scale", "neg")
_LOOP_HEADERS = ("unit", "stride", "negative", "double", "halve")
_LOOP_BODIES = ("inplace", "pingpong", "nested", "branch_carried", "branch_local")


def _loop_header(kind: str, trips: int) -> tuple[str, str, str, str]:
    """(init, bound, cmp, update) of a loop over i that runs ``trips`` times."""
    if kind == "unit":
        return "0", str(trips), "<", "(add i 1)"
    if kind == "stride":
        return "1", str(3 * trips - 1 if trips else 1), "<", "(add i 3)"
    if kind == "negative":
        return str(2 * trips), "0", ">", "(sub i 2)"
    if kind == "double":
        return "1", str(2 ** trips), "<", "(mul i 2)"
    return (str(2 ** (trips - 1)) if trips else "0"), "0", ">", "(idiv i 2)"


def make_loop_program(seed: int) -> Program:
    """Inputs X0, X1 ([n] real64) and a scalar s; A = 0.5 X0; one loop over
    i with a drawn header and 0-5 trips; then O = sum of the loop's result
    plus a scalar accumulator.

    Bodies, built from elementwise updates that are smooth everywhere
    (``_LOOP_UNARY``, or mul/add with X1):

    * ``inplace``: A = f(A), sometimes with acc += sin(A[i mod n]);
    * ``pingpong``: B = f(A); A = g(B), with O reading only B, so the last
      reversed iteration is peeled;
    * ``nested``: an inner loop over j < 2 applying A = f(A);
    * ``branch_carried``: if s < 1 then A = f(A) else A = g(A), so the
      carried A merges branch arms;
    * ``branch_local``: the arms write C = f(A) or C = g(A), acc += sum C,
      then A = h(A) unconditionally.
    """
    r = random.Random(seed)
    b = ProgramBuilder(("n",))
    for name in ("X0", "X1"):
        b.array(name, ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    for name in ("A", "B", "C"):
        b.array(name, ("n",), kind="real64")
    b.scalar("acc", kind="real64")
    b.scalar("O", role="output", kind="real64")

    def update(s, src: str, dst: str):
        op = r.choice(_LOOP_UNARY + ("mul", "add"))
        if op in ("mul", "add"):
            s.library("ew_binary", {"a": src, "b": "X1"}, {"c": dst}, op=op)
        else:
            s.library("ew_unary", {"x": src}, {"y": dst}, op=op,
                      const=0.75 if op == "scale" else None)

    body = r.choice(_LOOP_BODIES)
    init, bound, cmp, step = _loop_header(r.choice(_LOOP_HEADERS), r.randint(0, 5))
    with b.state("pre") as s:
        s.library("ew_unary", {"x": "X0"}, {"y": "A"}, op="scale", const=0.5)
        s.tasklet(ins={}, outs={"o": ("acc", ())}, body={"o": "0"})
    with b.loop("i", init, bound, cmp=cmp, update=step, label="outer"):
        if body == "nested":
            with b.loop("j", "0", "2", label="inner"):
                with b.state("inner_step") as s:
                    update(s, "A", "A")
        elif body.startswith("branch"):
            dst = "A" if body == "branch_carried" else "C"
            with b.branch("(lt s 1.0)", label="pick") as br:
                with br.then():
                    with b.state("hi") as s:
                        update(s, "A", dst)
                with br.orelse():
                    with b.state("lo") as s:
                        update(s, "A", dst)
            if body == "branch_local":
                with b.state("merge") as s:
                    s.library("reduce_sum", {"x": "C"}, {"y": "acc"}, wcr="sum")
                    update(s, "A", "A")
        else:
            with b.state("step") as s:
                if body == "pingpong":
                    update(s, "A", "B")
                    update(s, "B", "A")
                else:
                    update(s, "A", "A")
                    if r.random() < 0.5:
                        s.tasklet(ins={"t": ("acc", ()), "a": ("A", ("(mod i n)",))},
                                  outs={"o": ("acc", ())}, body={"o": "(add t (sin a))"})
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "B" if body == "pingpong" else "A"}, {"y": "O"})
        s.tasklet(ins={"a": ("acc", ())}, outs={"o": ("O", ())}, body={"o": "a"}, wcr="sum")
    return b.finish("O", ["X0", "X1"])


# tasklet bodies over connectors a (and b): smooth everywhere and bounded
# by the operands, so any chain of them stays inside [-3, 3]
_MAP_UNARY = ("(sin a)", "(cos a)", "(tanh a)", "(mul 0.75 a)")
_MAP_BINARY = ("(mul a b)", "(add (mul 0.5 a) (sin b))", "(mul a (cos b))", "(sub a (tanh b))")
_MAP_STEPS = ("map_new", "map_inplace", "map_sum", "map_rows", "scalar", "scalar_inplace")


def make_map_program(seed: int) -> Program:
    """Inputs X0, X1 ([n] real64) and W ([n, n] real64); acc = 0; then 2-6
    steps of scalar tasklets, about a third sharing a state with the step
    before; then ``O = sum`` of the last [n] array written plus ``acc`` and
    ``c``.

    Steps:

    * ``map_new``: T[i] = f(A[i], B[i]) over i < n into a new array;
    * ``map_inplace``: A[i] = f(A[i], B[i]), overwriting a map output or an
      input in place;
    * ``map_sum``: acc += f(A[i]) over i < n, with ``sum`` conflict
      resolution;
    * ``map_rows``: R[i] += f(W[i, j], A[j]) over (i, j), a 2-D map
      accumulating each row into a new array with ``sum``;
    * ``scalar``: c = f(acc), a state-level tasklet;
    * ``scalar_inplace``: c = f(c, acc), overwriting a tasklet output in
      place (``c`` is written by a ``scalar`` step first).
    """
    r = random.Random(seed)
    b = ProgramBuilder(("n",))
    for name in ("X0", "X1"):
        b.array(name, ("n",), role="input", kind="real64")
    b.array("W", ("n", "n"), role="input", kind="real64")
    b.scalar("acc", kind="real64")
    b.scalar("c", kind="real64")
    b.scalar("O", role="output", kind="real64")
    arrays, last, has_c = ["X0", "X1"], "X0", False
    states: list[list[tuple]] = []  # (step, a, b, out, body) per state
    for k in range(r.randint(2, 6)):
        kind = r.choice(_MAP_STEPS)
        if kind == "scalar_inplace" and not has_c:
            kind = "scalar"
        has_c |= kind == "scalar"
        x, y = r.choice(arrays), r.choice(arrays)
        out = {"map_new": f"T{k}", "map_inplace": x, "map_rows": f"R{k}"}.get(kind, "c")
        if kind in ("map_new", "map_rows"):
            b.array(out, ("n",), kind="real64")
            arrays.append(out)
        if kind.startswith("map") and kind != "map_sum":
            last = out
        body = r.choice(_MAP_UNARY if kind in ("map_sum", "scalar") else _MAP_BINARY)
        step = (kind, x, y, out, body)
        if states and r.random() < 0.35:
            states[-1].append(step)
        else:
            states.append([step])

    def map_point(kind, x, y, out, body):
        def point(inner):
            if kind == "map_sum":
                inner.tasklet(ins={"a": (x, ("i",))}, outs={"o": ("acc", ())},
                              body={"o": body}, wcr="sum")
            elif kind == "map_rows":
                inner.tasklet(ins={"a": ("W", ("i", "j")), "b": (x, ("j",))},
                              outs={"o": (out, ("i",))}, body={"o": body}, wcr="sum")
            else:
                inner.tasklet(ins={"a": (x, ("i",)), "b": (y, ("i",))},
                              outs={"o": (out, ("i",))}, body={"o": body})
        return point

    with b.state("pre") as s:
        s.tasklet(ins={}, outs={"o": ("acc", ())}, body={"o": "0"})
    for k, steps in enumerate(states):
        with b.state(f"s{k}") as s:
            for kind, x, y, out, body in steps:
                if kind == "scalar":
                    s.tasklet(ins={"a": ("acc", ())}, outs={"o": ("c", ())}, body={"o": body})
                elif kind == "scalar_inplace":
                    s.tasklet(ins={"a": ("c", ()), "b": ("acc", ())}, outs={"o": ("c", ())},
                              body={"o": body})
                else:
                    ranges = (("0", "n", "1"),) * (2 if kind == "map_rows" else 1)
                    s.map_node(("i", "j")[: len(ranges)], ranges, map_point(kind, x, y, out, body))
    with b.state("post") as s:
        s.library("reduce_sum", {"x": last}, {"y": "O"})
        for scalar in ("acc", "c") if has_c else ("acc",):
            s.tasklet(ins={"a": (scalar, ())}, outs={"o": ("O", ())}, body={"o": "a"}, wcr="sum")
    return b.finish("O", ["X0", "X1", "W"])


_STENCIL_HEADERS = ("up", "down", "skip", "double")
_STENCIL_STEPS = ("sweep", "sweep_sum", "transpose", "map_sum", "map_twice", "shift_write", "row_sum")
_NEIGHBOURS = (("(sub i 1)", "j"), ("(add i 1)", "j"), ("i", "(sub j 1)"), ("i", "(add j 1)"))


def _stencil_header(kind: str) -> tuple[str, str, str, str]:
    """(init, bound, cmp, update) of a loop over j inside [1, n - 2]."""
    if kind == "up":
        return "1", "(sub n 1)", "<", "(add j 1)"
    if kind == "down":
        return "(sub n 2)", "0", ">", "(sub j 1)"
    if kind == "skip":
        return "1", "(sub n 1)", "<", "(add j 2)"
    return "1", "(sub n 1)", "<", "(mul j 2)"


def make_stencil_program(seed: int) -> Program:
    """Inputs A and X ([n, n] real64); 1-3 steps over the interior, then
    ``O = sum A`` plus the sums of B and C where a step writes them. Every
    tasklet body is exact (add, sub, mul), so each nest runs direct.

    Steps, each a loop over rows i in [1, n - 2] around a loop over j with
    a drawn header (``_stencil_header``: steps +1, -1, +2 and doubling), or
    a map over the same interior with a j step of 1 or 2:

    * ``sweep``: A[i, j] = the mean of A[i, j] and some of its four
      neighbours, in place, sometimes reading A[i, j] twice;
    * ``sweep_sum``: A[i, j - 1] and A[i, j + 1] += multiples of A[i, j]
      (``sum`` conflict resolution, in place), one tasklet each;
    * ``transpose``: A[i, j] = (A[i, j - 1] + A[j, i]) / 2, in place,
      one array read through two index patterns, the second the written
      element itself on the diagonal;
    * ``map_sum``: a map adding A[i, j - 1] / 2 + A[i, j] + A[i, j + 1] / 4
      into B[i, j] (``sum``);
    * ``map_twice``: a map writing C[i, j] = A[i, j] * X[i, j] + A[i, j] +
      A[j, i], with A[i, j] read through two connectors;
    * ``shift_write``: a ``sweep``, then A[i, j + 1] += a multiple of A[i,
      j], so that one point writes two elements in place;
    * ``row_sum``: B[i, 0] += A[i, j] * X[i, j] (``sum``), in a loop nest or
      a map, so that every point of a row writes the same element.
    """
    r = random.Random(seed)
    b = ProgramBuilder(("n",))
    for name in ("A", "X"):
        b.array(name, ("n", "n"), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    extra = []
    interior = ("1", "(sub n 1)", "1")
    for k in range(r.randint(1, 3)):
        kind = r.choice(_STENCIL_STEPS)
        out = {"map_sum": "B", "row_sum": "B", "map_twice": "C"}.get(kind)
        if out and out not in extra:
            b.array(out, ("n", "n"), kind="real64")
            extra.append(out)
        if kind.startswith("map") or kind == "row_sum" and r.random() < 0.5:
            ranges = (interior, ("1", "(sub n 1)", r.choice(("1", "2"))))
            with b.state(f"s{k}") as s:
                s.map_node(("i", "j"), ranges, _stencil_point(kind, r))
            continue
        init, bound, cmp, update = _stencil_header(r.choice(_STENCIL_HEADERS))
        with b.loop("i", "1", "(sub n 1)", label=f"rows{k}"):
            with b.loop("j", init, bound, cmp=cmp, update=update, label=f"cols{k}"):
                with b.state(f"s{k}") as s:
                    _stencil_point(kind, r)(s)
    with b.state("post") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
        for out in extra:
            s.library("reduce_sum", {"x": out}, {"y": "O"}, wcr="sum")
    return b.finish("O", ["A", "X"])


def _stencil_point(kind: str, r: random.Random):
    """A function adding the tasklets of one point of a
    ``make_stencil_program`` step to a state or map body."""
    if kind in ("sweep", "shift_write"):
        reads = [("i", "j")] + r.sample(_NEIGHBOURS, r.randint(1, 4))
        reads += [("i", "j")] * r.randint(0, 1)
        ins = {f"c{k}": ("A", sub) for k, sub in enumerate(reads)}
        body = f"(mul {1 / len(reads)!r} {_sum(list(ins))})"
        shifted = f"(mul {r.choice((0.5, -0.25))!r} a)" if kind == "shift_write" else None

        def point(s):
            s.tasklet(ins=ins, outs={"o": ("A", ("i", "j"))}, body={"o": body})
            if shifted:
                s.tasklet(ins={"a": ("A", ("i", "j"))}, outs={"e": ("A", ("i", "(add j 1)"))},
                          body={"e": shifted}, wcr="sum")
        return point
    if kind == "sweep_sum":
        def point(s):
            s.tasklet(ins={"a": ("A", ("i", "j"))}, outs={"w": ("A", ("i", "(sub j 1)"))},
                      body={"w": "(mul 0.25 a)"}, wcr="sum")
            s.tasklet(ins={"a": ("A", ("i", "j"))}, outs={"e": ("A", ("i", "(add j 1)"))},
                      body={"e": "(mul -0.125 a)"}, wcr="sum")
        return point
    if kind == "transpose":
        return lambda s: s.tasklet(
            ins={"w": ("A", ("i", "(sub j 1)")), "t": ("A", ("j", "i"))},
            outs={"o": ("A", ("i", "j"))}, body={"o": "(mul 0.5 (add w t))"})
    if kind == "row_sum":
        return lambda s: s.tasklet(ins={"a": ("A", ("i", "j")), "x": ("X", ("i", "j"))},
                                   outs={"o": ("B", ("i", "0"))}, body={"o": "(mul a x)"}, wcr="sum")
    if kind == "map_sum":
        return lambda s: s.tasklet(
            ins={"w": ("A", ("i", "(sub j 1)")), "c": ("A", ("i", "j")), "e": ("A", ("i", "(add j 1)"))},
            outs={"o": ("B", ("i", "j"))}, body={"o": "(add (mul 0.5 w) (add c (mul 0.25 e)))"}, wcr="sum")
    return lambda s: s.tasklet(
        ins={"a": ("A", ("i", "j")), "x": ("X", ("i", "j")), "b": ("A", ("i", "j")), "t": ("A", ("j", "i"))},
        outs={"o": ("C", ("i", "j"))}, body={"o": "(add (mul a x) (add b t))"})


def _sum(names: list[str]) -> str:
    """``(add ...)`` over two or more names, nested from the left."""
    total = names[0]
    for name in names[1:]:
        total = f"(add {total} {name})"
    return total
