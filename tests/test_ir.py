import gc
import json
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gradflow.examples as examples
import gradflow.ir as ir
from gradflow import parse_program, plan, program_to_dict, serialize_program, size_bytes, validate
from gradflow.errors import Infeasible, NonTermination, ValidationFailed
from gradflow.frontend import parse_unvalidated
from gradflow.ir import (
    AccessNode,
    Conditional,
    DataDescriptor,
    Dataflow,
    LibraryNode,
    LoopRegion,
    MapNode,
    State,
    path_visits,
    pristine_inputs,
    schedule,
    simulate_header,
    walk_blocks,
)
from gradflow import ProgramBuilder
from gradflow.symexpr import Binary, Const, Name, parse_sexpr


def _desc(kind, shape):
    return DataDescriptor("t", kind, tuple(parse_sexpr(s) for s in shape), "intermediate")


# ---------------------------------------------------------------------------
# descriptor sizes (frozen: 3620^2 * 4 = 52,417,600 and 7*11*8 = 616)


def test_size_bytes_real32_square():
    assert size_bytes(_desc("real32", ("N", "N")), {"N": 3620}) == 52_417_600


def test_size_bytes_real64_scalar():
    assert size_bytes(_desc("real64", ()), {}) == 8


def test_size_bytes_real64_rect():
    assert size_bytes(_desc("real64", ("7", "11")), {}) == 616


def test_size_bytes_parametric():
    d = _desc("real32", ("n", "(add n 2)"))
    assert size_bytes(d, {"n": 3}) == 3 * 5 * 4


# ---------------------------------------------------------------------------
# loop headers


def _loop(init, bound, cmp, update, **kw):
    return LoopRegion("l", "i", parse_sexpr(init), parse_sexpr(bound), cmp,
                      parse_sexpr(update), [], **kw)


def test_header_unit_stride():
    assert simulate_header(_loop("0", "5", "<", "(add i 1)"), {}) == [0, 1, 2, 3, 4]


def test_header_stride_three():
    # forward {0,3,6,9}, the non-unit-stride shape from the loop analysis
    assert simulate_header(_loop("0", "10", "<", "(add i 3)"), {}) == [0, 3, 6, 9]


def test_header_descending():
    assert simulate_header(_loop("5", "0", ">", "(sub i 2)"), {}) == [5, 3, 1]


def test_header_zero_trips():
    assert simulate_header(_loop("4", "4", "<", "(add i 1)"), {}) == []
    assert len(simulate_header(_loop("7", "3", "<", "(add i 1)"), {})) == 0


def test_header_parametric_bound():
    assert simulate_header(_loop("0", "n", "<", "(add i 1)"), {"n": 3}) == [0, 1, 2]


def test_header_geometric():
    assert simulate_header(_loop("1", "16", "<", "(mul i 2)"), {}) == [1, 2, 4, 8]


def test_header_trip_limit(monkeypatch):
    monkeypatch.setattr(ir, "TRIP_LIMIT", 50)
    assert len(simulate_header(_loop("0", "50", "<", "(add i 1)"), {})) == 50
    with pytest.raises(NonTermination, match="trip limit of 50"):
        simulate_header(_loop("0", "51", "<", "(add i 1)"), {})


@pytest.mark.parametrize("update", ["i", "(add i 0)", "(mod (add i 1) 3)"])
def test_header_that_repeats_an_iterate_never_ends(update):
    # the update reads only the iterator, so a repeated iterate repeats the
    # whole sequence from there on
    with pytest.raises(NonTermination, match="loop 'l' repeats iterate 0"):
        simulate_header(_loop("0", "10", "<", update), {})


@given(st.integers(-8, 8), st.integers(-8, 20), st.integers(1, 5))
def test_header_matches_range_enumeration(lo, hi, step):
    got = simulate_header(_loop(str(lo), str(hi), "<", f"(add i {step})"), {})
    assert got == list(range(lo, hi, step))


# ---------------------------------------------------------------------------
# scheduling


def _first_state(program):
    for block in program.region:
        if isinstance(block, State):
            return block
    raise AssertionError("no state")


def test_schedule_is_topological_and_deterministic():
    g = _first_state(examples.build("scaled_product_chain")).graph
    order = [n.id for n in schedule(g)]
    assert sorted(order) == sorted(n.id for n in g.nodes)
    pos = {nid: i for i, nid in enumerate(order)}
    for e in g.edges:
        assert pos[e.src] < pos[e.dst]
    assert [n.id for n in schedule(Dataflow(list(g.nodes), list(g.edges)))] == order


def test_schedule_orders_access_instances():
    # reading instance k of an array must precede writing instance k+1
    g = examples.build("two_array_pingpong").region[0].body[0].graph
    order = [n.id for n in schedule(g)]
    pos = {nid: i for i, nid in enumerate(order)}
    by_data = {}
    for n in g.nodes:
        if isinstance(n, AccessNode):
            by_data.setdefault(n.data, []).append(n.id)
    assert len(by_data["A"]) == 2  # read instance, then overwrite instance
    first_a, second_a = by_data["A"]
    assert pos[first_a] < pos[second_a]


def _graphs(df: Dataflow):
    yield df
    for n in df.nodes:
        if isinstance(n, MapNode):
            yield from _graphs(n.body)


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES))
def test_schedule_is_kept_with_its_graph(name):
    # plan() schedules every graph it reads or builds; each keeps its first
    # order, which must still be the order of the graph as built, with no
    # budget (copy-outs) and at the floor (rebuild blocks too)
    program, params = examples.build(name), examples.DEFAULT_PARAMS[name]
    try:
        plan(program, 0, params)
        floor = 0
    except Infeasible as exc:
        floor = exc.min_peak_bytes
    results = [plan(program, limit, params) for limit in (None, floor / (1 << 20))]
    programs = [program] + [p for r in results for p in (r.bundle.backward, r.forward, r.backward)]
    for p in programs:
        for _, block in walk_blocks(p.region):
            if not isinstance(block, State):
                continue
            for g in _graphs(block.graph):
                order = schedule(g)
                assert isinstance(order, tuple) and schedule(g) is order
                assert order == schedule(Dataflow(list(g.nodes), list(g.edges))), (name, block.label)


# ---------------------------------------------------------------------------
# validation and classification


def test_corpus_validates_clean():
    for name in examples.EXAMPLES:
        assert validate(examples.build(name)) == []


def test_a_program_dropped_after_validate_is_freed_without_the_cycle_collector():
    # parsed, so validate is the only pass that has seen the program
    program = parse_program(serialize_program(examples.build("seidel_stencil")))
    gc.collect()
    gc.disable()
    try:
        assert validate(program) == []
        ref = weakref.ref(program)
        del program
        assert ref() is None
    finally:
        gc.enable()


def test_a_dangling_edge_is_reported_not_raised():
    # parsed, so the graph has no kept schedule: validate must not order it
    doc = json.loads(serialize_program(examples.scaled_product_chain()))
    doc["region"][0]["edges"][0]["src"] = "nope"
    with pytest.raises(ValidationFailed, match="UnknownNode: edge references 'nope'"):
        parse_program(json.dumps(doc))
    program = parse_unvalidated(json.dumps(doc))
    codes = [d.code for d in validate(program)]
    assert "UnknownNode" in codes and "CycleInState" not in codes
    with pytest.raises(ValidationFailed):
        ir.validate_or_raise(program)


@pytest.mark.parametrize("name, shape", [("A", ["d"]), ("B", ["d", "d", "d"]), ("C", [])])
def test_a_matmul_operand_that_is_no_matrix_is_reported(name, shape):
    # the op count and the run read two dimensions of each operand
    doc = program_to_dict(examples.build("matmul_sum"))
    next(d for d in doc["descriptors"] if d["name"] == name)["shape"] = shape
    conn = {"A": "a", "B": "b", "C": "c"}[name]
    with pytest.raises(ValidationFailed) as info:
        parse_program(json.dumps(doc))
    assert [repr(d) for d in info.value.diagnostics] == [
        f"BadLibrary: matmul 'n1': operand '{conn}' has rank {len(shape)}, not 2 [prod]",
    ]


def test_a_constant_that_is_no_int_or_float_is_reported():
    # the builder turns numpy scalars into Python numbers; any other
    # constant type in what a nest compiles fails validation instead of
    # failing the nest compile
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", label="over"):
        with b.state("s") as s:
            s.tasklet(ins={"a": ("X", (Binary("add", Name("i"), Const(Fraction(0))),))}, outs={"o": ("O", ())},
                      body={"o": Binary("mul", Const(Fraction(1, 2)), Name("a"))}, wcr="sum")
    with pytest.raises(ValidationFailed) as info:
        b.finish("O", ["X"])
    assert [repr(d) for d in info.value.diagnostics] == [
        "BadConstant: tasklet 't1' body has constant Fraction(1, 2), not an int or float [s]",
        "BadConstant: subset of 'X' has constant Fraction(0, 1), not an int or float [s]",
    ]


@pytest.mark.parametrize("const", [Fraction(1, 2), np.float32(0.5), "0.5"])
def test_a_scale_node_whose_constant_is_no_int_or_float_is_reported(const):
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        nid = s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="scale", const=0.5)
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    program = b.finish("O", ["X"])
    (state,) = program.region
    nodes = [replace(n, const=const) if n.id == nid else n for n in state.graph.nodes]
    hand_built = replace(program, region=[State("s", Dataflow(nodes, state.graph.edges))])
    assert [repr(d) for d in validate(hand_built)] == [
        f"BadConstant: scale node '{nid}' has constant {const!r}, not an int or float [s]",
    ]


def test_an_ew_expr_whose_constant_is_no_int_or_float_is_reported():
    # its library step compiles the expression, which takes plain numbers
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        nid = s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    program = b.finish("O", ["X"])
    (state,) = program.region
    half = Binary("mul", Const(Fraction(1, 2)), Name("x"))
    nodes = [LibraryNode(nid, "ew_expr", expr=half) if n.id == nid else n for n in state.graph.nodes]
    hand_built = replace(program, region=[State("s", Dataflow(nodes, state.graph.edges))])
    assert [repr(d) for d in validate(hand_built)] == [
        f"BadConstant: '{nid}' expression has constant Fraction(1, 2), not an int or float [s]",
    ]


def test_a_tasklet_with_no_output_is_reported():
    # it would run as dead code, and its adjoint would have nothing to read
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("s") as s:
        s.tasklet(ins={"a": ("X", ("0",))}, outs={}, body={})
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    with pytest.raises(ValidationFailed) as info:
        b.finish("O", ["X"])
    assert [repr(d) for d in info.value.diagnostics] == ["ArityMismatch: tasklet 't1' has no output [s]"]


def test_an_empty_block_label_is_reported():
    # passes key a branch by its label, and the reverse branch refers to
    # the forward one by it, so an empty label must not reach them
    doc = program_to_dict(examples.build("branchy_scale"))
    doc["region"][0]["label"] = ""
    doc["region"][0]["then"][0]["label"] = ""
    with pytest.raises(ValidationFailed) as info:
        parse_program(json.dumps(doc))
    assert [repr(d) for d in info.value.diagnostics] == [
        "EmptyLabel: Conditional block has an empty label",
        "EmptyLabel: State block has an empty label [/then]",
    ]
    program = parse_unvalidated(json.dumps(doc))
    with pytest.raises(ValidationFailed, match="EmptyLabel"):
        plan(program, None, examples.DEFAULT_PARAMS["branchy_scale"])


def test_pristine_inputs():
    foo = examples.build("scaled_product_chain")
    assert pristine_inputs(foo) == {"C", "D"}
    sei = examples.build("seidel_stencil")
    assert pristine_inputs(sei) == set()  # A is overwritten in place


# ---------------------------------------------------------------------------
# the static path walk


def _nest(outer, inner, branch=False):
    """for i in outer: {for j in inner: s_in}; s_out, optionally behind a
    branch 'b' whose else arm is empty."""
    body_in = [State("s_in")]
    loop_in = LoopRegion("lin", "j", *map(parse_sexpr, inner), "<",
                         parse_sexpr("(add j 1)"), body_in)
    body = [loop_in, State("s_out")]
    if branch:
        body = [Conditional("b", parse_sexpr("(lt s 1)"), body, [])]
    return [LoopRegion("lout", "i", *map(parse_sexpr, outer), "<",
                       parse_sexpr("(add i 1)"), body)]


def _visits(region, outcome=None, bind=None):
    return [(st.label, dict(b), runs)
            for st, b, runs in path_visits(region, outcome or {}, bind or {})]


def test_path_visits_multiplies_a_body_that_ignores_the_iterator():
    assert _visits(_nest(("0", "3"), ("0", "2"))) == [("s_in", {}, 6), ("s_out", {}, 3)]


def test_path_visits_binds_an_iterator_a_nested_header_reads():
    got = _visits(_nest(("0", "3"), ("0", "i")))
    assert got == [("s_out", {"i": 0}, 1), ("s_in", {"i": 1}, 1), ("s_out", {"i": 1}, 1),
                   ("s_in", {"i": 2}, 2), ("s_out", {"i": 2}, 1)]


def test_path_visits_skips_a_loop_that_visits_nothing():
    assert _visits(_nest(("0", "0"), ("0", "2"))) == []
    peel = LoopRegion("p", "i", parse_sexpr("0"), parse_sexpr("2"), "<", parse_sexpr("(add i 1)"),
                      [State("s")], reverse_of="f", skip=2)
    assert _visits([peel]) == []


def test_path_visits_follows_the_outcome_and_marks_runtime_headers():
    region = _nest(("0", "m"), ("0", "2"), branch=True)
    assert _visits(region, {"b": True}) == [("s_in", {}, None), ("s_out", {}, None)]
    assert _visits(region, {"b": False}) == []
