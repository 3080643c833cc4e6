import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow.examples as examples
from gradflow import (
    FORMAT_VERSION,
    ProgramBuilder,
    build_backward,
    parse_program,
    program_to_dict,
    run_forward,
    serialize_program,
    validate,
    validate_or_raise,
)
from gradflow.errors import GradflowError, ProgramSyntaxError, ValidationFailed
from gradflow.frontend import parse_unvalidated
from gradflow.ir import AccessNode, LoopRegion
from gradflow.symexpr import Binary, Const, Name
from genprog import ew_expr_program


@pytest.mark.parametrize("name", sorted(examples.EXAMPLES))
def test_round_trip_is_byte_stable(name):
    """serialize -> parse -> serialize must reproduce the exact bytes, for
    the forward program and for its generated reverse program."""
    program = examples.build(name)
    for p in (program, build_backward(program).backward):
        text = serialize_program(p)
        again = serialize_program(parse_program(text))
        assert again == text
        assert validate(parse_program(text)) == []


def test_parse_accepts_explicit_null_for_optional_keys():
    doc = program_to_dict(examples.build("scaled_product_chain"))
    node = doc["region"][0]["nodes"][2]
    assert "group" not in node  # canonical form drops empty optionals
    node["group"] = None
    reparsed = parse_program(json.dumps(doc))
    assert validate(reparsed) == []


def test_canonical_form_has_no_nulls():
    for name in sorted(examples.EXAMPLES):
        assert "null" not in serialize_program(examples.build(name))


def test_format_version_checked():
    doc = program_to_dict(examples.build("exp_sin_chain"))
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ProgramSyntaxError):
        parse_program(json.dumps(doc))


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.pop("descriptors"), "descriptors"),
    (lambda d: d["region"].__setitem__(0, 42), "region"),
    (lambda d: d.__setitem__("dependent", 7), "dependent"),
])
def test_parse_reports_bad_shapes(mutate, msg):
    doc = program_to_dict(examples.build("exp_sin_chain"))
    mutate(doc)
    with pytest.raises(ProgramSyntaxError):
        parse_program(json.dumps(doc))


def test_unknown_keys_rejected():
    doc = program_to_dict(examples.build("exp_sin_chain"))
    doc["extra"] = 1
    with pytest.raises(ProgramSyntaxError):
        parse_program(json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='{}[]",:0-9a-z \n', max_size=200))
def test_fuzzed_text_never_escapes_the_error_family(text):
    try:
        parse_program(text)
    except GradflowError:
        pass  # ProgramSyntaxError or a validation error, both fine


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_fuzzed_bytes_never_escape_the_error_family(blob):
    try:
        parse_program(blob)
    except GradflowError:
        pass


def test_mutated_documents_fail_loud_not_weird():
    # flip individual values inside a real document to junk; the parser must
    # either accept the result or raise its own error type
    base = program_to_dict(examples.build("branchy_scale"))
    text = json.dumps(base)
    for needle, repl in [('"sin"', '"sine"'), ('"real64"', '"real63"'),
                         ('"lt', '"lessthan'), ("[", "["), ('"X"', '""')]:
        mutated = text.replace(needle, repl, 1)
        try:
            p = parse_program(mutated)
            validate(p)
        except GradflowError:
            pass


def test_builder_requires_open_state():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input")
    with pytest.raises(RuntimeError):
        b.read("X")


def test_builder_rejects_invalid_program():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input")
    b.scalar("O", role="output")
    with b.state("s") as s:
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    with pytest.raises(ValidationFailed):
        b.finish("O", ["X", "missing"])


def test_builder_appends_a_block_only_when_its_body_does_not_raise():
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input")
    b.scalar("O", role="output")
    for block in (lambda: b.state("bad"), lambda: b.loop("i", "0", "n"), lambda: b.branch("(lt n 2)")):
        with pytest.raises(ZeroDivisionError):
            with block():
                1 / 0
    with pytest.raises(ZeroDivisionError):
        with b.branch("(lt n 2)") as br:
            with br.then():
                1 / 0
    assert b.region == []
    with b.state("s") as s:
        with pytest.raises(RuntimeError, match="states do not nest"):
            with b.state():
                pass
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    with b.branch("(lt n 2)", label="pick") as br:
        with br.then():
            with b.loop("i", "0", "n", label="l"):
                with b.state("t") as s:
                    s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    assert [blk.label for blk in b.region] == ["s", "pick"]
    assert [blk.label for blk in b.region[1].then_body] == ["l"]
    assert [blk.label for blk in b.region[1].then_body[0].body] == ["t"]
    assert b.region[1].else_body == []


def test_a_map_write_edge_sums_only_when_every_body_write_does():
    # Y is written in the body both with sum and plainly, Z only with sum
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input")
    b.array("Y", ("n",))
    b.array("Z", ("n",))

    def body(inner):
        for out, wcr in (("Y", "sum"), ("Y", None), ("Z", "sum")):
            inner.tasklet(ins={"a": ("X", ("i",))}, outs={"o": (out, ("i",))}, body={"o": "a"}, wcr=wcr)

    with b.state("s") as s:
        mid = s.map_node(("i",), (("0", "n", "1"),), body)
    (state,) = b.region
    graph = state.graph
    assert {e.data: e.wcr for e in graph.out_edges(mid)} == {"Y": None, "Z": "sum"}
    assert [e.data for e in graph.in_edges(mid)] == ["X"]
    (m,) = [n for n in graph.nodes if n.id == mid]
    # in the body, the three reads share X's one instance and each write opens its own
    assert sorted(n.data for n in m.body.nodes if isinstance(n, AccessNode)) == ["X", "Y", "Y", "Z"]


def _half_map(body, lo="0") -> ProgramBuilder:
    """Y[i] = body(X[i]) over a real32 map from ``lo``, then O = sum Y."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input")
    b.array("Y", ("n",))
    b.scalar("O", role="output")
    with b.state("s") as s:
        s.map_node(("i",), ((lo, "n", "1"),), lambda inner: inner.tasklet(
            ins={"a": ("X", ("i",))}, outs={"o": ("Y", ("i",))}, body={"o": body}))
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b


def test_builder_turns_numpy_scalar_constants_into_python_numbers():
    # a numpy scalar would take part in the arithmetic, and its repr is no
    # valid source for a compiled nest
    text = _half_map("(mul 0.5 a)").finish("O", ["X"])
    given = _half_map(Binary("mul", Const(np.float64(0.5)), Name("a")), lo=Const(np.int64(0)))
    program = given.finish("O", ["X"])
    assert serialize_program(program) == serialize_program(text)
    (m,) = [n for n in program.region[0].graph.nodes if n.id.startswith("m")]
    assert m.ranges[0][0].value.__class__ is int
    x = {"X": np.linspace(0.5, 1.5, 5, dtype=np.float32)}
    assert run_forward(program, x, {"n": 5}).value == run_forward(text, x, {"n": 5}).value


def _scaled_sum(const):
    """O = sum(const * X) over real32 X, the scale one library node."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input")
    b.array("Y", ("n",))
    b.scalar("O", role="output")
    with b.state("s") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="scale", const=const)
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


@pytest.mark.parametrize("const", [np.float64(0.1), np.float32(0.1)])
def test_builder_turns_a_numpy_scalar_scale_constant_into_a_python_number(const):
    # a numpy scalar const is no valid source for the node's compiled
    # step, and a numpy real32 one is not JSON serializable
    program, plain = _scaled_sum(const), _scaled_sum(const.item())
    (scale,) = [n for n in program.region[0].graph.nodes if getattr(n, "op", None) == "scale"]
    assert scale.const.__class__ is float
    text = serialize_program(program)
    assert text == serialize_program(plain)
    x = {"X": np.linspace(0.5, 1.5, 5, dtype=np.float32)}
    values = [np.asarray(run_forward(p, x, {"n": 5}).value) for p in (program, plain, parse_program(text))]
    assert all(v.dtype == np.float32 and v.tobytes() == values[1].tobytes() for v in values)


def _pingpong_backward_doc():
    """The reverse program of the pingpong kernel: a peel (skip 0, take 1)
    and the main reversed loop (skip 1)."""
    doc = program_to_dict(build_backward(examples.build("two_array_pingpong")).backward)
    loops = [b for b in doc["region"] if b["kind"] == "loop"]
    assert [(b.get("skip"), b.get("take")) for b in loops] == [(None, 1), (1, None)]
    return doc, loops


@pytest.mark.parametrize("key,value,msg", [
    ("skip", -1, "skip must be at least 0, got -1"),
    ("take", 0, "take must be at least 1, got 0"),
])
def test_bad_skip_or_take_fails_validation(key, value, msg):
    # parsing rejects the peel with validation's diagnostic, before it can
    # index the simulated iterates; validation flags the same loop in memory
    doc, loops = _pingpong_backward_doc()
    loops[0][key] = value
    with pytest.raises(ValidationFailed, match=msg) as info:
        parse_program(json.dumps(doc))
    assert [(d.code, d.where) for d in info.value.diagnostics] == [("BadLoop", "swap__peel0")]
    program = build_backward(examples.build("two_array_pingpong")).backward
    at = next(k for k, b in enumerate(program.region) if isinstance(b, LoopRegion))
    program.region[at] = replace(program.region[at], **{key: value})
    with pytest.raises(ValidationFailed, match=msg) as info:
        validate_or_raise(program)
    assert [(d.code, d.where) for d in info.value.diagnostics] == [("BadLoop", "swap__peel0")]


def test_ew_expr_round_trips_and_takes_its_connectors_from_the_expression():
    program = ew_expr_program("(mul _g (sin x))")
    assert validate(program) == []
    text = serialize_program(program)
    assert '"expr": "(mul _g (sin x))"' in text
    assert serialize_program(parse_program(text)) == text
    # a free name with no edge is an unwired connector
    bad = ew_expr_program("(mul _g (sin z))")
    diags = validate(bad)
    assert {d.code for d in diags} == {"UnknownConnector", "ArityMismatch"}
    with pytest.raises(ValidationFailed, match="UnknownConnector"):
        parse_program(serialize_program(bad))


def test_ew_expr_rejects_condition_only_syntax():
    bad = ew_expr_program("(add _g (lt x 1))")
    diags = validate(bad)
    assert [d.code for d in diags] == ["BadCondition"]
    with pytest.raises(ValidationFailed, match="BadCondition"):
        parse_program(serialize_program(bad))


@pytest.mark.parametrize("key", ["skip", "take"])
def test_skip_and_take_need_a_reversed_loop(key):
    doc, loops = _pingpong_backward_doc()
    del loops[0]["reverse_of"]
    loops[0][key] = 1
    diags = validate(parse_unvalidated(json.dumps(doc)))
    assert [d.code for d in diags] == ["BadLoop"]
    assert "skip and take need a reversed loop" in diags[0].message
    with pytest.raises(ValidationFailed, match="skip and take need a reversed loop"):
        parse_program(json.dumps(doc))


@pytest.mark.parametrize("key,value", [
    ("inverse", "(idiv i 2)"), ("reversal", "simulate"), ("reversal", {"replay_of": "l"}),
])
def test_removed_loop_reversal_keys_are_unknown(key, value):
    doc = program_to_dict(examples.build("doubling_gather"))
    doc["region"][1][key] = value
    with pytest.raises(ProgramSyntaxError, match=f"unknown keys \\['{key}'\\]"):
        parse_program(json.dumps(doc))
