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
from gradflow.ir import LoopRegion
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
    diags = validate(ew_expr_program("(mul _g (sin z))"))
    assert {d.code for d in diags} == {"UnknownConnector", "ArityMismatch"}


def test_ew_expr_rejects_condition_only_syntax():
    diags = validate(ew_expr_program("(add _g (lt x 1))"))
    assert [d.code for d in diags] == ["BadCondition"]


@pytest.mark.parametrize("key", ["skip", "take"])
def test_skip_and_take_need_a_reversed_loop(key):
    doc, loops = _pingpong_backward_doc()
    del loops[0]["reverse_of"]
    loops[0][key] = 1
    diags = validate(parse_program(json.dumps(doc)))
    assert [d.code for d in diags] == ["BadLoop"]
    assert "skip and take need a reversed loop" in diags[0].message


@pytest.mark.parametrize("key,value", [
    ("inverse", "(idiv i 2)"), ("reversal", "simulate"), ("reversal", {"replay_of": "l"}),
])
def test_removed_loop_reversal_keys_are_unknown(key, value):
    doc = program_to_dict(examples.build("doubling_gather"))
    doc["region"][1][key] = value
    with pytest.raises(ProgramSyntaxError, match=f"unknown keys \\['{key}'\\]"):
        parse_program(json.dumps(doc))
