import pytest
from hypothesis import given, strategies as st

import gradflow.examples as examples
from gradflow import size_bytes, validate
from gradflow.errors import NonTermination
from gradflow.ir import (
    AccessNode,
    DataDescriptor,
    LoopRegion,
    State,
    pristine_inputs,
    schedule,
    simulate_header,
)
from gradflow.symexpr import parse_sexpr


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
    assert simulate_header(_loop("0", "5", "<", "(add i 1)"), {}, 100) == [0, 1, 2, 3, 4]


def test_header_stride_three():
    # forward {0,3,6,9}, the non-unit-stride shape from the loop analysis
    assert simulate_header(_loop("0", "10", "<", "(add i 3)"), {}, 100) == [0, 3, 6, 9]


def test_header_descending():
    assert simulate_header(_loop("5", "0", ">", "(sub i 2)"), {}, 100) == [5, 3, 1]


def test_header_zero_trips():
    assert simulate_header(_loop("4", "4", "<", "(add i 1)"), {}, 100) == []
    assert len(simulate_header(_loop("7", "3", "<", "(add i 1)"), {}, 10**9)) == 0


def test_header_parametric_bound():
    assert simulate_header(_loop("0", "n", "<", "(add i 1)"), {"n": 3}, 100) == [0, 1, 2]


def test_header_geometric():
    assert simulate_header(_loop("1", "16", "<", "(mul i 2)"), {}, 100) == [1, 2, 4, 8]


def test_header_trip_limit():
    with pytest.raises(NonTermination):
        simulate_header(_loop("0", "10", "<", "(add i 0)"), {}, 50)


@given(st.integers(-8, 8), st.integers(-8, 20), st.integers(1, 5))
def test_header_matches_range_enumeration(lo, hi, step):
    got = simulate_header(_loop(str(lo), str(hi), "<", f"(add i {step})"), {}, 1000)
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
    order = schedule(g)
    assert sorted(order) == sorted(n.id for n in g.nodes)
    pos = {nid: i for i, nid in enumerate(order)}
    for e in g.edges:
        assert pos[e.src] < pos[e.dst]
    assert schedule(g) == order


def test_schedule_orders_access_instances():
    # reading instance k of an array must precede writing instance k+1
    g = examples.build("two_array_pingpong").region[0].body[0].graph
    order = schedule(g)
    pos = {nid: i for i, nid in enumerate(order)}
    by_data = {}
    for n in g.nodes:
        if isinstance(n, AccessNode):
            by_data.setdefault(n.data, []).append(n.id)
    assert len(by_data["A"]) == 2  # read instance, then overwrite instance
    first_a, second_a = by_data["A"]
    assert pos[first_a] < pos[second_a]


# ---------------------------------------------------------------------------
# validation and classification


def test_corpus_validates_clean():
    for name in examples.EXAMPLES:
        assert validate(examples.build(name)) == []


def test_pristine_inputs():
    foo = examples.build("scaled_product_chain")
    assert pristine_inputs(foo) == {"C", "D"}
    sei = examples.build("seidel_stencil")
    assert pristine_inputs(sei) == set()  # A is overwritten in place
