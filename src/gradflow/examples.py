"""Built-in example programs.

Each builder returns a validated ``Program``; ``DEFAULT_PARAMS`` carries
parameter bindings that keep the kernels small enough for tests. The corpus
doubles as the gradient-verification suite: every real64 program here is
checked against finite differences.

Run ``python -m gradflow.examples <name>`` to print a program as JSON.
"""

from __future__ import annotations

from .frontend import ProgramBuilder, serialize_program
from .ir import Program


def scaled_product_chain() -> Program:
    """Three scaled elementwise products of [N,N] float32 arrays, each passed
    through sin and summed. The planner's canonical example: the sin inputs
    A0, A1, A2 must be forwarded to the backward pass."""
    b = ProgramBuilder(("N",))
    b.array("C", ("N", "N"), role="input")
    b.array("D", ("N", "N"), role="input")
    for name in ("A0", "sin0", "D1", "A1", "sin1", "D2", "A2", "sin2"):
        b.array(name, ("N", "N"))
    for name in ("O0", "O1", "O2"):
        b.scalar(name)
    b.scalar("O", role="output")
    with b.state("main") as s:
        s.library("ew_binary", {"a": "C", "b": "D"}, {"c": "A0"}, op="mul")
        s.library("ew_unary", {"x": "A0"}, {"y": "sin0"}, op="sin")
        s.library("ew_unary", {"x": "D"}, {"y": "D1"}, op="scale", const=6.0)
        s.library("ew_binary", {"a": "C", "b": "D1"}, {"c": "A1"}, op="mul")
        s.library("ew_unary", {"x": "A1"}, {"y": "sin1"}, op="sin")
        s.library("ew_unary", {"x": "D1"}, {"y": "D2"}, op="scale", const=3.0)
        s.library("ew_binary", {"a": "C", "b": "D2"}, {"c": "A2"}, op="mul")
        s.library("ew_unary", {"x": "A2"}, {"y": "sin2"}, op="sin")
        s.library("reduce_sum", {"x": "sin0"}, {"y": "O0"})
        s.library("reduce_sum", {"x": "sin1"}, {"y": "O1"})
        s.library("reduce_sum", {"x": "sin2"}, {"y": "O2"})
        s.tasklet(
            ins={"a": ("O0", ()), "b": ("O1", ()), "c": ("O2", ())},
            outs={"o": ("O", ())},
            body={"o": "(add (add a b) c)"},
        )
    return b.finish("O", ["D"])


def exp_sin_chain() -> Program:
    """Elementwise chain sum(sin(exp(X))), plus a dead exp branch that the
    slice extractor must discard."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.array("Z", ("n",), kind="real64")
    b.array("W", ("n",), kind="real64")  # never consumed
    b.scalar("O", role="output", kind="real64")
    with b.state("chain") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="exp")
        s.library("ew_unary", {"x": "Y"}, {"y": "Z"}, op="sin")
        s.library("ew_unary", {"x": "Y"}, {"y": "W"}, op="exp")
        s.library("reduce_sum", {"x": "Z"}, {"y": "O"})
    return b.finish("O", ["X"])


def double_read() -> Program:
    """X read three times: squared inside a map (twice per element) and
    passed through sin; gradients accumulate across all reads."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.array("P", ("n",), kind="real64")
    b.array("Q", ("n",), kind="real64")
    b.scalar("s0", kind="real64")
    b.scalar("s1", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("reads") as s:
        def square(inner):
            inner.tasklet(
                ins={"a": ("X", ("i",)), "b": ("X", ("i",))},
                outs={"o": ("P", ("i",))},
                body={"o": "(mul a b)"},
            )

        s.map_node(("i",), (("0", "n", "1"),), square)
        s.library("ew_unary", {"x": "X"}, {"y": "Q"}, op="sin")
        s.library("reduce_sum", {"x": "P"}, {"y": "s0"})
        s.library("reduce_sum", {"x": "Q"}, {"y": "s1"})
        s.tasklet(
            ins={"a": ("s0", ()), "b": ("s1", ())},
            outs={"o": ("O", ())},
            body={"o": "(add a b)"},
        )
    return b.finish("O", ["X"])


def overwrite_chain() -> Program:
    """B is written, consumed, then overwritten and consumed again; the
    reverse pass must clear B's gradient between the two uses."""
    b = ProgramBuilder(("n",))
    b.array("A", ("n",), role="input", kind="real64")
    b.array("B", ("n",), kind="real64")
    b.array("C1", ("n",), kind="real64")
    b.array("C2", ("n",), kind="real64")
    b.scalar("s0", kind="real64")
    b.scalar("s1", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("first") as s:
        s.library("ew_unary", {"x": "A"}, {"y": "B"}, op="scale", const=2.0)
        s.library("ew_unary", {"x": "B"}, {"y": "C1"}, op="sin")
    with b.state("second") as s:
        s.library("ew_unary", {"x": "A"}, {"y": "B"}, op="scale", const=3.0)
        s.library("ew_unary", {"x": "B"}, {"y": "C2"}, op="sin")
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "C1"}, {"y": "s0"})
        s.library("reduce_sum", {"x": "C2"}, {"y": "s1"})
        s.tasklet(
            ins={"a": ("s0", ()), "b": ("s1", ())},
            outs={"o": ("O", ())},
            body={"o": "(add a b)"},
        )
    return b.finish("O", ["A"])


def map_reduce_2d() -> Program:
    """2-D map accumulating sin of every element into a scalar."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n", "n"), role="input", kind="real64")
    b.scalar("acc", role="output", kind="real64")
    with b.state("sweep") as s:
        def point(inner):
            inner.tasklet(
                ins={"x": ("X", ("i", "j"))},
                outs={"o": ("acc", ())},
                body={"o": "(sin x)"},
                wcr="sum",
            )

        s.map_node(("i", "j"), (("0", "n", "1"), ("0", "n", "1")), point)
    return b.finish("acc", ["X"])


def triangular() -> Program:
    """Triangular loop nest: sum of squares of the lower triangle."""
    b = ProgramBuilder(("n",))
    b.array("A", ("n", "n"), role="input", kind="real64")
    b.scalar("acc", role="output", kind="real64")
    with b.loop("i", "0", "n", label="rows"):
        with b.loop("j", "0", "(add i 1)", label="cols"):
            with b.state("cell") as s:
                s.tasklet(
                    ins={"a": ("A", ("i", "j"))},
                    outs={"o": ("acc", ())},
                    body={"o": "(mul a a)"},
                    wcr="sum",
                )
    return b.finish("acc", ["A"])


def seidel_stencil() -> Program:
    """In-place 5-point averaging sweeps: a 3-deep sequential loop nest with
    overwrites; linear, so the reverse pass needs no stored values."""
    b = ProgramBuilder(("N", "TSTEPS"))
    b.array("A", ("N", "N"), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("t", "0", "TSTEPS", label="time"):
        with b.loop("i", "1", "(sub N 1)", label="rows"):
            with b.loop("j", "1", "(sub N 1)", label="cols"):
                with b.state("point") as s:
                    s.tasklet(
                        ins={
                            "cc": ("A", ("i", "j")),
                            "nn": ("A", ("(sub i 1)", "j")),
                            "ss": ("A", ("(add i 1)", "j")),
                            "ww": ("A", ("i", "(sub j 1)")),
                            "ee": ("A", ("i", "(add j 1)")),
                        },
                        outs={"o": ("A", ("i", "j"))},
                        body={"o": "(mul 0.2 (add (add (add cc nn) (add ss ww)) ee))"},
                    )
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "A"}, {"y": "O"})
    return b.finish("O", ["A"])


def strided_copy() -> Program:
    """Non-unit-stride loop: every third element passes through sin."""
    b = ProgramBuilder(("n",))
    b.array("A", ("n",), role="input", kind="real64")
    b.array("B", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("i", "0", "n", update="(add i 3)", label="hop"):
        with b.state("pick") as s:
            s.tasklet(
                ins={"a": ("A", ("i",))},
                outs={"o": ("B", ("i",))},
                body={"o": "(sin a)"},
            )
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "B"}, {"y": "O"})
    return b.finish("O", ["A"])


def doubling_gather() -> Program:
    """Non-affine loop i *= 2: running product of gathered elements.
    Forward iterates [1,2,4,8]; the reverse pass re-simulates the header and
    steps back through [8,4,2,1]."""
    b = ProgramBuilder()
    b.array("A", ("16",), role="input", kind="real64")
    b.scalar("T", role="output", kind="real64")
    with b.state("init") as s:
        s.tasklet(ins={}, outs={"o": ("T", ())}, body={"o": "1"})
    with b.loop("i", "1", "16", update="(mul i 2)", label="dbl"):
        with b.state("gather") as s:
            s.tasklet(
                ins={"t": ("T", ()), "a": ("A", ("i",))},
                outs={"o": ("T", ())},
                body={"o": "(mul t a)"},
            )
    return b.finish("T", ["A"])


def branchy_scale() -> Program:
    """Branch on a scalar input: one arm scales, the other applies sin. The
    reverse pass replays the recorded outcome. The untaken-arm subgraph and a
    dead scaling stay out of the slice."""
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.array("U", ("n",), kind="real64")  # never consumed
    b.scalar("O", role="output", kind="real64")
    with b.branch("(lt s 0.5)", label="pick") as br:
        with br.then():
            with b.state("low") as st:
                st.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="scale", const=2.0)
        with br.orelse():
            with b.state("high") as st:
                st.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="sin")
    with b.state("tail") as s:
        s.library("ew_unary", {"x": "Y"}, {"y": "U"}, op="scale", const=5.0)
        s.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


def matmul_sum() -> Program:
    """sum(sin(A @ B)): matrix-product adjoints plus one forwarded value."""
    b = ProgramBuilder(("d",))
    b.array("A", ("d", "d"), role="input", kind="real64")
    b.array("B", ("d", "d"), role="input", kind="real64")
    b.array("C", ("d", "d"), kind="real64")
    b.array("S1", ("d", "d"), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("prod") as s:
        s.library("matmul", {"a": "A", "b": "B"}, {"c": "C"})
        s.library("ew_unary", {"x": "C"}, {"y": "S1"}, op="sin")
        s.library("reduce_sum", {"x": "S1"}, {"y": "O"})
    return b.finish("O", ["A", "B"])


def matmul_transpose() -> Program:
    """sum(sin(Aᵀ @ Bᵀ)): exercises the transposed matmul adjoint rules."""
    b = ProgramBuilder(("d",))
    b.array("A", ("d", "d"), role="input", kind="real64")
    b.array("B", ("d", "d"), role="input", kind="real64")
    b.array("C", ("d", "d"), kind="real64")
    b.array("S1", ("d", "d"), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.state("prod") as s:
        s.library("matmul", {"a": "A", "b": "B"}, {"c": "C"}, ta=True, tb=True)
        s.library("ew_unary", {"x": "C"}, {"y": "S1"}, op="sin")
        s.library("reduce_sum", {"x": "S1"}, {"y": "O"})
    return b.finish("O", ["A", "B"])


def two_array_pingpong() -> Program:
    """Loop body B=2A; A=3B with the dependent reading only B: the first
    reversed iteration needs a smaller slice than the steady state, so the
    reverse pass peels one iteration."""
    b = ProgramBuilder(("trips",))
    b.array("A", ("4",), role="input", kind="real64")
    b.array("B", ("4",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("k", "0", "trips", label="swap"):
        with b.state("step") as s:
            s.library("ew_unary", {"x": "A"}, {"y": "B"}, op="scale", const=2.0)
            s.library("ew_unary", {"x": "B"}, {"y": "A"}, op="scale", const=3.0)
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "B"}, {"y": "O"})
    return b.finish("O", ["A"])


def iterated_sin_map() -> Program:
    """X = sin(X) applied repeatedly in place: every iteration's input value
    must be forwarded to the matching reverse iteration."""
    b = ProgramBuilder(("n", "steps"))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.loop("t", "0", "steps", label="iters"):
        with b.state("apply") as s:
            s.library("ew_unary", {"x": "X"}, {"y": "X"}, op="sin")
    with b.state("collect") as s:
        s.library("reduce_sum", {"x": "X"}, {"y": "O"})
    return b.finish("O", ["X"])


EXAMPLES = {
    "scaled_product_chain": scaled_product_chain,
    "exp_sin_chain": exp_sin_chain,
    "double_read": double_read,
    "overwrite_chain": overwrite_chain,
    "map_reduce_2d": map_reduce_2d,
    "triangular": triangular,
    "seidel_stencil": seidel_stencil,
    "strided_copy": strided_copy,
    "doubling_gather": doubling_gather,
    "branchy_scale": branchy_scale,
    "matmul_sum": matmul_sum,
    "matmul_transpose": matmul_transpose,
    "two_array_pingpong": two_array_pingpong,
    "iterated_sin_map": iterated_sin_map,
}

DEFAULT_PARAMS = {
    "scaled_product_chain": {"N": 16},
    "exp_sin_chain": {"n": 9},
    "double_read": {"n": 8},
    "overwrite_chain": {"n": 7},
    "map_reduce_2d": {"n": 5},
    "triangular": {"n": 6},
    "seidel_stencil": {"N": 40, "TSTEPS": 10},
    "strided_copy": {"n": 11},
    "doubling_gather": {},
    "branchy_scale": {"n": 8},
    "matmul_sum": {"d": 5},
    "matmul_transpose": {"d": 5},
    "two_array_pingpong": {"trips": 3},
    "iterated_sin_map": {"n": 6, "steps": 4},
}

# real32 programs are excluded from finite-difference comparison
FD_CORPUS = tuple(name for name in EXAMPLES if name != "scaled_product_chain")


def build(name: str) -> Program:
    return EXAMPLES[name]()


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(prog="gradflow.examples", description=__doc__)
    ap.add_argument("name", nargs="?", help="example to print as JSON")
    ap.add_argument("--list", action="store_true", help="list example names")
    args = ap.parse_args(argv)
    if args.list or not args.name:
        for name in EXAMPLES:
            print(name)
        return 0
    if args.name not in EXAMPLES:
        print(f"unknown example '{args.name}'")
        return 1
    print(serialize_program(build(args.name)), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
