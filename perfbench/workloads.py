"""The benchmark's workloads and the independent references it checks
results against.

Every program is built with ``ProgramBuilder``, serialized and parsed back
through the JSON frontend, so parsing is part of set-up. Inputs are uniform
on [0.4, 1.6) in the declared precision, drawn from the run's seed.

Why each workload:

* ``corpus``: every built-in kernel at its test size, with no budget. It
  covers every IR feature (loops, inverse loops, peeling, branches, maps),
  so the compile-side layers make up most of ``plan()``. ``seidel_stencil``
  dominates ``gradient()`` through the executor's scalar-tasklet loop path.
  The solver is bypassed: keeping everything fits.
* ``wide_chain``: ``scaled_product_chain`` at N=96, float32, under a budget
  that forces a recompute. Its backward pass is lowered to per-element maps,
  so the executor's map path dominates, and its arrays are large enough
  for measured memory to matter.
* ``sin_chain``: generated sin chains of k = 12, 14, 16 values at 80% and
  60% of the keep-everything modelled peak. The exact solver dominates
  ``plan()``; the arrays are small, so the executor does little.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import gradflow as gf
from gradflow import examples
from gradflow.ir import AccessNode, MapNode, State, walk_blocks
from gradflow.symexpr import eval_expr

# The stencil is linear, so central differences have no truncation error and
# a larger step only averages away float64 cancellation noise (as in the
# corpus tests).
FD_EPS = {"seidel_stencil": 1e-5}
FD_TOLERANCE = 1e-5
# float32 arithmetic against a float64 closed form: 1.1e-4 at N=96 today
CLOSED_FORM_TOLERANCE = 1e-3

WIDE_N = 96
WIDE_BUDGET = 0.95  # share of the keep-everything modelled peak
SIN_KS = (12, 14, 16)
SIN_BUDGETS = (0.8, 0.6)
SIN_SIDE = 16

# Small sizes for the benchmark's own tests.
TINY_PARAMS = {"seidel_stencil": {"N": 8, "TSTEPS": 2}}
TINY_WIDE_N = 8
TINY_SIN_KS = (3, 4)


@dataclass
class Kernel:
    """One program with its parameters and inputs."""

    label: str
    program: gf.Program
    params: dict[str, int]
    inputs: dict[str, np.ndarray]
    reference: str  # "fd" or "closed_form"


@dataclass
class Pair:
    """One (program, budget) pair given to ``plan()``."""

    label: str
    kernel: Kernel
    limit_mib: float | None


@dataclass
class Workload:
    name: str
    kernels: list[Kernel]
    pairs: list[Pair]
    # (api, item, result) of the calls made while setting up, to be checked
    # like the timed ones: the keep-everything plans that set the budgets
    setup_calls: list[tuple[str, object, object]] = field(default_factory=list)


def sin_chain(k: int) -> gf.Program:
    """A scale, then k sins, then ``reduce_sum``, over [SIN_SIDE, SIN_SIDE]
    real64.

    The k sin inputs are the planner's decision variables. At 80% of the
    keep-everything peak, k=12 poses 102 memory events.
    """
    shape = (str(SIN_SIDE), str(SIN_SIDE))
    b = gf.ProgramBuilder(())
    b.array("X", shape, role="input", kind="real64")
    b.array("L", shape, kind="real64")
    with b.state("scale") as s:
        s.library("ew_unary", {"x": "X"}, {"y": "L"}, op="scale", const=0.5)
    cur = "L"
    for j in range(k):
        nxt = f"A{j}"
        b.array(nxt, shape, kind="real64")
        with b.state(f"sin{j}") as s:
            s.library("ew_unary", {"x": cur}, {"y": nxt}, op="sin")
        cur = nxt
    b.scalar("O", role="output", kind="real64")
    with b.state("reduce") as s:
        s.library("reduce_sum", {"x": cur}, {"y": "O"})
    return b.finish("O", ["X"])


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    if name == "corpus":
        kernels = []
        for label, make in examples.EXAMPLES.items():
            params = dict(examples.DEFAULT_PARAMS[label])
            if tiny:
                params.update(TINY_PARAMS.get(label, {}))
            ref = "closed_form" if label == "scaled_product_chain" else "fd"
            kernels.append(_kernel(label, make(), params, rng, ref))
        return Workload(name, kernels, [Pair(k.label, k, None) for k in kernels])
    if name == "wide_chain":
        n = TINY_WIDE_N if tiny else WIDE_N
        kernels = [_kernel(f"N={n}", examples.scaled_product_chain(), {"N": n}, rng, "closed_form")]
        shares = (WIDE_BUDGET,)
    elif name == "sin_chain":
        kernels = [
            _kernel(f"k={k}", sin_chain(k), {}, rng, "fd")
            for k in (TINY_SIN_KS if tiny else SIN_KS)
        ]
        shares = SIN_BUDGETS
    else:
        raise ValueError(f"unknown workload '{name}'")
    wl = Workload(name, kernels, [])
    for k in kernels:
        keep_all = Pair(f"{k.label}@keep-all", k, None)
        result = gf.plan(k.program, None, k.params)
        wl.setup_calls.append(("plan", keep_all, result))
        mib = result.solution.t_star / (1 << 20)
        wl.pairs += [Pair(f"{k.label}@{share:.0%}", k, share * mib) for share in shares]
    return wl


def _kernel(label, program, params, rng, reference) -> Kernel:
    parsed = gf.parse_program(gf.serialize_program(program))
    inputs = {}
    for d in parsed.descriptors.values():
        if d.role == "input":
            shape = tuple(int(eval_expr(dim, params)) for dim in d.shape)
            dtype = np.float32 if d.element_kind == "real32" else np.float64
            inputs[d.name] = rng.uniform(0.4, 1.6, shape).astype(dtype)
    return Kernel(label, parsed, params, inputs, reference)


# ---------------------------------------------------------------------------
# independent references


def reference_error(k: Kernel, grads: dict) -> float:
    """Largest relative error |a - b| / max(1, |b|) of ``grads`` against the
    kernel's independent reference; NaN reference entries are skipped."""
    if k.reference == "closed_form":
        ref = {"D": _scaled_product_chain_grad(k.inputs["C"], k.inputs["D"])}
    else:
        ref = gf.finite_difference_gradient(
            k.program, k.inputs, k.params, eps=FD_EPS.get(k.label)
        )
    worst = 0.0
    for name, b in ref.items():
        a = np.asarray(grads[name], dtype=np.float64).reshape(-1)
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        mask = np.isfinite(b)
        if a.shape != b.shape or not np.all(np.isfinite(a[mask])):
            return float("inf")
        rel = np.abs(a[mask] - b[mask]) / np.maximum(1.0, np.abs(b[mask]))
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst


def tolerance(k: Kernel) -> float:
    return CLOSED_FORM_TOLERANCE if k.reference == "closed_form" else FD_TOLERANCE


def _scaled_product_chain_grad(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """d/dD of sum(sin(C*D)) + sum(sin(C*6D)) + sum(sin(C*18D)), in float64."""
    c = c.astype(np.float64)
    d = d.astype(np.float64)
    return c * np.cos(c * d) + 6 * c * np.cos(6 * c * d) + 18 * c * np.cos(18 * c * d)


def model_matches_simulation(result, params: dict[str, int]) -> bool:
    """The plan's modelled peak equals ``simulate_memory`` on every path."""
    hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
    peaks = []
    for seq in result.sequences:
        timeline = gf.simulate_memory(
            result.forward, result.backward, params, dict(seq.outcomes), stored_hints=hints
        )
        if timeline.peak != seq.peak(result.solution.assignment):
            return False
        peaks.append(timeline.peak)
    return max(peaks, default=0) == result.solution.t_star


def node_counts(program: gf.Program) -> tuple[int, int]:
    """Compute nodes (tasklets, library nodes, maps and their bodies), and
    how many of them are maps."""
    nodes = maps = 0
    for _, block in walk_blocks(program.region):
        if isinstance(block, State):
            n, m = _df_nodes(block.graph)
            nodes += n
            maps += m
    return nodes, maps


def _df_nodes(df) -> tuple[int, int]:
    nodes = maps = 0
    for n in df.nodes:
        if isinstance(n, AccessNode):
            continue
        nodes += 1
        if isinstance(n, MapNode):
            inner, inner_maps = _df_nodes(n.body)
            nodes += inner
            maps += 1 + inner_maps
    return nodes, maps
