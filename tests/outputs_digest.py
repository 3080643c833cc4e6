"""Print one hash line per program of the 257-program set, so that a change
meant to keep every output identical is checked by one diff.

The set: the 14 example kernels, ``sin_chain`` of 12, 14 and 16 values,
``make_chain_program`` and ``make_loop_program`` seeds 0-59 and
``make_elementwise_program``, ``make_map_program`` and
``make_stencil_program`` seeds 0-39. Every parameter is 4. Each line
hashes, in order:

* the serialized program and the serialized reverse program of its
  ``backward_of`` bundle, so that the graphs the builder and the reverse
  pass assemble are pinned node by node;
* the serialized ``restrict_to_ccs`` output;
* the value, the gradients and the forward and reverse op counts of
  ``gradient()``, called twice, so that what a program keeps across runs must give the
  first run's outputs again;
* at no budget, 75% and 50% of the keep-all peak, and the floor (the
  ``min_peak_bytes`` of a 0-byte plan): the serialized planned programs,
  the assignment, the objective, ``t_star``, the report without
  ``solver_ms`` and ``solver_nodes``, the memory sequences (each path's
  outcomes, then each event's label, delta and total) and the value,
  gradients and forward and reverse op counts of two ``run_planned()``
  replays;
* the class and message of every error a step raises.

A second hash covers only the plan outcomes: per budget, the assignment,
the objective, ``t_star``, the value, gradients and op counts of the
replays, the floor, and every error those steps raise. A change that moves
the planned programs or the memory events but not what a plan decides or
computes moves the first hash of a line and keeps the second.

After the hashes, each line lists the ``solver_nodes`` of every plan that
was made, as plain text, so that a change which only cuts search nodes
keeps every hash and shows each count it moves.

Run from the repository root, on two checkouts, and diff the outputs:

    PYTHONPATH=src python tests/outputs_digest.py > digest.txt
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from gradflow import examples, gradient, plan, run_planned, serialize_program
from gradflow.autodiff import backward_of, restrict_to_ccs
from gradflow.errors import Infeasible
from gradflow.verification import sample_inputs
from genprog import (make_chain_program, make_elementwise_program, make_loop_program, make_map_program,
                     make_stencil_program, sin_chain)


def programs():
    for name in examples.EXAMPLES:
        yield name, examples.build(name)
    for k in (12, 14, 16):
        yield f"sin_chain({k})", sin_chain(k)
    for make, seeds in ((make_chain_program, 60), (make_loop_program, 60),
                        (make_elementwise_program, 40), (make_map_program, 40), (make_stencil_program, 40)):
        for seed in range(seeds):
            yield f"{make.__name__}({seed})", make(seed)


def _arrays(h, arrays: dict):
    for name in sorted(arrays):
        a = np.asarray(arrays[name])
        h.update(f"{name} {a.dtype} {a.shape}\n".encode())
        h.update(a.tobytes())


class _Both:
    """Two hashes updated as one."""

    def __init__(self, *hs):
        self.hs = hs

    def update(self, data: bytes):
        for h in self.hs:
            h.update(data)


def _replay(h, res):
    """Hash a gradient result: its value, its gradients and its runs' op
    counts."""
    _arrays(h, {"": res.value})
    _arrays(h, res.grads)
    h.update(f"ops {res.forward.op_count} {res.backward.op_count}\n".encode())


def _step(h, what: str, fn):
    """Hash what ``fn(h)`` adds, or the class and message of its error;
    returns ``fn``'s result, or None after an error."""
    h.update(f"[{what}]\n".encode())
    try:
        return fn(h)
    except Exception as exc:  # noqa: BLE001 - every error is part of the output
        h.update(f"{type(exc).__name__}: {exc}\n".encode())
        return None


def digest(program) -> str:
    params = {p: 4 for p in program.parameters}
    inputs = sample_inputs(program, params, np.random.default_rng(0))
    h, o = hashlib.sha256(), hashlib.sha256()  # every output; the plan outcomes
    both = _Both(h, o)

    def built(h):
        h.update(serialize_program(program).encode())

    def reverse(h):
        h.update(serialize_program(backward_of(program).backward).encode())

    def restricted(h):
        h.update(serialize_program(restrict_to_ccs(program)).encode())

    def grads(h):
        for _ in range(2):
            _replay(h, gradient(program, inputs, params))

    nodes = []  # (step, solver_nodes) per plan made

    def planned(what, limit_bytes):
        def run(both):
            result = plan(program, None if limit_bytes is None else limit_bytes / (1 << 20), params)
            h.update(serialize_program(result.forward).encode())
            h.update(serialize_program(result.backward).encode())
            s = result.solution
            both.update(f"{s.assignment} {s.objective_flops} {s.t_star}\n".encode())
            report = {k: v for k, v in result.report.items() if k not in ("solver_ms", "solver_nodes")}
            h.update(f"{report}\n".encode())
            nodes.append((what, result.report["solver_nodes"]))
            for seq in result.sequences:
                h.update(f"path {seq.outcomes}\n".encode())
                for e in seq.events:
                    h.update(f"{e.label} {e.delta} {e.total}\n".encode())
            for _ in range(2):
                _replay(both, run_planned(result, inputs, params))
            return s.t_star
        return run

    def floor(both):
        try:
            least = plan(program, 0, params).solution.t_star
        except Infeasible as exc:
            least = exc.min_peak_bytes
        both.update(f"floor {least}\n".encode())
        return least

    _step(h, "program", built)
    _step(h, "reverse", reverse)
    _step(h, "ccs", restricted)
    _step(h, "gradient", grads)
    peak = _step(both, "keep-all", planned("keep-all", None))
    if peak is not None:
        for share in (0.75, 0.5):
            _step(both, f"{share}", planned(f"{share}", int(peak * share)))
    least = _step(both, "floor", floor)
    if least is not None:
        _step(both, "at floor", planned("at floor", least))
    return f"{h.hexdigest()} outcomes {o.hexdigest()} solver_nodes " + ", ".join(f"{what} {n}" for what, n in nodes)


def main():
    warnings.simplefilter("ignore")
    for name, program in programs():
        print(name, digest(program))


if __name__ == "__main__":
    main()
