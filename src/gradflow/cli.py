"""Command line: differentiate, plan, run, verify and inspect programs.

Exit codes: 0 success, 1 I/O failure, 5 gradient tolerance exceeded
(verify); a package error exits with the ``exit_code`` its type declares
(``gradflow.errors``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import backward_of, gradient
from .checkpointing import plan, run_planned
from .errors import GradflowError, Infeasible, ProgramSyntaxError, UnboundName
from .frontend import load_program, serialize_program
from .ir import Program
from .verification import (
    compare_gradients,
    fd_epsilon,
    finite_difference_gradient,
    sample_inputs,
    simulate_memory,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_TOLERANCE = 5

MIB = 1 << 20


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GradflowError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        if isinstance(exc, Infeasible) and exc.min_peak_bytes is not None:
            what = "minimum achievable peak" if exc.exact else "peak lower bound"
            print(
                f"{what}: {exc.min_peak_bytes} bytes ({exc.min_peak_bytes / MIB:.2f} MiB)",
                file=sys.stderr,
            )
        return exc.exit_code


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gradflow", description=__doc__)
    sub = ap.add_subparsers(required=True)

    def common(p, inputs=False):
        p.add_argument("program", help="program JSON file")
        p.add_argument("--params", action="append", default=[], metavar="N=V",
                       help="integer parameter bindings, repeatable or comma-separated")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if inputs:
            p.add_argument("--input", action="append", default=[], metavar="NAME=SPEC",
                           help="input array: a .npy path or an inline JSON literal")
            p.add_argument("--seed", type=int, default=0,
                           help="seed for sampling inputs not given explicitly")

    p = sub.add_parser("diff", help="build the reverse program and its forwarding manifest")
    common(p)
    p.add_argument("--wrt", action="append", default=[], metavar="NAME",
                   help="differentiate with respect to NAME (overrides the program's list)")
    p.add_argument("--out", help="output stem (default: program path without .json)")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("plan", help="choose store/recompute decisions under a memory limit")
    common(p)
    p.add_argument("--memory-limit-mib", type=float, default=None, metavar="M")
    p.add_argument("--emit", metavar="STEM", help="write the rewritten programs to STEM.fwd.json / STEM.bwd.json")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="execute forward and backward, write gradients")
    common(p, inputs=True)
    p.add_argument("--out", metavar="PREFIX", help="write each gradient to PREFIX<name>__grad.npy")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="compare gradients against central finite differences")
    common(p, inputs=True)
    p.add_argument("--eps", default="auto", help="FD step, or 'auto' for sqrt(eps)*max(1,|x|)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="max relative error (default 1e-5 for real64 programs, 1e-2 with real32 data)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mem-report", help="simulate resident bytes of a planned run and measure "
                       "one run on sampled inputs; --json gives peak_bytes (max simulated path "
                       "peak), model_peak_bytes (solver's), measured_peak_bytes, limit_bytes, paths")
    common(p)
    p.add_argument("--memory-limit-mib", type=float, default=None, metavar="M")
    p.add_argument("--events", action="store_true", help="print every timeline event")
    p.set_defaults(func=cmd_mem_report)

    p = sub.add_parser("fmt", help="rewrite a program file in canonical form")
    common(p)
    p.add_argument("--in-place", action="store_true", help="overwrite the file instead of printing")
    p.set_defaults(func=cmd_fmt)
    return ap


def _parse_params(items) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        for piece in item.split(","):
            if not piece:
                continue
            name, _, value = piece.partition("=")
            if not _ or not name:
                raise ProgramSyntaxError(f"bad --params entry '{piece}', expected NAME=INT")
            try:
                out[name.strip()] = int(value)
            except ValueError:
                raise ProgramSyntaxError(
                    f"bad --params entry '{piece}', expected NAME=INT"
                ) from None
    return out


def _gather_inputs(program: Program, params, args) -> dict[str, np.ndarray]:
    given: dict[str, np.ndarray] = {}
    for item in args.input:
        name, _, spec = item.partition("=")
        if not _:
            raise ProgramSyntaxError(f"bad --input entry '{item}', expected NAME=SPEC")
        if spec.endswith(".npy"):
            given[name] = np.load(spec)
        else:
            try:
                given[name] = np.asarray(json.loads(spec), dtype=np.float64)
            except (json.JSONDecodeError, ValueError) as exc:
                raise ProgramSyntaxError(f"bad --input value for '{name}': {exc}") from None
    sampled = sample_inputs(program, params, np.random.default_rng(args.seed))
    for name, arr in sampled.items():
        given.setdefault(name, arr)
    return given


def cmd_diff(args) -> int:
    prog = load_program(args.program)
    if args.wrt:
        for name in args.wrt:
            if name not in prog.descriptors:
                raise UnboundName(f"--wrt '{name}' is not declared in the program")
        prog = replace(prog, independents=tuple(args.wrt))
    bundle = backward_of(prog)
    stem = args.out or str(Path(args.program).with_suffix(""))
    bwd_path = stem + ".bwd.json"
    req_path = stem + ".fwdreq.json"
    Path(bwd_path).write_text(serialize_program(bundle.backward))
    manifest = {
        "required": sorted([data, version] for data, version in bundle.required),
        "entries": [
            {
                "name": e.name,
                "data": e.data,
                "candidates": [
                    {"version": c.version, "directives": [list(d) for d in c.directives]}
                    for c in e.candidates
                ],
            }
            for e in sorted(bundle.forwarding.values(), key=lambda e: e.name)
        ],
    }
    Path(req_path).write_text(json.dumps(manifest, indent=2) + "\n")
    if args.json:
        print(json.dumps({"backward": bwd_path, "forwarding": req_path}))
    else:
        print(bwd_path)
        print(req_path)
    return EXIT_OK


def cmd_plan(args) -> int:
    prog = load_program(args.program)
    params = _parse_params(args.params)
    result = plan(prog, args.memory_limit_mib, params)
    report = result.report
    if args.emit:
        Path(args.emit + ".fwd.json").write_text(serialize_program(result.forward))
        Path(args.emit + ".bwd.json").write_text(serialize_program(result.backward))
    if args.json:
        print(json.dumps(report))
        return EXIT_OK
    if not report["values"]:
        print("nothing to plan: the reverse pass needs no forwarded arrays")
        return EXIT_OK
    print(f"{'value':<12} {'S [MiB]':>10} {'c [FLOP]':>14} {'R [MiB]':>10} decision")
    for v in report["values"]:
        tag = " (pinned)" if v["forced"] else ""
        print(
            f"{v['data']:<12} {v['S_bytes'] / MIB:>10.2f} {v['c_flops']:>14} "
            f"{v['R_bytes'] / MIB:>10.2f} {v['decision']}{tag}"
        )
    print(", ".join(f"{v['data']}: {v['decision']}" for v in report["values"]))
    print(f"objective: {report['objective_flops']} FLOP recomputed")
    limit = report["limit_bytes"]
    print(
        f"peak: {report['peak_bytes'] / MIB:.2f} MiB"
        + (f" (limit {limit / MIB:.2f} MiB)" if limit is not None else "")
    )
    print(
        f"solver: {report['solver_ms']:.2f} ms, {report['solver_nodes']} nodes, "
        f"{report['rows_kept']} of {report['events']} memory rows, "
        f"over {report['paths_checked']} path(s)"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    prog = load_program(args.program)
    params = _parse_params(args.params)
    inputs = _gather_inputs(prog, params, args)
    res = gradient(prog, inputs, params)
    written = {}
    if args.out:
        for name, arr in res.grads.items():
            path = f"{args.out}{name}__grad.npy"
            np.save(path, arr)
            written[name] = path
    if args.json:
        payload = {
            "value": float(np.asarray(res.value)),
            "grads": (
                written if written else {k: np.asarray(v).tolist() for k, v in res.grads.items()}
            ),
        }
        print(json.dumps(payload))
    else:
        print(f"value: {np.asarray(res.value)}")
        for name, arr in res.grads.items():
            where = f" -> {written[name]}" if name in written else ""
            print(f"grad {name}: shape {tuple(np.asarray(arr).shape)}, "
                  f"|.|_max {np.max(np.abs(arr)):.6g}{where}")
    return EXIT_OK


def cmd_verify(args) -> int:
    prog = load_program(args.program)
    params = _parse_params(args.params)
    inputs = _gather_inputs(prog, params, args)
    eps = None if args.eps == "auto" else float(args.eps)
    tol = args.tolerance
    if tol is None:
        real32 = any(d.element_kind == "real32" for d in prog.descriptors.values())
        tol = 1e-2 if real32 else 1e-5
    res = gradient(prog, inputs, params)
    fd = finite_difference_gradient(prog, inputs, params, eps=eps)
    report = compare_gradients(res.grads, fd, tolerance=tol)
    report["eps"] = {
        name: ("auto" if eps is None else eps)
        for name in prog.independents
    }
    report["eps_max"] = {
        name: float(fd_epsilon(inputs[name], eps).max()) for name in prog.independents
    }
    report["seed"] = args.seed
    print(json.dumps(report))
    return EXIT_OK if report["ok"] else EXIT_TOLERANCE


def cmd_mem_report(args) -> int:
    """Simulate each branch path of the planned run and report its peak.

    The JSON report holds ``peak_bytes``, the largest simulated per-path peak
    (the number the text output's final ``peak`` line prints);
    ``model_peak_bytes``, the solver's modelled peak ``t_star``, equal to
    ``peak_bytes`` whenever the memory model and the simulation agree (the
    corpus tests check they do on every path); ``measured_peak_bytes``, the
    ``tracemalloc`` peak of a warm ``run_planned`` on sampled inputs (seed
    0), allocated before tracing starts and so not counted; ``limit_bytes``; and
    ``paths``, each with its branch ``outcomes``, simulated ``peak_bytes`` and
    timeline ``events``.
    """
    prog = load_program(args.program)
    params = _parse_params(args.params)
    result = plan(prog, args.memory_limit_mib, params)
    measured = _measured_peak(result, sample_inputs(prog, params, np.random.default_rng(0)), params)
    hints = {fv.name: fv.total_bytes for fv in result.fvs if fv.forced}
    paths = []
    for seq in result.sequences:
        outcome = dict(seq.outcomes)
        tl = simulate_memory(result.forward, result.backward, params, outcome, stored_hints=hints)
        paths.append({"outcomes": sorted(outcome.items()), "peak_bytes": tl.peak, "events": list(tl.events)})
    limit = result.report["limit_bytes"]
    peak = max(p["peak_bytes"] for p in paths)
    if args.json:
        print(json.dumps({"peak_bytes": peak, "limit_bytes": limit,
                          "model_peak_bytes": result.solution.t_star,
                          "measured_peak_bytes": measured, "paths": paths}))
        return EXIT_OK
    for p in paths:
        arm = ", ".join(f"{k}={v}" for k, v in p["outcomes"]) or "straight-line"
        ok = "" if limit is None else (" <= limit" if p["peak_bytes"] <= limit else " EXCEEDS limit")
        print(f"path [{arm}]: peak {p['peak_bytes'] / MIB:.2f} MiB ({p['peak_bytes']} B){ok}")
        if args.events:
            for label, delta, total in p["events"]:
                print(f"  {total:>14} B  {delta:>+14} B  {label}")
    if limit is not None:
        verdict = "<=" if peak <= limit else "EXCEEDS"
        print(f"peak {peak / MIB:.2f} MiB {verdict} limit {limit / MIB:.2f} MiB "
              f"({peak} B {verdict} {limit} B)")
    else:
        print(f"peak {peak / MIB:.2f} MiB ({peak} B, no limit)")
    print(f"measured {measured} B against modelled {result.solution.t_star} B")
    return EXIT_OK


def _measured_peak(result, inputs: dict, params) -> int:
    """``tracemalloc`` peak bytes of a warm planned run: one untraced run
    first builds what the process caches (each state's generated function),
    so the figure does not depend on what ran before. ``inputs`` exist
    before tracing starts."""
    run_planned(result, inputs, params)
    gc.collect()
    tracemalloc.start()
    try:
        run_planned(result, inputs, params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cmd_fmt(args) -> int:
    prog = load_program(args.program)
    text = serialize_program(prog)
    if args.in_place:
        Path(args.program).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
