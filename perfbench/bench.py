"""Benchmark of gradflow's public API: ``gradient()``, ``plan()`` and
``run_planned()``.

    python3 perfbench/run.py --workload {corpus,wide_chain,sin_chain,all}
                             --seed N --seconds S --trace {0,1}

``all`` runs the three workloads one after another, each in its own
process.

One process and one caller make one call at a time: a closed loop with a
single client. Set-up imports gradflow, builds and parses the workload's
programs, draws its inputs from ``--seed``, plans each program with no
budget to set its budgets and warms up with one call of each API on the
workload's first item; it runs ``SETUP_REPEATS`` times and ``setup_s`` is
the import time plus the median set-up. The import time covers gradflow's
own modules only: numpy and the benchmark's modules are loaded before the
clock starts, and in a process that has already imported gradflow (as in
the benchmark's tests) it is about 0.

Measurement runs rounds until ``--seconds`` is spent (at least
``MIN_ROUNDS``). A round runs a pass of each API over the workload: every
program for ``gradient()``, every (program, budget) pair for ``plan()`` and
``run_planned()``. Each pass repeats until it has taken ``PASS_SHARE`` of
``--seconds``, and the API order rotates between rounds, so that slow
spells of a shared machine fall on every metric alike. A timing metric is
the median pass.

Times are put at a reference speed by ``speed.py``: a timer probes how fast
the core runs Python every 20 ms, and each measured interval is scaled by
the probes taken inside it. On a shared 2-vCPU machine this takes the
run-to-run spread of a median from 30-40% down to a few percent. The report
lines also give the measured medians.

Every call, set-up's included, is checked outside the timed region; a call
fails if it raises or its result fails its check. The first gradient of each program must
match an independent reference (central differences for real64 programs,
the closed form for ``scaled_product_chain``); every plan's modelled peak
must equal ``simulate_memory`` on every path and fit its budget; later
calls must reproduce the checked results bit for bit, and ``run_planned``
must reproduce ``gradient`` bit for bit. ``pass_rate`` is one minus the
failed share of all checked calls; the report lines give that share as
``fail_rate``.

With ``--trace 0`` the end-to-end metrics are reported. The peak-byte
metrics come from a separate untimed pass per API, one ``tracemalloc``
peak per call, summed; inputs are allocated before tracing starts and so
are excluded.

With ``--trace 1`` the per-layer metrics are reported. Untraced and traced
rounds alternate; a traced round runs one pass of each API with the span
recorder of ``spans.py`` installed, and a layer metric is its self time
or count per traced round. ``frontend.*`` comes from one traced set-up.
``trace.overhead_ms`` is the traced minus the untraced time of one round.

Lines before the last one describe the run: its context (machine, versions,
seed, ``src/`` line count), each timing's sample count and high percentile,
and for a traced run the span tree and the solver's time per item. The last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from .spans import Layer, Recorder
from .speed import PROBE_REF_S, Speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4  # two untraced and two traced
PASS_SHARE = 1 / 50
APIS = ("gradient", "plan", "run_planned")
WORKLOADS = ("corpus", "wide_chain", "sin_chain")

END_TO_END = {
    "setup_s": "s",
    "gradient_ms": "ms",
    "plan_ms": "ms",
    "run_planned_ms": "ms",
    "gradient_peak_bytes": "B",
    "planned_peak_bytes": "B",
    "pass_rate": "ratio",
}

PER_LAYER = {
    "frontend.parse_ms": "ms",
    "frontend.program_nodes": "count",
    "ir.validate_ms": "ms",
    "versions.analyze_ms": "ms",
    "autodiff.ccs_ms": "ms",
    "autodiff.build_backward_ms": "ms",
    "autodiff.backward_nodes": "count",
    "autodiff.backward_maps": "count",
    "checkpointing.collect_ms": "ms",
    "checkpointing.sequences_ms": "ms",
    "checkpointing.solve_ms": "ms",
    "checkpointing.apply_ms": "ms",
    "checkpointing.solver_nodes": "count",
    "checkpointing.values": "count",
    "checkpointing.events": "count",
    "checkpointing.paths": "count",
    "checkpointing.model_peak_bytes": "B",
    "checkpointing.objective_flops": "flop",
    "interpreter.count_flops_ms": "ms",
    "interpreter.forward_ms": "ms",
    "interpreter.backward_ms": "ms",
    "interpreter.bwd_fwd_ratio": "ratio",
    "interpreter.forward_ops": "op",
    "interpreter.backward_ops": "op",
    "interpreter.tape_bytes": "B",
    "trace.overhead_ms": "ms",
}

# spans whose self time per traced round is the metric "<span>_ms"
SELF_TIMED = (
    "ir.validate",
    "versions.analyze",
    "autodiff.ccs",
    "autodiff.build_backward",
    "checkpointing.collect",
    "checkpointing.sequences",
    "checkpointing.solve",
    "checkpointing.apply",
    "interpreter.count_flops",
    "interpreter.forward",
    "interpreter.backward",
)

# metrics summed per traced round from the counts the layer hooks return
COUNTED = (
    "autodiff.backward_nodes",
    "autodiff.backward_maps",
    "checkpointing.solver_nodes",
    "checkpointing.values",
    "checkpointing.events",
    "checkpointing.paths",
    "checkpointing.model_peak_bytes",
    "checkpointing.objective_flops",
    "interpreter.forward_ops",
    "interpreter.backward_ops",
    "interpreter.tape_bytes",
)


def _layers(workloads) -> tuple[Layer, ...]:
    """Public functions of each layer module, in the module defining them."""

    def parsed(result, *args, **kwargs):
        return {"frontend.program_nodes": workloads.node_counts(result)[0]}

    def backward(bundle, *args, **kwargs):
        nodes, maps = workloads.node_counts(bundle.backward)
        return {"autodiff.backward_nodes": nodes, "autodiff.backward_maps": maps}

    def solved(solution, problem, *args, **kwargs):
        return {
            "checkpointing.solver_nodes": solution.nodes,
            "checkpointing.values": problem.k,
            "checkpointing.events": len(problem.events),
            "checkpointing.paths": problem.n_paths,
            "checkpointing.model_peak_bytes": solution.t_star,
            "checkpointing.objective_flops": solution.objective_flops,
        }

    def forward(run, *args, **kwargs):
        tape = run.tape.values.values() if run.tape is not None else ()
        return {
            "interpreter.forward_ops": run.op_count,
            "interpreter.tape_bytes": sum(a.nbytes for a in tape),
        }

    def backward_run(run, *args, **kwargs):
        return {"interpreter.backward_ops": run.op_count}

    return (
        Layer("api.gradient", "gradflow.autodiff", "gradient"),
        Layer("api.plan", "gradflow.checkpointing", "plan"),
        Layer("api.run_planned", "gradflow.checkpointing", "run_planned"),
        Layer("frontend.parse", "gradflow.frontend", "parse_program", parsed),
        Layer("ir.validate", "gradflow.ir", "validate"),
        Layer("versions.analyze", "gradflow.versions", "analyze_versions"),
        Layer("autodiff.ccs", "gradflow.autodiff", "extract_ccs"),
        Layer("autodiff.build_backward", "gradflow.autodiff", "build_backward", backward),
        Layer("checkpointing.collect", "gradflow.checkpointing", "collect_forwarded"),
        Layer("checkpointing.sequences", "gradflow.checkpointing", "build_memory_sequences"),
        Layer("checkpointing.solve", "gradflow.checkpointing", "solve_ilp", solved),
        Layer("checkpointing.apply", "gradflow.checkpointing", "apply_plan"),
        Layer("interpreter.count_flops", "gradflow.interpreter", "count_flops"),
        Layer("interpreter.forward", "gradflow.interpreter", "run_forward", forward),
        Layer("interpreter.backward", "gradflow.interpreter", "run_backward", backward_run),
    )


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Counts attempted and failed calls and holds the checked results that
    later calls must reproduce."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.gradients: dict[str, object] = {}  # kernel label -> checked result or None
        self.plan_keys: dict[str, tuple | None] = {}  # pair label -> checked plan or None
        self.plans: dict[str, object] = {}  # pair label -> latest plan result

    def check(self, api: str, item, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            ok = False
            self._error(f"{api} {item.label} raised", result)
        else:
            ok = getattr(self, "_" + api)(item, result)
        if not ok:
            self.failed += 1

    def _error(self, message: str, exc: Exception | None = None) -> None:
        if self.failed < 20:  # the first failures tell the story
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)
            print(f"check failed: {message}", file=sys.stderr)

    def _gradient(self, k, result) -> bool:
        if k.label not in self.gradients:
            err = self.workloads.reference_error(k, result.grads)
            tol = self.workloads.tolerance(k)
            good = err <= tol and bool(np.all(np.isfinite(result.value)))
            self.gradients[k.label] = result if good else None
            if not good:
                self._error(f"gradient {k.label}: relative error {err:.3g} above {tol:g}")
            return good
        return self._same_as_gradient(k, result, "gradient")

    def _plan(self, p, result) -> bool:
        self.plans[p.label] = result
        sol = result.solution
        key = (tuple(sol.assignment), sol.objective_flops, sol.t_star)
        if p.label not in self.plan_keys:
            limit = None if p.limit_mib is None else int(p.limit_mib * (1 << 20))
            good = self.workloads.model_matches_simulation(result, p.kernel.params) and (
                limit is None or sol.t_star <= limit
            )
            self.plan_keys[p.label] = key if good else None
            if not good:
                self._error(f"plan {p.label}: modelled peak differs from simulate_memory or exceeds budget")
            return good
        if key != self.plan_keys[p.label]:
            self._error(f"plan {p.label}: differs from the checked plan")
            return False
        return True

    def _run_planned(self, p, result) -> bool:
        return self._same_as_gradient(p.kernel, result, "run_planned")

    def _same_as_gradient(self, k, result, api: str) -> bool:
        ref = self.gradients.get(k.label)
        good = (
            ref is not None
            and np.array_equal(result.value, ref.value)
            and result.grads.keys() == ref.grads.keys()
            and all(np.array_equal(result.grads[n], ref.grads[n]) for n in ref.grads)
        )
        if not good:
            self._error(f"{api} {k.label}: not bit-identical to the checked gradient")
        return good


# ---------------------------------------------------------------------------
# the run


class Bench:
    def __init__(self, gf, workload, checker: Checker, speed: Speed, recorder: Recorder | None):
        self.gf = gf
        self.wl = workload
        self.checker = checker
        self.speed = speed
        self.recorder = recorder

    def items(self, api: str):
        return self.wl.kernels if api == "gradient" else self.wl.pairs

    def call(self, api: str, item):
        return _call(self.gf, api, item, self.checker.plans.get(item.label))

    def timed_pass(self, api: str) -> tuple[float, float]:
        """One pass over the API's items. Returns its seconds at the
        reference speed and as measured; results are checked after the
        clock stops."""
        results = []
        t0 = self.speed.now()
        for item in self.items(api):
            if self.recorder is not None:
                self.recorder.tag = item.label
            try:
                results.append(self.call(api, item))
            except Exception as exc:  # counted as a failed call
                results.append(exc)
        t1 = self.speed.now()
        for item, result in zip(self.items(api), results):
            self.checker.check(api, item, result)
        return (t1 - t0) * self.speed.factor(t0, t1), t1 - t0

    def peak_pass(self, api: str) -> int:
        """Sum of per-call ``tracemalloc`` peaks over the API's items."""
        total = 0
        for item in self.items(api):
            gc.collect()
            tracemalloc.start()
            try:
                result = self.call(api, item)
            except Exception as exc:  # counted as a failed call
                result = exc
            finally:
                total += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.checker.check(api, item, result)
        return total


def _call(gf, api: str, item, planned):
    if api == "gradient":
        return gf.gradient(item.program, item.inputs, item.params)
    if api == "plan":
        return gf.plan(item.kernel.program, item.limit_mib, item.kernel.params)
    if planned is None:
        raise RuntimeError(f"no plan for '{item.label}'")
    return gf.run_planned(planned, item.kernel.inputs, item.kernel.params)


def _setup(name: str, seed: int, tiny: bool):
    """Build, parse and draw inputs, then warm up each API once. The warm-up
    results join the workload's ``setup_calls``, to be checked once set-up
    is timed."""
    from . import workloads

    wl = workloads.build(name, seed, tiny=tiny)
    pair = wl.pairs[0]
    planned = None
    for api, item in (("gradient", pair.kernel), ("plan", pair), ("run_planned", pair)):
        try:
            result = _call(workloads.gf, api, item, planned)
        except Exception as exc:  # counted as a failed call
            result = exc
        if api == "plan" and not isinstance(result, Exception):
            planned = result
        wl.setup_calls.append((api, item, result))
    return wl


def _check_setup(checker: Checker, wl) -> None:
    for api, item, result in wl.setup_calls:
        checker.check(api, item, result)


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'")
    speed = Speed()
    with speed.running():
        t0 = speed.now()
        from . import workloads  # imports gradflow

        t1 = speed.now()
        import_s = (t1 - t0) * speed.factor(t0, t1)
        checker = Checker(workloads)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = speed.now()
            wl = _setup(name, seed, tiny)
            t1 = speed.now()
            setups.append((t1 - t0) * speed.factor(t0, t1))
            _check_setup(checker, wl)
        setup_s = import_s + statistics.median(setups)

        gf = workloads.gf
        layers = _layers(workloads)
        setup_rec = recorder = None
        if trace:
            setup_rec = Recorder(layers, speed.now)
            t0 = speed.now()
            with setup_rec.installed():
                wl = _setup(name, seed, tiny)
            t1 = speed.now()
            setup_rec.rescale(0, speed.factor(t0, t1))
            _check_setup(checker, wl)
            recorder = Recorder(layers, speed.now)
        bench = Bench(gf, wl, checker, speed, recorder)
        samples, walls, traced, round_seconds = _rounds(bench, seconds, trace)

    lines = [_context(name, seed, seconds, trace)]
    metrics: dict[str, float] = {}
    if trace:
        metrics = _layer_metrics(setup_rec, recorder, samples, traced, lines)
    else:
        metrics["setup_s"] = setup_s
        for api in APIS:
            metrics[f"{api}_ms"] = 1e3 * statistics.median(samples[api])
            lines.append(_timing_line(f"{api}_ms", samples[api], walls[api]))
        metrics["gradient_peak_bytes"] = bench.peak_pass("gradient")
        metrics["planned_peak_bytes"] = bench.peak_pass("run_planned")
        keys = [checker.plan_keys.get(p.label) for p in wl.pairs]
        model = sum(key[2] for key in keys if key is not None)
        lines.append(f"setup_s {setup_s:.4f} s: import {import_s:.4f} s + median of {_fmt(setups)} s")
        lines.append(
            f"planned_peak_bytes {metrics['planned_peak_bytes']} B against a modelled "
            f"peak of {model} B ({metrics['planned_peak_bytes'] / max(model, 1):.2f}x)"
        )
    fail_rate = checker.failed / checker.attempted
    if not trace:
        metrics["pass_rate"] = 1.0 - fail_rate
    lines.append(f"fail_rate {fail_rate:.6f} ratio: {checker.failed} of {checker.attempted} calls failed")
    lines.append(f"rounds {len(round_seconds)}: {_fmt(round_seconds)} s wall")
    if speed.seconds:
        lines.append(
            f"probe ms: median {1e3 * statistics.median(speed.seconds):.4f}, "
            f"min {1e3 * min(speed.seconds):.4f}, max {1e3 * max(speed.seconds):.4f}, "
            f"n={len(speed.seconds)}; reference {1e3 * PROBE_REF_S:g}"
        )

    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, lines


def _rounds(bench: Bench, seconds: float, trace: bool):
    """Timed rounds until ``seconds`` are spent; returns the untraced pass
    times at the reference speed and as measured, the traced pass times
    and the rounds' wall seconds."""
    samples = {api: [] for api in APIS}
    walls = {api: [] for api in APIS}
    traced = {api: [] for api in APIS}
    round_seconds: list[float] = []
    min_rounds = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    deadline = time.perf_counter() + seconds
    r = 0
    while r < min_rounds or time.perf_counter() + statistics.median(round_seconds) <= deadline:
        start = time.perf_counter()
        gc.collect()
        for api in APIS[r % 3 :] + APIS[: r % 3]:  # round 0 plans before run_planned
            if trace and r % 2:
                first = len(bench.recorder.spans)
                with bench.recorder.installed():
                    ref, wall = bench.timed_pass(api)
                bench.recorder.rescale(first, ref / wall)
                traced[api].append(ref)
                continue
            spent = 0.0
            while spent < seconds * PASS_SHARE or not spent:
                ref, wall = bench.timed_pass(api)
                samples[api].append(ref)
                walls[api].append(wall)
                spent += wall
        round_seconds.append(time.perf_counter() - start)
        r += 1
    return samples, walls, traced, round_seconds


def _layer_metrics(setup_rec, recorder, untraced, traced, lines) -> dict[str, float]:
    n = len(traced["gradient"])
    out: dict[str, float] = {
        "frontend.parse_ms": setup_rec.self_ms("frontend.parse"),
        "frontend.program_nodes": setup_rec.count("frontend.program_nodes"),
    }
    for span in SELF_TIMED:
        out[f"{span}_ms"] = recorder.self_ms(span) / n
    for metric in COUNTED:
        total = recorder.count(metric)
        out[metric] = total // n if total % n == 0 else total / n
    out["interpreter.bwd_fwd_ratio"] = out["interpreter.backward_ms"] / out["interpreter.forward_ms"]
    traced_round = sum(statistics.median(traced[api]) for api in APIS)
    untraced_round = sum(statistics.median(untraced[api]) for api in APIS)
    out["trace.overhead_ms"] = 1e3 * (traced_round - untraced_round)
    lines.append(
        f"trace.overhead_ms {out['trace.overhead_ms']:.3f}: traced round "
        f"{1e3 * traced_round:.3f} ms, untraced round {1e3 * untraced_round:.3f} ms"
    )
    lines.append(f"span tree per traced round ({n} rounds): parent > span: calls, self ms")
    for (parent, name), (calls, ms) in sorted(recorder.tree().items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        lines.append(f"  {parent or '-'} > {name}: {calls / n:g}, {ms / n:.3f}")
    lines.append("solve per item and traced round: self ms, solver nodes, events")
    for tag, (ms, counts) in recorder.by_tag("checkpointing.solve").items():
        lines.append(
            f"  {tag}: {ms / n:.3f} ms, {counts['checkpointing.solver_nodes'] // n} nodes, "
            f"{counts['checkpointing.events'] // n} events"
        )
    return out


def _timing_line(name: str, samples: list[float], walls: list[float]) -> str:
    ms = sorted(1e3 * s for s in samples)
    line = (
        f"{name} median {statistics.median(ms):.3f} ms (wall {1e3 * statistics.median(walls):.3f} ms), "
        f"n={len(ms)}"
    )
    for p in (99.9, 99, 90, 50):
        # the highest percentile with at least ten samples beyond it
        if len(ms) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(ms, n=1000, method="inclusive")[round(p * 10) - 1]
            return line + f", p{p:g} {q:.3f} ms"
    return line + ", no percentile has ten samples beyond it"


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _context(name: str, seed: int, seconds: float, trace: bool) -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu": cpu,
        "nproc": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    return "context " + json.dumps(context, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "gradflow" / "__init__.py").is_file():
        print(f"error: no gradflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            done = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")), *argv,
                                   "--trace", str(args.trace)], check=False)
            code = code or done.returncode
        return code
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0
