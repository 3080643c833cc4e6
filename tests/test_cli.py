import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gradflow
import gradflow.examples as examples
from gradflow import (
    ProgramBuilder,
    build_backward,
    cli,
    load_program,
    parse_program,
    program_to_dict,
    serialize_program,
)
from gradflow.errors import ProgramSyntaxError, ValidationFailed
from genprog import runtime_header_array_program, scalar_header_program, sin_chain


@pytest.fixture
def foo_path(tmp_path):
    path = tmp_path / "foo.json"
    path.write_text(serialize_program(examples.build("scaled_product_chain")))
    return path


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(serialize_program(examples.build("exp_sin_chain")))
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# diff


def test_diff_writes_both_artifacts(foo_path, tmp_path, capsys):
    assert run_cli("diff", foo_path) == 0
    bwd = tmp_path / "foo.bwd.json"
    req = tmp_path / "foo.fwdreq.json"
    assert bwd.exists() and req.exists()
    load_program(str(bwd))  # parses and validates
    manifest = json.loads(req.read_text())
    assert [tuple(x) for x in manifest["required"]] == \
        [("A0", 1), ("A1", 1), ("A2", 1)]


def test_diff_wrt_overrides_independents(foo_path, tmp_path):
    assert run_cli("diff", foo_path, "--wrt", "C") == 0
    bwd = load_program(str(tmp_path / "foo.bwd.json"))
    assert "C__grad" in bwd.descriptors


def test_diff_wrt_writes_what_declaring_the_independents_writes(foo_path, tmp_path):
    # --wrt gives the program new independents without changing the loaded one
    doc = json.loads(foo_path.read_text())
    doc["independents"] = ["C", "D"]
    declared = tmp_path / "declared.json"
    declared.write_text(json.dumps(doc))
    assert run_cli("diff", declared, "--out", tmp_path / "want") == 0
    assert run_cli("diff", foo_path, "--wrt", "C", "--wrt", "D", "--out", tmp_path / "got") == 0
    for suffix in (".bwd.json", ".fwdreq.json"):
        want = (tmp_path / ("want" + suffix)).read_text()
        assert (tmp_path / ("got" + suffix)).read_text() == want, suffix
    assert "C__grad" in load_program(str(tmp_path / "got.bwd.json")).descriptors


def test_diff_unknown_wrt_is_validation_error(foo_path, capsys):
    assert run_cli("diff", foo_path, "--wrt", "nope") == 2


# ---------------------------------------------------------------------------
# plan


def test_plan_prints_decision_line(foo_path, capsys):
    assert run_cli("plan", foo_path, "--memory-limit-mib", "500",
                   "--params", "N=3620") == 0
    out = capsys.readouterr().out
    assert "A0: recompute, A1: store, A2: store" in out
    assert "objective" in out
    assert re.search(r"solver: [\d.]+ ms, \d+ nodes, \d+ of \d+ memory rows, over 1 path\(s\)", out)


def test_plan_json_report(foo_path, capsys):
    assert run_cli("plan", foo_path, "--memory-limit-mib", "500",
                   "--params", "N=3620", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["objective_flops"] == 13_104_400
    assert report["peak_bytes"] == 10 * 3620 ** 2 * 4
    assert [v["decision"] for v in report["values"]] == ["recompute", "store", "store"]
    assert report["solver_nodes"] > 1
    assert 0 < report["rows_kept"] <= report["events"]


def test_plan_emits_rewritten_programs(foo_path, tmp_path, capsys):
    assert run_cli("plan", foo_path, "--memory-limit-mib", "500",
                   "--params", "N=3620", "--emit", tmp_path / "out") == 0
    # the planned forward is the program as given: kept values travel on the tape
    assert (tmp_path / "out.fwd.json").read_text() == serialize_program(load_program(str(foo_path)))
    bwd = load_program(str(tmp_path / "out.bwd.json"))
    assert bwd.region[0].label == "rec_A0__v1"  # the rebuild of the recomputed value


def test_plan_zero_limit_is_infeasible(foo_path, capsys):
    assert run_cli("plan", foo_path, "--memory-limit-mib", "0",
                   "--params", "N=16") == 4
    err = capsys.readouterr().err
    assert "minimum achievable peak: 8192 bytes" in err


def test_plan_infeasible_beyond_the_exact_floor_prints_a_lower_bound(tmp_path, capsys):
    # 24 values: more than the exact floor enumerates, so only a bound is known
    path = tmp_path / "chain.json"
    path.write_text(serialize_program(sin_chain(24)))
    assert run_cli("plan", path, "--memory-limit-mib", "0.00001") == 4
    err = capsys.readouterr().err
    assert "peak lower bound: " in err and "minimum achievable" not in err


def test_plan_nothing_to_plan(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(serialize_program(examples.build("triangular")))
    assert run_cli("plan", path, "--params", "n=6") == 0
    assert "nothing to plan" in capsys.readouterr().out


def test_plan_marks_pinned_values(tmp_path, capsys):
    path = tmp_path / "ism.json"
    path.write_text(serialize_program(examples.build("iterated_sin_map")))
    assert run_cli("plan", path, "--params", "n=6,steps=4") == 0
    assert "(pinned)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run


def test_run_prints_value_and_saves_grads(chain_path, tmp_path, capsys):
    assert run_cli("run", chain_path, "--params", "n=9", "--seed", "3",
                   "--out", tmp_path / "g_") == 0
    out = capsys.readouterr().out
    assert "value" in out
    g = np.load(tmp_path / "g_X__grad.npy")
    assert g.shape == (9,)


def test_run_json(chain_path, capsys):
    assert run_cli("run", chain_path, "--params", "n=9", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"value", "grads"}
    assert len(doc["grads"]["X"]) == 9


def test_run_is_deterministic_for_a_seed(chain_path, capsys):
    run_cli("run", chain_path, "--params", "n=9", "--seed", "5", "--json")
    first = capsys.readouterr().out
    run_cli("run", chain_path, "--params", "n=9", "--seed", "5", "--json")
    assert capsys.readouterr().out == first


def test_run_rejects_mismatched_input(chain_path, capsys):
    assert run_cli("run", chain_path, "--params", "n=9",
                   "--input", "X=[1.0,2.0]") == 2


def test_run_accepts_npy_input(chain_path, tmp_path, capsys):
    xpath = tmp_path / "x.npy"
    np.save(xpath, np.full(9, 0.5))
    assert run_cli("run", chain_path, "--params", "n=9",
                   "--input", f"X={xpath}", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(9 * np.sin(np.exp(0.5)))


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(chain_path, capsys):
    assert run_cli("verify", chain_path, "--params", "n=9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["tolerance"] == 1e-5
    assert doc["max_rel_error"] < 1e-5


def test_verify_real32_default_tolerance(foo_path, capsys):
    assert run_cli("verify", foo_path, "--params", "N=8") == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 0.01


def test_verify_impossible_tolerance(chain_path, capsys):
    assert run_cli("verify", chain_path, "--params", "n=9",
                   "--tolerance", "1e-14") == 5


# ---------------------------------------------------------------------------
# mem-report


def test_mem_report_within_limit(foo_path, capsys):
    assert run_cli("mem-report", foo_path, "--memory-limit-mib", "500",
                   "--params", "N=3620") == 0
    out = capsys.readouterr().out
    assert "peak 499.89 MiB <= limit 500.00 MiB" in out
    assert "(524176000 B <= 524288000 B)" in out  # 10 S of the chain at N=3620


def test_mem_report_json(foo_path, capsys):
    assert run_cli("mem-report", foo_path, "--memory-limit-mib", "500",
                   "--params", "N=3620", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["peak_bytes"] == 10 * 3620 ** 2 * 4
    assert doc["peak_bytes"] == doc["model_peak_bytes"]
    assert doc["limit_bytes"] == 500 * 2 ** 20
    assert [p["peak_bytes"] for p in doc["paths"]] == [doc["peak_bytes"]]


def test_mem_report_json_peak_is_max_over_paths(tmp_path, capsys):
    path = tmp_path / "branchy.json"
    path.write_text(serialize_program(examples.build("branchy_scale")))
    assert run_cli("mem-report", path, "--params", "n=8", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["paths"]) == 2
    assert {tuple(map(tuple, p["outcomes"])) for p in doc["paths"]} == {
        (("pick", True),), (("pick", False),)}
    assert doc["peak_bytes"] == max(p["peak_bytes"] for p in doc["paths"])
    assert doc["peak_bytes"] == doc["model_peak_bytes"]
    assert doc["limit_bytes"] is None


def _uneven_branch_program():
    # the else arm writes two more transients than the then arm, so the two
    # paths peak differently and the larger peak is not on the first path;
    # a scale's adjoint forwards nothing, so no kept value is charged on both
    b = ProgramBuilder(("n",))
    b.array("X", ("n",), role="input", kind="real64")
    b.scalar("s", role="input", kind="real64")
    b.array("T", ("n",), kind="real64")
    b.array("U", ("n",), kind="real64")
    b.array("Y", ("n",), kind="real64")
    b.scalar("O", role="output", kind="real64")
    with b.branch("(lt s 0.5)", label="pick") as br:
        with br.then():
            with b.state("light") as st:
                st.library("ew_unary", {"x": "X"}, {"y": "Y"}, op="scale", const=2.0)
        with br.orelse():
            with b.state("heavy") as st:
                st.library("ew_unary", {"x": "X"}, {"y": "T"}, op="scale", const=3.0)
                st.library("ew_unary", {"x": "T"}, {"y": "U"}, op="scale", const=0.5)
                st.library("ew_unary", {"x": "U"}, {"y": "Y"}, op="scale", const=2.0)
    with b.state("tail") as st:
        st.library("reduce_sum", {"x": "Y"}, {"y": "O"})
    return b.finish("O", ["X"])


def test_mem_report_json_peak_is_not_the_first_path(tmp_path, capsys):
    path = tmp_path / "uneven.json"
    path.write_text(serialize_program(_uneven_branch_program()))
    assert run_cli("mem-report", path, "--params", "n=8", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    peaks = [p["peak_bytes"] for p in doc["paths"]]
    assert len(peaks) == 2 and peaks[0] < peaks[1]
    assert doc["peak_bytes"] == max(peaks) == doc["model_peak_bytes"]


def test_mem_report_measures_a_warm_run(foo_path, capsys):
    # N=37 is a shape no other test runs, so the first report is the first
    # run of its generated state functions; both reports measure a warm run
    peaks = []
    for _ in range(2):
        assert run_cli("mem-report", foo_path, "--params", "N=37", "--json") == 0
        peaks.append(json.loads(capsys.readouterr().out)["measured_peak_bytes"])
    assert peaks[0] == peaks[1]


def test_mem_report_text_prints_exact_bytes(tmp_path, capsys):
    # both paths peak at 128 B, which rounds to 0.00 MiB
    path = tmp_path / "branchy.json"
    path.write_text(serialize_program(examples.build("branchy_scale")))
    assert run_cli("mem-report", path, "--params", "n=8") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "path [pick=True]: peak 0.00 MiB (128 B)",
        "path [pick=False]: peak 0.00 MiB (128 B)",
        "peak 0.00 MiB (128 B, no limit)",
    ]
    assert len(lines) == 4 and re.fullmatch(r"measured \d+ B against modelled 128 B", lines[3])


def test_mem_report_shows_the_measured_peak(foo_path, capsys):
    # N=96: one array is 36,864 B, so the arrays dominate the measured run.
    # The model charges each forward transient to the end of the pass, the
    # run frees it after its last touch: the measured peak is at most the
    # backward floor of 7 arrays, one library temporary and the Python
    # objects, measured as the same report's peak at N=2
    size = 96 * 96 * 4
    assert run_cli("mem-report", foo_path, "--params", "N=2", "--json") == 0
    python_bytes = json.loads(capsys.readouterr().out)["measured_peak_bytes"]
    assert run_cli("mem-report", foo_path, "--params", "N=96", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model_peak_bytes"] == 11 * size
    assert doc["measured_peak_bytes"] <= doc["model_peak_bytes"]
    assert doc["measured_peak_bytes"] <= 7 * size + size + python_bytes
    assert run_cli("mem-report", foo_path, "--params", "N=96") == 0
    last = capsys.readouterr().out.splitlines()[-1]
    got = re.fullmatch(r"measured (\d+) B against modelled (\d+) B", last)
    assert got and int(got[2]) == 11 * size
    assert int(got[1]) <= min(11 * size, 7 * size + size + python_bytes)


def test_mem_report_infeasible(foo_path, capsys):
    assert run_cli("mem-report", foo_path, "--memory-limit-mib", "1",
                   "--params", "N=3620") == 4


# ---------------------------------------------------------------------------
# fmt


def test_fmt_idempotent(foo_path, capsys):
    assert run_cli("fmt", foo_path) == 0
    once = capsys.readouterr().out
    path2 = foo_path.parent / "foo2.json"
    path2.write_text(once)
    assert run_cli("fmt", path2) == 0
    assert capsys.readouterr().out == once


def test_fmt_in_place(tmp_path):
    path = tmp_path / "messy.json"
    doc = json.loads(serialize_program(examples.build("exp_sin_chain")))
    path.write_text(json.dumps(doc, indent=None, separators=(",", ":")))
    assert cli.main(["fmt", str(path), "--in-place"]) == 0
    text = path.read_text()
    assert text == serialize_program(examples.build("exp_sin_chain"))


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_is_io_error(capsys):
    assert run_cli("plan", "/nonexistent/x.json") == 1


def test_bad_params_is_validation_error(foo_path, capsys):
    assert run_cli("plan", foo_path, "--params", "N=abc") == 2


def test_unparseable_program_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run_cli("plan", bad) == 2


def _nodes_of_type(value, ntype):
    """Every node object of type ``ntype`` in a program document."""
    if isinstance(value, dict):
        if value.get("type") == ntype:
            yield value
        for v in value.values():
            yield from _nodes_of_type(v, ntype)
    elif isinstance(value, list):
        for v in value:
            yield from _nodes_of_type(v, ntype)


@pytest.mark.parametrize("ntype", ["tasklet", "ew_expr"])
def test_malformed_expression_is_a_syntax_error(ntype, tmp_path, capsys):
    # the reverse program holds both a tasklet and ew_expr nodes
    doc = json.loads(serialize_program(
        build_backward(examples.build("scaled_product_chain")).backward))
    node = next(_nodes_of_type(doc, ntype))
    if ntype == "tasklet":
        node["body"][node["outs"][0]] = "(add i"
    else:
        node["expr"] = "(add i"
    text = json.dumps(doc)
    with pytest.raises(ProgramSyntaxError, match="bad expression"):
        parse_program(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli("fmt", path) == 2
    assert "bad expression" in capsys.readouterr().err


def test_unsupported_reversal_exit_code(tmp_path, capsys):
    # the loop header reads a scalar the program writes
    path = tmp_path / "header.json"
    path.write_text(serialize_program(scalar_header_program(written=True)))
    assert run_cli("diff", path) == 3
    assert "unsupported" in capsys.readouterr().err


def test_runtime_trip_count_exit_code(tmp_path, capsys):
    # a carried array's snapshots under a loop bound read from a scalar input
    path = tmp_path / "runtime.json"
    path.write_text(serialize_program(runtime_header_array_program()))
    assert run_cli("plan", path, "--params", "n=4") == 3
    assert "loop 'lp' needs runtime values" in capsys.readouterr().err


def test_a_header_that_repeats_an_iterate_is_a_validation_error(tmp_path, capsys):
    # the update leaves the iterator as it is, so the loop never ends
    doc = json.loads(serialize_program(examples.build("iterated_sin_map")))
    loop = next(b for b in doc["region"] if b["kind"] == "loop")
    loop["update"] = loop["iterator"]
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", path, "--params", "n=4,steps=3") == 2
    assert "loop 'iters' repeats iterate 0, so it never ends" in capsys.readouterr().err


def test_negative_skip_in_a_parsed_program_is_a_validation_error(tmp_path, capsys):
    # a reversed loop's skip indexes its simulated iterates; a negative one
    # is rejected where the document is parsed, not as a bare IndexError
    doc = json.loads(serialize_program(
        build_backward(examples.build("two_array_pingpong")).backward))
    loop = next(b for b in doc["region"] if b["kind"] == "loop")
    loop["skip"] = -1
    text = json.dumps(doc)
    with pytest.raises(ValidationFailed, match="BadLoop: skip must be at least 0, got -1"):
        parse_program(text)
    path = tmp_path / "bwd.json"
    path.write_text(text)
    assert run_cli("run", path, "--params", "trips=3") == 2
    assert "skip must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "plan"])
def test_an_invalid_parsed_program_is_a_validation_error(command, tmp_path, capsys):
    # doubling_gather's init tasklet loses its only out-edge: the file
    # parses, and differentiating it fails validation, not the tape
    doc = program_to_dict(examples.build("doubling_gather"))
    init = doc["region"][0]
    init["edges"] = [e for e in init["edges"] if e["src"] != "t1"]
    path = tmp_path / "gather.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, path) == 2
    err = capsys.readouterr().err
    assert "ArityMismatch: 't1' output 'o' has 0 edges" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "plan"])
def test_a_tasklet_with_no_output_is_a_validation_error(command, tmp_path, capsys):
    # doubling_gather's init tasklet loses its output, its body and its edge
    doc = program_to_dict(examples.build("doubling_gather"))
    init = doc["region"][0]
    tasklet = next(n for n in init["nodes"] if n["id"] == "t1")
    tasklet["outs"], tasklet["body"] = [], {}
    init["edges"] = [e for e in init["edges"] if e["src"] != "t1"]
    path = tmp_path / "gather.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, path) == 2
    err = capsys.readouterr().err
    assert "ArityMismatch: tasklet 't1' has no output" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["plan", "mem-report"])
def test_an_empty_branch_label_is_a_validation_error(command, tmp_path, capsys):
    doc = program_to_dict(examples.build("branchy_scale"))
    doc["region"][0]["label"] = ""
    path = tmp_path / "branchy.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, path, "--params", "n=8") == 2
    err = capsys.readouterr().err
    assert "EmptyLabel: Conditional block has an empty label" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["diff", "plan", "run"])
def test_an_edge_to_a_missing_node_is_a_validation_error(command, tmp_path, capsys):
    # the file parses; every command validates the program before it
    # differentiates it
    doc = program_to_dict(examples.build("exp_sin_chain"))
    doc["region"][0]["edges"][0]["dst"] = "nope"
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, path, "--params", "n=4") == 2
    err = capsys.readouterr().err
    assert "'nope'" in err and "Traceback" not in err


def test_module_entry_point(foo_path):
    # the child imports the gradflow this test imported, installed or not
    src = os.path.dirname(os.path.dirname(gradflow.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "gradflow.cli", "plan", str(foo_path),
         "--memory-limit-mib", "500", "--params", "N=3620"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "A0: recompute" in proc.stdout
