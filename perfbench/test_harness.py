"""Self-tests of the benchmark harness (not of bicliff).

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import run
from layers import PER_LAYER, Profile
from spans import self_times

BENCH = Path(__file__).resolve().parent


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("c", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_profile_derives_layer_metrics_from_spans():
    spans = [
        span("cli.distinct_protocols", 0.0, 10.0, -1),
        span("werner.all_case_keys", 0.0, 6.0, 0),
        span("werner.graphs_up_to_iso", 1.0, 2.0, 1),
        span("werner.build_representative", 7.0, 8.0, 0),
        span("werner.werner_counts", 8.0, 8.5, 0),
    ]
    prof = Profile()
    prof.add_process(spans, {"werner.cases": 100, "werner.distinct": 4})
    prof.add_worker({"transversal.coset_key": [7, 0.5]})
    m = prof.metrics(overhead_s=0.25)
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert m["werner.distinct_self_s"] == 2.5
    assert m["werner.materialise_s"] == 1.5
    assert m["werner.graphs_calls"] == 1
    assert m["werner.cases_per_s"] == 100 / 6.0
    assert m["werner.dedup_ratio"] == 0.04
    assert m["groups.coset_key_calls"] == 7
    assert m["circuits.hit_ratio"] == 0.0  # layer not exercised
    assert m["trace.overhead_s"] == 0.25


def test_tampered_output_counts_as_failed_operation(tmp_path):
    runner = run.Runner(deadline=time.perf_counter() + 60)
    golden = checks.matches_golden("tables")
    runner.run(["tables", "--n-max", "4"], tmp_path, golden)
    assert (runner.attempted, runner.failed) == (1, 0)
    runner.run(["tables", "--n-max", "4"], tmp_path, lambda out: golden(out.replace(b"15", b"16")))
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "differs from its recorded digest" in runner.problems[0]


def test_command_past_the_deadline_is_killed_and_fails(tmp_path):
    runner = run.Runner(deadline=time.perf_counter() + 0.01)
    runner.run(["tables", "--n-max", "4"], tmp_path, checks.matches_golden("tables"))
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exit code -9" in runner.problems[0]


def test_undecodable_output_fails_instead_of_crashing(tmp_path):
    runner = run.Runner(deadline=time.perf_counter() + 60)
    runner.run(["tables", "--n-max", "4"], tmp_path, lambda out: checks.verify_output(b"\xff" + out))
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "unreadable output" in runner.problems[0]


def _eval_csv(rows) -> bytes:
    return ("\n".join([checks.EVAL_HEADER, *rows]) + "\n").encode()


def test_eval_invariants_reject_tampered_rows():
    good = ["0:1:2,0.5,0.9,0.05,0.03,0.02,1"] + ["3:4:5,0.4,0.8,0.1,0.05,0.05,0"] * (checks.N4_COSETS - 1)
    assert checks.eval_invariants(_eval_csv(good)) == []
    assert checks.eval_invariants(_eval_csv(good[:-1]))
    assert checks.eval_invariants(_eval_csv(good[:-1] + ["3:4:5,0.4,1.5,0.1,0.05,0.05,0"]))
    assert checks.eval_invariants(_eval_csv(good[:-1] + ["3:4:5,nan,0.8,0.1,0.05,0.05,0"]))
    no_envelope = [row[:-1] + "0" for row in good]
    assert checks.eval_invariants(_eval_csv(no_envelope)) == ["eval: no envelope row"]


def test_tampered_circuit_is_rejected():
    sys.path.insert(0, str(run.SRC))
    from bicliff.circuits import published_circuits

    circuit = published_circuits()[4].to_json_obj()
    check = checks.circuit_output(4, checks.best_counts_key(4))
    assert check(f"# header\n{json.dumps(circuit)}\n".encode()) == []
    assert check(f"{json.dumps(circuit[1:])}\n".encode())
    assert check(b"# no circuit\n")


def test_verify_output_needs_every_n7_record():
    assert checks.verify_output(b"checked=379 ok=1 ok\n") == []
    assert checks.verify_output(b"checked=100 ok=1 ok\n")
    assert checks.verify_output(b"checked=379 ok=0 record 3: statistics mismatch\n")


def test_generated_states_depend_only_on_the_seed():
    assert json.dumps(run.make_states(7)) == json.dumps(run.make_states(7))
    assert run.make_states(7) != run.make_states(8)
    for state in run.make_states(3):
        assert state["n"] == 4 and len(state["pairs"]) == 4
        for pair in state["pairs"]:
            assert min(pair) > 0 and abs(sum(pair) - 1.0) < 1e-12


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "werner-n8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
