"""Tests of the benchmark itself: inputs, tracing, the gate, the result line.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_gate
import run
from bench_trace import OP_SPAN, Tracer
from bench_workloads import WORKLOADS, edgelist_bytes, generate, parse_edgelist

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def pkg():
    sys.path.insert(0, str(run.ROOT / "src"))
    return run.import_madcycle()


@pytest.fixture(scope="module")
def traced_op(pkg):
    """One traced outside_probes operation (a=8, 12 ears, k=3)."""
    op = generate(WORKLOADS["outside_probes"], seed=7, rounds=1)[0]
    tracer = Tracer(pkg)
    tracer.install()
    try:
        tracer.begin_op(op.index)
        _, out = run.run_op(pkg, op)
        tracer.end_op()
    finally:
        tracer.uninstall()
    return op, json.loads(out), tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seeded_and_never_repeat_a_graph(name):
    w = WORKLOADS[name]
    ops = generate(w, seed=11, rounds=3)
    assert [op.data for op in ops] == [op.data for op in generate(w, seed=11, rounds=3)]
    assert len({op.data for op in ops}) == len(ops) == 3 * w.slots
    assert generate(w, seed=12, rounds=1)[0].data != ops[0].data
    # a longer pool extends a shorter one
    assert [op.data for op in generate(w, seed=11, rounds=1)] == [op.data for op in ops[: w.slots]]


def test_edgelist_bytes_are_canonical():
    data = edgelist_bytes(4, [(1, 0), (2, 3), (0, 1), (3, 0)])
    assert data == b"n 4\n0 1\n0 3\n2 3\n"
    assert parse_edgelist(data) == (4, {(0, 1), (0, 3), (2, 3)})


def test_traced_solve_records_calls_through_every_alias(traced_op):
    op, result, tracer = traced_op
    assert result["answer"] == "yes"
    spans = list(zip(tracer.name, tracer.via, tracer.parent))
    mad_vias = {via for name, via, _ in spans if name == "density.mad_with_witness"}
    assert {"solver", "extract"} <= mad_vias
    # the solver's call computes mad with min cuts; the extract call is
    # served by the program's cache
    cut_parents = [tracer.via[parent] for name, _, parent in spans
                   if name == "density.densest_decision"]
    assert len(cut_parents) >= 10
    assert set(cut_parents) == {"solver"}
    assert tracer.counts["density.mad_with_witness.cache_hits"] >= 1
    assert any(name == "graph.induced_subgraph" and via == "reduction" for name, via, _ in spans)


def test_self_times_never_exceed_totals(traced_op):
    _, _, tracer = traced_op
    for own, a, b in zip(tracer.self_times(), tracer.t0, tracer.t1):
        assert -1e-9 <= own <= b - a + 1e-12
    totals = tracer.totals()
    assert totals[OP_SPAN]["calls"] == 1
    for row in totals.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(
        totals[OP_SPAN]["total_s"])


def test_uninstall_restores_every_namespace(pkg):
    tracer = Tracer(pkg)
    before = pkg.solver.mad_with_witness
    tracer.install()
    assert pkg.solver.mad_with_witness is not before
    assert pkg.extract.mad_with_witness.__wrapped__ is before
    tracer.uninstall()
    assert pkg.solver.mad_with_witness is before is pkg.extract.mad_with_witness


def test_check_cycle_on_a_square():
    edges = {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert bench_gate.check_cycle(4, edges, [0, 1, 2, 3], 4) is None
    assert "non-edge" in bench_gate.check_cycle(4, edges, [0, 2, 1, 3], 3)
    assert "repeats" in bench_gate.check_cycle(4, edges, [0, 1, 0, 3], 3)
    assert "out-of-range" in bench_gate.check_cycle(4, edges, [0, 1, 2, 7], 3)
    assert "< threshold_len" in bench_gate.check_cycle(4, edges, [0, 1, 2, 3], 5)
    assert "not a cycle" in bench_gate.check_cycle(4, edges, None, 3)


def test_known_bad_results_trip_the_gate(pkg):
    ops = generate(WORKLOADS["sparse_k0"], seed=3, rounds=1)
    op = ops[0]
    _, out = run.run_op(pkg, op)
    good = json.loads(out)
    assert bench_gate.check(op, good, pkg) == (None, False)

    def bad(**change):
        return bench_gate.check(op, {**good, **change}, pkg)[0]

    cycle = good["cycle"]
    assert "repeats" in bad(cycle=cycle[:-1] + cycle[:1])
    assert "non-edge" in bad(cycle=cycle[::2] + cycle[1::2])
    assert "threshold_len" in bad(threshold_len=good["threshold_len"] - 1)
    assert "known by construction" in bad(answer="unknown")
    mad = good["mad"]
    assert "mad" in bad(mad={"num": mad["num"] + mad["den"], "den": mad["den"]})


def test_a_wrong_no_trips_the_oracle(pkg):
    for op in generate(WORKLOADS["small_mixed"], seed=3, rounds=1):
        if op.n <= bench_gate.ORACLE_CYCLE_CAP and op.k > 0:
            result = json.loads(run.run_op(pkg, op)[1])
            if result["answer"] == "yes":
                break
    else:
        pytest.fail("no small yes instance in the round")
    reason, _ = bench_gate.check(op, {**result, "answer": "no", "cycle": None}, pkg)
    assert "oracle finds a cycle" in reason


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "small_mixed", "--seed", "5", "--seconds", "0.2",
                         "--trace", str(trace)])
    assert code == 0
    last = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == WORKLOADS["small_mixed"].slots
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_operations_are_scaled_by_nearby_reference_times():
    marks = [(0.0, 1.0), (0.5, 3.0), (5.0, 2.0), (9.9, 4.0), (12.5, 5.0)]
    records = [(0, 1.0, 0.2, True), (0, 9.0, 1.0, True)]  # (round, start, seconds, passed)
    assert run.reference_times(records, marks) == [2.0, 4.0]
    marks = []
    run.run_reference(3, marks)
    assert len(marks) == 3 and all(secs > 0 for _, secs in marks)


def test_throughput_counts_whole_rounds_and_passed_operations():
    records = [(0, 0, 0, True), (0, 0, 0, False), (1, 0, 0, True), (1, 0, 0, True),
               (2, 0, 0, True)]
    # rounds 0 and 1 complete 1 and 2 operations in 2 reference units each;
    # round 2 is cut short
    assert run.round_throughput(records, [1.0, 1.0, 1.0, 1.0, 0.5], slots=2) == 0.75


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark gives a nonzero exit and no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
