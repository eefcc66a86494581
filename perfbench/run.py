"""Closed-loop solve benchmark: one client, one operation at a time.

    python3 perfbench/run.py --workload sparse_k0 --seed 1 --seconds 35 --trace 0

One operation is one instance: `instances.parse_graph(edgelist bytes)`, then
`solver.solve(...)`, then `instances.emit_result(...)`, which is what
`madcycle solve --json` does after parsing its arguments. Run from the root
of a checkout; the program is imported from `src/`.

Set-up (import the package, generate and serialise the inputs) is repeated
SETUP_REPEATS times and its median reported. The timed phase then runs the
rounds of the workload's schedule that take about `--seconds` at nominal
speed: the work is fixed, so two commits run the same operations and their
answer digests compare. On a host slower than nominal, a run starts no new
operation once `--seconds` have passed and its first round is done, to bound
its time. Operation times are reported in units of a fixed reference task
timed between operations, because the host's speed drifts (see
`run_reference`). Every result is checked by the correctness gate outside
the timed region. With `--trace 1` the layer functions are wrapped on
alternate operations, and the per-layer metrics come from the wrapped ones.
The last line of standard output is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import bench_gate
from bench_trace import OP_SPAN, Tracer
from bench_workloads import WORKLOADS, generate, rounds_for

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REF_EVERY_S = 0.05  # reference tasks before an operation: one per this much of the last one
REF_MAX_REPEATS = 20
REF_WINDOW_S = 1.0  # an operation's reference: reference tasks this close to it in time
OP_CAP_S = 60.0  # an operation running longer is stopped and counted failed

# name -> unit of the end-to-end metrics in the result line (tracing off)
END_TO_END = {
    "setup_s": "s",
    "solve_p50_ref": "ref",
    "solve_tail_ref": "ref",
    "solves_per_kref": "ops/kref",
    "decided_ratio": "1",
    "peak_rss_mb": "MB",
}

# name -> unit of the per-layer metrics in the result line (tracing on);
# counts and seconds are means per traced operation
PER_LAYER = {
    "trace.op_s": "s/op",
    "trace.overhead_ratio": "1",
    "graph.two_separators.calls": "1/op",
    "graph.two_separators.self_s": "s/op",
    "graph.blocks_and_cut_vertices.self_s": "s/op",
    "graph.induced_subgraph.calls": "1/op",
    "graph.induced_subgraph.self_s": "s/op",
    "density.densest_decision.calls": "1/op",
    "density.densest_decision.self_s": "s/op",
    "density.mad_with_witness.calls": "1/op",
    "density.mad_with_witness.cache_hits": "1/op",
    "density.cuts_per_mad": "1",
    "reduction.reduce_exhaustive.self_s": "s/op",
    "reduction.apply_rule.calls": "1/op",
    "cyclesearch.find_cycle_at_least.calls": "1/op",
    "cyclesearch.find_cycle_at_least.self_s": "s/op",
    "longpaths.dirac_cycle.self_s": "s/op",
    "longpaths.st_path_at_least.calls": "1/op",
    "longpaths.st_path_at_least.self_s": "s/op",
    "longpaths.st_path_at_least.monte_carlo_calls": "1/op",
    "segments.find_segments.calls": "1/op",
    "segments.find_segments.self_s": "s/op",
    "segments.find_segments.found_ratio": "1",
    "segments.find_segments_partitioned.calls": "1/op",
    "segments.find_segments_partitioned.self_s": "s/op",
    "segments.find_segments_partitioned.found_ratio": "1",
    "routing.cover_side_through_pairs.self_s": "s/op",
    "extract.find_dense.self_s": "s/op",
    "extract.find_dense.FoundCycle": "1/op",
    "extract.find_dense.BipartiteDense": "1/op",
    "extract.corollary5_engine.calls": "1/op",
    "solver.solve.self_s": "s/op",
    "solver.case_bipartite_dense.self_s": "s/op",
    "solver.exact_longest_cycle_fallback.calls": "1/op",
    "solver.st_probes": "1/op",
    "solver.segment_probes": "1/op",
    "instances.parse_graph.self_s": "s/op",
    "instances.emit_result.self_s": "s/op",
}


class OpTimeout(BaseException):
    """Raised inside an operation that passed OP_CAP_S; a BaseException so
    that no handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation passed the {OP_CAP_S:.0f} s cap")


def import_madcycle():
    """A fresh import of the package from ROOT/src, timed by the caller."""
    for key in [k for k in sys.modules if k == "madcycle" or k.startswith("madcycle.")]:
        del sys.modules[key]
    pkg = importlib.import_module("madcycle")
    importlib.import_module("madcycle.oracles")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "madcycle":
        raise ImportError(f"madcycle imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return pkg


def run_op(pkg, op) -> tuple[float, bytes]:
    """One timed operation; returns (seconds, emitted JSON bytes)."""
    t0 = perf_counter()
    g = pkg.instances.parse_graph(op.data)
    res = pkg.solver.solve(g, op.k, strict=op.strict)
    out = pkg.instances.emit_result(res)
    return perf_counter() - t0, out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th-largest value. Below 20 samples that
    percentile is under the median, so the maximum (percentile 100) is
    reported instead."""
    xs = sorted(latencies)
    if len(xs) < 20:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def round_throughput(records: list, scaled: list[float], slots: int) -> float:
    """Median over the rounds of operations completed per reference-task time
    spent inside operations. Each round holds one of every shape, so every
    round measures the same mix. A round cut short counts only if no whole
    round ran."""
    per_round: dict[int, list] = {}  # round -> [attempted, completed, ref units inside]
    for (rnd, _, _, ok), units in zip(records, scaled):
        tally = per_round.setdefault(rnd, [0, 0, 0.0])
        tally[0] += 1
        tally[1] += ok
        tally[2] += units
    whole = [t for t in per_round.values() if t[0] == slots] or list(per_round.values())
    rates = [done / units for _, done, units in whole if units > 0]
    return statistics.median(rates) if rates else 0.0


def reference_times(records: list, marks: list[tuple[float, float]]) -> list[float]:
    """For each operation (round, start, seconds, ok), the median time of the
    reference tasks run within REF_WINDOW_S before its start or after its end.
    `marks` holds (start, seconds) of every reference task, in time order."""
    starts = [t for t, _ in marks]
    out = []
    for _, t0, dt, _ in records:
        lo = bisect.bisect_left(starts, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(starts, t0 + dt + REF_WINDOW_S)
        out.append(statistics.median(secs for _, secs in marks[lo:hi]))
    return out


def _reference_graph(n: int = 64, prob: float = 0.08) -> list[list[int]]:
    rng = random.Random("perfbench reference task")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < prob:
                adj[u].append(v)
                adj[v].append(u)
    return adj


REF_ADJ = _reference_graph()
REF_TOTAL = 10426  # sum of all distances in REF_ADJ, checked on every run


def run_reference(repeats: int, marks: list[tuple[float, float]]) -> None:
    """Run the reference task `repeats` times, appending (start, seconds) of
    each to `marks`.

    The task is a fixed pure-Python graph computation, a breadth-first search
    from every vertex of a fixed graph. The benchmark owns it, so it is the
    same on every commit, and its time follows the host's speed, which on a
    shared host drifts by up to half over tens of seconds."""
    for _ in range(repeats):
        t0 = perf_counter()
        _reference_task()
        marks.append((t0, perf_counter() - t0))


def _reference_task() -> None:
    total = 0
    for s in range(len(REF_ADJ)):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in REF_ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    if total != REF_TOTAL:
        raise RuntimeError(f"reference task returned {total}, not {REF_TOTAL}")


def answer_line(result: dict | None, error: BaseException | None) -> bytes:
    """What the answer digest covers for one operation: answer, cycle, path."""
    if error is not None:
        item = ["error", type(error).__name__]
    else:
        item = [result["answer"], result.get("cycle"), result.get("path")]
    return json.dumps(item, separators=(",", ":")).encode() + b"\n"


def overhead_ratio(by_slot: dict) -> float:
    """Median over shapes of traced / untraced median latency, so that the
    shapes traced and not traced need not balance."""
    ratios = []
    for runs in by_slot.values():
        traced = [dt for _, dt, t in runs if t]
        untraced = [dt for _, dt, t in runs if not t]
        if traced and untraced:
            ratios.append(statistics.median(traced) / statistics.median(untraced))
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(tracer: Tracer, stats_sums: dict, by_slot: dict) -> dict:
    ops = max(len(tracer.ops), 1)
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, {}).get("calls", 0) / ops

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0) / ops

    def count(key):
        return tracer.counts[key] / ops

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "trace.op_s": tot.get(OP_SPAN, {}).get("total_s", 0.0) / ops,
        "trace.overhead_ratio": overhead_ratio(by_slot),
        "density.cuts_per_mad": ratio(
            calls("density.densest_decision"),
            calls("density.mad_with_witness") - count("density.mad_with_witness.cache_hits"),
        ),
        "solver.st_probes": stats_sums.get("st_probes", 0) / ops,
        "solver.segment_probes": stats_sums.get("segment_probes", 0) / ops,
    }
    for fn in ("segments.find_segments", "segments.find_segments_partitioned"):
        values[f"{fn}.found_ratio"] = ratio(count(f"{fn}.found"), calls(fn))
    for name in PER_LAYER:
        if name in values:
            continue
        head, _, quantity = name.rpartition(".")
        if quantity == "calls":
            values[name] = calls(head)
        elif quantity == "self_s":
            values[name] = self_s(head)
        else:
            values[name] = count(name)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "madcycle" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'madcycle'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    rounds = rounds_for(workload, args.seconds)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = import_madcycle()
        ops = generate(workload, args.seed, rounds)
        setup_times.append(perf_counter() - t0)

    tracer = Tracer(pkg) if args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    digest = hashlib.sha256()
    answers = {"yes": 0, "no": 0, "unknown": 0}
    failures: list[tuple[int, str, str]] = []
    unchecked = 0
    by_slot: dict[int, list[tuple[str, float, bool]]] = {}  # slot -> (label, s, traced)
    stats_sums: dict = {}
    records: list[tuple[int, float, float, bool]] = []  # (round, start, seconds, passed)
    marks: list[tuple[float, float]] = []  # (start, seconds) of every reference task
    timed_s = 0.0
    attempted = 0
    start = perf_counter()
    stopped = ""
    for op in ops:
        if op.round > 0 and perf_counter() - start >= args.seconds:
            stopped = f"; stopped at --seconds, after {op.index} of {len(ops)} ops"
            break
        traced = tracer is not None and (op.round + op.index % workload.slots) % 2 == 0
        result, error = None, None
        gc.collect()  # start every operation from the same heap, untimed
        last_s = records[-1][2] if records else 0.0
        run_reference(min(REF_MAX_REPEATS, max(1, round(last_s / REF_EVERY_S))), marks)
        if traced:
            tracer.install()
            tracer.begin_op(op.index)
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = perf_counter()
        try:
            dt, out = run_op(pkg, op)
        except BaseException as exc:  # noqa: BLE001 - every failure is itemised
            if isinstance(exc, KeyboardInterrupt):
                raise
            dt, error = perf_counter() - t0, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                tracer.end_op()
                tracer.uninstall()
        attempted += 1
        timed_s += dt
        passed = False
        if error is None:
            result = json.loads(out)
            try:
                reason, left = bench_gate.check(op, result, pkg)
            except Exception as exc:  # noqa: BLE001 - a gate crash is a failure
                reason, left = f"gate raised {exc!r}", False
            unchecked += left
            if reason is None:
                passed = True
                answers[result["answer"]] += 1
                by_slot.setdefault(op.index % workload.slots, []).append((op.label, dt, traced))
                if traced:
                    for key in ("st_probes", "segment_probes"):
                        stats_sums[key] = stats_sums.get(key, 0) + result["stats"].get(key, 0)
            else:
                failures.append((op.index, op.label, reason))
        else:
            detail = "".join(traceback.format_exception_only(type(error), error)).strip()
            failures.append((op.index, op.label, f"raised {detail}"))
        records.append((op.round, t0, dt, passed))
        digest.update(answer_line(result, error))
    run_reference(REF_MAX_REPEATS, marks)  # so that the last operation has some after it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(failures)
    refs = reference_times(records, marks)
    scaled = [dt / ref for (_, _, dt, _), ref in zip(records, refs)]
    passed_s = [dt for _, _, dt, ok in records if ok]
    passed_ref = [units for (_, _, _, ok), units in zip(records, scaled) if ok]
    completed = len(passed_s)
    tail_ref, tail_pct = tail(passed_ref) if passed_ref else (0.0, 100.0)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "solve_p50_ref": statistics.median(passed_ref) if passed_ref else 0.0,
        "solve_tail_ref": tail_ref,
        "solves_per_kref": 1000 * round_throughput(records, scaled, workload.slots),
        "decided_ratio": (answers["yes"] + answers["no"]) / max(attempted, 1),
        "peak_rss_mb": peak_rss_mb,
    }
    # the same in seconds: printed, not in the result line, since they follow the host's speed
    ref_s = statistics.median(secs for _, secs in marks)
    seconds = {
        "solve_p50_s": statistics.median(passed_s) if passed_s else 0.0,
        "solve_tail_s": tail(passed_s)[0] if passed_s else 0.0,
        "solves_per_s": completed / timed_s if timed_s else 0.0,
        "reference_s": ref_s,
    }

    rounds_run = -(-attempted // workload.slots)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {rounds_run} rounds of {workload.slots}, "
          f"{timed_s:.3f} s inside operations, {perf_counter() - start:.3f} s wall{stopped}")
    for name, unit in END_TO_END.items():
        note = ""
        if name == "solve_tail_ref":
            note = f"  (p{tail_pct:g} of N={completed}: the 11th-largest, or the maximum below N=20)"
        if name == "setup_s":
            note = "  (median of " + ", ".join(f"{t:.4f}" for t in setup_times) + ")"
        if name == "solve_p50_ref" and tracer is not None:
            note = "  (untraced and traced operations together)"
        print(f"  {name:<16} {e2e[name]:.6g} {unit}{note}")
    for name, value in seconds.items():
        unit = "ops/s" if name == "solves_per_s" else "s"
        print(f"  {name:<16} {value:.6g} {unit}  (host-speed dependent; not in the result line)")
    print(f"  {'error_ratio':<16} {failed / max(attempted, 1):.6g} 1  (failed {failed} of {attempted})")
    print(f"  answers          yes={answers['yes']} no={answers['no']} unknown={answers['unknown']} "
          f"failed={failed} no_unchecked={unchecked}")
    for slot, runs in sorted(by_slot.items()):
        times = " ".join(f"{dt:.4f}" for _, dt, _ in runs[:8]) + (" ..." if len(runs) > 8 else "")
        print(f"  slot {slot} [{runs[0][0]}] median "
              f"{statistics.median(dt for _, dt, _ in runs):.4f} s: {times}")
    print(f"  answer_digest    sha256:{digest.hexdigest()} over {attempted} ops")
    for index, label, reason in failures:
        print(f"  FAIL op {index} [{label}]: {reason}")

    metrics = e2e
    units = END_TO_END
    if tracer is not None:
        metrics = layer_metrics(tracer, stats_sums, by_slot)
        units = PER_LAYER
        spans_path = ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
        op_s = metrics["trace.op_s"]
        traced_ops = max(len(tracer.ops), 1)
        print(f"  traced ops {len(tracer.ops)}; spans {len(tracer.t0)} written to "
              f"{spans_path.relative_to(ROOT)}")
        shares = sorted(
            ((row["self_s"] / traced_ops, name) for name, row in tracer.totals().items()),
            reverse=True,
        )
        for own, name in shares[:8]:
            print(f"    self {name:<40} {own:.6f} s/op {100 * own / op_s if op_s else 0:5.1f}%")
        for name in PER_LAYER:
            print(f"  {name:<48} {metrics[name]:.6g} {PER_LAYER[name]}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
