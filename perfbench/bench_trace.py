"""Outside-in layer tracing: spans around the program's public functions.

The program's source is not edited. `Tracer.install` replaces each traced
function in every module namespace of the package that holds it, because
modules import names by value (`from .density import mad_with_witness`):
wrapping only the defining module would miss calls made through the other
names. Each wrapper records which namespace the call went through (`via`).

Spans (operation, parent, name, via, start, end) are held in memory and
written out by `write_spans`. A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so spans
nest and nothing waits in a queue.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

OP_SPAN = "bench.op"

# (module, function) pairs wrapped in traced runs
TRACED = (
    ("graph", "two_separators"),
    ("graph", "blocks_and_cut_vertices"),
    ("graph", "induced_subgraph"),
    ("density", "densest_decision"),
    ("density", "mad_with_witness"),
    ("reduction", "reduce_exhaustive"),
    ("reduction", "apply_rule"),
    ("cyclesearch", "find_cycle_at_least"),
    ("longpaths", "dirac_cycle"),
    ("longpaths", "st_path_at_least"),
    ("segments", "find_segments"),
    ("segments", "find_segments_partitioned"),
    ("routing", "hamiltonian_through_pairs"),
    ("routing", "cover_side_through_pairs"),
    ("extract", "find_dense"),
    ("extract", "corollary5_engine"),
    ("solver", "solve"),
    ("solver", "case_small_dense"),
    ("solver", "case_bipartite_dense"),
    ("solver", "exact_longest_cycle_fallback"),
    ("instances", "parse_graph"),
    ("instances", "emit_result"),
)


def _counters_for(name: str, orig):
    """(before, after) hooks that turn a call into named counts, or None.

    before(args, kwargs) returns a state; after(state, args, kwargs, result)
    returns the counter names to increment.
    """
    if name == "density.mad_with_witness":
        def before(args, kwargs):
            return orig.cache_info().hits

        def after(hits, args, kwargs, result):
            return ("density.mad_with_witness.cache_hits",) if orig.cache_info().hits > hits else ()
        return before, after
    if name == "longpaths.st_path_at_least":
        def after(_, args, kwargs, result):
            report = kwargs.get("report")
            if report is not None and report.get("deterministic") is False:
                return ("longpaths.st_path_at_least.monte_carlo_calls",)
            return ()
        return None, after
    if name.startswith("segments.find_segments"):
        def after(_, args, kwargs, result):
            return (f"{name}.found",) if result is not None else ()
        return None, after
    if name == "extract.find_dense":
        def after(_, args, kwargs, result):
            return (f"extract.find_dense.{type(result[0]).__name__}",)
        return None, after
    return None


class Tracer:
    """Spans and counters for the operations run while it is installed."""

    def __init__(self, package):
        self.package = package
        self.op: list[int] = []
        self.parent: list[int] = []
        self.name: list[str] = []
        self.via: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.counts: Counter = Counter()
        self.ops: list[int] = []  # operation ids traced, in order
        self._stack: list[int] = []
        self._current = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installing the wrappers --------------------------------------------

    def _namespaces(self):
        prefix = self.package.__name__
        return [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]

    def install(self) -> None:
        if self._patched:
            return
        namespaces = self._namespaces()
        for module, fn in TRACED:
            orig = getattr(sys.modules[f"{self.package.__name__}.{module}"], fn)
            name = f"{module}.{fn}"
            hooks = _counters_for(name, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        via = ns.__name__.rpartition(".")[2]
                        setattr(ns, attr, self._wrap(orig, name, via, hooks))
                        self._patched.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def _wrap(self, orig, name: str, via: str, hooks):
        begin, end, counts = self._begin, self._end, self.counts
        before, after = hooks if hooks else (None, None)

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = begin(name, via)
            try:
                result = orig(*args, **kwargs)
            finally:
                end(sid)
            if after:
                for key in after(state, args, kwargs, result):
                    counts[key] += 1
            return result

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", name)
        return traced

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str, via: str) -> int:
        sid = len(self.t0)
        self.op.append(self._current)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name)
        self.via.append(via)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def _end(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        while self._stack and self._stack.pop() != sid:
            pass

    def begin_op(self, op_id: int) -> None:
        self._current = op_id
        self.ops.append(op_id)
        self._begin(OP_SPAN, "perfbench")

    def end_op(self) -> None:
        """Close the operation's span and any span an exception left open."""
        now = perf_counter()
        while self._stack:
            sid = self._stack.pop()
            if self.t1[sid] == 0.0:
                self.t1[sid] = now
        self._current = -1

    # -- aggregates ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [b - a for a, b in zip(self.t0, self.t1)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.t1[sid] - self.t0[sid]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}, summed over the traced ops."""
        out: dict[str, dict[str, float]] = {}
        for name, a, b, own in zip(self.name, self.t0, self.t1, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += b - a
            row["self_s"] += own
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.t0[0] if self.t0 else 0.0
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tvia\tstart_s\tend_s\n")
            for sid, (op, parent, name, via, a, b) in enumerate(
                zip(self.op, self.parent, self.name, self.via, self.t0, self.t1)
            ):
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{via}\t{a - base:.9f}\t{b - base:.9f}\n")
