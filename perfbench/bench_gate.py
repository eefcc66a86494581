"""The benchmark's correctness gate, independent of the program's checkers.

Every operation's emitted JSON result is checked against the input bytes:

- a `yes` cycle has distinct in-range vertices, consecutive vertices (and
  the last and first) are edges of the input, and its length is at least
  `threshold_len`;
- `threshold_len` is floor(mad)+1 at k=0 and ceil(mad)+k otherwise;
- `mad` equals the value known by construction, or `oracles.oracle_mad`
  within its cap, and always lies between 2m/n and the maximum degree;
- a `no` agrees with the answer known by construction, or with a threshold
  above n, or with `oracles.oracle_longest_cycle` within its cap; a `no`
  none of these can confirm is counted as unchecked;
- an answer differing from the one known by construction is a failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from bench_workloads import Op, parse_edgelist

ORACLE_MAD_CAP = 14
ORACLE_CYCLE_CAP = 18


def check_cycle(n: int, edges: set[tuple[int, int]], cycle, threshold_len: int) -> str | None:
    """None if `cycle` is a simple cycle of the graph with >= threshold_len
    vertices, else the reason it is not."""
    if not isinstance(cycle, list) or len(cycle) < 3:
        return f"certificate is not a cycle: {cycle!r:.80}"
    if len(set(cycle)) != len(cycle):
        return "certificate repeats a vertex"
    if any(not isinstance(v, int) or not 0 <= v < n for v in cycle):
        return "certificate has an out-of-range vertex"
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        if (min(u, v), max(u, v)) not in edges:
            return f"certificate uses non-edge ({u},{v})"
    if len(cycle) < threshold_len:
        return f"certificate length {len(cycle)} < threshold_len {threshold_len}"
    return None


def check(op: Op, result: dict, madcycle) -> tuple[str | None, bool]:
    """(failure reason or None, whether a `no` was left unchecked)."""
    n, edges = parse_edgelist(op.data)
    answer = result.get("answer")
    if answer not in ("yes", "no", "unknown"):
        return f"answer {answer!r} is not yes/no/unknown", False
    mad = Fraction(result["mad"]["num"], result["mad"]["den"])
    want = math.floor(mad) + 1 if op.k == 0 else math.ceil(mad) + op.k
    if result["threshold_len"] != want:
        return f"threshold_len {result['threshold_len']} != {want} for mad {mad}", False

    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if not Fraction(2 * len(edges), n) <= mad <= max(degree):
        return f"mad {mad} outside [2m/n, max degree]", False
    if op.known_mad is not None and mad != op.known_mad:
        return f"mad {mad} != {op.known_mad} known by construction", False
    if op.known_mad is None and n <= ORACLE_MAD_CAP:
        exact = madcycle.oracles.oracle_mad(_graph(madcycle, n, edges))
        if mad != exact:
            return f"mad {mad} != oracle {exact}", False

    if op.expect is not None and answer != op.expect:
        return f"answer {answer} but {op.expect} is known by construction", False
    if answer == "yes":
        return check_cycle(n, edges, result.get("cycle"), want), False
    if answer == "no" and op.expect != "no" and want <= n:
        if n > ORACLE_CYCLE_CAP:
            return None, True
        longest, _ = madcycle.oracles.oracle_longest_cycle(_graph(madcycle, n, edges))
        if longest >= want:
            return f"answer no but the oracle finds a cycle of {longest} >= {want}", False
    return None, False


def _graph(madcycle, n: int, edges):
    return madcycle.graph.build_graph(sorted(edges), n)
