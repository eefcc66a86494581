"""Seeded workload generators for the solve benchmark.

Every workload is a fixed schedule of instance shapes, repeated in rounds.
The seed draws the random parts of each instance (ear endpoints and
vertex labels), so the same seed gives the same inputs. Each slot of a round
holds the same graph up to labels in every round and for every seed: the
G(n, p) graphs of `sparse_k0` and `small_mixed` are fixed per slot, because
samples differ widely in cost. Every round is then the same mix of work, so
the metrics of a run do not depend on its seed or on how many rounds it ran.

The generators use only the standard library: the inputs do not change when
the program's own generators or graph code change. The program receives only
the edgelist bytes built here. No two operations of one pool are equal
graphs, because density results are cached by adjacency inside the program.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    """One operation: parse the edgelist, solve, emit the JSON result."""

    index: int
    round: int
    label: str
    data: bytes  # canonical edgelist, the only input the program sees
    n: int
    k: int
    strict: bool
    expect: str | None = None  # answer known by construction, if any
    known_mad: Fraction | None = None  # mad known by construction, if any


def edgelist_bytes(n: int, edges) -> bytes:
    """Canonical edgelist: an "n" header, then sorted "u v" lines with u < v.

    Equal graphs give equal bytes, so the bytes identify the graph.
    """
    pairs = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    lines = [f"n {n}"]
    lines += [f"{u} {v}" for u, v in pairs]
    return ("\n".join(lines) + "\n").encode()


def parse_edgelist(data: bytes) -> tuple[int, set[tuple[int, int]]]:
    """Inverse of edgelist_bytes: (n, set of (u, v) with u < v)."""
    lines = data.decode().split("\n")
    n = int(lines[0].split()[1])
    edges = set()
    for line in lines[1:]:
        if line:
            u, v = line.split()
            edges.add((int(u), int(v)))
    return n, edges


def is_biconnected(n: int, adj: list[list[int]]) -> bool:
    """Connected, n > 2, and no cut vertex (iterative lowpoint DFS)."""
    if n <= 2:
        return False
    disc = [-1] * n
    low = [0] * n
    disc[0] = low[0] = 0
    timer = 1
    root_children = 0
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if stack[-1][1] != -1 and low[v] >= disc[u]:
                    return False  # u is a non-root cut vertex
            continue
        if disc[w] == -1:
            disc[w] = low[w] = timer
            timer += 1
            if v == 0:
                root_children += 1
            stack.append((w, v, iter(adj[w])))
        elif w != parent:
            low[v] = min(low[v], disc[w])
    return timer == n and root_children == 1


def gnp_biconnected(n: int, prob: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, prob) conditioned on 2-connectivity, by rejection."""
    for _ in range(5000):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob
        ]
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        if is_biconnected(n, adj):
            return edges
    raise RuntimeError(f"no 2-connected G({n}, {prob}) in 5000 draws")


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = rng.sample(range(n), n)
    return [(perm[u], perm[v]) for u, v in edges]


# ---------------------------------------------------------------------------
# the workloads; each shape function returns (label, n, edges, k, strict,
# expect, known_mad) for one slot of one round


# one size, so that the median and the tail each fall inside one cluster of
# latencies; n = 150 keeps an operation near half a second, so that a run
# holds enough operations for both
SPARSE_N = 150


def _sparse_k0(slot: int, rng: random.Random):
    # the 2-separator scan's cost follows the reduced core's size, which
    # varies by +-10% between G(n, p) samples
    n = SPARSE_N
    edges = gnp_biconnected(n, 8 / (n - 1), random.Random(f"sparse_k0:{slot}"))
    return f"gnp n={n} deg~8 k=0", n, relabel(n, edges, rng), 0, True, "yes", None


# (clique size a, number of outside ears, k); mad is (21a - 1)/11 for all.
# Every shape reaches case (iii), where the segment DP takes 30-60% of an
# operation; fewer ears or k < 3 leave it idle. Operations take a few tenths
# of a second, so that a run holds enough of them. The slowest shape fills
# two slots, so that the tail falls inside its cluster of latencies, and the
# median falls inside the two middle shapes' cluster
OUTSIDE_SLOTS = ((8, 12, 3), (10, 12, 5), (8, 14, 5), (10, 16, 4), (10, 16, 4))


def _outside_probes(slot: int, rng: random.Random):
    a, ears, k = OUTSIDE_SLOTS[slot]
    b = 10 * a
    n = a + b
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges += [(i, a + j) for i in range(a) for j in range(b)]
    # one-vertex ears between independent-side vertices; the ears share no
    # endpoint, so every shape has exactly 2*ears probe anchors
    ends = rng.sample(range(a, a + b), 2 * ears)
    for u, v in zip(ends[::2], ends[1::2]):
        edges += [(u, n), (n, v)]
        n += 1
    return (f"split a={a} ears={ears} k={k}", n, relabel(n, edges, rng), k, False,
            None, Fraction(21 * a - 1, 11))


# (n, k, edge probability, strict): n <= 24 reaches the exact fallback or k=0;
# strict n > 24 stops at the fallback cap; relaxed n > 24 runs the pipeline
SMALL_SLOTS = (
    (10, 0, 0.5, True), (12, 1, 0.9, True), (14, 2, 0.4, True), (16, 3, 0.7, True),
    (18, 4, 0.3, True), (20, 2, 0.6, True), (22, 4, 0.9, True), (24, 1, 0.35, True),
    (25, 1, 0.3, True), (35, 2, 0.4, True), (45, 4, 0.3, True),
    (30, 1, 0.3, False), (40, 2, 0.4, False), (45, 4, 0.5, False),
)


def _small_mixed(slot: int, rng: random.Random):
    # the exact searches' cost varies widely between G(n, p) samples
    n, k, prob, strict = SMALL_SLOTS[slot]
    edges = gnp_biconnected(n, prob, random.Random(f"small_mixed:{slot}"))
    edges = relabel(n, edges, rng)
    mode = "strict" if strict else "relaxed"
    return f"gnp n={n} p={prob} k={k} {mode}", n, edges, k, strict, None, None


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Callable[[int, random.Random], tuple]  # (slot, rng) -> instance
    slots: int  # operations per round
    round_s: float  # nominal seconds per round on a 2-CPU x86-64 container


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse_k0", _sparse_k0, 4, 1.5),
        Workload("outside_probes", _outside_probes, len(OUTSIDE_SLOTS), 3.0),
        Workload("small_mixed", _small_mixed, len(SMALL_SLOTS), 0.28),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds that take about `seconds` at nominal speed.

    The work of a run is fixed by the workload and `seconds`, never by how
    fast the program is, so two commits run the same operations.
    """
    return max(1, round(seconds / workload.round_s))


def generate(workload: Workload, seed: int, rounds: int) -> list[Op]:
    """The first `rounds` rounds of the workload's operations for `seed`.

    Generation is sequential from one generator, so a longer pool extends a
    shorter one. A draw that repeats an earlier graph is discarded.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    seen: set[bytes] = set()
    ops: list[Op] = []
    for r in range(rounds):
        for slot in range(workload.slots):
            while True:
                label, n, edges, k, strict, expect, mad = workload.shape(slot, rng)
                data = edgelist_bytes(n, edges)
                digest = hashlib.sha256(data).digest()
                if digest not in seen:
                    seen.add(digest)
                    break
            ops.append(Op(len(ops), r, label, data, n, k, strict, expect, mad))
    return ops
