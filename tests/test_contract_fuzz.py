"""Contract fuzz: relations between solves that need no oracle.

The oracles stop at n <= 14 and the range k <= mad/88 - 1 needs n >= 177,
so above the oracles a `no` rests on the case analysis alone, and on each
search raising StateBudgetExceeded rather than answering None past its
budget. Metamorphic relations (Chen, Cheung and Yiu 1998)
check what they can without ground truth:

- (a) relabelling the vertices never turns `yes` into `no`;
- (b) a `no` at k >= 1 rules out a `yes` at k + 1;
- (c) a cycle-mode `yes` at k rules out a path-mode `no` at k, as the cycle
  read from any vertex is a path with as many vertices, and every path-mode
  `yes` carries a path that `path_violation`, written here and not taken
  from the package, accepts;
- (d) the `strict` keyword is inert: `strict=True` and `strict=False` emit
  the same bytes on every full-budget solve;
- (e) k = 0 is never `no` (Erdos-Gallai);
- (f) every `yes` carries a cycle that `cycle_violation`, written here and
  not taken from the package, accepts;
- (g) lowering `longpaths.DET_STATE_BUDGET` never turns `yes` into `no`,
  and a solve in which a search passed its budget answers `yes` or
  `unknown` with the budget reason;
- (h) a `no` from any branch but the exact fallback needs k <= mad/88 - 1,
  the range in which the paper proves the case analysis complete.

Families: K_n minus a perfect matching (n even, 180-260) with random edge
deletions and 0-3 ears; split graphs K_a + I_b (a 6-10, b 8a-10a) with 0-16
disjoint ears of 1-3 vertices between independent-side vertices, the only
family whose solves reach case (iii); and `gnp2c` at n <= 14, where every
answer is also checked against `oracle_longest_cycle`. Each seed draws one
graph, one relabelling and the lowered budgets, so a seed reproduces its
solves.

A longer slice runs as a script over a seed range, and prints the tally:

    PYTHONPATH=src python -O tests/test_contract_fuzz.py FIRST LAST
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from madcycle import errors, longpaths, segments, solver
from madcycle.graph import Graph, PathCertificate, build_graph, is_biconnected
from madcycle.instances import emit_result, gen_instance
from madcycle.oracles import oracle_longest_cycle

LOWERED = (0, 10, 100)  # budgets (g) draws from; 0 trips every search that pushes a state
KM_SEEDS = range(8)
SPLIT_SEEDS = range(30)
GNP_SEEDS = range(40)


def budget_reason(budget: int) -> str:
    return f"state budget exceeded: {budget} states"


@contextmanager
def state_budget(budget: int | None):
    """longpaths.DET_STATE_BUDGET set to budget (left alone for None); yields
    a list whose one item counts the StateBudgetExceeded raised meanwhile."""
    cls = errors.StateBudgetExceeded
    assert "__init__" not in vars(cls)
    trips = [0]

    def counting(self, *args):
        trips[0] += 1
        super(cls, self).__init__(*args)

    saved = longpaths.DET_STATE_BUDGET
    cls.__init__ = counting
    if budget is not None:
        longpaths.DET_STATE_BUDGET = budget
    try:
        yield trips
    finally:
        del cls.__init__
        longpaths.DET_STATE_BUDGET = saved


@contextmanager
def query_swallows_the_trip():
    """The planted fault: SegmentSearch.query answers None past its budget."""

    class Swallowing(segments.SegmentSearch):
        def query(self, *args):
            try:
                return super().query(*args)
            except errors.StateBudgetExceeded:
                return None

    saved = segments.SegmentSearch
    segments.SegmentSearch = Swallowing
    try:
        yield
    finally:
        segments.SegmentSearch = saved


@contextmanager
def short_paths():
    """The planted fault: every path-mode `yes` cuts its path to one vertex
    below the threshold."""
    saved = solver._solve_path

    def short(g, k, with_trace):
        res = saved(g, k, with_trace)
        if res.path_certificate is not None:
            cut = res.path_certificate.vertices[: res.threshold_len - 1]
            res.path_certificate = PathCertificate(cut)
        return res

    solver._solve_path = short
    try:
        yield
    finally:
        solver._solve_path = saved


@contextmanager
def no_downgrade():
    """The planted fault: `solver._downgrade` lets every `no` stand."""
    saved = solver._downgrade
    solver._downgrade = lambda res, may_claim_no, why: res
    try:
        yield
    finally:
        solver._downgrade = saved


def cycle_violation(g: Graph, res) -> str | None:
    """What is wrong with a `yes` answer's cycle, or None."""
    cyc = res.certificate.vertices if res.certificate is not None else ()
    if len(cyc) < max(res.threshold_len, 3):
        return f"cycle of {len(cyc)} vertices below threshold {res.threshold_len}"
    if len(set(cyc)) != len(cyc) or not all(0 <= v < g.n for v in cyc):
        return "cycle repeats a vertex or leaves the graph"
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        if v not in g.adj[u]:
            return f"cycle uses the non-edge {u}-{v}"
    return None


def path_violation(g: Graph, res) -> str | None:
    """What is wrong with a path-mode `yes` answer's path, or None."""
    path = res.path_certificate.vertices if res.path_certificate is not None else ()
    if len(path) < res.threshold_len:
        return f"path of {len(path)} vertices below threshold {res.threshold_len}"
    if len(set(path)) != len(path) or not all(0 <= v < g.n for v in path):
        return "path repeats a vertex or leaves the graph"
    for u, v in zip(path, path[1:]):
        if v not in g.adj[u]:
            return f"path uses the non-edge {u}-{v}"
    return None


def k_minus_matching(n: int) -> list[tuple[int, int]]:
    """The edges of K_n less the matching {0, 1}, {2, 3}, ..."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if not (v == u + 1 and u % 2 == 0)]


def km_with_ears(rng: random.Random) -> Graph:
    """K_n minus a perfect matching, n even in 180..260, less up to n/4 random
    edges, plus 0-3 ears of 1-6 new vertices between two core vertices."""
    n = rng.randrange(180, 261, 2)
    edges = k_minus_matching(n)
    for _ in range(rng.randint(0, n // 4)):
        edges.pop(rng.randrange(len(edges)))
    m = n
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        walk = [a, *range(m, m + rng.randint(1, 6)), b]
        m += len(walk) - 2
        edges += list(zip(walk, walk[1:]))
    return build_graph(edges, m)


def split_edges(a: int, b: int) -> list[tuple[int, int]]:
    """The edges of K_a joined completely to the independent set a..a+b-1."""
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    return edges + [(i, j) for i in range(a) for j in range(a, a + b)]


def split_with_ears(rng: random.Random) -> Graph:
    """K_a + I_b, a in 6..10 and b in 8a..10a, plus 0-16 ears of 1-3 new
    vertices between disjoint pairs of independent-side vertices."""
    a = rng.randint(6, 10)
    b = rng.randint(8 * a, 10 * a)
    edges, m = split_edges(a, b), a + b
    ears = rng.randint(0, 16)
    ends = rng.sample(range(a, a + b), 2 * ears)
    for u, v in zip(ends[::2], ends[1::2]):
        walk = [u, *range(m, m + rng.randint(1, 3)), v]
        m += len(walk) - 2
        edges += list(zip(walk, walk[1:]))
    return build_graph(edges, m)


def relabelled(g: Graph, perm: list[int]) -> Graph:
    return build_graph([(perm[u], perm[v]) for u, v in g.edges()], g.n)


def check_graph(g: Graph, ks, rng: random.Random, tally: Counter, circumference=None,
                lowered=LOWERED) -> list[str]:
    """The violated relations of solves on g at each k."""
    assert is_biconnected(g)
    bad: list[str] = []
    h = relabelled(g, rng.sample(range(g.n), g.n))

    def run(graph, k, budget=None):
        with state_budget(budget) as trips:
            res = solver.solve(graph, k)
        label = f"n={g.n} k={k} budget={budget}"
        tally["case (iii) solves"] += res.branch == "case_iii"
        if res.answer == "yes" and (why := cycle_violation(graph, res)):
            bad.append(f"(f) {label}: {why}")
        if res.answer == "no" and res.branch != "fallback" and Fraction(k) > res.mad / 88 - 1:
            bad.append(f"(h) {label}: no from {res.branch} outside k <= mad/88 - 1")
        if circumference is not None and res.answer != "unknown" and (
            (res.answer == "yes") != (circumference >= res.threshold_len)
        ):
            bad.append(f"oracle {label}: {res.answer} with circumference {circumference}")
        return res, trips[0], label

    by_k: dict[int, set[str]] = {}  # k -> answers of the full-budget solves
    for k in ks:
        res, _, label = run(g, k)
        if emit_result(solver.solve(g, k, strict=False)) != emit_result(res):
            bad.append(f"(d) {label}: strict=False changed the emitted bytes")
        if k >= 1 and res.answer == "yes":
            path = solver.solve(g, k, mode="path")
            if path.answer == "no":
                bad.append(f"(c) {label}: cycle yes, path-mode no")
            if path.answer == "yes" and (why := path_violation(g, path)):
                bad.append(f"(c) {label}: path mode, {why}")
            tally["path-mode yes"] += path.answer == "yes"
        reason = res.stats.get("reason", "")
        tally[res.answer] += 1
        if res.answer == "unknown" and "state budget exceeded" in reason:
            tally["budget unknown, in range" if res.branch != "fallback"
                  and k <= res.mad / 88 - 1 else "budget unknown, out of range"] += 1
        if k == 0 and res.answer == "no":
            bad.append(f"(e) {label}: no at k = 0")
        other, _, _ = run(h, k)
        if {res.answer, other.answer} == {"yes", "no"}:
            bad.append(f"(a) {label}: {res.answer}, relabelled {other.answer}")
        by_k.setdefault(k, set()).update((res.answer, other.answer))
        low_budget = rng.choice(lowered)
        low, trips, low_label = run(g, k, low_budget)
        tally["lowered-budget solves that tripped"] += trips > 0
        if res.answer == "yes" and low.answer == "no":
            bad.append(f"(g) {low_label}: no where the full budget said yes")
        low_reason = low.stats.get("reason", "")
        if trips and low.answer != "yes" and not (
            low.answer == "unknown" and low_reason.endswith(budget_reason(low_budget))
        ):
            bad.append(f"(g) {low_label}: tripped, answered {low.answer} {low_reason!r}")
    for k in sorted(by_k):
        if k >= 1 and "no" in by_k[k]:
            if k + 1 not in by_k:
                by_k[k + 1] = {run(g, k + 1)[0].answer}
            if "yes" in by_k[k + 1]:
                bad.append(f"(b) n={g.n}: no at k={k}, yes at k={k + 1}")
    return bad


def check_km(seed: int, tally: Counter) -> list[str]:
    rng = random.Random(f"km:{seed}")
    return check_graph(km_with_ears(rng), (0, 1, rng.randint(2, 5)), rng, tally)


def check_split(seed: int, tally: Counter) -> list[str]:
    rng = random.Random(f"split:{seed}")
    return check_graph(split_with_ears(rng), (rng.randint(2, 5),), rng, tally)


def check_gnp(seed: int, tally: Counter) -> list[str]:
    rng = random.Random(f"gnp:{seed}")
    n = rng.randint(5, 14)
    g, _ = gen_instance("gnp2c", {"n": n, "prob": rng.uniform(0.3, 0.8)}, seed)
    circumference, _ = oracle_longest_cycle(g)
    return check_graph(g, (0, 1, rng.randint(2, 4)), rng, tally, circumference)


def test_km_with_ears():
    tally = Counter()
    bad = [v for seed in KM_SEEDS for v in check_km(seed, tally)]
    assert bad == []
    assert tally["yes"] > 0 and tally["lowered-budget solves that tripped"] > 0, tally
    assert tally["path-mode yes"] > 0, tally


def test_split_graphs_reach_case_iii():
    tally = Counter()
    bad = [v for seed in SPLIT_SEEDS for v in check_split(seed, tally)]
    assert bad == []
    assert tally["yes"] > 0 and tally["case (iii) solves"] > 0, tally
    assert tally["lowered-budget solves that tripped"] > 0, tally


def test_gnp_against_the_oracle():
    tally = Counter()
    bad = [v for seed in GNP_SEEDS for v in check_gnp(seed, tally)]
    assert bad == []
    assert tally["yes"] > 0 and tally["no"] > 0, tally
    assert tally["lowered-budget solves that tripped"] > 0 and tally["path-mode yes"] > 0, tally


def test_relation_g_catches_a_swallowed_budget_trip():
    # K200 - M plus two one-vertex ears on the pair {0, 3}, k = 4: the
    # threshold 202 is n, so the dense pipeline runs; k' = 2 is too long for
    # an st probe, and no segment system carries 2 internals (both ears
    # share one pair), so the exact case analysis says no and _downgrade
    # makes it unknown. With the budget at 0 the segment search trips; if
    # query swallows the trip and answers None, the analysis says no again,
    # and the out-of-range downgrade hides the trip behind the wrong reason.
    g = build_graph(k_minus_matching(200) + [(0, 200), (200, 3), (0, 201), (201, 3)], 202)
    res = solver.solve(g, 4)
    assert (res.answer, res.branch, res.threshold_len) == ("unknown", "case_ii", 202)
    assert res.stats["k_prime"] == 2 and res.stats["segment_probes"] == 2
    assert check_graph(g, (4,), random.Random(0), Counter(), lowered=(0,)) == []
    with query_swallows_the_trip():
        bad = check_graph(g, (4,), random.Random(0), Counter(), lowered=(0,))
    assert bad and all(v.startswith("(g)") for v in bad), bad


def test_relation_c_catches_a_path_one_vertex_short():
    # K8 - M at k = 1: the cycle-mode yes makes the path solve, a yes whose
    # path the package has certified, so only the fuzz's own check is left
    g = build_graph(k_minus_matching(8), 8)
    res = solver.solve(g, 1, mode="path")
    assert (res.answer, res.threshold_len) == ("yes", 7)
    assert check_graph(g, (1,), random.Random(0), Counter()) == []
    with short_paths():
        bad = check_graph(g, (1,), random.Random(0), Counter())
    assert bad == ["(c) n=8 k=1 budget=None: path mode, path of 6 vertices below threshold 7"]


def test_relation_h_catches_a_no_let_stand_out_of_range():
    # K8 + I80 at k = 3: mad = 167/11, far below 88(k + 1), and no
    # vertex lies outside the core, so the exact case (iii) analysis says no
    # and _downgrade makes it unknown; let stand, the no breaks (h)
    g = build_graph(split_edges(8, 80), 88)
    res = solver.solve(g, 3)
    assert res.answer == "unknown" and res.branch == "case_iii"
    assert res.stats["reason"].startswith("search exhausted; no-guarantee outside")
    assert check_graph(g, (3,), random.Random(0), Counter()) == []
    with no_downgrade():
        bad = check_graph(g, (3,), random.Random(0), Counter())
    assert bad and all(v.startswith("(h)") for v in bad), bad


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    tally = Counter()
    bad = []
    for seed in range(first, last):
        bad += check_km(seed, tally) + check_split(seed, tally) + check_gnp(seed, tally)
    for line in bad:
        print(line)
    for key in ("budget unknown, in range", "budget unknown, out of range"):
        tally[key] += 0  # printed also when none
    print(f"seeds {first}..{last - 1}:", ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
