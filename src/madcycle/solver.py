"""Decide whether a 2-connected graph has a cycle of length >= mad(G)+k.

Dispatch: k = 0 is answered constructively (densest core, reduction by
rules 1-3, Dirac cycle); k above the paper's range k <= mad/88 - 1 goes to
the exact fallback when n <= FALLBACK_N_CAP or the threshold exceeds n;
otherwise the dense-subgraph trichotomy gives a core H.
Cases (ii) and (iii) run one case analysis and differ only in its data
(target, segment window, side A): one long outside path, else a system of
outside segments, spliced into a cycle routed through H.

Answers are three-valued. Yes always carries a verified certificate whose
length meets the exact rational threshold. The fallback's no is exact by
construction; a case function's no stands only where its search was exact
and the paper proves the case complete, which it checks by `_downgrade`.
Otherwise the answer is unknown, with a reason; it never masquerades as no.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import cyclesearch, longpaths, routing, segments
from .density import mad_with_witness
from .errors import (
    ConstructionFailure,
    EngineIncomplete,
    PreconditionError,
    StateBudgetExceeded,
)
from .extract import FoundCycle, SmallDense, find_dense
from .graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    build_graph,
    certify,
    induced_subgraph,
    is_biconnected,
    is_connected,
    mask_of,
    subset_components,
)
from .reduction import K0_RULES, ReductionTrace, reduce_exhaustive

FALLBACK_N_CAP = 24


@dataclass
class SolveResult:
    answer: str  # yes | no | unknown
    k: int
    mad: Fraction
    threshold_len: int
    certificate: CycleCertificate | None = None
    path_certificate: PathCertificate | None = None
    branch: str = ""
    stats: dict = field(default_factory=dict)
    trace: list | None = None


def k0_constructive_cycle(g: Graph) -> CycleCertificate:
    """A verified cycle of length strictly greater than mad(G).

    Works on any graph with mad >= 2: densest witness, reduction by rules
    1-3, then a Dirac cycle of the core asked for floor(mad)+1 vertices, the
    least integer above mad. The Dirac bound min(n, 2*delta) of the core is
    at least that, since both terms are integers that exceed mad; write
    eg = 2m/(n-1) for the core:
    - the witness has eg > 2m/n = mad, and no rule lowers eg, so the
      core's eg > mad;
    - at the rule-2 fixpoint the core is one block, with n >= 3 by the
      last point and mad >= 2, so it is 2-connected and dirac_cycle applies;
    - at the rule-3 fixpoint every degree exceeds eg/2, so 2*delta > mad;
    - n >= eg, since 2m <= n(n-1), so n > mad.
    So the search may stop at floor(mad)+1 vertices, and on a sparse core
    it does so long before a Hamiltonian cycle. Rule 4 (the 2-separator
    scan) is not needed and not run. The length is still checked: the cycle
    is certified at floor(mad)+1, and a shorter one raises ConstructionFailure.
    """
    return _k0_cycle(g)[0]


def _k0_cycle(g: Graph) -> tuple[CycleCertificate, ReductionTrace]:
    """k0_constructive_cycle's cycle, certified against g as at least
    floor(mad)+1 long, and the trace of its one reduction."""
    witness = mad_with_witness(g)
    if witness.mad < 2:
        raise PreconditionError("no cycle exists below mad = 2")
    _, trace = reduce_exhaustive(g, witness.vertices, rules=K0_RULES)
    above = math.floor(witness.mad) + 1
    cyc = longpaths.dirac_cycle(trace.core, above)
    mapped = tuple(trace.core_ids[v] for v in cyc.vertices)
    return certify(g, CycleCertificate(mapped, above)), trace


def exact_longest_cycle_fallback(g: Graph, threshold: Fraction | int) -> SolveResult:
    """Exact decision 'exists a cycle of length >= threshold' for small n,
    and an exact no at any n when the threshold exceeds n.

    `cyclesearch.find_cycle_at_least`, the one exact depth-first search,
    under longpaths.DET_STATE_BUDGET states; independent of the subset-DP
    oracle. A threshold within n above FALLBACK_N_CAP vertices, or past the
    budget, answers unknown with the reason. k is want - ceil(mad), >= 0.
    """
    want = max(math.ceil(Fraction(threshold)), 3)
    mad = mad_with_witness(g).mad if g.m else Fraction(0)
    base = dict(k=max(0, want - math.ceil(mad)), mad=mad, threshold_len=want,
                branch="fallback")
    if FALLBACK_N_CAP < g.n and want <= g.n:
        return _unknown(f"fallback cap exceeded: n={g.n} > {FALLBACK_N_CAP}", **base)
    try:
        found = cyclesearch.find_cycle_at_least(g, want, longpaths.DET_STATE_BUDGET)
    except StateBudgetExceeded:
        why = f"fallback state budget exceeded: {longpaths.DET_STATE_BUDGET} states"
        return _unknown(why, **base)
    if found is not None:
        cert = certify(g, CycleCertificate(tuple(found), want))
        return SolveResult("yes", certificate=cert, **base)
    return SolveResult("no", **base)


def _unknown(reason: str, **fields) -> SolveResult:
    """Unknown, with the reason nothing stronger could be claimed."""
    return SolveResult("unknown", stats={"reason": reason}, **fields)


def _splice_segments(
    base_cycle: CycleCertificate, system: segments.SegmentSystem
) -> list[int]:
    """Replace each pair-edge of the routed cycle by its segment.

    Nothing is re-checked here. Routing has certified every pair consecutive
    on the cycle, the segment system has no repeated pair, and the caller
    certifies the spliced cycle.
    """
    by_pair = dict(zip(system.endpoint_pairs(), system.paths))
    cyc = base_cycle.vertices
    out: list[int] = []
    for x, y in zip(cyc, cyc[1:] + cyc[:1]):
        out.append(x)
        segment = by_pair.get((min(x, y), max(x, y)))
        if segment is not None:
            inner = segment.vertices[1:-1]
            out.extend(inner if segment.vertices[0] == x else inner[::-1])
    return out


def _outside_path(
    g: Graph, H: frozenset[int], target: int, stats: dict
) -> PathCertificate | None:
    """An (s,t)-path with >= target vertices, s < t in H, all others outside H,
    or None when there is none.

    Pairs are tried in lexicographic order. The internal vertices of such a
    path lie in one component C of G - H that touches both s and t and has
    at least target - 2 vertices. So a pair is probed only when such a C
    exists, and only on those components plus {s, t}. The exact search is
    depth-first in ascending order and prunes only states with no such
    path, so it returns the first such path in that order, which lies in
    those components: the same path as on all of G - H plus {s, t}, and
    labels keep their order under `induced_subgraph`. stats["st_probes"]
    counts the probes run. A probe past the state budget does not stop the
    others; if no probe finds a path, StateBudgetExceeded is raised then.
    """
    outside = [v for v in g.vertices() if v not in H]
    comps = [c for c in subset_components(g, outside) if len(c) + 2 >= target]
    touching: dict[int, set[int]] = {}  # vertex of H -> kept components it touches
    for i, comp in enumerate(comps):
        for v in comp:
            for w in g.adj[v]:
                if w in H:
                    touching.setdefault(w, set()).add(i)
    anchors = sorted(touching)
    tripped = None
    for j, s in enumerate(anchors):
        for t in anchors[j + 1 :]:
            shared = touching[s] & touching[t]
            if not shared:
                continue
            host, ids = induced_subgraph(g, {s, t}.union(*(comps[i] for i in shared)))
            stats["st_probes"] += 1
            try:
                found = longpaths.st_path_at_least(host, ids.index(s), ids.index(t), target)
            except StateBudgetExceeded as exc:
                found, tripped = None, exc
            if found is not None:
                return PathCertificate(tuple(ids[v] for v in found.vertices))
    if tripped:
        raise tripped
    return None


def _routed(g: Graph, H, A, pairs, core=None) -> CycleCertificate:
    """A cycle of g[H] through the pairs, in g's labels: Hamiltonian when A
    is empty, else covering A. The bipartite routing lemma needs 10k <= |A|,
    so k = floor(|A|/10), at least 1; k only orders the covering moves.

    core, a reduced core and its ascending host ids (`ReductionTrace.core`,
    `core_ids`), is taken as g[H] when its ids are H, and nothing is built.
    """
    if core is not None and H == frozenset(core[1]):
        sub_h, ids_h = core
    else:
        sub_h, ids_h = induced_subgraph(g, H)
    back = {orig: i for i, orig in enumerate(ids_h)}
    local = [(back[a], back[b]) for a, b in pairs]  # routing rejects a repeat
    if A:
        cyc = routing.cover_side_through_pairs(
            sub_h, [back[v] for v in A], local, k=max(1, len(A) // 10)
        )
    else:
        cyc = routing.hamiltonian_through_pairs(sub_h, local)
    return CycleCertificate(tuple(ids_h[v] for v in cyc.vertices), len(cyc))


def _in_range(mad: Fraction, k: int) -> bool:
    """k <= mad/88 - 1: the paper's range, where the dense pipeline is complete."""
    return Fraction(k) <= mad / 88 - 1


_OUT_OF_RANGE = "search exhausted; no-guarantee outside the range k <= mad/88 - 1"


def _downgrade(res: SolveResult, may_claim_no: bool, why: str) -> SolveResult:
    """The gate on an exhausted case analysis's no: it stands only where the
    paper proves the analysis complete (may_claim_no), else it is unknown, why."""
    if res.answer == "no" and not may_claim_no:
        res.answer = "unknown"
        res.stats["reason"] = why
    return res


def _case_analysis(
    g: Graph, H: frozenset[int], A: frozenset[int], k_prime: int, target: int,
    pmax: int, probes, base: dict, may_claim_no: bool, why: str, core=None,
) -> SolveResult:
    """Cases (ii) and (iii): at k' <= 0 the cycle _routed through H, else
    (a) one outside (s,t)-path with >= target vertices, else (b) the first
    outside segment system of the probes (r, p, s, t), all answered by one
    search over (g, H, A); either is spliced into the cycle _routed through
    H. Without either, the answer is _downgrade(no, may_claim_no, why) if
    no search passed the state budget, else unknown with the budget reason. A
    construction that fails answers unknown, keeping the search's stats."""
    stats: dict = {}
    tripped = None
    try:
        if k_prime <= 0:
            system = segments.SegmentSystem((), H)  # the routed cycle is the splice
        else:
            stats.update(st_probes=0, segment_probes=0, k_prime=k_prime)
            try:
                path = _outside_path(g, H, target, stats)
            except StateBudgetExceeded as exc:
                path, tripped = None, exc  # a segment system may still be found
            system = None if path is None else segments.SegmentSystem((path,), H)
        if system is None:
            search = segments.SegmentSearch(g, H, A, pmax)
            for r, p, s, t in probes:
                stats["segment_probes"] += 1
                system = segments.find_segments_partitioned(search, r, p, s, t)
                if system is not None:
                    break
            else:
                if tripped:
                    raise tripped
                return _downgrade(SolveResult("no", stats=stats, **base),
                                  may_claim_no, why)
        out = _splice_segments(_routed(g, H, A, system.endpoint_pairs(), core), system)
        cert = certify(g, CycleCertificate(tuple(out), base["threshold_len"]))
    except StateBudgetExceeded:
        stats["reason"] = f"search state budget exceeded: {longpaths.DET_STATE_BUDGET} states"
        return SolveResult("unknown", stats=stats, **base)
    except ConstructionFailure as exc:
        stats["reason"] = f"construction failed: {exc}"
        return SolveResult("unknown", stats=stats, **base)
    return SolveResult("yes", certificate=cert, stats=stats, **base)


def case_small_dense(g: Graph, H, mad: Fraction, k: int, core=None) -> SolveResult:
    """Case (ii): route through a small dense core H, at threshold
    ceil(mad)+k and k' = ceil(mad)+k-|H|.

    k' <= 0: a Hamiltonian cycle of H. Otherwise (a) one outside (s,t)-path
    with >= k'+2 vertices, or (b) a system of at most k' outside segments
    carrying between k' and 2k'-2 internal vertices; either splices into a
    Hamiltonian cycle of H through the forced pairs. An exhausted search
    answers no only in the range k <= mad/88 - 1. That no trusts the caller:
    H must be the small dense witness of a graph whose mad is `mad`.
    """
    H = frozenset(H)
    threshold = math.ceil(mad) + k
    k_prime = threshold - len(H)
    base = dict(k=k, mad=mad, threshold_len=threshold, branch="case_ii")
    probes = (
        (r, p, 0, r)
        for r in range(1, k_prime + 1)
        for p in range(max(k_prime, r), 2 * k_prime - 1)
    )
    return _case_analysis(g, H, frozenset(), k_prime, k_prime + 2, 2 * k_prime - 2,
                          probes, base, _in_range(mad, k), _OUT_OF_RANGE, core)


def case_bipartite_dense(g: Graph, H, A, mad: Fraction, k: int, core=None) -> SolveResult:
    """Case (iii): route through a bipartite-dense core H covering its side
    A, with B = H - A, at threshold ceil(mad)+k and k' = ceil(mad)+k-2|A|.
    A side outside H, a B with an edge, or no A-B edge raises
    PreconditionError before any probe.

    k' <= 0: a cycle of H covering A. |A| < 3k'/2: unknown. Otherwise (a)
    one outside path with >= k'+3 vertices, or (b) a partitioned segment
    system (s A-segments with >= 2 internals each, t B-segments, r <= k',
    internals in [k'+s-t, 3k'-2]); splice into the A-covering routed cycle.
    An exhausted search answers no only in the range k <= mad/88 - 1 and
    with 2|A| >= mad - 8k. That no trusts the caller: (H, A) must be the
    bipartite-dense witness of a graph whose mad is `mad`.
    """
    H, A = frozenset(H), frozenset(A)
    if not A <= H:
        raise PreconditionError("A must be a subset of H")
    b_mask = mask_of(H - A)
    if any(g.masks[v] & b_mask for v in H - A):
        raise PreconditionError("B = H - A must be independent")
    if not any(g.masks[v] & b_mask for v in A):
        raise PreconditionError("H needs an A-B edge")
    threshold = math.ceil(mad) + k
    k_prime = threshold - 2 * len(A)
    base = dict(k=k, mad=mad, threshold_len=threshold, branch="case_iii")
    if 2 * len(A) < 3 * k_prime:
        return _unknown(f"case (iii) needs |A| >= 3k'/2, has |A|={len(A)}, k'={k_prime}",
                        **base)
    why = _OUT_OF_RANGE if not _in_range(mad, k) else (
        f"case (iii) search exhausted; no-guarantee with |A|={len(A)} < mad/2 - 4k"
    )
    probes = (
        (r, p, s, t)
        for r in range(1, k_prime + 1)
        for s in range(r + 1)
        for t in range(r - s + 1)
        for p in range(max(k_prime + s - t, r), 3 * k_prime - 1)
    )
    return _case_analysis(g, H, A, k_prime, k_prime + 3, 3 * k_prime - 2, probes, base,
                          _in_range(mad, k) and 2 * len(A) >= mad - 8 * k, why, core)


def solve(
    g: Graph,
    k: int,
    mode: str = "cycle",
    strict: bool = True,
    with_trace: bool = False,
) -> SolveResult:
    """Decide a cycle of length >= mad(G)+k (or a path with >= mad(G)+k
    vertices in path mode). See the module docstring for the dispatch.

    Every k runs the one pipeline; out of range each case turns no into
    unknown. `strict` is accepted and ignored, for callers that still pass
    it. The exact searches are bounded by longpaths.DET_STATE_BUDGET states
    each; past it a case analysis answers unknown, with the reason.
    """
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    if mode == "path":
        return _solve_path(g, k, with_trace)
    if mode != "cycle":
        raise PreconditionError(f"unknown mode {mode!r}")
    if not is_biconnected(g):
        raise PreconditionError("cycle mode needs a 2-connected graph")

    mad = mad_with_witness(g).mad
    if k == 0:
        # decided constructively with a strictly-longer-than-mad cycle, so the
        # integer threshold is floor(mad)+1
        base = dict(k=k, mad=mad, threshold_len=mad.numerator // mad.denominator + 1)
        cert, tr = _k0_cycle(g)
        trace = tr.to_jsonable() if with_trace else None
        return SolveResult("yes", certificate=cert, branch="k0", trace=trace, **base)
    threshold = math.ceil(mad) + k
    base = dict(k=k, mad=mad, threshold_len=threshold)

    if not _in_range(mad, k) and (g.n <= FALLBACK_N_CAP or threshold > g.n):
        # out of range, the exact fallback decides; its mad, k and threshold
        # ceil(mad + k) are solve's
        return exact_longest_cycle_fallback(g, mad + k)
    # in range, or out of range past the fallback cap: the dense pipeline;
    # yes stays certified, and each case function decides whether no may stand

    try:
        witness, reduction = find_dense(g, k)
    except EngineIncomplete as exc:
        return _unknown(f"engine incomplete: {exc}", branch="find_dense", **base)
    except ConstructionFailure as exc:
        return _unknown(f"construction failed: {exc}", branch="find_dense", **base)
    trace = reduction.to_jsonable() if with_trace else None
    core = (reduction.core, reduction.core_ids)

    if isinstance(witness, FoundCycle):
        cert = witness.cycle
        if len(cert) >= threshold:
            cert = certify(g, CycleCertificate(cert.vertices, threshold))
            return SolveResult(
                "yes", certificate=cert, branch="find_dense", trace=trace, **base
            )
        return _unknown("dense-pipeline cycle below threshold", branch="find_dense",
                        trace=trace, **base)

    if isinstance(witness, SmallDense):
        res = case_small_dense(g, witness.vertices, mad, k, core=core)
    else:
        res = case_bipartite_dense(g, witness.vertices, witness.A, mad, k, core=core)
    res.trace = trace
    return res


def _solve_path(g, k, with_trace) -> SolveResult:
    """Path mode: universal-vertex reduction with an adjusted k."""
    if not is_connected(g):
        raise PreconditionError("path mode needs a connected graph")
    if g.n < 2:
        raise PreconditionError("path mode needs at least two vertices")
    mad = mad_with_witness(g).mad
    want_vertices = math.ceil(mad) + k  # path with this many vertices
    base = dict(k=k, mad=mad, threshold_len=want_vertices)

    u = g.n
    gp = build_graph(
        list(g.edges()) + [(v, u) for v in range(g.n)], g.n + 1
    )
    mad_p = mad_with_witness(gp).mad
    k_plus = want_vertices + 1 - math.ceil(mad_p)

    if k_plus <= 0:
        cycle_cert, tr = _k0_cycle(gp)
        trace = tr.to_jsonable() if with_trace else None
        res = SolveResult("yes", branch="path_k0", trace=trace, **base)
    else:
        inner = solve(gp, k_plus, mode="cycle", with_trace=with_trace)
        res = SolveResult(
            inner.answer, branch=f"path[{inner.branch}]",
            stats=inner.stats, trace=inner.trace, **base,
        )
        cycle_cert = inner.certificate
    if res.answer == "yes":
        # the cycle is certified at want_vertices + 1 or more: path_k0 at
        # floor(mad_p)+1 >= ceil(mad_p) >= want_vertices + 1, every inner yes
        # at its threshold ceil(mad_p) + k_plus = want_vertices + 1
        seq = list(cycle_cert.vertices)
        if u in seq:
            # drop the universal vertex; the rest is a path of G
            i = seq.index(u)
            seq = seq[i + 1 :] + seq[:i]
        # a cycle avoiding u is already a path of G when read linearly; either
        # way the path keeps want_vertices or more, one fewer than the cycle
        res.path_certificate = certify(g, PathCertificate(tuple(seq)))
    return res
