"""Decide whether a 2-connected graph has a cycle of length >= mad(G)+k.

Dispatch: k = 0 is answered constructively (densest core, reduction by
rules 1-3, Dirac cycle); k above the paper's range k <= mad/88 - 1 goes to
an exact fallback; otherwise the dense-subgraph trichotomy gives a core H.
Cases (ii) and (iii) run one case analysis and differ only in its data
(target, segment window, side A): one long outside path, else a system of
outside segments, spliced into a cycle routed through H.

Answers are three-valued. Yes always carries a verified certificate whose
length meets the exact rational threshold. No is claimed only where the
search was exact and the paper proves the case analysis complete, which
`_downgrade` decides in one place. Otherwise the answer is unknown, with a
reason; it never masquerades as no.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import cyclesearch, longpaths, routing, segments
from .density import mad_with_witness
from .errors import ConstructionFailure, EngineIncomplete, PreconditionError
from .extract import FoundCycle, SmallDense, find_dense
from .graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    build_graph,
    ceil_frac,
    induced_subgraph,
    is_biconnected,
    is_connected,
    require_verified,
    subset_components,
    verify_cycle_certificate,
    verify_path_certificate,
)
from .reduction import K0_RULES, ReductionTrace, reduce_exhaustive

FALLBACK_N_CAP = 24


def _certify(
    g: Graph, cert: CycleCertificate | PathCertificate
) -> CycleCertificate | PathCertificate:
    """The certificate itself once it verifies against g.

    Raises ConstructionFailure otherwise, so no unverified certificate is
    ever returned, also under python -O.
    """
    if isinstance(cert, PathCertificate):
        require_verified(verify_path_certificate(g, cert))
    else:
        require_verified(verify_cycle_certificate(g, cert))
    return cert


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
    1-3, then a Dirac cycle of the core, of length >= min(n, 2*delta) of
    the core. Both terms exceed mad; write eg = 2m/(n-1) for the core:
    - the witness has eg > 2m/n = mad, and no rule lowers eg, so the
      core's eg > mad;
    - at the rule-2 fixpoint the core is one block, with n >= 3 by the
      last point and mad >= 2, so it is 2-connected and dirac_cycle applies;
    - at the rule-3 fixpoint every degree exceeds eg/2, so 2*delta > mad;
    - n >= eg, since 2m <= n(n-1), so n > mad.
    Rule 4 (the 2-separator scan) is not needed and not run. The length is
    still checked, and a cycle not longer than mad raises
    ConstructionFailure.
    """
    return _k0_cycle(g)[0]


def _k0_cycle(g: Graph) -> tuple[CycleCertificate, ReductionTrace]:
    """k0_constructive_cycle's cycle and the trace of its one reduction."""
    witness = mad_with_witness(g)
    if witness.mad < 2:
        raise PreconditionError("no cycle exists below mad = 2")
    _, trace = reduce_exhaustive(g, witness.vertices, rules=K0_RULES)
    cyc = longpaths.dirac_cycle(trace.core)
    mapped = tuple(trace.core_ids[v] for v in cyc.vertices)
    cert = _certify(g, CycleCertificate(mapped, ceil_frac(witness.mad)))
    if not Fraction(len(mapped)) > witness.mad:
        raise ConstructionFailure("constructive cycle does not exceed mad")
    return cert, trace


def exact_longest_cycle_fallback(g: Graph, threshold: Fraction | int) -> SolveResult:
    """Exact decision 'exists a cycle of length >= threshold' for small n.

    Branch-and-bound DFS with reachability pruning; independent of the
    subset-DP oracle. Above FALLBACK_N_CAP vertices the answer is unknown.
    """
    threshold = Fraction(threshold)
    want = max(ceil_frac(threshold), 3)
    mad = mad_with_witness(g).mad if g.m else Fraction(0)
    base = dict(k=0, mad=mad, threshold_len=want, branch="fallback")
    if g.n > FALLBACK_N_CAP:
        return _unknown(f"fallback cap exceeded: n={g.n} > {FALLBACK_N_CAP}", **base)
    found = cyclesearch.find_cycle_at_least(g, want, node_budget=None)
    if found is not None:
        cert = _certify(g, CycleCertificate(tuple(found), want))
        return SolveResult("yes", certificate=cert, **base)
    return SolveResult("no", **base)


def _unknown(reason: str, **fields) -> SolveResult:
    """Unknown, with the reason nothing stronger could be claimed."""
    return SolveResult("unknown", stats={"reason": reason}, **fields)


def _splice_segments(
    g: Graph, base_cycle: CycleCertificate, system: segments.SegmentSystem
) -> list[int]:
    """Replace each pair-edge of the routed cycle by its segment.

    The assembly identity holds by construction: every segment with p_i
    internal vertices lengthens the cycle by exactly p_i.
    """
    by_pair = dict(zip(system.endpoint_pairs(), system.paths))
    cyc = list(base_cycle.vertices)
    n = len(cyc)
    out: list[int] = []
    used: set[tuple[int, int]] = set()
    for i in range(n):
        x, y = cyc[i], cyc[(i + 1) % n]
        key = (min(x, y), max(x, y))
        out.append(x)
        if key in by_pair and key not in used:
            used.add(key)
            seq = list(by_pair[key].vertices)
            if seq[0] != x:
                seq.reverse()
            out.extend(seq[1:-1])
    if used != set(by_pair):
        raise ConstructionFailure("a segment's endpoint pair was not on the cycle")
    expected = len(cyc) + system.p
    if len(out) != expected:
        raise ConstructionFailure("assembly identity violated")
    return out


def _outside_path(
    g: Graph, H: frozenset[int], target: int, seed: int, trials: int | None,
    stats: dict,
) -> tuple[PathCertificate | None, bool]:
    """An (s,t)-path with >= target vertices, s < t in H, all others outside H,
    and whether every probe run was exact.

    Pairs are tried in lexicographic order. The internal vertices of such a
    path lie in one component C of G - H that touches both s and t and has
    at least target - 2 vertices. So a pair is probed only when such a C
    exists, and only on those components plus {s, t}. The exact search is
    depth-first in ascending order and prunes only states with no such
    path, so it returns the first such path in that order, which lies in
    those components: the same path as on all of G - H plus {s, t}, and
    labels keep their order under `induced_subgraph`. stats["st_probes"]
    counts the probes run. A None proves absence only when the flag is True.
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
    exact = True
    for j, s in enumerate(anchors):
        for t in anchors[j + 1 :]:
            shared = touching[s] & touching[t]
            if not shared:
                continue
            host, ids = induced_subgraph(g, {s, t}.union(*(comps[i] for i in shared)))
            stats["st_probes"] += 1
            found, probe_exact = longpaths.st_path_at_least(
                host, ids.index(s), ids.index(t), target, seed=seed, trials=trials
            )
            exact = exact and probe_exact
            if found is not None:
                return PathCertificate(tuple(ids[v] for v in found.vertices)), exact
    return None, exact


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
    local = {(back[a], back[b]) for a, b in pairs}
    if A:
        a_local = frozenset(back[v] for v in A)
        b_local = frozenset(range(sub_h.n)) - a_local
        cyc = routing.cover_side_through_pairs(
            sub_h, a_local, b_local, local, k=max(1, len(A) // 10)
        )
    else:
        cyc = routing.hamiltonian_through_pairs(sub_h, local)
    return CycleCertificate(tuple(ids_h[v] for v in cyc.vertices), len(cyc))


def _case_analysis(
    g: Graph, H: frozenset[int], A: frozenset[int], k_prime: int, target: int,
    pmax: int, probes, seed: int, trials: int | None, base: dict, core=None,
) -> SolveResult:
    """Cases (ii) and (iii): (a) one outside (s,t)-path with >= target
    vertices, else (b) the first outside segment system of the probes
    (r, p, s, t), all answered by one search over (g, H, A); either is
    spliced into the cycle _routed through H. Without either, the answer is
    no if both searches were exact, else unknown."""
    if k_prime < 1:
        raise PreconditionError(f"{base['branch']} needs k' >= 1")
    stats = {"st_probes": 0, "segment_probes": 0, "k_prime": k_prime}
    path, path_exact = _outside_path(g, H, target, seed, trials, stats)
    if path is not None:
        system = segments.SegmentSystem((path,), H)
    else:
        search = segments.SegmentSearch(g, H, A, pmax, k_prime)
        for r, p, s, t in probes:
            stats["segment_probes"] += 1
            system = segments.find_segments_partitioned(
                g, H, A, H - A, r, p, s, t, seed=seed, trials=trials, search=search
            )
            if system is not None:
                break
        else:
            if path_exact and search.exact:
                return SolveResult("no", stats=stats, **base)
            stats["reason"] = "randomized searches exhausted without a witness"
            return SolveResult("unknown", stats=stats, **base)
    out = _splice_segments(g, _routed(g, H, A, system.endpoint_pairs(), core), system)
    cert = _certify(g, CycleCertificate(tuple(out), base["threshold_len"]))
    return SolveResult("yes", certificate=cert, stats=stats, **base)


def case_small_dense(
    g: Graph,
    H,
    k_prime: int,
    mad: Fraction,
    k: int,
    seed: int = 0,
    trials: int | None = None,
    core=None,
) -> SolveResult:
    """Case (ii): route through a small dense core H.

    (a) one outside (s,t)-path with >= k'+2 vertices, or (b) a system of at
    most k' outside segments carrying between k' and 2k'-2 internal vertices;
    either splices into a Hamiltonian cycle of H through the forced pairs.
    """
    base = dict(k=k, mad=mad, threshold_len=ceil_frac(mad) + k, branch="case_ii")
    probes = (
        (r, p, 0, r)
        for r in range(1, k_prime + 1)
        for p in range(max(k_prime, r), 2 * k_prime - 1)
    )
    return _case_analysis(g, frozenset(H), frozenset(), k_prime, k_prime + 2,
                          2 * k_prime - 2, probes, seed, trials, base, core)


def case_bipartite_dense(
    g: Graph,
    H,
    A,
    B,
    k_prime: int,
    mad: Fraction,
    k: int,
    seed: int = 0,
    trials: int | None = None,
    core=None,
) -> SolveResult:
    """Case (iii): route through a bipartite-dense core covering side A.

    (a) one outside path with >= k'+3 vertices, or (b) a partitioned segment
    system (s A-segments with >= 2 internals each, t B-segments, r <= k',
    internals in [k'+s-t, 3k'-2]); splice into the A-covering routed cycle.
    """
    H, A, B = frozenset(H), frozenset(A), frozenset(B)
    if A & B or A | B != H:
        raise PreconditionError("A and B must partition H")
    if 2 * len(A) < 3 * k_prime:
        raise PreconditionError("case_bipartite_dense needs |A| >= 3k'/2")
    base = dict(k=k, mad=mad, threshold_len=ceil_frac(mad) + k, branch="case_iii")
    probes = (
        (r, p, s, t)
        for r in range(1, k_prime + 1)
        for s in range(r + 1)
        for t in range(r - s + 1)
        for p in range(max(k_prime + s - t, r), 3 * k_prime - 1)
    )
    return _case_analysis(g, H, A, k_prime, k_prime + 3, 3 * k_prime - 2, probes,
                          seed, trials, base, core)


def solve(
    g: Graph,
    k: int,
    mode: str = "cycle",
    seed: int = 0,
    budget: int | None = None,
    strict: bool = True,
    with_trace: bool = False,
) -> SolveResult:
    """Decide a cycle of length >= mad(G)+k (or a path with >= mad(G)+k
    vertices in path mode). See the module docstring for the dispatch.

    strict and relaxed (strict=False) differ only for k > mad/88 - 1 on more
    than FALLBACK_N_CAP vertices: strict stops at the capped fallback, and
    relaxed runs the dense pipeline, where _downgrade turns no into unknown.
    budget (>= 1; None for the defaults) caps the Monte Carlo trials per
    probe and the cover engine's rotation steps.
    """
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    if budget is not None and budget < 1:
        raise PreconditionError("budget must be at least 1")
    if mode == "path":
        return _solve_path(g, k, seed, budget, strict, with_trace)
    if mode != "cycle":
        raise PreconditionError(f"unknown mode {mode!r}")
    if not is_biconnected(g):
        raise PreconditionError("cycle mode needs a 2-connected graph")

    mad = mad_with_witness(g).mad
    # k = 0 is decided constructively with a strictly-longer-than-mad cycle,
    # so its integer threshold is floor(mad)+1; for k >= 1 it is ceil(mad)+k
    if k == 0:
        threshold = mad.numerator // mad.denominator + 1
    else:
        threshold = ceil_frac(mad) + k
    base = dict(k=k, mad=mad, threshold_len=threshold)

    if k == 0:
        cert, tr = _k0_cycle(g)
        cert = _certify(g, CycleCertificate(cert.vertices, threshold))
        trace = tr.to_jsonable() if with_trace else None
        return SolveResult("yes", certificate=cert, branch="k0", trace=trace, **base)

    in_strict_range = Fraction(k) <= mad / 88 - 1
    if not in_strict_range and (strict or g.n <= FALLBACK_N_CAP):
        # the paper dispatch: out-of-range k goes to the exact fallback
        res = exact_longest_cycle_fallback(g, mad + k)
        res.k, res.mad, res.threshold_len = k, mad, threshold
        return res
    # in range, or relaxed mode past the fallback cap: one dense pipeline;
    # yes stays certified, and _downgrade decides whether no may stand

    try:
        witness, info = find_dense(g, k, budget=budget)
    except EngineIncomplete as exc:
        return _unknown(f"engine incomplete: {exc}", branch="find_dense", **base)
    except ConstructionFailure as exc:
        return _unknown(f"construction failed: {exc}", branch="find_dense", **base)
    trace = info.trace.to_jsonable() if with_trace else None
    core = (info.trace.core, info.trace.core_ids)

    if isinstance(witness, FoundCycle):
        cert = witness.cycle
        if len(cert) >= threshold:
            cert = _certify(g, CycleCertificate(cert.vertices, threshold))
            return SolveResult(
                "yes", certificate=cert, branch="find_dense", trace=trace, **base
            )
        return _unknown("relaxed-mode cycle below threshold", branch="find_dense",
                        trace=trace, **base)

    H = witness.vertices
    if isinstance(witness, SmallDense):
        A, sides, case, branch = frozenset(), (), case_small_dense, "case_ii"
        k_prime = threshold - len(H)
        may_claim_no, why = in_strict_range, _OUT_OF_RANGE
    else:
        A, sides, case = witness.A, (witness.A, witness.B), case_bipartite_dense
        branch = "case_iii"
        k_prime = threshold - 2 * len(A)
        # case (iii) is complete only in range and with 2|A| >= mad - 8k
        may_claim_no = in_strict_range and 2 * len(A) >= mad - 8 * k
        why = _OUT_OF_RANGE if not in_strict_range else (
            f"case (iii) search exhausted; no-guarantee with |A|={len(A)} < mad/2 - 4k"
        )
    if k_prime <= 0:
        cyc = _routed(g, H, A, (), core)
        cert = _certify(g, CycleCertificate(cyc.vertices, threshold))
        return SolveResult("yes", certificate=cert, branch=branch, trace=trace, **base)
    if A and 2 * len(A) < 3 * k_prime:
        # case (iii) needs |A| >= 3k'/2; without it nothing is claimed
        return _unknown(f"case (iii) needs |A| >= 3k'/2, has |A|={len(A)}, k'={k_prime}",
                        branch=branch, trace=trace, **base)
    try:
        res = case(g, H, *sides, k_prime, mad, k, seed, budget, core=core)
    except ConstructionFailure as exc:
        return _unknown(f"construction failed: {exc}", branch=branch, trace=trace, **base)
    res.trace = trace
    return _downgrade(res, may_claim_no, why)


_OUT_OF_RANGE = "relaxed-mode search exhausted; no-guarantee outside the strict k range"


def _downgrade(res: SolveResult, may_claim_no: bool, why: str) -> SolveResult:
    """The one gate on a case analysis's no: it stands only where the paper
    proves the analysis complete (may_claim_no), else it is unknown, why."""
    if res.answer == "no" and not may_claim_no:
        res.answer = "unknown"
        res.stats["reason"] = why
    return res


def _solve_path(g, k, seed, budget, strict, with_trace) -> SolveResult:
    """Path mode: universal-vertex reduction with an adjusted k."""
    if not is_connected(g):
        raise PreconditionError("path mode needs a connected graph")
    if g.n < 2:
        raise PreconditionError("path mode needs at least two vertices")
    mad = mad_with_witness(g).mad if g.m else Fraction(0)
    want_vertices = ceil_frac(mad) + k  # path with this many vertices
    base = dict(k=k, mad=mad, threshold_len=want_vertices)

    u = g.n
    gp = build_graph(
        list(g.edges()) + [(v, u) for v in range(g.n)], g.n + 1
    )
    mad_p = mad_with_witness(gp).mad
    k_plus = want_vertices + 1 - ceil_frac(mad_p)

    if k_plus <= 0:
        cyc = k0_constructive_cycle(gp)
        res = SolveResult("yes", branch="path_k0", **base)
        cycle_cert = cyc
    else:
        inner = solve(gp, k_plus, mode="cycle", seed=seed, budget=budget, strict=strict,
                      with_trace=with_trace)
        res = SolveResult(
            inner.answer, branch=f"path[{inner.branch}]",
            stats=inner.stats, trace=inner.trace, **base,
        )
        cycle_cert = inner.certificate
    if res.answer == "yes" and cycle_cert is not None:
        seq = list(cycle_cert.vertices)
        if len(seq) < want_vertices + 1:
            raise ConstructionFailure("path-mode cycle shorter than required")
        if u in seq:
            # drop the universal vertex; the rest is a path of G
            i = seq.index(u)
            seq = seq[i + 1 :] + seq[:i]
        # a cycle avoiding u is already a path of G when read linearly
        path = _certify(g, PathCertificate(tuple(seq)))
        if len(path) < want_vertices:
            raise ConstructionFailure("path-mode conversion too short")
        res.path_certificate = path
    return res
