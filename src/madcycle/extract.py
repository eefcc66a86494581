"""From (G, k) to a long cycle, a small dense core, or a bipartite-dense core.

Pipeline: densest induced subgraph, exhaustive reduction, then on the
reduced core either a two-separator glue cycle or iterated calls to the
cycle/cover engine from a Dirac cycle. The engine honors the contract
longer-cycle / vertex cover of size <= delta+2k / Hamiltonian, offering one
greedy cover, and raises EngineIncomplete when it reaches none of them; so
does the refinement of the cover into a bipartite-dense pair. Every outcome
is verified, so EngineIncomplete signals incompleteness, never incorrectness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import cyclesearch, longpaths
from .density import mad_with_witness
from .errors import ConstructionFailure, EngineIncomplete, PreconditionError
from .graph import (
    CycleCertificate,
    Graph,
    avg_degree,
    bits_off,
    certify,
    induced_subgraph,
    lowest_off,
    mask_of,
    subset_components,
    two_separators,
    verify_cycle_certificate,
)
from .reduction import ReductionTrace, reduce_exhaustive


# ---------------------------------------------------------------------------
# witness types


@dataclass(frozen=True)
class FoundCycle:
    cycle: CycleCertificate


@dataclass(frozen=True)
class SmallDense:
    vertices: frozenset[int]


@dataclass(frozen=True)
class BipartiteDense:
    vertices: frozenset[int]
    A: frozenset[int]
    B: frozenset[int]


DenseWitness = FoundCycle | SmallDense | BipartiteDense


@dataclass(frozen=True)
class LongerCycle:
    cycle: CycleCertificate


@dataclass(frozen=True)
class VertexCover:
    vertices: frozenset[int]


@dataclass(frozen=True)
class Hamiltonian:
    pass


EngineOutcome = LongerCycle | VertexCover | Hamiltonian


# ---------------------------------------------------------------------------
# the cycle / cover engine


def corollary5_engine(h: Graph, k: int, C: CycleCertificate) -> EngineOutcome:
    """Longer cycle, small vertex cover, or a Hamiltonicity report.

    Cheapest first: Hamiltonicity check, a live-degree greedy vertex cover
    X, insertion/rotation enlargement (at most 200n rotation steps) only
    while |C| < 2|X|, as no cycle is longer than 2|X|, then X if it has at
    most delta + 2k vertices; with neither, it raises EngineIncomplete,
    naming |X|. Only where growth is skipped does that prove more: a cycle
    has at most 2*tau vertices (tau the least cover size), so |C| >= 2|X|
    forces |X| = tau, and then no cover of at most delta + 2k vertices
    exists once X has more. Where growth ran, a smaller cover may exist.
    The corollary's preconditions (h 3-connected, 0 < k <= delta/24,
    |C| < 2*delta + k) are not checked: each outcome is verified and holds
    without them.
    """
    chk = verify_cycle_certificate(h, C)
    if not chk:
        raise PreconditionError(f"C is not a cycle of h: {chk.reason}")
    delta = h.min_degree()

    if len(C) == h.n:
        return Hamiltonian()

    # a cycle never has two consecutive vertices outside a vertex cover X,
    # so none is longer than 2|X|: from there both searches must fail
    cover = _greedy_cover(h)
    if len(C) < 2 * len(cover):
        grown = cyclesearch.grow_cycle(h, list(C.vertices), target=len(C) + 1)
        if len(grown) > len(C):
            return LongerCycle(certify(h, CycleCertificate(tuple(grown), len(C) + 1)))

        found = cyclesearch.long_cycle_search_best(
            h, len(C) + 1, rotation_budget=200 * h.n
        )
        if found is not None and len(found) > len(C):
            return LongerCycle(certify(h, CycleCertificate(tuple(found), len(C) + 1)))

    bound = delta + 2 * k
    if len(cover) <= bound:
        return VertexCover(frozenset(cover))
    raise EngineIncomplete(
        f"no longer cycle within budget and the greedy vertex cover has "
        f"{len(cover)} > {bound} vertices"
    )


def _greedy_cover(h: Graph) -> set[int]:
    """Max-degree greedy cover over live degrees (ties to the lowest id)."""
    live = [h.degree(v) for v in h.vertices()]
    greedy: set[int] = set()
    while (top := max(live)) > 0:
        v = live.index(top)
        greedy.add(v)
        live[v] = -1
        for w in h.adj[v]:
            if w not in greedy:
                live[w] -= 1
    return greedy


# ---------------------------------------------------------------------------
# cover refinement


def refine_vertex_cover_to_partition(
    h: Graph, X, k: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Split along a vertex cover: B = V \\ X, A = cover vertices with >= 2|X|
    neighbors in B; verifies the bipartite-dense degree properties and
    returns (A, B), or raises EngineIncomplete naming the one that fails.
    Each v in A has >= 2|A| neighbors in B by construction, as |A| <= |X|;
    only B's degree into A is checked."""
    X = frozenset(X)
    B = frozenset(h.vertices()) - X
    masks = h.masks
    b_mask = mask_of(B)
    for u in bits_off(b_mask):
        # h.edges()'s first uncovered edge: the first u with a B-neighbour,
        # and its lowest one, which lies above u
        if masks[u] & b_mask:
            v = lowest_off(masks[u] & b_mask, ())
            raise PreconditionError(f"X is not a vertex cover: edge ({u},{v}) uncovered")
    ad = avg_degree(h)
    if Fraction(2 * len(X)) > ad + 3 * k + 3:
        raise _refinement_failed("cover too large: |X| > (ad+3k+3)/2")
    p = len(X)
    A = frozenset(v for v in X if (masks[v] & b_mask).bit_count() >= 2 * p)
    if not A:
        raise _refinement_failed("no cover vertex has 2|X| neighbors outside")
    a_mask = mask_of(A)
    for v in B:
        if (masks[v] & a_mask).bit_count() < len(A) - 2 * k - 2:
            raise _refinement_failed(f"vertex {v} has degree below |A|-2k-2 into A")
    return A, B


def _refinement_failed(reason: str) -> EngineIncomplete:
    return EngineIncomplete(f"cover refinement failed: {reason}")


# ---------------------------------------------------------------------------
# the trichotomy


def find_dense(g: Graph, k: int) -> tuple[DenseWitness, ReductionTrace]:
    """The trichotomy: long cycle, small dense subgraph, or bipartite-dense
    pair, with the trace of the reduction that made the core.

    One pipeline for every k >= 1; certificates are verified before being
    returned, and the EngineIncomplete of the engine or of the cover
    refinement propagates. Two bounds are left to the caller, since only a
    "no" rests on them: a FoundCycle may be shorter than mad + k (its
    certificate then claims length 3; the paper rules this out for
    k <= mad/80 - 1), and the side A of a BipartiteDense is not checked
    against 2|A| >= mad - 8k. The engine starts from a Dirac cycle of the
    core asked for the threshold, so a FoundCycle at or above the threshold
    may be shorter than the core's longest; a threshold above min(n, 2*delta)
    of the core asks for that bound instead.
    """
    if g.n < 2:
        raise PreconditionError("find_dense needs at least two vertices")
    if k < 1:
        raise PreconditionError("k must be positive")
    witness = mad_with_witness(g)
    mad = witness.mad
    threshold = math.ceil(mad) + k  # integer cycle-length target

    core, trace = reduce_exhaustive(g, witness.vertices)
    sub, ids = trace.core, trace.core_ids
    if sub.n < 3:
        raise ConstructionFailure(
            "reduced core is too small to host cycles (graph too sparse)"
        )

    # the reduction's last rule-4 round scanned this very core object, which
    # keeps its pairs; a 3-vertex core is a triangle, which rule 4 skips
    seps = two_separators(sub) if sub.n >= 4 else []
    if seps:
        cyc = _glue_cycle(sub, ids, seps[0])
        cert = CycleCertificate(tuple(cyc), threshold if len(cyc) >= threshold else 3)
        return FoundCycle(certify(g, cert)), trace

    k_prime = threshold - 2 * sub.min_degree()

    # iterate the engine from a Dirac cycle of length >= min(threshold, n,
    # 2*delta), which stops at the threshold when it can: when k' <= 0 a
    # cycle below the threshold is Hamiltonian, and the engine's first
    # check says so
    cyc = longpaths.dirac_cycle(sub, threshold)
    while len(cyc) < threshold:
        outcome = corollary5_engine(sub, k_prime, cyc)
        if isinstance(outcome, LongerCycle):
            cyc = outcome.cycle
        elif isinstance(outcome, Hamiltonian):
            _check_small_dense(sub, mad, k)
            return SmallDense(core), trace
        else:  # a VertexCover
            a, b = refine_vertex_cover_to_partition(sub, outcome.vertices, k)
            A, B = frozenset(ids[v] for v in a), frozenset(ids[v] for v in b)
            return BipartiteDense(A | B, A, B), trace
    cert = CycleCertificate(tuple(ids[v] for v in cyc.vertices), threshold)
    return FoundCycle(certify(g, cert)), trace


def _glue_cycle(sub: Graph, ids, sep: tuple[int, int]) -> list[int]:
    """Concatenate Fan paths through both sides of a 2-separator of the core."""
    x, y = sep
    comps = subset_components(sub, set(range(sub.n)) - {x, y})
    if len(comps) < 2:
        raise ConstructionFailure("separator does not split the core")
    sides = []
    for comp in comps[:2]:
        part = sorted(set(comp) | {x, y})
        side, side_ids = induced_subgraph(sub, part)
        sx, sy = side_ids.index(x), side_ids.index(y)
        if not side.has_edge(sx, sy):
            side = side.add_pairs([(sx, sy)])
        path = longpaths.fan_path(side, sx, sy)
        if len(path.vertices) < 3:
            raise ConstructionFailure("fan path degenerated to the virtual edge")
        sides.append([ids[side_ids[v]] for v in path.vertices])
    first, second = sides
    return first + second[-2:0:-1]


def _check_small_dense(sub: Graph, mad: Fraction, k: int) -> None:
    ad = avg_degree(sub)
    if ad < mad - 1:
        raise ConstructionFailure("small-dense witness: ad(H) < mad - 1")
    if Fraction(2 * sub.min_degree()) < ad:
        raise ConstructionFailure("small-dense witness: delta(H) < ad(H)/2")
    if not (Fraction(sub.n) < ad + k + 1):
        raise ConstructionFailure("small-dense witness: |V(H)| >= ad(H)+k+1")
