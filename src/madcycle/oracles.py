"""Exponential-time ground-truth oracles for small instances.

Deliberately naive reference semantics; none of this code is shared with the
fast paths it validates. Hard caps fail loudly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded, PreconditionError
from .graph import CycleCertificate, Graph

LONGEST_CYCLE_CAP = 18
LONGEST_ST_PATH_CAP = 18
MAD_CAP = 14
SEGMENTS_N_CAP = 10
SEGMENTS_P_CAP = 5


def oracle_longest_cycle(
    g: Graph, cap: int = LONGEST_CYCLE_CAP
) -> tuple[int, CycleCertificate | None]:
    """Exact circumference and one witness cycle; (0, None) for acyclic graphs.

    Subset DP over (visited set, endpoint), rooted at each cycle's minimum
    vertex. The `cap` override exists for suites that deliberately raise it.
    """
    if g.n > cap:
        raise CapExceeded(f"longest-cycle oracle capped at n <= {cap}, got {g.n}")
    best_len = 0
    best_state = None  # (root, mask, endpoint)
    parents: dict[tuple[int, int, int], tuple[int, int] | None] = {}
    for root in range(g.n):
        # states restricted to vertices > root plus root itself, so each cycle
        # is found exactly once, rooted at its minimum vertex
        start_mask = 1 << root
        parents[(root, start_mask, root)] = None
        reach: dict[int, int] = {start_mask: 1 << root}
        queue = [start_mask]
        qi = 0
        while qi < len(queue):
            mask = queue[qi]
            qi += 1
            ends = reach[mask]
            e = ends
            while e:
                v = (e & -e).bit_length() - 1
                e &= e - 1
                # close the cycle
                if mask.bit_count() >= 3 and g.has_edge(v, root):
                    if mask.bit_count() > best_len:
                        best_len = mask.bit_count()
                        best_state = (root, mask, v)
                cand = g.masks[v] & ~mask
                c = cand
                while c:
                    w = (c & -c).bit_length() - 1
                    c &= c - 1
                    if w <= root:
                        continue
                    nmask = mask | (1 << w)
                    if nmask not in reach:
                        reach[nmask] = 0
                        queue.append(nmask)
                    if not reach[nmask] >> w & 1:
                        reach[nmask] |= 1 << w
                        parents[(root, nmask, w)] = (mask, v)
    if best_state is None:
        return 0, None
    root, mask, v = best_state
    seq = [v]
    key = (root, mask, v)
    while parents[key] is not None:
        pmask, pv = parents[key]
        seq.append(pv)
        key = (root, pmask, pv)
    seq.reverse()
    return best_len, CycleCertificate(tuple(seq), best_len)


def oracle_longest_st_path(
    g: Graph, s: int, t: int, cap: int = LONGEST_ST_PATH_CAP
) -> int:
    """Maximum vertex count of a simple (s,t)-path; 0 if none exists."""
    if g.n > cap:
        raise CapExceeded(f"longest-st-path oracle capped at n <= {cap}, got {g.n}")
    if s == t:
        raise PreconditionError("s and t must differ")
    start = 1 << s
    reach: dict[int, int] = {start: 1 << s}
    queue = [start]
    qi = 0
    best = 0
    while qi < len(queue):
        mask = queue[qi]
        qi += 1
        ends = reach[mask]
        if ends >> t & 1 and mask.bit_count() > best:
            best = mask.bit_count()
        e = ends
        while e:
            v = (e & -e).bit_length() - 1
            e &= e - 1
            if v == t:
                continue
            cand = g.masks[v] & ~mask
            c = cand
            while c:
                w = (c & -c).bit_length() - 1
                c &= c - 1
                nmask = mask | (1 << w)
                if nmask not in reach:
                    reach[nmask] = 0
                    queue.append(nmask)
                reach[nmask] |= 1 << w
    return best


def oracle_mad(g: Graph, cap: int = MAD_CAP) -> Fraction:
    """Max over nonempty S of 2|E(G[S])|/|S|, by enumerating all subsets."""
    if g.n > cap:
        raise CapExceeded(f"mad oracle capped at n <= {cap}, got {g.n}")
    if g.n == 0:
        raise PreconditionError("empty graph")
    edge_count = [0] * (1 << g.n)
    best = Fraction(0)
    for mask in range(1, 1 << g.n):
        v = mask.bit_length() - 1
        rest = mask & ~(1 << v)
        edge_count[mask] = edge_count[rest] + (g.masks[v] & rest).bit_count()
        val = Fraction(2 * edge_count[mask], mask.bit_count())
        if val > best:
            best = val
    return best


def _segment_paths(g: Graph, T: frozenset[int], max_internal: int):
    """All T-segments with <= max_internal internal vertices, as vertex tuples.

    Each undirected segment appears once, oriented with the smaller endpoint
    first (ties by internal sequence).
    """
    segs = []

    def extend(path: list[int], used: set[int]):
        last = path[-1]
        for w in g.adj[last]:
            if w in T:
                if len(path) >= 2 and w != path[0]:
                    segs.append(tuple(path + [w]))
            elif w not in used and len(path) - 1 < max_internal:
                used.add(w)
                path.append(w)
                extend(path, used)
                path.pop()
                used.remove(w)

    for x in sorted(T):
        extend([x], set())
    dedup = set()
    for s in segs:
        if s[0] > s[-1] or (s[0] == s[-1]):
            s = tuple(reversed(s))
        dedup.add(s)
    return sorted(dedup)


def segment_signatures(g: Graph, T, A, max_p: int) -> frozenset[tuple[int, int, int, int]]:
    """Signatures (r, p, s, t) of all systems of T-segments with p <= max_p.

    s counts the chosen segments with both ends in A (A-segments, which need
    >= 2 internal vertices), t those with neither; with A empty the plain
    systems are the (r, p, 0, r). A caller probing many counts of one
    (g, T, A) builds this table once; `oracle_segments` holds the caps.
    """
    A = frozenset(A)
    # A-segments need >= 2 internal vertices: filter before recombining
    segs = [seg for seg in _segment_paths(g, frozenset(T), max_p)
            if not (seg[0] in A and seg[-1] in A and len(seg) < 4)]
    sigs: set[tuple[int, int, int, int]] = set()

    def rec(idx, chosen, internals, total_p):
        if chosen:
            ends = [(segs[i][0], segs[i][-1]) for i in chosen]
            if _forest_ok([(min(a, b), max(a, b)) for a, b in ends]):
                s_cnt = sum(1 for a, b in ends if a in A and b in A)
                t_cnt = sum(1 for a, b in ends if a not in A and b not in A)
                sigs.add((len(chosen), total_p, s_cnt, t_cnt))
        for i in range(idx, len(segs)):
            seg = segs[i]
            inner = set(seg[1:-1])
            if total_p + len(inner) > max_p:
                continue
            # ends lie in T and internals outside it, so only internals collide
            if inner & internals:
                continue
            chosen.append(i)
            rec(i + 1, chosen, internals | inner, total_p + len(inner))
            chosen.pop()

    rec(0, [], set(), 0)
    return frozenset(sigs)


def oracle_segments(
    g: Graph,
    T,
    r: int,
    p: int,
    partition: tuple | None = None,
    s: int | None = None,
    t: int | None = None,
    n_cap: int = SEGMENTS_N_CAP,
    p_cap: int = SEGMENTS_P_CAP,
) -> bool:
    """Exhaustively decide existence of a system of T-segments.

    Plain form checks (r paths, p internals). With `partition=(A, B)` it also
    requires s A-segments, t B-segments, and >= 2 internals on every A-segment.
    """
    if r < 1 or p < 1:
        raise PreconditionError("need r >= 1 and p >= 1")
    if g.n > n_cap:
        raise CapExceeded(f"segments oracle capped at n <= {n_cap}, got {g.n}")
    if p > p_cap:
        raise CapExceeded(f"segments oracle capped at p <= {p_cap}, got {p}")
    if partition is None:
        return (r, p, 0, r) in segment_signatures(g, T, (), p)
    A, B = partition
    A, B = frozenset(A), frozenset(B)
    if A | B != frozenset(T) or A & B:
        raise PreconditionError("partition must split T")
    if s is None or t is None:
        raise PreconditionError("partitioned oracle needs s and t")
    if s + t > r:
        raise PreconditionError("s + t must not exceed r")
    if s < 0 or t < 0:
        raise PreconditionError("s and t must be nonnegative")
    return (r, p, s, t) in segment_signatures(g, T, A, p)


def _forest_ok(pairs) -> bool:
    """True iff the (min, max) pairs are distinct and form a linear forest.

    A union-find of its own: the oracle stays independent of
    graph.is_potentially_cyclable, which the code under test uses.
    """
    seen = set()
    deg: dict[int, int] = {}
    parent: dict[int, int] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        if (u, v) in seen:
            return False
        seen.add((u, v))
        for x in (u, v):
            parent.setdefault(x, x)
            deg[x] = deg.get(x, 0) + 1
            if deg[x] > 2:
                return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def all_subsets_density(g: Graph):
    """(density, subset) pairs for every nonempty subset; test helper scale only."""
    if g.n > MAD_CAP:
        raise CapExceeded("subset density enumeration capped")
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            mask = 0
            for v in sub:
                mask |= 1 << v
            edges = 0
            for v in sub:
                edges += (g.masks[v] & mask).bit_count()
            edges //= 2
            yield Fraction(edges, size), frozenset(sub)
