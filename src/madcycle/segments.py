"""Systems of T-segments by color coding under the identity coloring.

Two-stage DP: stage one tabulates single segments between anchor pairs,
keyed by their vertex sets; stage two peels one segment per level,
distinguishing a shared next endpoint (the one vertex two segments may
share) from a fresh one. Level r depends only on level r-1, so levels are
built lazily: a query grows level r one state of level r-1 at a time,
pulling level r-1 forward only when level r has used up its states, and
stops at the first state inserted with its counts (p, s, t) or when the
level is complete. States are inserted in the order a full build of each
level would insert them, so a query returns the state that build's first
match would be. A level-r state sums r segments, so a probe whose counts
fall outside r times their span over the single segments answers None
without building any level.

Under the identity coloring a colorful segment is a simple one and a color
set is a vertex set, so the DP is exact. A `SegmentSearch` is that DP for
one (g, T, A), sized for the whole probe range of a case analysis and built
on its first probe; every probe of that case is answered from it. A state
with p <= P is derived only from states with p <= P, in the same order and
from the same predecessor, so a larger range changes no answer and no
reconstruction. A probe answers a system or None, which proves absence;
past the state budget it raises StateBudgetExceeded, and so does every
later probe of that search. Nothing is cached beyond the search object.
`find_segments_partitioned(search, r, p, s, t)` is the one probe, asked
of a search, and `find_segments` is the probe (r, p, 0, r) of a search made
for it alone, with A empty. Every system a probe returns has passed
`validate_segment_system`, an independent check that returns a
`graph.VerifyOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import longpaths
from .errors import ConstructionFailure, PreconditionError, StateBudgetExceeded
from .graph import (
    Graph,
    PathCertificate,
    VerifyOutcome,
    is_potentially_cyclable,
    lowest_off,
    mask_of,
    verify_path_certificate,
)


@dataclass(frozen=True)
class SegmentSystem:
    paths: tuple[PathCertificate, ...]
    T: frozenset[int]

    @property
    def r(self) -> int:
        return len(self.paths)

    @property
    def p(self) -> int:
        return sum(len(path) - 2 for path in self.paths)

    def endpoint_pairs(self) -> list[tuple[int, int]]:
        return [
            (min(p.vertices[0], p.vertices[-1]), max(p.vertices[0], p.vertices[-1]))
            for p in self.paths
        ]


def validate_segment_system(
    g: Graph, system: SegmentSystem, A, r: int, p: int, s: int, t: int
) -> VerifyOutcome:
    """Independent invariant check for a system of T-segments, T = system.T:
    exactly r internally disjoint segments with p internal vertices in all,
    s A-segments, each with >= 2 internal vertices, and t B-segments (both
    ends outside A), whose endpoint pairs form a linear forest."""
    T = system.T
    internals_seen: set[int] = set()
    all_vertices: set[int] = set()
    for path in system.paths:
        if not verify_path_certificate(g, path):
            return VerifyOutcome(False, "not a path of the host graph")
        if len(path) < 3:
            return VerifyOutcome(False, "segment shorter than two edges")
        a, b = path.endpoints
        if a not in T or b not in T:
            return VerifyOutcome(False, "endpoint outside T")
        inner = set(path.internal)
        if inner & T:
            return VerifyOutcome(False, "internal vertex inside T")
        if inner & all_vertices or internals_seen & set(path.vertices):
            return VerifyOutcome(False, "paths are not internally disjoint")
        internals_seen |= inner
        all_vertices |= set(path.vertices)
    pairs = system.endpoint_pairs()
    if len(set(pairs)) != len(pairs):
        return VerifyOutcome(False, "duplicate endpoint pair")
    if not is_potentially_cyclable(pairs):
        return VerifyOutcome(False, "endpoint pairs do not form a linear forest")
    if system.r != r:
        return VerifyOutcome(False, f"expected {r} paths, got {system.r}")
    if system.p != p:
        return VerifyOutcome(False, f"expected {p} internal vertices, got {system.p}")
    A = frozenset(A)
    ends = [(path.vertices[0] in A, path.vertices[-1] in A) for path in system.paths]
    got = (ends.count((True, True)), ends.count((False, False)))
    if got != (s, t):
        return VerifyOutcome(False, f"expected (s,t)={(s, t)}, got {got}")
    for path, (a_in, b_in) in zip(system.paths, ends):
        if a_in and b_in and len(path) - 2 < 2:
            return VerifyOutcome(False, "A-segment with fewer than two internal vertices")
    return VerifyOutcome(True)


class _Level:
    """One DP level as built so far: its states in insertion order, each
    with its predecessor; the first state inserted per count (p, s, t); and
    how many states of the level below have been expanded into it."""

    __slots__ = ("states", "order", "firsts", "cursor")

    def __init__(self):
        self.states: dict[tuple, tuple] = {}
        self.order: list[tuple] = []
        self.firsts: dict[tuple[int, int, int], tuple] = {}
        self.cursor = 0


class SegmentSearch:
    """The two-stage DP under the identity coloring for one (g, T, A),
    shared by every probe of one case analysis. T and A are checked once,
    here; a probe (`find_segments_partitioned`) reads them off the search.

    Stage one is built on the first query, under the
    longpaths.DET_STATE_BUDGET of that moment. Levels are built lazily, as
    far as a probe needs: level r grows one state of level r-1 at a time,
    and level r-1 is pulled forward only when level r has expanded every
    state it has so far. States exceeding pmax internals are never created,
    and a level-r state has at least r, so pmax alone bounds the levels. A
    state past the budget raises StateBudgetExceeded and may leave a level
    half expanded, so every later query raises it too.
    """

    def __init__(self, g: Graph, T, A, pmax: int):
        self.g = g
        self.T = frozenset(T)
        self.A = frozenset(A)
        if any(v < 0 or v >= g.n for v in self.T):
            raise PreconditionError("T contains out-of-range vertices")
        if not self.A <= self.T:
            raise PreconditionError("A must be a subset of T")
        self.pmax = pmax
        self._levels: list[_Level] | None = None  # None until the first query

    def _tick(self):
        self._states += 1
        if self._states > self._budget:
            raise StateBudgetExceeded()

    def _build(self):
        """Stage one and the empty level 0, under the state budget of now."""
        self._budget = longpaths.DET_STATE_BUDGET
        self._states = 0
        self._alpha_walk: dict[int, dict[int, int]] = {}
        # per x in sorted T with a gated alpha entry: (x, bit of x,
        # entries (y, ykey, internals, A-segment 0/1, B-segment 0/1))
        self._rows: list[tuple[int, int, list[tuple[int, int, int, int, int]]]] = []
        self._build_alpha()
        # level 0 is the empty system: no endpoint, nothing counted
        empty = _Level()
        empty.order.append(None)
        self._levels = [empty]
        self._built = 0  # levels 0.._built are complete
        # a level-r state sums r gated entries, so each of its counts
        # (p, s, t) lies in r times that count's span over the entries;
        # with no gated entry every span is empty
        counts = list(zip(*(e[2:] for _, _, gated in self._rows for e in gated)))
        self._span = (
            (*map(min, counts), *map(max, counts)) if counts else (1, 1, 1, 0, 0, 0)
        )

    # stage one: single segments
    def _build_alpha(self):
        g, T, A = self.g, self.T, self.A
        t_mask = mask_of(T)
        out_mask = ((1 << g.n) - 1) & ~t_mask
        max_pop = self.pmax + 1  # x plus at most pmax internals
        for x in sorted(T):
            reach: dict[int, int] = {1 << x: 1 << x}
            queue = [1 << x]
            entries: set[tuple[int, int]] = set()
            qi = 0
            while qi < len(queue):
                ckey = queue[qi]
                qi += 1
                ends = reach[ckey]
                # the BFS dequeues sets by size, so the ends of ckey are
                # final here; each end other than x (every set but {x} has
                # one) closes a segment at each of its neighbours y in T,
                # as ckey holds x and vertices outside T
                e = ends & ~(1 << x)
                while e:
                    v = (e & -e).bit_length() - 1
                    e &= e - 1
                    ys = g.masks[v] & t_mask & ~(1 << x)
                    while ys:
                        y = (ys & -ys).bit_length() - 1
                        ys &= ys - 1
                        entries.add((y, ckey | (1 << y)))
                        self._tick()
                if ckey.bit_count() >= max_pop:
                    continue
                e = ends
                while e:
                    v = (e & -e).bit_length() - 1
                    e &= e - 1
                    w = g.masks[v] & out_mask & ~ckey
                    while w:
                        u = (w & -w).bit_length() - 1
                        w &= w - 1
                        nkey = ckey | (1 << u)
                        if nkey not in reach:
                            reach[nkey] = 0
                            queue.append(nkey)
                            self._tick()
                        reach[nkey] |= 1 << u
            self._alpha_walk[x] = reach
            # alpha*: reject one-internal A-segments; every entry holds x, at
            # least one internal vertex and y, and the BFS never grows a set
            # past pmax + 1 vertices, so 1 <= dp <= pmax already
            x_in_a = x in A
            gated = []
            for y, ykey in sorted(entries):
                dp = ykey.bit_count() - 2
                da = 1 if (x_in_a and y in A) else 0
                db = 1 if (not x_in_a and y not in A) else 0
                if dp == 1 and da:
                    continue
                gated.append((y, ykey, dp, da, db))
            if gated:
                self._rows.append((x, 1 << x, gated))

    # stage two: peel segments level by level
    def _expand(self, level: _Level, pkey):
        """Insert into level every extension of pkey, a state of the level
        below, by one gated segment."""
        pmax = self.pmax
        cur, order, firsts = level.states, level.order, level.firsts
        if pkey is None:
            w, p0, s0, t0, x0, w_bit = -1, 0, 0, 0, 0, 0
        else:
            w, p0, s0, t0, x0 = pkey
            w_bit = 1 << w
        for x, x_bit, gated in self._rows:
            if x0 & x_bit:
                continue
            for y, ykey, dp, da, db in gated:
                overlap = ykey & x0
                if y == w:
                    # a shared endpoint: only it may repeat
                    if overlap != w_bit:
                        continue
                elif overlap or x == w:
                    continue
                p = p0 + dp
                if p > pmax:
                    continue
                key = (x, p, s0 + da, t0 + db, x0 | ykey)
                if key not in cur:
                    cur[key] = (pkey, x, y, ykey)
                    order.append(key)
                    firsts.setdefault(key[1:4], key)
                    self._tick()

    def _advance(self, r: int) -> bool:
        """Expand the next state of level r-1 into level r, pulling the
        levels below forward only as far as that needs; False once level r
        is complete."""
        if r <= self._built:
            return False
        levels = self._levels
        j = r
        while True:
            level, below = levels[j], levels[j - 1]
            if level.cursor < len(below.order):
                pkey = below.order[level.cursor]
                level.cursor += 1
                self._expand(level, pkey)
                if j == r:
                    return True
                j += 1
            elif j - 1 <= self._built:
                self._built = j  # level j has expanded all of a complete level
                if j == r:
                    return False
                j += 1
            else:
                j -= 1

    def query(self, r: int, p: int, s: int, t: int):
        """One accepting state for exact counts (r, p, s, t), or None: the
        first state level r inserts with those counts, built only as far as
        it takes to find it or to complete level r."""
        if r < 1:
            return None
        if self._levels is None:
            self._build()
        elif self._states > self._budget:
            raise StateBudgetExceeded()  # a level may be half expanded
        p_lo, s_lo, t_lo, p_hi, s_hi, t_hi = self._span
        if not (r * p_lo <= p <= r * p_hi and r * s_lo <= s <= r * s_hi
                and r * t_lo <= t <= r * t_hi):
            return None
        levels = self._levels
        while len(levels) <= r:
            levels.append(_Level())
        firsts = levels[r].firsts
        counts = (p, s, t)
        key = firsts.get(counts)
        while key is None:
            if not self._advance(r):
                return None
            key = firsts.get(counts)
        return (r, key)

    def reconstruct(self, r: int, key: tuple) -> list[list[int]]:
        paths = []
        level = r
        while key is not None:
            pred, x, y, ykey = self._levels[level].states[key]
            paths.append(self._walk_segment(x, y, ykey))
            key = pred
            level -= 1
        paths.reverse()
        return paths

    def _walk_segment(self, x: int, y: int, ykey: int) -> list[int]:
        """Recover a concrete segment x..y with vertex set ykey: from y, step
        to the lowest end of the alpha entry left that is adjacent to the
        current vertex. Every entry but {x} has its ends outside T, so the
        walk reaches x exactly when the entry left is {x}."""
        reach, masks = self._alpha_walk[x], self.g.masks
        ckey = ykey & ~(1 << y)
        seq, cur = [y], y
        while cur != x:
            cur = lowest_off(reach.get(ckey, 0) & masks[cur], ())
            if cur is None:
                raise ConstructionFailure("segment DP: alpha walk broke")
            seq.append(cur)
            ckey &= ~(1 << cur)
        seq.reverse()
        return seq


def find_segments(
    g: Graph,
    T,
    r: int,
    p: int,
) -> SegmentSystem | None:
    """A system of exactly r T-segments with exactly p internal vertices,
    or None when there is none; past the state budget, StateBudgetExceeded.

    This is the partitioned probe (r, p, 0, r) of a search made for it
    alone, with A empty, so every segment counts as a B-segment.
    """
    return find_segments_partitioned(SegmentSearch(g, T, (), p), r, p, 0, r)


def find_segments_partitioned(
    search: SegmentSearch,
    r: int,
    p: int,
    s: int,
    t: int,
) -> SegmentSystem | None:
    """The search's system of exactly r T-segments with exactly p internal
    vertices, s of them A-segments (both ends in A, >= 2 internal vertices
    each) and t B-segments (both ends in B = T - A): the first state level r
    inserts with counts (p, s, t), validated, or None, which proves absence.

    Past the state budget the probe raises StateBudgetExceeded. A probe
    with p > pmax raises PreconditionError: states past pmax are never
    created, so a None there would prove nothing. r > p answers None: each
    segment has an internal vertex.
    """
    if r < 1 or p < 1:
        raise PreconditionError("need r >= 1 and p >= 1")
    if s + t > r:
        raise PreconditionError("s + t must not exceed r")
    if s < 0 or t < 0:
        raise PreconditionError("s and t must be nonnegative")
    if p > search.pmax:
        raise PreconditionError(
            f"probe (r={r}, p={p}) outside the search's range "
            f"(r >= 1, p <= {search.pmax})"
        )
    hit = None if r > p else search.query(r, p, s, t)
    if hit is None:
        return None
    paths = tuple(PathCertificate(tuple(seq)) for seq in search.reconstruct(*hit))
    system = SegmentSystem(paths, search.T)
    check = validate_segment_system(search.g, system, search.A, r, p, s, t)
    if not check:
        raise ConstructionFailure(f"segment DP produced an invalid system: {check.reason}")
    return system
