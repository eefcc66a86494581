"""Immutable simple undirected graphs and the primitives everything else builds on.

Vertices are 0-based ints. All density quantities are exact fractions.Fraction
values; floating point never enters decision logic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionFailure, GraphInputError, PreconditionError


class Graph:
    """Simple undirected graph with sorted adjacency, compared and hashed by
    identity. Its bitmask neighbourhoods, `masks`, are built on first read
    and kept; a graph that no step reads them from never builds them."""

    __slots__ = ("n", "adj", "m", "_masks", "_blocks", "_seps")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        self.n, self.adj, self._masks = n, adj, None
        self.m = sum(len(a) for a in adj) // 2
        self._blocks = None  # the memo of _lowpoint
        self._seps = None  # the memo of two_separators

    @classmethod
    def _from_masks(cls, n: int, adj, masks: tuple[int, ...]) -> "Graph":
        """The graph of `adj`, whose neighbour masks are already built."""
        g = cls(n, adj)
        g._masks = masks
        return g

    @property
    def masks(self) -> tuple[int, ...]:
        """The neighbour bitmask of each vertex, built from `adj` on first read.

        Each read is a property call, so a hot loop binds `masks = g.masks`
        once."""
        if self._masks is None:
            self._masks = tuple(map(mask_of, self.adj))
        return self._masks

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge, by bisecting the sorted row of u."""
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def vertices(self) -> range:
        return range(self.n)

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def add_pairs(self, pairs) -> "Graph":
        """Graph plus the given vertex pairs as edges (existing edges kept).

        Only the rows of the pair ends are rebuilt."""
        masks = list(self.masks)
        for u, v in pairs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphInputError(
                    f"vertex id out of range in pair ({u},{v}), n={self.n}"
                )
            if u == v:
                raise GraphInputError(f"pair ({u},{v}) is a self-loop")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return self.with_masks(masks)

    def with_masks(self, masks) -> "Graph":
        """The graph whose neighbour masks are `masks`, which must be
        symmetric. A row whose mask is unchanged keeps its adjacency tuple;
        one that only lost neighbours is filtered from it."""
        adj = tuple(
            a if new == old
            else tuple([w for w in a if new >> w & 1]) if new & old == new
            else tuple(bits_off(new))
            for a, new, old in zip(self.adj, masks, self.masks)
        )
        return Graph._from_masks(self.n, adj, tuple(masks))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(edges, n: int) -> Graph:
    """Build a graph from an edge list; duplicates collapse, self-loops reject."""
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"vertex id out of range in edge ({u},{v}), n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        rows[u].add(v)
        rows[v].add(u)
    return Graph(n, tuple(tuple(sorted(r)) for r in rows))


# ---------------------------------------------------------------------------
# density quantities


def eg_bound(g: Graph) -> Fraction:
    """Erdos-Gallai bound 2m/(n-1); exact."""
    if g.n < 2:
        raise PreconditionError("eg_bound needs at least two vertices")
    return Fraction(2 * g.m, g.n - 1)


def avg_degree_of_set(g: Graph, xs) -> Fraction:
    """Mean of d_G(v) over v in xs, degrees taken in g."""
    xs = list(xs)
    if not xs:
        raise PreconditionError("average degree of the empty set is undefined")
    return Fraction(sum(g.degree(v) for v in xs), len(xs))


def avg_degree(g: Graph) -> Fraction:
    """ad(G) = 2m/n."""
    if g.n == 0:
        raise PreconditionError("average degree of the empty graph is undefined")
    return Fraction(2 * g.m, g.n)


def edges_within(g: Graph, vertices) -> int:
    """The number of edges of g with both ends in `vertices`, counted on
    their adjacency rows: one step per row entry, the sum of their degrees."""
    vs = set(vertices)
    return sum(w in vs for v in vs for w in g.adj[v]) // 2


# ---------------------------------------------------------------------------
# subsets, connectivity, blocks


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Relabelled induced subgraph plus the sorted original-id map.

    Labels follow ascending original ids. When the vertex set is all of g,
    g itself is returned, with the identity map. A vertex id outside
    0..n-1 raises GraphInputError.
    """
    vs = tuple(sorted(set(vertices)))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise GraphInputError(f"vertex id {bad} out of range, n={g.n}")
    if len(vs) == g.n and (not vs or (vs[0] == 0 and vs[-1] == g.n - 1)):
        return g, vs
    pos = [-1] * g.n  # new label of each kept vertex
    for i, v in enumerate(vs):
        pos[v] = i
    adj = tuple(tuple([pos[w] for w in g.adj[v] if pos[w] >= 0]) for v in vs)
    return Graph(len(vs), adj), vs


def mask_of(vertices) -> int:
    """The bitmask of a set of vertices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def lowest_off(mask: int, off) -> int | None:
    """The lowest vertex of `mask` not in `off`, or None."""
    while mask:
        v = (mask & -mask).bit_length() - 1
        if v not in off:
            return v
        mask &= mask - 1
    return None


def bits_off(mask: int, off=()) -> list[int]:
    """The vertices of `mask` not in `off`, ascending."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        if v not in off:
            out.append(v)
        mask &= mask - 1
    return out


def reach(g: Graph, start_mask: int, alive: int) -> int:
    """Mask of the vertices reachable inside `alive` from start_mask & alive."""
    masks = g.masks
    comp = start_mask & alive
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= masks[v]
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


def subset_components(g: Graph, vertices) -> list[list[int]]:
    """Connected components of g restricted to `vertices`, as sorted lists,
    in ascending order of their least vertex: each is peeled off from the
    lowest vertex still left."""
    alive = mask_of(vertices)
    comps = []
    while alive:
        comp = reach(g, alive & -alive, alive)
        comps.append(bits_off(comp))
        alive &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    """Whether g is connected, by one lowpoint DFS, which reads no masks."""
    return g.n == 0 or _cut_vertices(g) is not None


def is_biconnected(g: Graph) -> bool:
    """2-connected per the standard definition: n > 2, connected, no cut vertex."""
    return g.n > 2 and _lowpoint(g)[0] == []


def _lowpoint(g: Graph) -> tuple[list[int] | None, list[frozenset[int]]]:
    """The skip-less _cut_vertices(g, blocks=...): the cut vertices (None when
    g is disconnected) and the blocks sorted by their sorted tuples.

    It runs once per Graph: g keeps the result, which callers must not change.
    """
    if g._blocks is None:
        blocks: list[frozenset[int]] = []
        cuts = _cut_vertices(g, blocks=blocks)
        blocks.sort(key=lambda b: tuple(sorted(b)))
        g._blocks = (cuts, blocks)
    return g._blocks


def _cut_vertices(
    g: Graph, skip: int = -1, blocks: list | None = None
) -> list[int] | None:
    """Ascending cut vertices of g - skip, or None if g - skip is disconnected.

    The one iterative Hopcroft-Tarjan lowpoint DFS, behind blocks, 2-connectivity
    and 2-separators. Given a list, it also appends each block of g - skip: when
    child v of u finishes with low[v] >= disc[u], u plus the discovered vertices
    popped down to v. skip = -1 removes nothing; g - skip must keep a vertex.
    """
    n, adj = g.n, g.adj
    disc = [-1] * n
    low = [0] * n
    if skip >= 0:
        # marked visited, and with a time above every other so it lowers no lowpoint
        disc[skip] = n
    root = 1 if skip == 0 else 0
    disc[root] = 0
    timer = 1
    cuts = set()
    root_children = 0
    found = [root]  # discovered vertices not yet in a closed block
    # the tree edge back to the parent is scanned as a back edge; that lowers
    # low[v] to at most disc[parent], which leaves the test low[v] >= disc[u]
    # unchanged, so no parent has to be tracked
    stack = [(root, iter(adj[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, iter(adj[w])))
                if blocks is not None:
                    found.append(w)
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    if u == root:
                        root_children += 1
                    else:
                        cuts.add(u)
                    if blocks is not None:
                        block = [u]
                        while block[-1] != v:
                            block.append(found.pop())
                        blocks.append(frozenset(block))
    if timer < n - (skip >= 0):
        return None
    if root_children > 1:
        cuts.add(root)
    return sorted(cuts)


def blocks_and_cut_vertices(g: Graph) -> tuple[list[frozenset[int]], set[int]]:
    """Blocks (sorted by their sorted tuples) and cut vertices of a connected
    graph, as fresh containers from _lowpoint; empty or disconnected input
    raises."""
    if g.n == 0:
        raise PreconditionError("empty graph")
    cuts, blocks = _lowpoint(g)
    if cuts is None:
        raise PreconditionError("graph is disconnected")
    return list(blocks) or [frozenset([0])], set(cuts)  # K1 is one block


def _expands_from_seed(g: Graph) -> bool:
    """Whether g grows from a K4 or a K3,3 by adding, one at a time, vertices
    with at least 3 neighbours among those already added: then g is
    3-connected, by the expansion lemma (West, Introduction to Graph Theory,
    Lemma 4.2.3), which holds from any 3-connected seed.

    Both seeds contain the lowest-id vertex v of maximum degree and are found
    with masks, in adjacency order. The K4 is v and a triangle of its
    neighbourhood. Without one, the K3,3 is v, a vertex a two steps away that
    shares three neighbours bs with v, and a third vertex on all of bs. With
    neither seed, or when some vertex is never added, the answer is False,
    which decides nothing.
    """
    masks, adj = g.masks, g.adj
    v = max(range(g.n), key=lambda u: len(adj[u]))
    nv = masks[v]
    # the seed, then every vertex in the order it is added
    order = next(([v, a, b, lowest_off(nv & masks[a] & masks[b], ())]
                  for a in adj[v] for b in adj[a]
                  if nv >> b & 1 and nv & masks[a] & masks[b]), None)
    if order is None:  # no triangle by v: a K3,3 with sides {v, a, c} and bs
        order = next(([v, a, c, *bs] for b in adj[v] for a in adj[b]
                      if a != v and (nv & masks[a]).bit_count() >= 3
                      for bs in [bits_off(nv & masks[a])[:3]]
                      for c in [lowest_off(masks[bs[0]] & masks[bs[1]] & masks[bs[2]], (v, a))]
                      if c is not None), None)
    if order is None:
        return False
    added = [False] * g.n
    count = [0] * g.n  # added neighbours of a vertex not yet added
    for u in order:
        added[u] = True
    for u in order:  # also visits the vertices appended below
        for w in adj[u]:
            if not added[w]:
                count[w] += 1
                if count[w] == 3:
                    added[w] = True
                    order.append(w)
    return len(order) == g.n


def _three_connected(g: Graph) -> bool:
    """Whether the 2-connected simple graph g has no separation pair, in O(n + m).

    The separation-pair tests of Hopcroft-Tarjan's PathSearch ("Dividing a
    graph into triconnected components", 1973), with the type-2 conditions
    as corrected by Gutwenger-Mutzel ("A linear time implementation of
    SPQR-trees", 2001), stopped at the first pair that algorithm would split
    off: the graph is still unmodified there, so no edge stack or splitting
    is needed. Past n = 3, a vertex of degree below 3 is separated by its
    neighbours, which also makes the algorithm's degree-2 branch dead. Type-1
    pairs {lowpt1(w), v} for a tree arc v -> w are found during the first
    DFS, in a form that holds for any DFS. Callers rely on True only: a
    False sends them to a scan that finds the pairs.
    """
    n, adj = g.n, g.adj
    if n <= 3:
        return True
    if g.min_degree() < 3:
        return False

    # 1. DFS from 0: preorder numbers from 1, parents, lowpt1/lowpt2 (as
    # numbers), subtree sizes; each vertex's out-arcs are its tree arcs and
    # its fronds up to proper ancestors
    num = [0] * n
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    arcs: list[list[int]] = [[] for _ in range(n)]
    num[0] = low1[0] = low2[0] = 1
    count = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not num[w]:
                count += 1
                num[w] = low1[w] = low2[w] = count
                parent[w] = v
                arcs[v].append(w)
                stack.append((w, iter(adj[w])))
                break
            x = num[w]
            if x < num[v] and w != parent[v]:
                arcs[v].append(w)
                if x < low1[v]:
                    low1[v], low2[v] = x, low1[v]
                elif low1[v] < x < low2[v]:
                    low2[v] = x
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if low1[v] < low1[u]:
                low1[u], low2[u] = low1[v], min(low1[u], low2[v])
            elif low1[v] == low1[u]:
                low2[u] = min(low2[u], low2[v])
            else:
                low2[u] = min(low2[u], low1[v])
            nd[u] += nd[v]
            # type 1: the subtree of v meets the rest only in lowpt1(v) and
            # u, and the rest has a third vertex
            if low1[v] < num[u] <= low2[v] and nd[v] <= n - 3:
                return False

    # 2. bucket sort of the arcs by phi into an acceptable adjacency structure
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(3 * n + 3)]
    for v in range(n):
        for w in arcs[v]:
            if parent[w] == v:
                phi = 3 * low1[w] + (2 if low2[w] >= num[v] else 0)
            else:
                phi = 3 * num[w] + 1
            buckets[phi].append((v, w))
    for v in range(n):
        arcs[v].clear()
    for bucket in buckets:
        for v, w in bucket:
            arcs[v].append(w)

    # 3. renumber along the sorted arcs: a first child's subtree gets the
    # highest numbers; flag each arc that starts a path, and record high(w),
    # the new number of the first frond source into w
    new = [0] * n
    starts: list[list[bool]] = [[] for _ in range(n)]
    high = [0] * n
    count = n
    new[0] = 1
    new_path = True
    stack = [(0, iter(arcs[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            starts[v].append(new_path)
            new_path = False
            if parent[w] == v:
                new[w] = count - nd[w] + 1
                stack.append((w, iter(arcs[w])))
                break
            if not high[w]:
                high[w] = new[v]
            new_path = True
        else:
            stack.pop()
            count -= 1
    at = [0] * (n + 1)  # old number -> vertex
    for v in range(n):
        at[num[v]] = v

    # 4. PathSearch with TSTACK triples (h, a, b) in new numbers; EOS marks a
    # path's start, and its a and h stop every pop loop
    eos = (n + 1, -1, -1)
    ts = [eos]
    pos = [0] * n
    path = [0]
    while path:
        v = path[-1]
        i = pos[v]
        if i < len(arcs[v]):
            pos[v] = i + 1
            w = arcs[v][i]
            if parent[w] == v:
                if starts[v][i]:
                    a = new[at[low1[w]]]
                    last = new[w] + nd[w] - 1
                    if ts[-1][1] > a:
                        y = 0
                        while ts[-1][1] > a:
                            h, _, b = ts.pop()
                            y = max(y, h)
                        ts.append((max(y, last), a, b))
                    else:
                        ts.append((last, a, new[v]))
                    ts.append(eos)
                path.append(w)
            elif starts[v][i]:
                a = new[w]
                if ts[-1][1] > a:
                    y = 0
                    while ts[-1][1] > a:
                        h, _, b = ts.pop()
                        y = max(y, h)
                    ts.append((y, a, b))
                else:
                    ts.append((new[v], a, new[v]))
            continue
        path.pop()
        if not path:
            break
        u = path[-1]
        un = new[u]
        # type 2: a top triple (h, un, b) splits. Its b is no child of un:
        # that needs a tree arc b -> w starting a path with lowpt1(w) = u (a
        # frond from b or a merge ends below u; b is no cut vertex), and then
        # lowpt2(w) >= num(b), so step 1's type-1 test has returned False, or
        # only u and b lie outside the subtree of w and u is the root, un = 1
        if un != 1 and ts[-1][1] == un:
            return False
        if starts[u][pos[u] - 1]:
            while ts[-1] is not eos:
                ts.pop()
            ts.pop()
        while ts[-1][2] != un and high[u] > ts[-1][0]:
            ts.pop()
    return True


def two_separators(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs {x,y} whose removal disconnects a 2-connected g.

    The scan runs once per Graph: g keeps its pairs, next to the memo of
    _lowpoint, and each call returns a fresh list of them. The checks run in
    this order: the 2-connectivity of g (g's one lowpoint DFS);
    Chartrand-Harary; the K4 or K3,3 expansion certificate
    (_expands_from_seed), which answers only "3-connected"; the O(n + m)
    3-connectivity test of g (_three_connected). So a 3-connected g costs
    O(n + m) in all. Otherwise {x,y} separates g exactly when y is a cut
    vertex of g - x, so one lowpoint DFS per x finds every pair: O(n(n+m))
    time. Pairs come as (x, y) with x < y, in ascending order.
    """
    if g._seps is None:
        g._seps = _scan_two_separators(g)
    return list(g._seps)


def _scan_two_separators(g: Graph) -> tuple[tuple[int, int], ...]:
    if not is_biconnected(g):
        raise PreconditionError("two_separators needs a 2-connected graph")
    # Chartrand-Harary: min degree >= (n+1)/2 forces 3-connectivity; so
    # does growing from a K4 or a K3,3 by vertices with 3 neighbours
    # (expansion lemma)
    if (g.n > 3 and 2 * g.min_degree() >= g.n + 1 or _expands_from_seed(g)
            or _three_connected(g)):
        return ()
    # g - x stays connected, since g is 2-connected
    return tuple((x, y) for x in range(g.n) for y in _cut_vertices(g, x) if y > x)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CycleCertificate:
    """Vertex sequence claimed to be a simple cycle of some minimum length."""

    vertices: tuple[int, ...]
    claimed_min_length: int = 3

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class PathCertificate:
    """Vertex sequence claimed to be a simple path; length = edges = len-1."""

    vertices: tuple[int, ...]

    def __len__(self):
        return len(self.vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    @property
    def internal(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class VerifyOutcome:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _verify_walk(g: Graph, vs, kind: str) -> VerifyOutcome:
    """Check that vs is a simple walk of g, closed for kind "cycle" and open
    for kind "path"; the reason names the first violated invariant."""
    for v in vs:
        if not (0 <= v < g.n):
            return VerifyOutcome(False, f"vertex {v} out of range")
    if len(set(vs)) != len(vs):
        return VerifyOutcome(False, "repeated vertex")
    least = 3 if kind == "cycle" else 2
    if len(vs) < least:
        return VerifyOutcome(False, f"{kind} has fewer than {least} vertices")
    for u, v in zip(vs, vs[1:] + vs[:1] if kind == "cycle" else vs[1:]):
        if not g.has_edge(u, v):
            return VerifyOutcome(False, f"missing edge ({u},{v})")
    return VerifyOutcome(True)


def verify_cycle_certificate(g: Graph, cert: CycleCertificate) -> VerifyOutcome:
    """Check a cycle certificate; the reason names the first violated invariant."""
    check = _verify_walk(g, cert.vertices, "cycle")
    if check and len(cert) < cert.claimed_min_length:
        return VerifyOutcome(
            False,
            f"length {len(cert)} below claimed minimum {cert.claimed_min_length}",
        )
    return check


def require_verified(check: VerifyOutcome) -> None:
    """Raise ConstructionFailure with the verifier's reason unless check is ok.

    Unlike an assert, this check also runs under python -O.
    """
    if not check:
        raise ConstructionFailure(f"certificate failed verification: {check.reason}")


def verify_density_certificate(g: Graph, vertices, density, splits) -> VerifyOutcome:
    """Check in O(n + m) that the densest vertex sets of g have exactly
    `density` = p/q, and that `vertices` is one of them.

    Lower bound: `vertices` has density p/q. Upper bound: splits[i] =
    (x, y) shares q units between the ends of the i-th edge (u, v) of
    g.edges(), x on u and y on v, and no vertex receives more than p. A set
    S receives all q|E(S)| units of its own edges, so q|E(S)| <= p|S|.
    """
    density = Fraction(density)
    p, q = density.numerator, density.denominator
    vs = set(vertices)
    if not vs:
        return VerifyOutcome(False, "empty witness")
    for v in vs:
        if not (0 <= v < g.n):
            return VerifyOutcome(False, f"vertex {v} out of range")
    if len(splits) != g.m:
        return VerifyOutcome(False, f"{len(splits)} splits for {g.m} edges")
    load = [0] * g.n
    inside = i = 0
    # the edges (u, v), u < v, in the order of g.edges()
    for u, a in enumerate(g.adj):
        for v in a[bisect_right(a, u) :]:
            x, y = splits[i]
            i += 1
            if x < 0 or y < 0 or x + y != q:
                return VerifyOutcome(False, f"edge ({u},{v}) splits as ({x},{y}), not {q} units")
            load[u] += x
            load[v] += y
            inside += u in vs and v in vs
    for v, units in enumerate(load):
        if units > p:
            return VerifyOutcome(False, f"vertex {v} receives {units} > {p} units")
    if inside * q != p * len(vs):
        return VerifyOutcome(
            False, f"witness density {Fraction(inside, len(vs))}, not {density}"
        )
    return VerifyOutcome(True)


def verify_path_certificate(g: Graph, cert: PathCertificate) -> VerifyOutcome:
    """Check a path certificate; the reason names the first violated invariant."""
    return _verify_walk(g, cert.vertices, "path")


def certify(
    g: Graph, cert: CycleCertificate | PathCertificate
) -> CycleCertificate | PathCertificate:
    """The certificate itself once its verifier passes against g.

    Raises ConstructionFailure with the verifier's reason otherwise, so no
    unverified certificate is ever returned, also under python -O.
    """
    if isinstance(cert, PathCertificate):
        require_verified(verify_path_certificate(g, cert))
    else:
        require_verified(verify_cycle_certificate(g, cert))
    return cert


# ---------------------------------------------------------------------------
# pair sets (potentially cyclable)


def _pair_chain(pairs) -> list[tuple[int, int]] | None:
    """The pairs oriented into a chain, or None when the pair graph is not a
    linear forest.

    A vertex on three pairs fails at once. With every degree at most 2, each
    component is a path or a cycle (a self-loop and a repeated pair are
    cycles of one and two pairs), and only a path has degree-1 ends: the
    walk from the sorted ends covers every vertex exactly when there is no
    cycle.
    """
    adjacency: dict[int, list[int]] = {}
    for u, v in pairs:
        for x, y in ((u, v), (v, u)):
            ns = adjacency.setdefault(x, [])
            if len(ns) == 2:
                return None
            ns.append(y)
    done = set()
    chain: list[tuple[int, int]] = []
    for start in sorted(v for v, ns in adjacency.items() if len(ns) == 1):
        if start in done:
            continue
        prev, cur = None, start
        while True:
            done.add(cur)
            nxts = [w for w in adjacency[cur] if w != prev]
            if not nxts:
                break
            chain.append((cur, nxts[0]))
            prev, cur = cur, nxts[0]
    return chain if len(done) == len(adjacency) else None


def is_potentially_cyclable(pairs) -> bool:
    """True iff the pair graph is a linear forest (no duplicate pairs either)."""
    return _pair_chain(pairs) is not None


def normalize_pair_chain(pairs) -> list[tuple[int, int]]:
    """Order a potentially cyclable pair set so shared endpoints are consecutive.

    Returns oriented pairs (x_i, y_i) with y_{i-1} == x_i exactly when two
    pairs share a vertex; components are concatenated lowest end first.
    """
    chain = _pair_chain(pairs)
    if chain is None:
        raise PreconditionError("pair set is not potentially cyclable")
    return chain
