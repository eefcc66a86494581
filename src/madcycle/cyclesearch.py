"""Shared search machinery: rotation-extension, chord closures, insertion
growth, and the one exact depth-first search for long paths and cycles.

Used by the Dirac constructor, the cycle engine and the pair routing, which
share one short-detour move (`detour_move` also takes the bipartite
routing's connector). `_colorful_path` is the only exact path or cycle
search, over (vertex set, end) states: `find_cycle_at_least` runs it from
each root back to the root, and `longpaths.st_path_at_least` runs it from s
to t. All scanning is in sorted vertex order, so results are deterministic.
"""

from __future__ import annotations

from .errors import StateBudgetExceeded
from .graph import Graph, bits_off, lowest_off, reach


def greedy_extend(g: Graph, path: list[int]) -> list[int]:
    """Extend both ends with the lowest-id unused neighbor until maximal."""
    on = set(path)
    changed = True
    while changed:
        changed = False
        for w in g.adj[path[-1]]:
            if w not in on:
                path.append(w)
                on.add(w)
                changed = True
                break
        for w in g.adj[path[0]]:
            if w not in on:
                path.insert(0, w)
                on.add(w)
                changed = True
                break
    return path


def _index(q: int, cuts, l: int) -> int:
    """Index q of a path, carried through the rotations at cuts, in order."""
    for i in cuts:
        if q > i:
            q = l + i + 1 - q
    return q


def rotated(path: list[int], cuts) -> list[int]:
    """path rotated at each cut i in turn: p -> p[:i+1] + p[:i:-1]."""
    for i in cuts:
        path = path[: i + 1] + path[:i:-1]
    return path


class _Extension(Exception):
    """A rotated endpoint left the path; args[0] is the longer path."""


def rotation_round(g: Graph, path: list[int], step_budget: list[int]):
    """One Posa round rotating the last endpoint, first endpoint fixed.

    Yields the variants (end, cuts) in discovery order, path itself first:
    `rotated(path, cuts)`, whose last vertex is end. Index j of the parent
    is j in the child rotated at i when j <= i, else l+i+1-j (l =
    len(path)-1). A variant is yielded when found, taking one from
    step_budget[0], and expanded only once all found before it are read and
    while budget is left. Expanding a variant whose end has a neighbour w
    off the path raises _Extension(rotated(path, cuts) + [w]).
    """
    pos = {v: i for i, v in enumerate(path)}
    l = len(path) - 1
    queue = [(path[-1], ())]
    seen = {path[-1]}
    yield queue[0]
    for end, cuts in queue:
        if step_budget[0] <= 0:
            return
        for w in g.adj[end]:
            if w not in pos:
                raise _Extension(rotated(path, cuts) + [w])
        back = cuts[::-1]
        for w in g.adj[end]:
            i = _index(pos[w], cuts, l)
            if i + 1 >= l:
                continue
            new_end = path[_index(i + 1, back, l)]
            if new_end in seen:
                continue
            step_budget[0] -= 1
            seen.add(new_end)
            queue.append((new_end, cuts + (i,)))
            yield queue[-1]


def _min_gap(a_idx: list[int], b_idx: list[int]):
    """(a-b, a, b) least over a > b, both lists ascending; the first a wins ties."""
    best = None
    j = 0
    for a in a_idx:
        while j < len(b_idx) and b_idx[j] < a:
            j += 1
        if j > 0:
            b = b_idx[j - 1]
            if best is None or a - b < best[0]:
                best = (a - b, a, b)
    return best


def _shapes(l: int, direct: bool, a_idx: list[int], b_idx: list[int]):
    """The closures of a path v0..vl, as slice bounds (s, e, t).

    The closure is the cycle path[s:e] + path[l:t-1:-1], of length
    e - s + l + 1 - t; a_idx and b_idx are the ascending indices of the
    neighbours of v0 and of vl on the path, direct says whether v0vl is an
    edge. In order: the direct edge, the best two-chord closure
    v0..vb vl..va (va in N(v0), vb in N(vl), a > b, length l+2-(a-b);
    a-b == 1 is the crossing-chord full closure), then the fans v0..va and
    vb..vl of the last a and the first b. Each is kept only with >= 3
    vertices.
    """
    out = []
    if direct and l + 1 >= 3:
        out.append((0, l + 1, l + 1))
    best = _min_gap(a_idx, b_idx)
    if best is not None and l + 2 - best[0] >= 3:
        _, a, b = best
        out.append((0, b + 1, a))
    if a_idx and a_idx[-1] + 1 >= 3:
        out.append((0, a_idx[-1] + 1, l + 1))
    if b_idx and l - b_idx[0] + 1 >= 3:
        out.append((b_idx[0], l + 1, l + 1))
    return out


def _indices(g: Graph, v: int, pos, cuts, l: int, flip: bool) -> list[int]:
    """Sorted indices, in the variant, of v's neighbours on the path."""
    out = []
    for x in g.adj[v]:
        q = pos.get(x)
        if q is not None:
            for i in cuts:  # _index, inlined: this is the scorer's inner loop
                if q > i:
                    q = l + i + 1 - q
            out.append(l - q if flip else q)
    out.sort()
    return out


def closure_lengths(
    g: Graph, path: list[int], pos, variant, flip: bool = False
) -> list[int]:
    """The lengths of the closures (`_shapes`) of a rotation variant of path.

    variant is (end, cuts), `rotated(path, cuts)` (see `rotation_round`),
    read reversed when flip; pos maps each vertex of path to its index.
    Builds neither the variant nor any closure: reads only the indices of
    the ends' neighbours, O((deg(u) + deg(w)) * len(cuts)) steps.
    """
    end, cuts = variant
    l = len(path) - 1
    u, w = (end, path[0]) if flip else (path[0], end)
    a_idx = _indices(g, u, pos, cuts, l, flip)
    b_idx = _indices(g, w, pos, cuts, l, flip)
    shapes = _shapes(l, g.has_edge(u, w), a_idx, b_idx)
    return [e - s + l + 1 - t for s, e, t in shapes]


def short_detour(
    g: Graph, x: int, y: int, banned, ends_banned
) -> list[int] | None:
    """Inner vertices of a short x..y path: [z], else [u, v], else [u, w, v].

    z is the lowest common neighbour of x and y; u is a neighbour of x and v
    one of y, taken first in ascending (u, v) order. The middle vertices z
    and w avoid `banned`, the ends u and v avoid `ends_banned`. None when no
    such detour exists.
    """
    z = lowest_off(g.masks[x] & g.masks[y], banned)
    if z is not None:
        return [z]
    us = bits_off(g.masks[x], ends_banned)
    vs = bits_off(g.masks[y], ends_banned)
    for u in us:
        mu = g.masks[u]
        for v in vs:
            if mu >> v & 1:
                return [u, v]
    for u in us:
        mu = g.masks[u]
        for v in vs:
            if u != v:
                w = lowest_off(mu & g.masks[v], banned)
                if w is not None:
                    return [u, w, v]
    return None


def _open_edges(cycle: list[int], skip) -> list[tuple[int, int, int]]:
    """(i, x, y) for each cycle edge x = cycle[i], y = cycle[i+1] not in skip."""
    n = len(cycle)
    out = []
    for i in range(n):
        x, y = cycle[i], cycle[(i + 1) % n]
        if (min(x, y), max(x, y)) not in skip:
            out.append((i, x, y))
    return out


def insertion_move(g: Graph, cycle: list[int], on, skip):
    """(i, [v]): the lowest outside v adjacent to both ends of open edge i."""
    edges = _open_edges(cycle, skip)
    for v in range(g.n):
        if v in on:
            continue
        mv = g.masks[v]
        for i, x, y in edges:
            if mv >> x & 1 and mv >> y & 1:
                return i, [v]
    return None


def detour_move(g: Graph, cycle: list[int], on, skip, join=None):
    """(i, detour): the detour join(x, y, on) of the first open edge i, x..y,
    that has one; join defaults to short_detour(g, x, y, on, on)."""
    for i, x, y in _open_edges(cycle, skip):
        ins = short_detour(g, x, y, on, on) if join is None else join(x, y, on)
        if ins is not None:
            return i, ins
    return None


def grow_cycle(g: Graph, cycle: list[int], target: int | None = None) -> list[int]:
    """Lengthen a cycle by local moves until stuck (or target reached).

    Moves, in order: insert an outside vertex between adjacent-on-cycle
    neighbors; replace a cycle edge xy by a short detour x-z-y, x-u-v-y or
    x-u-w-v-y with all new vertices outside the cycle.
    """
    cyc = list(cycle)
    while target is None or len(cyc) < target:
        on = set(cyc)
        move = insertion_move(g, cyc, on, ()) or detour_move(g, cyc, on, ())
        if move is None:
            break
        i, ins = move
        cyc = cyc[: i + 1] + ins + cyc[i + 1 :]
    return cyc


def long_cycle_search_best(
    g: Graph, want: int, rotation_budget: int = 0
) -> list[int] | None:
    """Rotation-extension search for a long cycle; returns the best one found.

    Repeats: grow a maximal path, rotate at both ends, close (full or chord
    closures), reopen non-spanning full closures through an attached outside
    vertex. Every reopen strictly lengthens the working path, so the loop
    runs at most n rounds. When 2*delta >= n a maximal path always has a
    crossing chord, so this provably reaches a Hamiltonian cycle. A result
    shorter than want has been grown by `grow_cycle` as far as it goes.

    Each round scores the closures of the rotation variants by length
    (`_score`) and builds at most two: the first of greatest length, which
    replaces best if longer, and the first full closure, when it is reopened.
    Both rounds are run out first only while the path misses a vertex, as an
    extension outranks every closure; a spanning path is scored once, lazily.

    Before its rounds, each greedy-maximal path with >= want vertices has the
    closures of its own ends scored (the identity variant), and the first of
    greatest length is returned at once if it reaches want: a caller that
    asks for less than the longest cycle runs no rotation round. Otherwise
    the search runs as if that scoring had not happened, so a result shorter
    than want is the one the rounds alone give.
    """
    if g.n < 3:
        return None
    budget = [rotation_budget if rotation_budget > 0 else 50 * g.n]
    best: list[int] | None = None
    path = greedy_extend(g, [0])
    while True:
        if len(path) >= want:
            win, _ = _score(g, [(path, [(path[-1], ())], False)], want - 1, len(path))
            if win is not None:
                return _closure(g, *win)
        back = path[::-1]
        rounds = [(path, rotation_round(g, path, budget), False),
                  (back, rotation_round(g, back, budget), True)]
        if len(path) < g.n:
            try:
                rounds = [(root, list(vs), flip) for root, vs, flip in rounds]
            except _Extension as ext:
                path = greedy_extend(g, ext.args[0])
                continue
        top = len(best) if best is not None else 0
        win, full = _score(g, rounds, top, len(path))
        if win is not None:
            best = _closure(g, *win)
        if best is not None and len(best) >= want:
            return best
        if full is not None and len(path) < g.n:
            reopened = _reopen(g, _closure(g, *full))
            if reopened is not None:
                path = greedy_extend(g, reopened)
                continue
        if best is not None:
            grown = grow_cycle(g, best, target=want)
            if len(grown) > len(best):
                best = grown
                if len(best) >= want:
                    return best
            if len(grown) >= len(path) and len(grown) < g.n:
                reopened = _reopen(g, grown)
                if reopened is not None:
                    path = greedy_extend(g, reopened)
                    continue
        return best


def _score(g: Graph, rounds, top: int, full_len: int):
    """(win, full): the first closure longer than top of greatest length and
    the first full closure, each as (root, cuts, flip, idx) or None.

    Reads the variants of rounds, (root, variants, flip), in order, each
    one's closures in `_shapes` order, and stops at the first full closure:
    none after it is longer, and no later variant is read or expanded.
    """
    win = None
    for root, variants, flip in rounds:
        pos = {v: i for i, v in enumerate(root)}
        for var in variants:
            for idx, length in enumerate(closure_lengths(g, root, pos, var, flip)):
                if length > top:
                    top, win = length, (root, var[1], flip, idx)
                if length == full_len:
                    return win, (root, var[1], flip, idx)
    return win, None


def _closure(g: Graph, root: list[int], cuts, flip: bool, idx: int) -> list[int]:
    """Closure idx (`_shapes` order) of the variant of root at cuts, reversed
    if flip."""
    path = rotated(root, cuts)
    if flip:
        path = path[::-1]
    l = len(path) - 1
    pos = {v: i for i, v in enumerate(path)}
    a_idx = _indices(g, path[0], pos, (), l, False)
    b_idx = _indices(g, path[-1], pos, (), l, False)
    s, e, t = _shapes(l, g.has_edge(path[0], path[-1]), a_idx, b_idx)[idx]
    return path[s:e] + path[l : t - 1 : -1]


def _reopen(g: Graph, cycle: list[int]) -> list[int] | None:
    """Cycle + one attached outside vertex, opened into a longer path."""
    on = set(cycle)
    for idx, c in enumerate(cycle):
        for w in g.adj[c]:
            if w not in on:
                return [w] + cycle[idx:] + cycle[:idx]
    return None


def find_cycle_at_least(
    g: Graph, want: int, state_budget: int | None = None
) -> list[int] | None:
    """A cycle with >= want vertices, or None when g has none.

    Roots each cycle at its least vertex: for each root, `_colorful_path`
    searches a cycle from the root back to it through the vertices above
    it. The root is below every vertex the path may use, so each state tries
    its closure before its children, and the first cycle in that depth-first
    order is returned. One state_budget covers all roots; past it
    StateBudgetExceeded is raised, so None is always exact.
    """
    want = max(want, 3)
    if g.n < want:
        return None
    budget = None if state_budget is None else [state_budget]
    full = (1 << g.n) - 1
    for root in range(g.n - want + 1):
        above = full & ~((2 << root) - 1)
        # the closed walk root..root counts the root twice
        found = _colorful_path(g, root, root, above, want + 1, budget)
        if found is not None:
            return found
    return None


def _colorful_path(
    g: Graph,
    s: int,
    t: int,
    allowed: int,
    want_vertices: int,
    budget: list[int] | None = None,
) -> list[int] | None:
    """A simple path s..t whose inner vertices lie in the mask allowed and
    whose vertices number at least want_vertices, t counted; None when there
    is none. With t == s it is a cycle through s, returned without repeating
    s. (The name is colour coding's: under the identity colouring a
    colourful path is a simple path.)

    Depth-first over states (vertex set, end), children in ascending order,
    so the first qualifying path in that order is returned. t only ends a
    path, and it is in the vertex set from the start. A child w is pruned
    unless a neighbour of t is reachable from w, w included, through allowed
    unused vertices, and the path plus those vertices plus t is long enough.
    Whether a state completes depends only on its vertex set and end, so a
    state found without completion is kept dead and never expanded again.
    Each pushed state takes one from budget[0], and a push that takes it
    below zero raises StateBudgetExceeded.
    """
    dead: set[tuple[int, int]] = set()
    t_nbrs = g.masks[t]
    path = [s]
    key = 1 << s | 1 << t
    stack = [(key, allowed & ~key, iter(g.adj[s]))]
    while stack:
        vkey, alive, children = stack[-1]
        for w in children:
            if w == t:
                if len(path) + 1 >= want_vertices:
                    return path + [t] if t != s else path
                continue
            if not alive >> w & 1:
                continue
            key = vkey | 1 << w
            if (key, w) in dead:
                continue
            rest = alive & ~(1 << w)
            rm = reach(g, g.masks[w], rest) | 1 << w
            if not rm & t_nbrs or len(path) + 1 + rm.bit_count() < want_vertices:
                dead.add((key, w))
                continue
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise StateBudgetExceeded()
            path.append(w)
            stack.append((key, rest, iter(g.adj[w])))
            break
        else:
            stack.pop()
            dead.add((vkey, path.pop()))
    return None
