"""Graph formats, the result schema, and instance generators.

Edgelist: whitespace-separated "u v" lines, '#' comments, 0-based ids, at
most one "n <count>" header (otherwise n = max id + 1). DIMACS: one "p edge n
m" line, then 1-based "e u v" lines, exactly m of them; a line whose first
token is "c" is a comment, and "cat 1 2" is not. JSON results carry
rationals as num/den pairs; floats would break the exactness guarantees
downstream.
"""

from __future__ import annotations

import json
import math
import random

from .errors import GraphInputError, PreconditionError
from .graph import Graph, build_graph, eg_bound, is_biconnected, is_potentially_cyclable
from .solver import SolveResult


def parse_graph(data: bytes | str, fmt: str = "edgelist") -> Graph:
    """The graph in `data`; bytes must be UTF-8. Malformed input raises
    GraphInputError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphInputError(f"byte {exc.start}: not UTF-8") from None
    if fmt == "edgelist":
        return _parse_edgelist(data)
    if fmt == "dimacs":
        return _parse_dimacs(data)
    raise GraphInputError(f"unknown format {fmt!r}")


def _parse_edgelist(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    header_n: int | None = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if parts[0] == "n" and len(parts) == 2:
            if header_n is not None:
                raise GraphInputError(f"line {lineno}: second vertex count header")
            try:
                header_n = int(parts[1])
            except ValueError:
                raise GraphInputError(f"line {lineno}: bad vertex count {parts[1]!r}")
            _check_count(header_n, lineno)
            continue
        if len(parts) != 2:
            raise GraphInputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: non-integer vertex id in {raw!r}")
        if u < 0 or v < 0:
            raise GraphInputError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphInputError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
    n = header_n if header_n is not None else max_id + 1
    if n <= max_id:
        raise GraphInputError(f"vertex id {max_id} exceeds declared count {n}")
    return build_graph(edges, n)


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphInputError(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphInputError(f"line {lineno}: bad problem line {raw!r}")
            n = _check_count(_dimacs_int(parts[2], lineno), lineno)
            m = _check_count(_dimacs_int(parts[3], lineno), lineno, "edge")
            p_line = lineno
            continue
        if parts[0] == "e":
            if n is None:
                raise GraphInputError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphInputError(f"line {lineno}: bad edge line {raw!r}")
            u, v = _dimacs_int(parts[1], lineno), _dimacs_int(parts[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphInputError(f"line {lineno}: vertex id out of range")
            if u == v:
                raise GraphInputError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
            continue
        raise GraphInputError(f"line {lineno}: unrecognized line {raw!r}")
    if n is None:
        raise GraphInputError("missing problem line")
    if len(edges) != m:
        raise GraphInputError(
            f"line {p_line}: problem line declares {m} edges, found {len(edges)}"
        )
    return build_graph(edges, n)


def _check_count(n: int, lineno: int, what: str = "vertex") -> int:
    if n < 0:
        raise GraphInputError(f"line {lineno}: negative {what} count {n}")
    return n


def _dimacs_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphInputError(f"line {lineno}: non-integer {token!r}") from None


def emit_graph(g: Graph, fmt: str = "edgelist") -> bytes:
    if fmt == "edgelist":
        lines = [f"n {g.n}"]
        lines += [f"{u} {v}" for u, v in g.edges()]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        return ("\n".join(lines) + "\n").encode()
    raise GraphInputError(f"unknown format {fmt!r}")


def emit_result(r: SolveResult) -> bytes:
    """Canonical JSON, fixed key order, no floats."""
    obj = {
        "answer": r.answer,
        "k": r.k,
        "mad": {"num": r.mad.numerator, "den": r.mad.denominator},
        "threshold_len": r.threshold_len,
        "cycle": list(r.certificate.vertices) if r.certificate else None,
        "branch": r.branch,
        "stats": dict(sorted(r.stats.items())),
    }
    if r.path_certificate is not None:
        obj["path"] = list(r.path_certificate.vertices)
    if r.trace is not None:
        obj["trace"] = r.trace
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# the NP-hardness gadget


def gen_hardness_gadget(g: Graph) -> Graph:
    """Attach a clique of n-2 fresh vertices to every vertex.

    Under the standing assumption 2m/(n-1) <= n-1, the result G' satisfies
    n-2 < 2m'/(n'-1) <= n-1 and has a cycle of length >= that bound + 1
    exactly when g is Hamiltonian. Original ids are preserved.
    """
    n = g.n
    if n < 3:
        raise PreconditionError("gadget needs n >= 3")
    if eg_bound(g) > n - 1:
        raise PreconditionError("gadget needs 2m/(n-1) <= n-1")
    edges = list(g.edges())
    for v in range(n):
        base = n + v * (n - 2)
        clique = list(range(base, base + n - 2))
        for i, a in enumerate(clique):
            edges.append((v, a))
            for b in clique[i + 1 :]:
                edges.append((a, b))
    return build_graph(edges, n * (n - 1))


# ---------------------------------------------------------------------------
# instance generators


def gen_instance(family: str, params: dict, seed: int = 0) -> tuple[Graph, dict]:
    """Seeded instance generator; returns (graph, metadata).

    A parameter key the family does not read raises PreconditionError, so a
    mistyped key never yields the default instance.
    """
    reads = {
        "gnp2c": {"n", "prob"},
        "near_complete": {"n", "min_degree", "removals"},
        "bipartite_dense": {"p", "k", "q", "prob"},
        "lemma7_trace": {"branch"},
    }
    if family not in reads:
        raise PreconditionError(f"unknown family {family!r}")
    unread = sorted(set(params) - reads[family])
    if unread:
        raise PreconditionError(f"{family} reads no parameter {unread[0]!r}")
    rng = random.Random(seed)
    if family == "gnp2c":
        return _gen_gnp2c(params, rng)
    if family == "near_complete":
        return _gen_near_complete(params, rng)
    if family == "bipartite_dense":
        return _gen_bipartite_dense(params, rng)
    return _gen_lemma7_trace(params)


def _param(params: dict, key: str, default, kind):
    """params[key] (or the default) as `kind`; a bad value, an infinite or
    fractional one for an int included, is the caller's fault."""
    value = params.get(key, default)
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"bad parameter {key}={value!r}") from None


def _gen_gnp2c(params: dict, rng: random.Random) -> tuple[Graph, dict]:
    n = _param(params, "n", 10, int)
    prob = _param(params, "prob", 0.5, float)
    if n < 3:
        raise PreconditionError("gnp2c needs n >= 3")
    if not 0 < prob <= 1:  # also NaN; prob 0 never samples a 2-connected graph
        raise PreconditionError(f"gnp2c needs 0 < prob <= 1, got {prob}")
    # a 2-connected graph has at least n edges; where the Chernoff bound
    # P(X >= n) <= exp(-mean) (e mean / n)^n on X ~ Bin(n(n-1)/2, prob) puts
    # that beyond all 5,000 draws but for odds below e^-40, none is made
    mean = n * (n - 1) // 2 * prob
    if mean < n and math.log(5000) - mean + n * (1 + math.log(mean / n)) < -40:
        raise PreconditionError(
            f"gnp2c: prob={prob} gives about {mean:.3g} expected edges on n={n} "
            f"vertices, and a 2-connected graph needs at least {n}"
        )
    for attempt in range(5000):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob
        ]
        g = build_graph(edges, n)
        if is_biconnected(g):
            return g, {"family": "gnp2c", "n": n, "prob": prob, "attempts": attempt + 1}
    raise PreconditionError("gnp2c: could not sample a 2-connected graph")


def _gen_near_complete(params: dict, rng: random.Random) -> tuple[Graph, dict]:
    n = _param(params, "n", 64, int)
    if n < 0:
        raise PreconditionError("near_complete needs n >= 0")
    min_degree = _param(params, "min_degree", (11 * n + 19) // 20, int)
    if min_degree < 0:
        raise PreconditionError("near_complete needs min_degree >= 0")
    removals = _param(params, "removals", 2 * n, int)
    if removals < 0:
        raise PreconditionError("near_complete needs removals >= 0")
    adj = {i: set(range(n)) - {i} for i in range(n)}
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(all_pairs)
    removed = 0
    for u, v in all_pairs:
        if removed >= removals:
            break
        if len(adj[u]) > min_degree and len(adj[v]) > min_degree:
            adj[u].discard(v)
            adj[v].discard(u)
            removed += 1
    g = Graph(n, tuple(tuple(sorted(adj[i])) for i in range(n)))
    if g.min_degree() < min_degree:
        raise PreconditionError("near_complete: degree floor violated")
    return g, {
        "family": "near_complete",
        "n": n,
        "min_degree": min_degree,
        "removed": removed,
    }


def _gen_bipartite_dense(params: dict, rng: random.Random) -> tuple[Graph, dict]:
    p = _param(params, "p", 20, int)
    if p < 0:
        raise PreconditionError("bipartite_dense needs p >= 0")
    k = _param(params, "k", 2, int)
    q = _param(params, "q", 3 * p, int)
    if q < 2 * p:
        raise PreconditionError("bipartite_dense needs q >= 2p for the A-degree floor")
    prob = _param(params, "prob", 0.85, float)
    if not 0 <= prob <= 1:  # also NaN
        raise PreconditionError(f"bipartite_dense needs 0 <= prob <= 1, got {prob}")
    A = list(range(p))
    B = list(range(p, p + q))
    adj = {v: set() for v in range(p + q)}
    for a in A:
        for b in B:
            if rng.random() < prob:
                adj[a].add(b)
                adj[b].add(a)
    # repair to the degree floors
    for a in A:
        if len(adj[a]) < 2 * p:
            missing = [b for b in B if b not in adj[a]]
            rng.shuffle(missing)
            for b in missing[: 2 * p - len(adj[a])]:
                adj[a].add(b)
                adj[b].add(a)
    for b in B:
        if len(adj[b]) < p - k:
            missing = [a for a in A if a not in adj[b]]
            rng.shuffle(missing)
            for a in missing[: p - k - len(adj[b])]:
                adj[b].add(a)
                adj[a].add(b)
    g = Graph(p + q, tuple(tuple(sorted(adj[v])) for v in range(p + q)))
    if any(g.degree(a) < 2 * p for a in A) or any(g.degree(b) < p - k for b in B):
        raise PreconditionError("bipartite_dense: degree floors violated")
    return g, {
        "family": "bipartite_dense",
        "p": p,
        "k": k,
        "q": q,
        "A": A,
        "B": B,
    }


def random_cyclable_pairs(
    vertices, count: int, rng: random.Random
) -> list[tuple[int, int]]:
    """A random potentially cyclable pair set over the given vertices."""
    verts = sorted(vertices)
    pairs: list[tuple[int, int]] = []
    guard = 0
    while len(pairs) < count and guard < 200 * (count + 1):
        guard += 1
        u, v = rng.sample(verts, 2)
        key = (min(u, v), max(u, v))
        if is_potentially_cyclable(pairs + [key]):
            pairs.append(key)
    return pairs


def _gen_lemma7_trace(params: dict) -> tuple[Graph, dict]:
    """Fixed instances engineered to hit each trichotomy branch."""
    branch = params.get("branch", "glue")
    if branch == "glue":
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        edges += [(i, j) for i in range(6, 14) for j in range(i + 1, 14)]
        g = build_graph(edges, 14)
        return g, {"family": "lemma7_trace", "branch": "glue", "expects": "FoundCycle"}
    if branch == "dirac_found":
        g = build_graph([(i, j) for i in range(20) for j in range(i + 1, 20)], 20)
        return g, {
            "family": "lemma7_trace",
            "branch": "dirac_found",
            "expects": "FoundCycle",
        }
    if branch == "small_dense":
        n = 20
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not (j == i + 1 and i % 2 == 0)
        ]
        g = build_graph(edges, n)
        return g, {
            "family": "lemma7_trace",
            "branch": "small_dense",
            "expects": "SmallDense",
            "k": 3,
        }
    if branch in ("bip_dense", "bip_dense_yes"):
        a, b = 8, 80
        edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
        edges += [(i, a + j) for i in range(a) for j in range(b)]
        n = a + b
        if branch == "bip_dense_yes":
            edges += [(a, n), (n, a + 1)]  # one short outside B-B segment
            n += 1
        g = build_graph(edges, n)
        return g, {
            "family": "lemma7_trace",
            "branch": branch,
            "expects": "BipartiteDense",
            "A": list(range(a)),
        }
    raise PreconditionError(f"unknown lemma7_trace branch {branch!r}")
