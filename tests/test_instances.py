import random
from fractions import Fraction

import pytest

from madcycle.errors import GraphInputError, PreconditionError
from madcycle.graph import Graph, build_graph, eg_bound, is_biconnected
from madcycle.instances import (
    emit_graph,
    emit_result,
    gen_hardness_gadget,
    gen_instance,
    parse_graph,
    random_cyclable_pairs,
)
from madcycle.graph import is_potentially_cyclable
from madcycle.solver import solve

from conftest import complete, cycle_graph, random_connected_graph, random_graph


class TestParse:
    def test_edgelist_triangle(self):
        g = parse_graph("0 1\n1 2\n2 0\n")
        assert g.n == 3 and g.m == 3

    def test_dimacs_triangle(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n", fmt="dimacs")
        assert g.n == 3 and g.m == 3

    def test_self_loop_line_number(self):
        with pytest.raises(GraphInputError) as exc:
            parse_graph("0 0\n")
        assert "line 1" in str(exc.value)

    def test_comments_and_header(self):
        g = parse_graph("# hello\nn 5\n0 1\n")
        assert g.n == 5 and g.m == 1

    def test_malformed_line_reported(self):
        with pytest.raises(GraphInputError) as exc:
            parse_graph("0 1\n1 2 3\n")
        assert "line 2" in str(exc.value)

    def test_roundtrip_both_formats(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.8))
            for fmt in ("edgelist", "dimacs"):
                text = emit_graph(g, fmt)
                back = parse_graph(text, fmt)
                assert (back.n, back.adj) == (g.n, g.adj)
                assert emit_graph(back, fmt) == text


# ---------------------------------------------------------------------------
# the parsers and the builder before the one-pass rewrite, verbatim but for
# their names: the references of TestParserDifferential


def _parent_parse_edgelist(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    header_n: int | None = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            try:
                header_n = int(parts[1])
            except ValueError:
                raise GraphInputError(f"line {lineno}: bad vertex count {parts[1]!r}")
            _parent_check_count(header_n, lineno)
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
        max_id = max(max_id, u, v)
    n = header_n if header_n is not None else max_id + 1
    if n <= max_id:
        raise GraphInputError(f"vertex id {max_id} exceeds declared count {n}")
    return _parent_build_graph(edges, n)


def _parent_parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphInputError(f"line {lineno}: bad problem line {raw!r}")
            n = _parent_check_count(_parent_dimacs_int(parts[2], lineno), lineno)
            continue
        if parts[0] == "e":
            if n is None:
                raise GraphInputError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphInputError(f"line {lineno}: bad edge line {raw!r}")
            u, v = _parent_dimacs_int(parts[1], lineno), _parent_dimacs_int(parts[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphInputError(f"line {lineno}: vertex id out of range")
            if u == v:
                raise GraphInputError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
            continue
        raise GraphInputError(f"line {lineno}: unrecognized line {raw!r}")
    if n is None:
        raise GraphInputError("missing problem line")
    return _parent_build_graph(edges, n)


def _parent_check_count(n: int, lineno: int) -> int:
    if n < 0:
        raise GraphInputError(f"line {lineno}: negative vertex count {n}")
    return n


def _parent_dimacs_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphInputError(f"line {lineno}: non-integer {token!r}") from None


def _parent_build_graph(edges, n: int) -> Graph:
    """Build a graph from an edge list; duplicates collapse, self-loops reject."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"vertex id out of range in edge ({u},{v}), n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in sets))


def _outcome(parse, *args):
    """(adj, masks, m, n) of the parsed graph, or the exception's type and text."""
    try:
        g = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return g.adj, g.masks, g.m, g.n


_BAD_TOKENS = ("x", "1.5", "0x3", "", "--1")


def _edgelist_line(rng, n, edges):
    """One random edgelist line, malformed with a small probability."""
    sep = rng.choice((" ", "\t", "  ", " \t "))
    roll = rng.random()
    if roll < 0.06 and edges:  # a duplicate, either way round
        u, v = rng.choice(edges)
        return f"{v}{sep}{u}" if rng.random() < 0.5 else f"{u}{sep}{v}"
    if roll < 0.11:
        return rng.choice(("# a comment", "#", "   # indented", "#0 1"))
    if roll < 0.16:
        return rng.choice(("", "   ", "\t", " \t "))
    if roll < 0.19:  # malformed
        return rng.choice((
            f"{rng.randrange(n + 2)}",
            f"1{sep}2{sep}3",
            f"{rng.choice(_BAD_TOKENS)}{sep}1",
            f"-1{sep}{rng.randrange(n + 2)}",
            f"2{sep}2",
            f"{n + rng.randrange(3)}{sep}0",
        ))
    u = rng.randrange(max(n, 2))
    v = rng.choice([w for w in range(max(n, 2)) if w != u])
    edges.append((u, v))
    line = f"{u}{sep}{v}"
    tail = rng.random()
    if tail < 0.1:
        line += f" # edge {u}-{v}"
    elif tail < 0.15:
        line += "#glued"
    elif tail < 0.18:
        line = f"{u}{sep}{v}#{rng.randrange(9)}"
    elif tail < 0.2:
        line = f" {line} "
    return line


def _edgelist_text(rng) -> str:
    n = rng.randint(1, 9)
    edges: list[tuple[int, int]] = []
    lines = [_edgelist_line(rng, n, edges) for _ in range(rng.randint(0, 14))]
    headers = rng.choices((0, 1, 2), weights=(3, 6, 1))[0]
    for _ in range(headers):
        count = rng.choice((n, n, n + 1, max(n - 2, 0), "x", -1))
        lines.insert(rng.randint(0, len(lines)), f"n {count}")
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def _dimacs_line(rng, n):
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(("c a comment", "c", "comment", "  c indented"))
    if roll < 0.13:
        return rng.choice(("", "  ", "\t"))
    if roll < 0.17:  # malformed
        return rng.choice((
            "e 1",
            "e 1 2 3",
            f"e {rng.choice(_BAD_TOKENS)} 1",
            f"e 0 {rng.randint(1, n)}",
            f"e {n + 1} 1",
            "e 2 2",
            "x 1 2",
        ))
    u = rng.randint(1, n)
    v = rng.choice([w for w in range(1, n + 1) if w != u])
    return f"e{rng.choice((' ', chr(9)))}{u} {v}"


def _dimacs_text(rng) -> str:
    n = rng.randint(2, 9)
    lines = [_dimacs_line(rng, n) for _ in range(rng.randint(0, 12))]
    e_lines = sum(line.split()[:1] == ["e"] for line in lines)
    heads = rng.choices((0, 1, 2), weights=(1, 12, 2))[0]
    for i in range(heads):
        m = e_lines if rng.random() < 0.8 else rng.choice((e_lines + 1, "foo", -1, 7))
        head = f"p edge {n} {m}" if rng.random() < 0.95 else rng.choice(
            (f"p edge {n}", f"p node {n} {m}", f"p edge x {m}")
        )
        # the first header mostly comes first, where edge lines may follow it
        at = 0 if i == 0 and rng.random() < 0.7 else rng.randint(0, len(lines))
        lines.insert(at, head)
    return rng.choice(("\n", "\r\n")).join(lines) + "\n"


def _line_of(message) -> float:
    """The line an error message names, or infinity for an end-of-text error."""
    text = message if isinstance(message, str) else ""
    if text.startswith("line "):
        return int(text.split()[1].rstrip(":"))
    return float("inf")


def _header_check(text: str, fmt: str):
    """(line, message) of the first error the rewritten parser adds for this
    text, or None: a DIMACS edge count that is not a nonnegative integer, a
    second header line, an edge count that is not the number of edge lines,
    or a DIMACS line whose first word starts with c but is not c (the
    reference skips it as a comment). The line is where parsing stops,
    infinity for the end."""
    heads = []  # (line, parts) of the header lines
    e_lines = 0
    worded = None  # (line, message) of the first such DIMACS line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if fmt == "dimacs" and worded is None and raw.split()[:1] not in ([], ["c"]) \
                and raw.strip().startswith("c"):
            worded = lineno, f"line {lineno}: unrecognized line {raw!r}"
        if fmt == "edgelist":
            parts = raw.split("#", 1)[0].split()
            if parts[:1] == ["n"] and len(parts) == 2:
                heads.append((lineno, parts))
        elif not raw.strip().startswith("c"):
            parts = raw.split()
            if parts[:1] == ["p"]:
                heads.append((lineno, parts))
            e_lines += parts[:1] == ["e"]
    return min((c for c in (_header_error(heads, e_lines, fmt), worded) if c is not None),
               default=None, key=lambda c: c[0])


def _header_error(heads, e_lines: int, fmt: str):
    """(line, message) of the header error of _header_check, or None."""
    m = None
    if fmt == "dimacs" and heads:
        lineno, parts = heads[0]
        if len(parts) == 4 and parts[1] == "edge" and parts[2].isdigit():
            try:
                m = int(parts[3])
            except ValueError:
                return lineno, f"line {lineno}: non-integer {parts[3]!r}"
            if m < 0:
                return lineno, f"line {lineno}: negative edge count {m}"
    if len(heads) > 1:
        lineno = heads[1][0]
        what = "vertex count header" if fmt == "edgelist" else "problem line"
        return lineno, f"line {lineno}: second {what}"
    if m is not None and m != e_lines:
        lineno = heads[0][0]
        return float("inf"), f"line {lineno}: problem line declares {m} edges, found {e_lines}"
    return None


class TestParserDifferential:
    """The rewritten parsers against the verbatim references above, on seeded
    random texts: the same graph, bit for bit, or the same error."""

    def _check(self, rng, fmt, make, reference, count):
        tally = {"graph": 0, "error": 0, "second header": 0, "edge count": 0, "c word": 0}
        for _ in range(count):
            text = make(rng)
            got = _outcome(parse_graph, text, fmt)
            want = _outcome(reference, text)
            check = _header_check(text, fmt)
            if check is not None and not _line_of(want[1]) < check[0]:
                # the reference accepts the text or fails later on
                assert got == (GraphInputError, check[1]), text
                tally["second header" if "second" in check[1] else
                      "c word" if "unrecognized" in check[1] else "edge count"] += 1
                continue
            assert got == want, text
            tally["error" if want[0] is GraphInputError else "graph"] += 1
        return tally

    def test_edgelist(self):
        tally = self._check(
            random.Random(2501), "edgelist", _edgelist_text, _parent_parse_edgelist, 1500
        )
        assert tally["graph"] >= 500 and tally["error"] >= 500
        assert tally["second header"] >= 50

    def test_dimacs(self):
        tally = self._check(
            random.Random(2502), "dimacs", _dimacs_text, _parent_parse_dimacs, 1500
        )
        assert tally["graph"] >= 500 and tally["error"] >= 500
        assert tally["second header"] >= 50 and tally["edge count"] >= 100
        assert tally["c word"] >= 20

    def test_build_graph(self):
        rng = random.Random(2503)
        for _ in range(500):
            n = rng.randint(0, 12)
            edges = [
                (rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 30))
            ]
            if rng.random() < 0.7:  # mostly valid lists, duplicates kept
                edges = [(u, v) for u, v in edges if 0 <= u < n and 0 <= v < n and u != v]
                edges += [(v, u) for u, v in edges[: rng.randint(0, len(edges))]]
            assert _outcome(build_graph, edges, n) == _outcome(_parent_build_graph, edges, n)


class TestGadget:
    def test_c4_counts(self):
        gp = gen_hardness_gadget(cycle_graph(4))
        assert gp.n == 12 and gp.m == 16
        assert eg_bound(gp) == Fraction(32, 11)

    def test_k3_rejected(self):
        with pytest.raises(PreconditionError):
            gen_hardness_gadget(complete(3))

    def test_c5_counts(self):
        # m' = n*C(n-1,2) + m = 5*6+5 = 35, so eg = 70/19
        gp = gen_hardness_gadget(cycle_graph(5))
        assert gp.n == 20 and gp.m == 35
        assert eg_bound(gp) == Fraction(70, 19)

    def test_window_inequalities_random(self):
        rng = random.Random(31)
        count = 0
        while count < 20:
            n = rng.randint(4, 7)
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
            if eg_bound(g) > n - 1:
                continue
            gp = gen_hardness_gadget(g)
            eg = eg_bound(gp)
            assert n - 2 < eg <= n - 1
            count += 1

    def test_ids_preserved(self):
        g = cycle_graph(4)
        gp = gen_hardness_gadget(g)
        for u, v in g.edges():
            assert gp.has_edge(u, v)


class TestGenerators:
    def test_gnp2c(self):
        g, meta = gen_instance("gnp2c", {"n": 10, "prob": 0.5}, seed=3)
        assert g.n == 10 and is_biconnected(g)

    def test_near_complete_floors(self):
        g, meta = gen_instance("near_complete", {"n": 64, "min_degree": 36}, seed=1)
        assert g.n == 64 and g.min_degree() >= 36

    def test_bipartite_dense_floors(self):
        g, meta = gen_instance("bipartite_dense", {"p": 20, "k": 2}, seed=5)
        A, B = meta["A"], meta["B"]
        assert all(g.degree(a) >= 40 for a in A)
        assert all(g.degree(b) >= 18 for b in B)
        for b in B:
            assert all(w in set(A) for w in g.adj[b])

    def test_lemma7_trace_branches(self):
        from madcycle.extract import (
            BipartiteDense,
            FoundCycle,
            SmallDense,
            find_dense,
        )

        for branch, expect in (
            ("glue", FoundCycle),
            ("dirac_found", FoundCycle),
            ("small_dense", SmallDense),
            ("bip_dense", BipartiteDense),
        ):
            g, meta = gen_instance("lemma7_trace", {"branch": branch}, seed=0)
            k = meta.get("k", 1)
            w, _ = find_dense(g, k)
            assert isinstance(w, expect), branch

    def test_random_cyclable_pairs(self):
        rng = random.Random(12)
        for _ in range(20):
            pairs = random_cyclable_pairs(range(30), rng.randint(1, 6), rng)
            assert is_potentially_cyclable(pairs)


class TestEmitResult:
    def test_golden_k4_k0(self):
        res = solve(complete(4), 0)
        out = emit_result(res)
        assert out == (
            b'{"answer":"yes","k":0,"mad":{"num":3,"den":1},"threshold_len":4,'
            b'"cycle":[2,0,1,3],"branch":"k0","stats":{}}\n'
        )

    def test_no_result_has_null_cycle(self):
        res = solve(complete(4), 2)
        out = emit_result(res)
        assert b'"cycle":null' in out
        assert b'"answer":"no"' in out

    def test_unknown_reason_round_trips(self):
        import json

        from madcycle.solver import exact_longest_cycle_fallback

        res = exact_longest_cycle_fallback(complete(30), 3)
        obj = json.loads(emit_result(res))
        assert obj["answer"] == "unknown"
        assert "reason" in obj["stats"]

    def test_deterministic_bytes(self):
        a = emit_result(solve(complete(6), 1))
        b = emit_result(solve(complete(6), 1))
        assert a == b
