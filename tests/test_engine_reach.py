"""Every statement of the trichotomy engine runs in some golden case, or is listed.

The statements of `extract.py`, `cyclesearch.py`, `longpaths.dirac_cycle`
and `reduction.py` are read from their syntax trees (docstrings aside). The
golden fixture's solves and routing calls (`test_golden.py`) run under
`sys.settrace`, and a statement runs when its first line emits a line event.
A block is a run of consecutive unrun statements whose enclosing statement
ran; it is named by its module, its function and its first line, and
several blocks may share a name. The blocks must be exactly ALLOWED: a
block that falls out of reach fails the test, and so does an allowed block
that a golden case starts to run, so the list stays short and true. A
branch that no solve reaches gets a golden case or goes; the list keeps only
checks on input, verification failures, budget trips and the Dirac
backstops.
"""

from __future__ import annotations

import ast
import sys
import types
from collections import Counter
from pathlib import Path

from madcycle import cyclesearch, extract, longpaths, reduction

import test_golden

# (module, function, first line of an unrun block) -> why no golden case runs
# it; a tuple gives one reason for each of the blocks that share the name
ALLOWED = {
    ("extract", "corollary5_engine",
     'raise PreconditionError(f"C is not a cycle of h: {chk.reason}")'):
        "check on input: find_dense hands the engine verified cycles of the core",
    ("extract", "corollary5_engine", "raise EngineIncomplete("):
        "engine incomplete: find_dense calls the engine at k' = threshold - 2 delta, "
        "so it raises only if growth fails and the greedy cover exceeds "
        "2 threshold - 3 delta; no census solve and no random small core does",
    ("extract", "refine_vertex_cover_to_partition",
     "v = lowest_off(masks[u] & b_mask, ())"):
        "check on input: the engine's cover is a cover",
    ("extract", "refine_vertex_cover_to_partition",
     'raise _refinement_failed("cover too large: |X| > (ad+3k+3)/2")'):
        "verification failure of the bipartite-dense pair",
    ("extract", "refine_vertex_cover_to_partition",
     'raise _refinement_failed(f"vertex {v} has degree below |A|-2k-2 into A")'):
        "verification failure of the bipartite-dense pair",
    ("extract", "find_dense",
     'raise PreconditionError("find_dense needs at least two vertices")'):
        "check on input: solve hands find_dense 2-connected graphs",
    ("extract", "find_dense", 'raise PreconditionError("k must be positive")'):
        "check on input: solve sends k = 0 to the k0 branch",
    ("extract", "find_dense", "raise ConstructionFailure("):
        "check on input: no reduction of a 2-connected graph's densest part "
        "leaves fewer than 3 vertices",
    ("extract", "_glue_cycle",
     'raise ConstructionFailure("separator does not split the core")'):
        "verification failure: two_separators returns separating pairs",
    ("extract", "_glue_cycle",
     'raise ConstructionFailure("fan path degenerated to the virtual edge")'):
        "verification failure: each side of a separator holds a vertex",
    ("extract", "_check_small_dense",
     'raise ConstructionFailure("small-dense witness: ad(H) < mad - 1")'):
        "verification failure of the small-dense witness",
    ("extract", "_check_small_dense",
     'raise ConstructionFailure("small-dense witness: delta(H) < ad(H)/2")'):
        "verification failure of the small-dense witness",
    ("extract", "_check_small_dense",
     'raise ConstructionFailure("small-dense witness: |V(H)| >= ad(H)+k+1")'):
        "verification failure of the small-dense witness",
    ("cyclesearch", "rotation_round", "return"):
        "budget trip: the rotation budget, 50n steps for a Dirac cycle and 200n "
        "for the engine; no census solve and none of 22,345 random G(n, p) "
        "solves at n 25-45 spend it",
    ("cyclesearch", "long_cycle_search_best", "return None"):
        "check on input: the search's callers pass 2-connected graphs",
    ("cyclesearch", "long_cycle_search_best",
     "if full is not None and len(path) < g.n:"):
        "Dirac backstop: the post-round reopen and growth, behind the Hamiltonian "
        "cycle when 2 delta >= n; no dirac_cycle call on 56,856 random "
        "2-connected graphs reached it",
    ("cyclesearch", "_reopen", "on = set(cycle)"):
        "Dirac backstop: the reopen step of the post-round tail; no dirac_cycle "
        "call on 56,856 random 2-connected graphs reached it",
    ("cyclesearch", "_colorful_path", "raise StateBudgetExceeded()"):
        "budget trip: DET_STATE_BUDGET states take seconds; the contract fuzz "
        "trips it with lowered budgets",
    ("longpaths", "dirac_cycle",
     'raise PreconditionError("dirac_cycle needs a 2-connected graph")'):
        "check on input: both callers pass 2-connected cores",
    ("longpaths", "dirac_cycle", "try:"):
        "Dirac backstop: the exact fallback below the Dirac bound, which guards "
        "k = 0, where solve catches no ConstructionFailure; no dirac_cycle call "
        "on 56,856 random 2-connected graphs reached it",
    ("longpaths", "dirac_cycle", "raise ConstructionFailure("):
        "Dirac backstop: the failure after the exact fallback",
    ("reduction", "apply_rule", "return None"): (
        "check on input: reduce_exhaustive hands the rules cores with an edge",
        "check on input: rule 3 on 2 vertices; no rule leaves a core of 2 vertices "
        "from a densest part, which holds a cycle",
    ),
    ("reduction", "apply_rule", 'raise PreconditionError(f"unknown rule {rule}")'):
        "check on input: solves pass only ALL_RULES or K0_RULES",
    ("reduction", "reduce_exhaustive",
     'raise PreconditionError(f"rule set {rules} must start with rules 1 and 2")'):
        "check on input: solves pass only ALL_RULES or K0_RULES",
    ("reduction", "reduce_exhaustive",
     'raise PreconditionError("reduction needs at least two vertices")'):
        "check on input: solves reduce a densest part, which holds a cycle",
    ("reduction", "reduce_exhaustive",
     'raise PreconditionError("reduction needs at least one edge")'):
        "check on input: solves reduce a densest part, which holds a cycle",
}

# module -> the functions read, or None for all of them
TRACED = {extract: None, cyclesearch: None, longpaths: {"dirac_cycle"}, reduction: None}


def _functions(tree: ast.Module, only):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and (only is None or node.name in only):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and only is None:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _children(stmt: ast.stmt):
    """The statement lists nested in stmt."""
    yield from (getattr(stmt, part, []) for part in ("body", "orelse", "finalbody"))
    yield from (handler.body for handler in getattr(stmt, "handlers", []))


def _code_lines(source: str, path: str) -> set[int]:
    """The lines that carry bytecode, the only ones that emit line events."""
    out, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return out


def unrun_blocks(name: str, path: str, only, ran) -> Counter:
    """Counter of (name, function, first line) over the blocks of unrun
    statements of the file at path; ran holds the line numbers that ran."""
    source = Path(path).read_text()
    lines = source.splitlines()
    code_lines = _code_lines(source, path)
    out: Counter = Counter()

    def runs(stmt):
        # a statement given no bytecode of its own runs when its body does
        if stmt.lineno in code_lines:
            return stmt.lineno in ran
        return any(runs(s) for body in _children(stmt) for s in body)

    def walk(function, body):
        first = None
        for stmt in body + [None]:
            if stmt is not None and not runs(stmt):
                first = first or stmt
                continue
            if first is not None:
                out[(name, function, lines[first.lineno - 1].strip())] += 1
                first = None
            if stmt is not None:
                for nested in _children(stmt):
                    walk(function, nested)

    for function, node in _functions(ast.parse(source), only):
        body = node.body[1:] if _is_docstring(node.body[0]) else node.body
        walk(function, body)
    return out


def run_traced(paths, thunks) -> dict[str, set[int]]:
    """The line numbers of each file in paths that emit a line event while
    the thunks run, one after another."""
    ran: dict[str, set[int]] = {p: set() for p in paths}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for thunk in thunks:
            thunk()
    finally:
        sys.settrace(previous)
    return ran


def golden_thunks():
    out = [lambda g=g, kw=kw: test_golden._record_solve(g, kw)
           for _, g, kw in test_golden._solve_cases()]
    out += [lambda t=t: test_golden._record_routing(t)
            for _, t in test_golden._routing_cases()]
    return out


def allowed_blocks() -> Counter:
    """Counter of the ALLOWED names, each counted once per reason."""
    return Counter({key: len(why) if isinstance(why, tuple) else 1
                    for key, why in ALLOWED.items()})


def mismatch(unrun: Counter) -> tuple[list, list]:
    """(unlisted, stale): unrun blocks not in ALLOWED, and ALLOWED blocks
    that ran."""
    allowed = allowed_blocks()
    return sorted((unrun - allowed).elements()), sorted((allowed - unrun).elements())


def test_every_engine_statement_runs_in_a_golden_case_or_is_allowed():
    ran = run_traced([m.__file__ for m in TRACED], golden_thunks())
    unrun = Counter()
    for module, only in TRACED.items():
        name = module.__name__.rsplit(".", 1)[-1]
        unrun += unrun_blocks(name, module.__file__, only, ran[module.__file__])
    unlisted, stale = mismatch(unrun)
    assert not unlisted, f"no golden case runs {unlisted}: pin a solve that does, or list it"
    assert not stale, f"golden cases now run {stale}: drop them from ALLOWED"


def test_every_allowed_block_has_a_reason():
    reasons = [r for why in ALLOWED.values()
               for r in (why if isinstance(why, tuple) else [why])]
    assert all(reason.strip() for reason in reasons)


PLANTED = '''\
def engine(h, k, C):
    if len(C) > h.n:
        planted = "a cycle longer than its graph"
    return real(h, k, C)
'''


def test_a_planted_statement_that_no_solve_runs_is_reported(tmp_path, monkeypatch):
    path = str(tmp_path / "planted.py")
    Path(path).write_text(PLANTED)
    namespace = {"real": extract.corollary5_engine}
    exec(compile(PLANTED, path, "exec"), namespace)
    monkeypatch.setattr(extract, "corollary5_engine", namespace["engine"])
    _, g, kw = next(c for c in test_golden._solve_cases() if c[0] == "gnp25 p0.3 s4 k8")
    ran = run_traced([path], [lambda: test_golden._record_solve(g, kw)])
    assert {2, 4} <= ran[path] and 3 not in ran[path]  # the engine ran, the plant did not
    unrun = unrun_blocks("planted", path, None, ran[path])
    planted = ("planted", "engine", 'planted = "a cycle longer than its graph"')
    assert unrun == Counter({planted: 1})
    # beside exactly the allowed blocks, the plant alone is reported
    assert mismatch(unrun + allowed_blocks()) == ([planted], [])
