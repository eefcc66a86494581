"""Density-preserving pruning: the four reduction rules over 2m/(n-1).

Each rule decides on the graph it is handed and answers in its labels. The
reduction builds the core once per round, as the induced subgraph of the
host labelled in ascending host id, runs the rules on it and maps their
answers to host ids, so any cycle found in the survivor is verbatim a cycle
of the host. Its trace hands the final core graph forward with its map to
the host's ids: every later step works on that one graph.

Rule order stands in for connectivity guards: every rule set starts with
rules 1 and 2, and the core always keeps an edge, so rule 1 fires on every
disconnected core, rule 2 on every connected one with a cut vertex, and
rules 3 and 4 see only an edge or a 2-connected core. Rules 1, 2 and 4 read
the core's one lowpoint DFS, which the core keeps (graph._lowpoint), and
rule 4 its 2-separators, which the core keeps too (graph.two_separators);
rules 2 and 4 raise PreconditionError where they do not apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError
from .graph import (
    Graph,
    _lowpoint,
    avg_degree_of_set,
    blocks_and_cut_vertices,
    eg_bound,
    edges_within,
    induced_subgraph,
    subset_components,
    two_separators,
)


@dataclass(frozen=True)
class ReductionStep:
    rule: int
    removed: frozenset[int]
    eg_before: Fraction
    eg_after: Fraction


@dataclass
class ReductionTrace:
    """The steps of a reduction and the core it ends with.

    `core` is the final core as a graph of its own, labelled 0..n-1 in
    ascending host id, and `core_ids[i]` is the host id of its vertex i.
    """

    steps: list[ReductionStep] = field(default_factory=list)
    core: Graph | None = None
    core_ids: tuple[int, ...] = ()

    def to_jsonable(self) -> list[dict]:
        return [
            {
                "rule": s.rule,
                "removed": sorted(s.removed),
                "eg_before": {"num": s.eg_before.numerator, "den": s.eg_before.denominator},
                "eg_after": {"num": s.eg_after.numerator, "den": s.eg_after.denominator},
            }
            for s in self.steps
        ]


def _keep_densest(g: Graph, vs: frozenset[int], parts):
    """Rules 1 and 2: keep the part of greatest 2m/(n-1), ties to the part
    with the least vertex, and remove the rest of vs."""
    best = min(parts, key=lambda p: (-Fraction(2 * edges_within(g, p), len(p) - 1), min(p)))
    keep = frozenset(best)
    return keep, vs - keep


def apply_rule(g: Graph, rule: int) -> tuple[frozenset[int], frozenset[int]] | None:
    """One application of a reduction rule to g, answered in g's labels.

    Returns (survivors, removed) or None when the rule does not apply, as
    on a graph of fewer than 2 vertices. Deterministic choices: maximize the
    surviving 2m/(n-1), ties to the part with the least vertex; rule 3
    removes the least qualifying vertex; rule 4 uses the lexicographically
    first (separator, component). Rule 4 reads two_separators, which g
    keeps: a later reader of the same Graph object gets the pairs without a
    second scan.
    """
    if g.n < 2:
        return None
    vs = frozenset(g.vertices())

    if rule == 1:
        if _lowpoint(g)[0] is not None:  # connected; rule 2 reads the same DFS
            return None
        comps = [c for c in subset_components(g, vs) if len(c) >= 2]
        return _keep_densest(g, vs, comps) if comps else None

    if rule == 2:
        blocks, cuts = blocks_and_cut_vertices(g)
        return _keep_densest(g, vs, blocks) if cuts else None

    if rule == 3:
        if g.n < 3:
            return None
        # degree <= eg/2 = m/(n-1), in integers
        for v in g.vertices():
            if g.degree(v) * (g.n - 1) <= g.m:
                return vs - {v}, frozenset({v})
        return None

    if rule == 4:
        if g.n < 4:
            return None
        seps = two_separators(g)
        before = eg_bound(g)
        threshold = Fraction(2, 3) * before
        for x, y in seps:
            for comp in subset_components(g, vs - {x, y}):
                if avg_degree_of_set(g, comp) <= threshold:
                    rest = vs.difference(comp)
                    # the density-preservation proof for this rule needs
                    # 2m/(n-1) > 6; below that, commit only non-decreasing
                    # applications (above it the check never fails)
                    if Fraction(2 * edges_within(g, rest), len(rest) - 1) < before:
                        continue
                    return rest, frozenset(comp)
        return None

    raise PreconditionError(f"unknown rule {rule}")


ALL_RULES = (1, 2, 3, 4)
K0_RULES = (1, 2, 3)  # enough for the k = 0 cycle: see k0_constructive_cycle


def reduce_exhaustive(
    g: Graph, vertices=None, rules: tuple[int, ...] = ALL_RULES
) -> tuple[frozenset[int], ReductionTrace]:
    """Apply the given rules until none fires, lowest-numbered rule first.

    `rules` is the rule set: ALL_RULES for the dense-subgraph trichotomy,
    K0_RULES for the k = 0 cycle, which so never runs the 2-separator scan
    of rule 4; a set without rules 1 and 2 raises PreconditionError. Claim
    safety: 2m/(n-1) never decreases across a step. The survivor of a run
    starting from a graph with an edge always keeps at least one edge. Each
    round builds the core once and runs the rules on it; its labels ascend
    with the host's ids, so every min-id and lexicographic tie-break picks
    as in g. When rule 4 is in the set, it is the last rule tried, so a
    final core of 4 or more vertices has already scanned its 2-separators:
    two_separators(trace.core) reads them from the graph without a rescan.
    """
    rules = tuple(sorted(rules))
    if rules[:2] != (1, 2):
        raise PreconditionError(f"rule set {rules} must start with rules 1 and 2")
    vs = frozenset(g.vertices()) if vertices is None else frozenset(vertices)
    if len(vs) < 2:
        raise PreconditionError("reduction needs at least two vertices")
    sub, ids = induced_subgraph(g, vs)
    if sub.m == 0:
        raise PreconditionError("reduction needs at least one edge")

    trace = ReductionTrace()
    while True:
        before = eg_bound(sub)
        fired = None
        for rule in rules:
            res = apply_rule(sub, rule)
            if res is not None:
                fired = (rule, res)
                break
        if fired is None:
            break
        rule, (keep, removed) = fired
        sub, local = induced_subgraph(sub, keep)
        removed = frozenset(ids[v] for v in removed)
        ids = tuple(ids[v] for v in local)
        trace.steps.append(ReductionStep(rule, removed, before, eg_bound(sub)))
    trace.core, trace.core_ids = sub, ids
    return frozenset(ids), trace
