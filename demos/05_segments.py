"""Systems of T-segments found by color coding, validated by brute force.

A T-segment starts and ends in T with all internal vertices outside; a
system is a set of internally disjoint segments whose endpoint pairs form a
linear forest. The solver asks for systems with exact path and internal
counts, and (in the bipartite case) exact side classifications.
"""

from madcycle import SegmentSearch, build_graph, find_segments, find_segments_partitioned
from madcycle.oracles import oracle_segments

# two bridges and a pendant path around a 4-vertex core
g = build_graph(
    [(0, 5), (5, 6), (6, 1), (2, 7), (7, 3), (0, 2), (4, 8), (8, 9)], 10
)
T = {0, 1, 2, 3}

print("host edges:", list(g.edges()))
print("T =", sorted(T), "\n")
for r, p in ((1, 1), (1, 2), (2, 3), (2, 4)):
    system = find_segments(g, T, r, p)
    brute = oracle_segments(g, T, r, p)
    shown = [s.vertices for s in system.paths] if system else None
    print(f"r={r}, p={p}: oracle={brute!s:5}  found={shown}")

print("\npartitioned search with A = {0, 1}, B = {2, 3}:")
search = SegmentSearch(g, T, {0, 1}, 3)  # one search answers every probe
for r, p, s, t in ((2, 3, 1, 1), (2, 3, 0, 1), (1, 2, 1, 0)):
    system = find_segments_partitioned(search, r, p, s, t)
    shown = [x.vertices for x in system.paths] if system else None
    print(f"r={r}, p={p}, A-segments={s}, B-segments={t}: {shown}")

print("""
Note the A-segment rule: a segment with both ends in A needs two internal
vertices, so (r=1, p=1, s=1) style queries are rejected structurally.""")
