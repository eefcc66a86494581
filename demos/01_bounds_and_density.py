"""Density bounds on small graphs, exactly.

Walks through the three density quantities the library is built on: the
cycle-length bound 2m/(n-1), the average degree 2m/n, and the maximum
average degree over induced subgraphs (computed by load flows and
cross-checked against subset enumeration).
"""

from fractions import Fraction

from madcycle import avg_degree, build_graph, eg_bound, mad_with_witness
from madcycle.oracles import oracle_mad


def show(name, g):
    w = mad_with_witness(g)
    print(f"{name:>18}: n={g.n:2d} m={g.m:2d}  2m/(n-1)={eg_bound(g)}  "
          f"ad={avg_degree(g)}  mad={w.mad}  witness={sorted(w.vertices)}")
    assert w.mad == oracle_mad(g), "flow and enumeration disagree?!"


petersen = build_graph(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    10,
)
bowtie = build_graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 5)
k5_pendant = build_graph(
    [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)], 6
)

print("Exact density quantities (no floats anywhere):\n")
show("Petersen", petersen)
show("bowtie", bowtie)
show("K5 + pendant", k5_pendant)

print("""
Note how the pendant drags the average degree of the whole graph down while
mad stays at 4: the densest induced subgraph (the K5) is what the long-cycle
guarantee is pinned to. The sandwich 2m/(n-1) - 1 <= 2m/n < 2m/(n-1) holds
with exact rationals on every graph with an edge:""")
for name, g in (("Petersen", petersen), ("bowtie", bowtie)):
    eg, ad = eg_bound(g), avg_degree(g)
    print(f"  {name}: {eg - 1} <= {ad} < {eg}  ->  {eg - 1 <= ad < eg}")
