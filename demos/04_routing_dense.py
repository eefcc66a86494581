"""Routing cycles through prescribed pairs in dense graphs.

Given a linear forest of vertex pairs (edges or non-edges), a dense enough
graph has a Hamiltonian cycle using every pair as a cycle edge; a dense
bipartite graph has a cycle through the pairs covering the whole small side,
of length exactly 2p - s + t. These are the splice targets of the solver.
"""

import random

from madcycle import (
    build_graph,
    cover_side_through_pairs,
    gen_instance,
    hamiltonian_through_pairs,
)
from madcycle.instances import random_cyclable_pairs


def positions(cert, pairs):
    pos = {v: i for i, v in enumerate(cert.vertices)}
    return {p: (pos[p[0]], pos[p[1]]) for p in pairs}


g, meta = gen_instance("near_complete", {"n": 64, "min_degree": 36}, seed=9)
S = [(0, 9), (9, 33), (40, 41)]
cert = hamiltonian_through_pairs(g, S)
print(f"near-complete n={g.n} (min degree {g.min_degree()}), pairs {S}")
print(f"  Hamiltonian cycle of length {len(cert)}; pair positions {positions(cert, S)}\n")

g, meta = gen_instance("bipartite_dense", {"p": 20, "k": 2}, seed=4)
A, B = set(meta["A"]), set(meta["B"])
rng = random.Random(2)
S = random_cyclable_pairs(range(g.n), 3, rng)
s = sum(1 for u, v in S if u in A and v in A)
t = sum(1 for u, v in S if u in B and v in B)
cert = cover_side_through_pairs(g, A, S, k=2)
print(f"bipartite-dense p=20: pairs {S} with (A-pairs, B-pairs) = ({s}, {t})")
print(f"  covering cycle length {len(cert)} == 2p - s + t = {2 * 20 - s + t}")
print(f"  covers all of A: {A <= set(cert.vertices)}")
