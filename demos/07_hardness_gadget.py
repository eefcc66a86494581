"""Why 2-connectivity matters: the hardness transform.

Attaching a clique of n-2 fresh vertices to every vertex pins the density
bound of the new graph into (n-2, n-1], so asking for a cycle one past the
bound is exactly asking whether the original graph is Hamiltonian. Long
cycles above the bound are NP-hard on merely-connected graphs.
"""

import math
from fractions import Fraction

from madcycle import build_graph, eg_bound, gen_hardness_gadget
from madcycle.oracles import oracle_longest_cycle

for name, edges, n in (
    ("C4", [(0, 1), (1, 2), (2, 3), (3, 0)], 4),
    ("P4", [(0, 1), (1, 2), (2, 3)], 4),
    ("C5", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5),
    ("paw", [(0, 1), (1, 2), (2, 0), (2, 3)], 4),
):
    g = build_graph(edges, n)
    gp = gen_hardness_gadget(g)
    eg = eg_bound(gp)
    ham = oracle_longest_cycle(g)[0] == n
    target = math.ceil(eg + 1)
    above = oracle_longest_cycle(gp, cap=20)[0] >= target
    print(
        f"{name:>14}: gadget n'={gp.n:2d} m'={gp.m:2d}  bound={eg}  "
        f"in window ({n - 2}, {n - 1}]: {n - 2 < eg <= n - 1}"
    )
    print(
        f"{'':>14}  Hamiltonian(G)={ham}  <->  cycle >= bound+1 in G'={above}"
    )
