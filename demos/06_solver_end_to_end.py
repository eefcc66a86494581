"""The full decision pipeline, end to end.

Dispatch on k: the constructive k=0 branch, the exact small-instance
fallback, and the dense trichotomy with routed splicing. Every yes carries a
certificate verified against the exact rational threshold.
"""

from madcycle import build_graph, emit_result, solve
from madcycle.instances import gen_instance

petersen = build_graph(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    10,
)

print("Petersen graph (mad = 3, circumference 9):")
for k in (0, 1, 5, 6, 7):
    res = solve(petersen, k)
    cert = f" len={len(res.certificate)}" if res.certificate else ""
    print(f"  k={k}: {res.answer:3s} via {res.branch}{cert} (threshold {res.threshold_len})")

print("\nK200, k=1 (dense pipeline in the k range, first Dirac cycle Hamiltonian):")
k200 = build_graph([(i, j) for i in range(200) for j in range(i + 1, 200)], 200)
res = solve(k200, 1)
print(f"  {res.answer} via {res.branch}, cycle of length {len(res.certificate)}")

print("\nsplit graph with one outside segment, dense pipeline out of the k range:")
g, _ = gen_instance("lemma7_trace", {"branch": "bip_dense_yes"}, 0)
res = solve(g, 1)
print(f"  {res.answer} via {res.branch}, cycle of length {len(res.certificate)}")
print("  JSON:", emit_result(res).decode().strip()[:120], "...")

print("\npath mode (universal-vertex reduction):")
res = solve(petersen, 3, mode="path")
print(f"  path with >= mad+3 = 6 vertices: {res.answer}, "
      f"witness {res.path_certificate.vertices if res.path_certificate else None}")
