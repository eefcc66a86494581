"""Long cycles above the maximum-average-degree bound, with certificates.

Library layout (one module per concern):

- graph:      immutable graphs, exact density quantities, certificates
- density:    exact densest subgraph / mad via load flows, with a checkable certificate
- reduction:  density-preserving pruning rules
- cyclesearch: rotation-extension, short-detour and insertion moves, exact cycle DFS
- longpaths:  Dirac cycles, Fan (s,t)-paths, the one depth-first st-path search
- segments:   systems of T-segments by color coding
- routing:    cycles through prescribed pairs in dense graphs
- extract:    the trichotomy (long cycle / small dense / bipartite dense)
- solver:     the full decision pipeline with certificates
- oracles:    brute-force ground truth for small instances
- instances:  file formats, generators, hardness gadget
- cli:        command-line front end
"""

from .density import DensityWitness, densest_decision, mad_with_witness
from .extract import (
    BipartiteDense,
    FoundCycle,
    SmallDense,
    check_dirac_decomposition,
    corollary5_engine,
    find_dense,
    refine_vertex_cover_to_partition,
)
from .graph import (
    CycleCertificate,
    Graph,
    PathCertificate,
    avg_degree,
    avg_degree_of_set,
    blocks_and_cut_vertices,
    build_graph,
    eg_bound,
    two_separators,
    verify_cycle_certificate,
    verify_path_certificate,
)
from .instances import (
    emit_graph,
    emit_result,
    gen_hardness_gadget,
    gen_instance,
    parse_graph,
)
from .longpaths import dirac_cycle, fan_path, st_path_at_least
from .reduction import apply_rule, reduce_exhaustive
from .routing import cover_side_through_pairs, hamiltonian_through_pairs
from .segments import (
    SegmentSystem,
    find_segments,
    find_segments_partitioned,
    validate_segment_system,
)
from .solver import (
    SolveResult,
    case_bipartite_dense,
    case_small_dense,
    exact_longest_cycle_fallback,
    k0_constructive_cycle,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteDense",
    "CycleCertificate",
    "DensityWitness",
    "FoundCycle",
    "Graph",
    "PathCertificate",
    "SegmentSystem",
    "SmallDense",
    "SolveResult",
    "apply_rule",
    "avg_degree",
    "avg_degree_of_set",
    "blocks_and_cut_vertices",
    "build_graph",
    "case_bipartite_dense",
    "case_small_dense",
    "check_dirac_decomposition",
    "corollary5_engine",
    "cover_side_through_pairs",
    "densest_decision",
    "dirac_cycle",
    "eg_bound",
    "emit_graph",
    "emit_result",
    "exact_longest_cycle_fallback",
    "fan_path",
    "find_dense",
    "find_segments",
    "find_segments_partitioned",
    "gen_hardness_gadget",
    "gen_instance",
    "hamiltonian_through_pairs",
    "k0_constructive_cycle",
    "mad_with_witness",
    "parse_graph",
    "reduce_exhaustive",
    "refine_vertex_cover_to_partition",
    "solve",
    "st_path_at_least",
    "two_separators",
    "validate_segment_system",
    "verify_cycle_certificate",
    "verify_path_certificate",
]
