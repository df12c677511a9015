"""percforge: minimum percolating sets and weak saturation certificates on
hypercubes and multidimensional grids, with exact-arithmetic verification.

The package is organized around checked artifacts: infection traces,
replayable weak-saturation certificates, exact-rational rank certificates
for the lower bounds, simulation-verified percolating witnesses, and
auditable exhaustion records from the symmetry-reduced exact search.
"""

from .grid import GridError, GridSpec, VertexSet, parse_grid
from .bootstrap import (
    InfectionState,
    InfectionTrace,
    closure,
    infect_step_mask,
    percolates,
    step,
)
from .counts import (
    DomainError,
    ExactBound,
    grid_edge_count,
    m_lower_grid,
    m_lower_grid_r2,
    m_lower_hypercube,
    w_recurrence,
    wsat_grid_closed,
    wsat_hypercube,
)
from .saturation import (
    CertCheck,
    ExplicitGraph,
    SaturationCertificate,
    SaturationFailure,
    StarWitness,
    WsatOracleResult,
    brute_force_wsat,
    build_wsat_grid,
    build_wsat_hypercube,
    derived_initial_set,
    greedy_saturate,
    verify_certificate,
)
from .linalg import (
    CertificationError,
    LinalgError,
    SupportSubspace,
    build_support_subspace,
    find_support_vector,
)
from .families import (
    EdgeVectorFamily,
    FamilyError,
    RankCertificate,
    assemble_lower_bound,
    build_edge_vectors_grid,
    build_edge_vectors_hypercube,
    family_rank,
    rank_certificate_from_json_doc,
    recheck_rank_certificate,
    verify_family,
    verify_star_relations,
)
from .witnesses import (
    PercolatingWitness,
    PercolationConstructionError,
    base_set,
    build_r3,
    build_recursive,
    explicit_r3_set,
    r3_target_size,
)
from .search import (
    ExhaustionRecord,
    SearchConfig,
    SearchResult,
    canonical_form,
    exact_min,
    exhaust_layer,
    grid_automorphisms,
)
from .audit import run_audit

__all__ = [
    "GridError",
    "GridSpec",
    "VertexSet",
    "parse_grid",
    "InfectionState",
    "InfectionTrace",
    "closure",
    "infect_step_mask",
    "percolates",
    "step",
    "DomainError",
    "ExactBound",
    "grid_edge_count",
    "m_lower_grid",
    "m_lower_grid_r2",
    "m_lower_hypercube",
    "w_recurrence",
    "wsat_grid_closed",
    "wsat_hypercube",
    "CertCheck",
    "ExplicitGraph",
    "SaturationCertificate",
    "SaturationFailure",
    "StarWitness",
    "WsatOracleResult",
    "brute_force_wsat",
    "build_wsat_grid",
    "build_wsat_hypercube",
    "derived_initial_set",
    "greedy_saturate",
    "verify_certificate",
    "CertificationError",
    "LinalgError",
    "SupportSubspace",
    "build_support_subspace",
    "find_support_vector",
    "EdgeVectorFamily",
    "FamilyError",
    "RankCertificate",
    "assemble_lower_bound",
    "build_edge_vectors_grid",
    "build_edge_vectors_hypercube",
    "family_rank",
    "rank_certificate_from_json_doc",
    "recheck_rank_certificate",
    "verify_family",
    "verify_star_relations",
    "PercolatingWitness",
    "PercolationConstructionError",
    "base_set",
    "build_r3",
    "build_recursive",
    "explicit_r3_set",
    "r3_target_size",
    "ExhaustionRecord",
    "SearchConfig",
    "SearchResult",
    "canonical_form",
    "exact_min",
    "exhaust_layer",
    "grid_automorphisms",
    "run_audit",
]

__version__ = "0.1.0"
