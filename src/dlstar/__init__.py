"""Exact word-metric and horofunction computations on Diestel-Leader graphs.

The package works with DL_d(q), the graph whose vertices are d-tuples of
vertices in (q+1)-regular trees subject to a zero-sum height constraint.
Everything here is exact integer arithmetic: distances come from a
closed-form over coordinate profiles (cross-checked against breadth-first
search), boundary values from exact limits of distance differences along
explicit vertex families.

Quick start::

    from dlstar import DLParams, identity, parse_vertex, distance, beta_value

    params = DLParams(d=3, q=2)
    z = parse_vertex("0:0|2:1,0|2:1", params)
    print(distance(identity(params), z), beta_value(z))
"""

from .dlgraph import (
    DEFAULT_MEMORY_CAP,
    MAX_DIMENSION,
    DLParams,
    DLVertex,
    PointFamily,
    alpha_family,
    ball_distances,
    beta_family,
    format_vertex,
    gamma_family,
    identity,
    make_vertex,
    neighbors,
    nu_family,
    nu_point,
    parse_vertex,
    vertex_sort_key,
    zeta_family,
    zeta_point,
)
from .errors import (
    DimensionMismatch,
    HeightImbalance,
    MemoryCapExceeded,
    NonCanonicalWarning,
    NotBalanced,
    ProfileMismatch,
    TableMismatch,
    VertexSyntax,
    WrongDimension,
)
from .horofn import (
    AffineInN,
    BetaDistRow,
    BetaDistTable,
    HorofunctionValue,
    ProbeReport,
    beta_value,
    betandist_table,
    limit_value,
    printed_probe_set,
    probe_disagreement,
    shifts,
    symmetric_probe_set,
)
from .metric import (
    VERIFIED_CONFIGS,
    BoundReport,
    PairProfile,
    all_permutations,
    balanced_compare,
    bfs_distance,
    check_coord_dominance,
    check_f_dominance,
    distance,
    f_row_max,
    f_rows,
    f_value,
    lower_bounds,
    pair_profile,
    profile_distance,
)
from .stars import (
    StarWitnessReport,
    VerificationReport,
    nk_beta_truncation,
    separation_evidence,
    star_witness,
)
from .treecoord import (
    ORIGIN,
    TreeVertex,
    canonical_paths,
    canonicalize,
    format_tree,
    is_canonical,
    pair_stats,
    parse_tree,
    tree_distance,
)
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [
    "AffineInN",
    "BetaDistRow",
    "BetaDistTable",
    "BoundReport",
    "DEFAULT_MEMORY_CAP",
    "DLParams",
    "DLVertex",
    "DimensionMismatch",
    "HeightImbalance",
    "HorofunctionValue",
    "MAX_DIMENSION",
    "MemoryCapExceeded",
    "NonCanonicalWarning",
    "NotBalanced",
    "ORIGIN",
    "PairProfile",
    "PointFamily",
    "ProbeReport",
    "ProfileMismatch",
    "StarWitnessReport",
    "TableMismatch",
    "TreeVertex",
    "VERIFIED_CONFIGS",
    "VerificationReport",
    "VertexSyntax",
    "WrongDimension",
    "all_permutations",
    "alpha_family",
    "balanced_compare",
    "ball_distances",
    "beta_family",
    "beta_value",
    "betandist_table",
    "bfs_distance",
    "canonical_paths",
    "canonicalize",
    "check_coord_dominance",
    "check_f_dominance",
    "distance",
    "f_row_max",
    "f_rows",
    "f_value",
    "format_tree",
    "format_vertex",
    "gamma_family",
    "identity",
    "is_canonical",
    "limit_value",
    "lower_bounds",
    "make_vertex",
    "neighbors",
    "nk_beta_truncation",
    "nu_family",
    "nu_point",
    "pair_profile",
    "pair_stats",
    "parse_tree",
    "parse_vertex",
    "printed_probe_set",
    "probe_disagreement",
    "profile_distance",
    "run_suites",
    "separation_evidence",
    "shifts",
    "star_witness",
    "symmetric_probe_set",
    "tree_distance",
    "vertex_sort_key",
    "zeta_family",
    "zeta_point",
]
