"""Parameterized graph clustering and triadic-closure edge labeling.

The package implements a family of approximation algorithms for the
resolution-parameterized correlation-clustering objective, all built on
lower bounds derived from an edge-labeling problem over the graph's open
wedges: a purely combinatorial cover-flip-pivot pipeline, LP-rounding
variants over wedge-restricted relaxations, certified lower bounds, and
brute-force oracles that make every approximation claim testable at desk
scale.
"""

from .cluster import (
    Clustering,
    RunReport,
    cover_flip_pivot,
    lambda_cc_objective,
    lambda_louvain,
    pivot,
    round_intermediate_lp,
    round_lambda_stc_lp,
)
from .errors import (
    EdgeListParseError,
    InfeasibleSolutionError,
    InvalidLabelingError,
    LamccError,
    MwuConvergenceError,
    ParameterError,
    SimplexError,
    SizeCapError,
)
from .graph import (
    Graph,
    WedgeIndex,
    enumerate_wedges,
    graph_stats,
    load_graph,
    parse_edge_list,
    parse_matrix_market,
    to_edge_list_text,
)
from .lp import (
    FractionalSolution,
    LinearProgram,
    PairVariableSpace,
    SolveResult,
    build_canonical_lp,
    build_intermediate_lp,
    build_lambda_stc_lp,
    certify_canonical_feasibility,
    solve_exact,
    solve_exact_sparse,
    solve_general_exact,
    solve_mwu,
)
from .oracle import (
    OracleResult,
    exact_canonical_lp,
    exact_lambda_cc,
    exact_lambda_cc_sweep,
    exact_lambda_stc,
)
from .stc import (
    DualCertificate,
    StcLabeling,
    StcRegime,
    cover_label,
    is_feasible,
    stc_objective,
    stc_regime,
)

__version__ = "0.1.0"
