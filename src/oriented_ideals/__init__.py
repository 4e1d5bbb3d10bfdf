"""Exact toolkit for edge ideals of weighted oriented graphs.

Covers the full pipeline: sparse monomial arithmetic, weighted oriented
graphs, strong vertex covers and their L1/L2/L3 layers, irreducible
decompositions of edge ideals, symbolic powers by two independent routes,
and executable checks of the structural equality results.
"""

from .covers import (
    CapExceededError,
    CoverPartition,
    cover_partition,
    enumerate_strong_covers,
    is_strong_cover,
    is_vertex_cover,
    maximal_strong_covers,
    minimal_vertex_covers,
)
from .graphs import (
    WeightedOrientedGraph,
    forest_broom,
    oriented_cycle,
    oriented_line,
    rooted_tree,
)
from .ideals import (
    IrreducibleComponent,
    decomposition_intersection,
    edge_ideal,
    irreducible_component,
    irreducible_decomposition,
)
from .monomials import MonomialIdeal, intersect_all
from .symbolic import (
    EqualityReport,
    InvariantError,
    PowerComparison,
    compare_powers,
    q_sub_p,
    symbolic_power,
    symbolic_power_oracle,
)
from .theorems import (
    CheckResult,
    RegressionSummary,
    check_broom_equality,
    check_cycle_equality,
    check_full_cover_equality,
    check_line_characterization,
    check_line_cover_families,
    check_line_cubic_witness,
    line_drop,
    line_equality_condition,
    random_graph,
    random_regression,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CheckResult",
    "CoverPartition",
    "EqualityReport",
    "InvariantError",
    "IrreducibleComponent",
    "MonomialIdeal",
    "PowerComparison",
    "RegressionSummary",
    "WeightedOrientedGraph",
    "check_broom_equality",
    "check_cycle_equality",
    "check_full_cover_equality",
    "check_line_characterization",
    "check_line_cover_families",
    "check_line_cubic_witness",
    "compare_powers",
    "cover_partition",
    "decomposition_intersection",
    "edge_ideal",
    "enumerate_strong_covers",
    "forest_broom",
    "intersect_all",
    "irreducible_component",
    "irreducible_decomposition",
    "is_strong_cover",
    "is_vertex_cover",
    "line_drop",
    "line_equality_condition",
    "maximal_strong_covers",
    "minimal_vertex_covers",
    "oriented_cycle",
    "oriented_line",
    "q_sub_p",
    "random_graph",
    "random_regression",
    "rooted_tree",
    "symbolic_power",
    "symbolic_power_oracle",
    "__version__",
]
