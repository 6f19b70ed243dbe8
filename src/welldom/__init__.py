"""Exact recognition and weight spaces for well-covered and well-dominated graphs.

The package decides, for graphs without short cycles, whether every maximal
independent set has the same size (well-covered), whether every minimal
dominating set does (well-dominated), and computes the rational vector
spaces of vertex weights making those families weigh the same.  Brute-force
enumeration oracles cross-check every closed-form answer.
"""

from .analysis import (
    AnalysisReport,
    SweepReport,
    analyze,
    characterized_wcw_basis,
    characterized_wwd_basis,
    recognized_status,
    run_property_sweep,
)
from .fixtures import Fixture, builtin_fixtures, check_fixture, run_builtin_checks
from .generators import GeneratorConfig, generate_family
from .graphs import Graph, ParseError, parse_graph, serialize_graph
from .linalg import SubspaceBasis, subspace_contains, subspace_equal
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationBudget,
    domination_numbers,
    enumerate_families,
    enumerate_maximal_independent_sets,
    enumerate_minimal_dominating_sets,
    is_well_covered,
    is_well_dominated,
    well_covered_weight_space_oracle,
    well_dominated_weight_space_oracle,
)
from .structure import (
    anchored_fringe_vertices,
    confined_neighbors,
    fringe_vertices,
    simplicial_partition,
    structure_summary,
)
from .weightspace import (
    dimension_checks,
    recognize_well_covered,
    well_covered_weight_basis,
    well_dominated_weight_basis,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "EnumerationBudget",
    "Fixture",
    "GeneratorConfig",
    "Graph",
    "ParseError",
    "SubspaceBasis",
    "SweepReport",
    "analyze",
    "anchored_fringe_vertices",
    "builtin_fixtures",
    "characterized_wcw_basis",
    "characterized_wwd_basis",
    "check_fixture",
    "confined_neighbors",
    "dimension_checks",
    "domination_numbers",
    "enumerate_families",
    "enumerate_maximal_independent_sets",
    "enumerate_minimal_dominating_sets",
    "fringe_vertices",
    "generate_family",
    "is_well_covered",
    "is_well_dominated",
    "parse_graph",
    "recognize_well_covered",
    "recognized_status",
    "run_builtin_checks",
    "run_property_sweep",
    "serialize_graph",
    "simplicial_partition",
    "structure_summary",
    "subspace_contains",
    "subspace_equal",
    "well_covered_weight_basis",
    "well_covered_weight_space_oracle",
    "well_dominated_weight_basis",
    "well_dominated_weight_space_oracle",
    "__version__",
]
