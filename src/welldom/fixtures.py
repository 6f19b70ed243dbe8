"""Builtin example graphs with frozen expectations.

Each fixture records what we know about the graph and how we know it: every
expected value carries a source tag.  "definition" marks values immediate
from the construction, "hand" marks values worked out by hand, "oracle"
marks values frozen from an enumeration run.  check_fixture reads every one
of them off the fixture's ``analyze`` report and fails on every cross-check
that report fails, so a wrong freeze cannot survive `welldom fixtures --run`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import analyze
from .graphs import Graph, mask_of
from .linalg import row_space, subspace_equal
from .named_graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_six_cycle,
    fringe_gap_graph,
    path_graph,
    star_graph,
    triangle_tripod_graph,
    triangle_with_pendants,
    triple_five_cycles_with_triangle,
    two_triangles_bridged,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EnumerationBudget,
    enumerate_minimal_dominating_sets,
)

SOURCE_TAGS = ("definition", "hand", "oracle")
# expectation keys read straight off the oracle section
ORACLE_KEYS = ("well_covered", "well_dominated", "domination", "upper_domination",
               "independent_domination", "independence")


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    expected: dict
    sources: dict  # expected key -> tag in SOURCE_TAGS

    def __post_init__(self) -> None:
        if set(self.sources) != set(self.expected):
            missing = set(self.expected) ^ set(self.sources)
            raise ValueError(f"fixture {self.name}: untagged or orphan keys {sorted(missing)}")
        bad = {tag for tag in self.sources.values() if tag not in SOURCE_TAGS}
        if bad:
            raise ValueError(f"fixture {self.name}: unknown source tags {sorted(bad)}")


@dataclass(frozen=True)
class FixtureResult:
    name: str
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_fixture(fixture: Fixture, budget: EnumerationBudget = DEFAULT_BUDGET) -> FixtureResult:
    """Compare every expectation of the fixture with its analysis report.

    Only a ``minimal_dominating_witness`` enumerates on its own; an oracle
    family over budget raises BudgetExceededError, as the enumeration would.
    """
    g = fixture.graph
    report = analyze(g, budget)
    oracle = report.oracle
    if oracle.skip_reasons:
        raise BudgetExceededError("; ".join(oracle.skip_reasons))
    failures: list[str] = []

    def expect(key: str, actual) -> None:
        wanted = fixture.expected[key]
        if actual != wanted:
            failures.append(f"{key}: expected {wanted!r}, got {actual!r}")

    for key, wanted in fixture.expected.items():
        if key == "edge_count":
            expect(key, report.edge_count)
        elif key == "connected":
            expect(key, report.connected)
        elif key == "cycles_present":
            expect(key, {k: report.cycles_present.get(k) for k in wanted})
        elif key in ORACLE_KEYS:
            expect(key, getattr(oracle, key))
        elif key == "maximal_independent_size":
            if (oracle.independent_domination, oracle.independence) != (wanted, wanted):
                failures.append(
                    f"{key}: expected every set to have size {wanted}, got sizes "
                    f"{oracle.independent_domination} to {oracle.independence}"
                )
        elif key == "minimal_dominating_witness":
            if mask_of(wanted) not in enumerate_minimal_dominating_sets(g, budget).masks:
                failures.append(f"{key}: {sorted(wanted)} is not a minimal dominating set here")
        elif key in ("wcw_dimension", "wwd_dimension"):
            expect(key, (oracle.wcw if key == "wcw_dimension" else oracle.wwd).dimension)
        elif key == "wwd_space_rows":
            described = row_space(wanted, g.n)
            if not subspace_equal(described, oracle.wwd):
                failures.append(
                    f"{key}: described space (dim {described.dimension}) differs "
                    f"from the enumerated one (dim {oracle.wwd.dimension})"
                )
        elif key == "fringe":
            expect(key, sorted(report.structure.fringe))
        elif key == "anchored_fringe":
            expect(key, sorted(report.structure.anchored_fringe))
        else:
            failures.append(f"unknown expectation key {key!r}")
    failures.extend(f"check failed: {c.name}: {c.detail}" for c in report.failed_checks)
    return FixtureResult(fixture.name, tuple(failures))


def run_builtin_checks(budget: EnumerationBudget = DEFAULT_BUDGET) -> list[FixtureResult]:
    return [check_fixture(f, budget) for f in builtin_fixtures()]


def builtin_fixtures() -> list[Fixture]:
    """The example corpus used by the CLI and the test suite."""
    fixtures = [
        Fixture(
            "single_vertex",
            complete_graph(1),
            expected={
                "connected": True,
                "well_covered": True,
                "well_dominated": True,
                "domination": 1,
                "independence": 1,
                "wcw_dimension": 1,
                "wwd_dimension": 1,
            },
            sources={
                "connected": "definition",
                "well_covered": "definition",
                "well_dominated": "definition",
                "domination": "definition",
                "independence": "definition",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
            },
        ),
        Fixture(
            "edge",
            complete_graph(2),
            expected={
                "well_covered": True,
                "well_dominated": True,
                "domination": 1,
                "upper_domination": 1,
                "wcw_dimension": 1,
                "wwd_dimension": 1,
            },
            sources={
                "well_covered": "definition",
                "well_dominated": "definition",
                "domination": "definition",
                "upper_domination": "definition",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
            },
        ),
        Fixture(
            "triangle",
            complete_graph(3),
            expected={
                "well_covered": True,
                "well_dominated": True,
                "domination": 1,
                "upper_domination": 1,
                "wcw_dimension": 1,
                "wwd_dimension": 1,
                "fringe": [0, 1, 2],
                "anchored_fringe": [0, 1, 2],
            },
            sources={
                "well_covered": "definition",
                "well_dominated": "definition",
                "domination": "definition",
                "upper_domination": "definition",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "hand",
            },
        ),
        Fixture(
            "path4",
            path_graph(4),
            expected={
                "well_covered": True,
                "well_dominated": True,
                "domination": 2,
                "upper_domination": 2,
                "independence": 2,
                "wcw_dimension": 2,
                "wwd_dimension": 2,
                "fringe": [0, 3],
                "anchored_fringe": [0, 3],
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "upper_domination": "hand",
                "independence": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "definition",
            },
        ),
        Fixture(
            "path5",
            path_graph(5),
            expected={
                "well_covered": False,
                "well_dominated": False,
                "domination": 2,
                "upper_domination": 3,
                "independent_domination": 2,
                "independence": 3,
                "wcw_dimension": 2,
                "wwd_dimension": 2,
                "fringe": [0, 4],
                "anchored_fringe": [0, 4],
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "upper_domination": "hand",
                "independent_domination": "hand",
                "independence": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "definition",
            },
        ),
        Fixture(
            "star_1_3",
            star_graph(3),
            expected={
                "well_covered": False,
                "well_dominated": False,
                "domination": 1,
                "upper_domination": 3,
                "independent_domination": 1,
                "independence": 3,
                "wcw_dimension": 3,
                "wwd_dimension": 3,
                "fringe": [1, 2, 3],
                "anchored_fringe": [1, 2, 3],
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "definition",
                "upper_domination": "hand",
                "independent_domination": "definition",
                "independence": "definition",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "definition",
            },
        ),
        Fixture(
            "cycle7",
            cycle_graph(7),
            expected={
                "well_covered": True,
                "well_dominated": True,
                "domination": 3,
                "upper_domination": 3,
                "independent_domination": 3,
                "independence": 3,
                "wcw_dimension": 1,
                "wwd_dimension": 1,
                "fringe": [],
                "cycles_present": {4: False, 5: False, 6: False, 7: True},
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "upper_domination": "hand",
                "independent_domination": "hand",
                "independence": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "cycles_present": "definition",
            },
        ),
        Fixture(
            "triangle_tripod",
            triangle_tripod_graph(),
            expected={
                "edge_count": 12,
                "connected": True,
                "cycles_present": {3: True, 4: False, 5: False, 6: False},
                "well_covered": True,
                "well_dominated": True,
                "domination": 4,
                "upper_domination": 4,
                "independent_domination": 4,
                "independence": 4,
                "wcw_dimension": 1,
                "wwd_dimension": 1,
                "fringe": [],
            },
            sources={
                "edge_count": "definition",
                "connected": "definition",
                "cycles_present": "hand",
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "upper_domination": "hand",
                "independent_domination": "oracle",
                "independence": "oracle",
                "wcw_dimension": "oracle",
                "wwd_dimension": "oracle",
                "fringe": "definition",
            },
        ),
        Fixture(
            "complete_bipartite_3_3",
            complete_bipartite_graph(3, 3),
            expected={
                "cycles_present": {4: True},
                "well_covered": True,
                "well_dominated": False,
                "domination": 2,
                "maximal_independent_size": 3,
                "minimal_dominating_witness": [0, 3],
                "wcw_dimension": 5,
                "wwd_dimension": 0,
            },
            sources={
                "cycles_present": "definition",
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "maximal_independent_size": "hand",
                "minimal_dominating_witness": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
            },
        ),
        Fixture(
            "five_cycles_triangle",
            triple_five_cycles_with_triangle(),
            expected={
                "connected": True,
                "cycles_present": {3: True, 4: False, 5: True},
                "well_covered": True,
                "well_dominated": False,
                "maximal_independent_size": 6,
                "minimal_dominating_witness": [0, 1, 4, 7, 8, 12, 13],
            },
            sources={
                "connected": "definition",
                "cycles_present": "definition",
                "well_covered": "hand",
                "well_dominated": "hand",
                "maximal_independent_size": "hand",
                "minimal_dominating_witness": "hand",
            },
        ),
        Fixture(
            "two_six_cycles",
            double_six_cycle(),
            expected={
                "connected": True,
                "cycles_present": {4: False, 5: False, 6: True},
                "fringe": [],
                "wwd_dimension": 2,
                # spanning vectors: one per cycle; vertices 2, 5 and 8 weigh
                # nothing, the opposite cycle halves carry opposite signs
                "wwd_space_rows": [
                    [1, 1, 0, -1, -1, 0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0, 1, 1, 0, -1, -1],
                ],
            },
            sources={
                "connected": "definition",
                "cycles_present": "definition",
                "fringe": "definition",
                "wwd_dimension": "hand",
                "wwd_space_rows": "hand",
            },
        ),
        Fixture(
            "paw",
            triangle_with_pendants(1),
            expected={
                "well_covered": False,
                "well_dominated": False,
                "domination": 1,
                "upper_domination": 2,
                "independence": 2,
                "wcw_dimension": 2,
                "wwd_dimension": 2,
                "fringe": [1, 2, 3],
                "anchored_fringe": [1, 2, 3],
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "definition",
                "upper_domination": "hand",
                "independence": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "hand",
            },
        ),
        Fixture(
            "triangle_three_pendants",
            triangle_with_pendants(3),
            expected={
                "well_covered": True,
                "well_dominated": True,
                "domination": 3,
                "upper_domination": 3,
                "independence": 3,
                "wcw_dimension": 3,
                "wwd_dimension": 3,
                "fringe": [3, 4, 5],
                "anchored_fringe": [3, 4, 5],
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "upper_domination": "hand",
                "independence": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "definition",
            },
        ),
        Fixture(
            "two_triangles_bridge",
            two_triangles_bridged(),
            expected={
                "well_covered": True,
                "well_dominated": True,
                "domination": 2,
                "upper_domination": 2,
                "independence": 2,
                "wcw_dimension": 2,
                "wwd_dimension": 2,
                "fringe": [0, 1, 4, 5],
                "anchored_fringe": [0, 1, 4, 5],
            },
            sources={
                "well_covered": "hand",
                "well_dominated": "hand",
                "domination": "hand",
                "upper_domination": "hand",
                "independence": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
                "fringe": "definition",
                "anchored_fringe": "hand",
            },
        ),
        Fixture(
            "fringe_gap",
            fringe_gap_graph(),
            expected={
                "connected": True,
                "cycles_present": {3: True, 4: False, 5: False, 6: False},
                "fringe": [0],
                "anchored_fringe": [],
                "wcw_dimension": 1,
                "wwd_dimension": 0,
            },
            sources={
                "connected": "definition",
                "cycles_present": "hand",
                "fringe": "hand",
                "anchored_fringe": "hand",
                "wcw_dimension": "hand",
                "wwd_dimension": "hand",
            },
        ),
    ]
    return fixtures


__all__ = [
    "Fixture",
    "FixtureResult",
    "SOURCE_TAGS",
    "builtin_fixtures",
    "check_fixture",
    "run_builtin_checks",
]
