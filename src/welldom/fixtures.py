"""Builtin example graphs with frozen expectations.

Each fixture records what we know about the graph and how we know it: every
expectation is one record, its value with its source tag, as in
``"domination": (2, "hand")``.  "definition" marks values immediate from the
construction, "hand" marks values worked out by hand, "oracle" marks values
frozen from an enumeration run.  check_fixture reads every one of them off
the fixture's ``analyze`` report, which enumerates each oracle family once;
no fixture check enumerates on its own.  It fails on every cross-check that
report fails, so a wrong freeze cannot survive `welldom fixtures --run`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import analyze
from .graphs import Graph, iter_bits, mask_of
from .linalg import row_space, subspace_contains
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
from .oracle import DEFAULT_BUDGET, BudgetExceededError, EnumerationBudget

SOURCE_TAGS = ("definition", "hand", "oracle")
# expectation keys read straight off the oracle section
ORACLE_KEYS = ("well_covered", "well_dominated", "domination", "upper_domination",
               "independent_domination", "independence")


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    expected: dict  # expectation key -> (value, tag in SOURCE_TAGS)

    def __post_init__(self) -> None:
        bad = {tag for _, tag in self.expected.values() if tag not in SOURCE_TAGS}
        if bad:
            raise ValueError(f"fixture {self.name}: unknown source tags {sorted(bad)}")


@dataclass(frozen=True)
class FixtureResult:
    name: str
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def is_minimal_dominating(g: Graph, chosen: int) -> bool:
    """Whether the vertex mask ``chosen`` is a minimal dominating set of g: its
    closed neighbourhoods cover every vertex, and each member has a private
    neighbour, one that no other member dominates."""
    if chosen & ~g.full_mask:
        return False
    nb = g.closed_bits
    once = twice = 0
    for v in iter_bits(chosen):
        twice |= once & nb[v]
        once |= nb[v]
    return once == g.full_mask and all(nb[v] & ~twice for v in iter_bits(chosen))


def check_fixture(fixture: Fixture, budget: EnumerationBudget = DEFAULT_BUDGET) -> FixtureResult:
    """Compare every expectation of the fixture with its analysis report.

    An oracle family over budget raises BudgetExceededError, as the
    enumeration would.
    """
    g = fixture.graph
    report = analyze(g, budget)
    oracle = report.oracle
    if oracle.skip_reasons:
        raise BudgetExceededError("; ".join(oracle.skip_reasons))
    failures: list[str] = []

    def expect(key: str, wanted, actual) -> None:
        if actual != wanted:
            failures.append(f"{key}: expected {wanted!r}, got {actual!r}")

    for key, (wanted, _) in fixture.expected.items():
        if key == "edge_count":
            expect(key, wanted, report.edge_count)
        elif key == "connected":
            expect(key, wanted, report.connected)
        elif key == "cycles_present":
            expect(key, wanted, {k: report.cycles_present.get(k) for k in wanted})
        elif key in ORACLE_KEYS:
            expect(key, wanted, getattr(oracle, key))
        elif key == "minimal_dominating_witness":
            if not is_minimal_dominating(g, mask_of(wanted)):
                failures.append(f"{key}: {sorted(wanted)} is not a minimal dominating set here")
        elif key in ("wcw_dimension", "wwd_dimension"):
            expect(key, wanted, (oracle.wcw if key == "wcw_dimension" else oracle.wwd).dimension)
        elif key == "wwd_space_rows":
            described = row_space(wanted, g.n)
            if described.dimension != oracle.wwd.dimension or not subspace_contains(described, oracle.wwd):
                failures.append(
                    f"{key}: described space (dim {described.dimension}) differs "
                    f"from the enumerated one (dim {oracle.wwd.dimension})"
                )
        elif key == "fringe":
            expect(key, wanted, sorted(report.structure.fringe))
        elif key == "anchored_fringe":
            expect(key, wanted, sorted(report.structure.anchored_fringe))
        else:
            failures.append(f"unknown expectation key {key!r}")
    failures.extend(f"check failed: {c.name}: {c.detail}" for c in report.failed_checks)
    return FixtureResult(fixture.name, tuple(failures))


def run_builtin_checks(budget: EnumerationBudget = DEFAULT_BUDGET) -> list[FixtureResult]:
    return [check_fixture(f, budget) for f in builtin_fixtures()]


def builtin_fixtures() -> list[Fixture]:
    """The example corpus used by the CLI and the test suite."""
    return [
        Fixture(
            "single_vertex",
            complete_graph(1),
            expected={
                "connected": (True, "definition"),
                "well_covered": (True, "definition"),
                "well_dominated": (True, "definition"),
                "domination": (1, "definition"),
                "independence": (1, "definition"),
                "wcw_dimension": (1, "hand"),
                "wwd_dimension": (1, "hand"),
            },
        ),
        Fixture(
            "edge",
            complete_graph(2),
            expected={
                "well_covered": (True, "definition"),
                "well_dominated": (True, "definition"),
                "domination": (1, "definition"),
                "upper_domination": (1, "definition"),
                "wcw_dimension": (1, "hand"),
                "wwd_dimension": (1, "hand"),
            },
        ),
        Fixture(
            "triangle",
            complete_graph(3),
            expected={
                "well_covered": (True, "definition"),
                "well_dominated": (True, "definition"),
                "domination": (1, "definition"),
                "upper_domination": (1, "definition"),
                "wcw_dimension": (1, "hand"),
                "wwd_dimension": (1, "hand"),
                "fringe": ([0, 1, 2], "definition"),
                "anchored_fringe": ([0, 1, 2], "hand"),
            },
        ),
        Fixture(
            "path4",
            path_graph(4),
            expected={
                "well_covered": (True, "hand"),
                "well_dominated": (True, "hand"),
                "domination": (2, "hand"),
                "upper_domination": (2, "hand"),
                "independence": (2, "hand"),
                "wcw_dimension": (2, "hand"),
                "wwd_dimension": (2, "hand"),
                "fringe": ([0, 3], "definition"),
                "anchored_fringe": ([0, 3], "definition"),
            },
        ),
        Fixture(
            "path5",
            path_graph(5),
            expected={
                "well_covered": (False, "hand"),
                "well_dominated": (False, "hand"),
                "domination": (2, "hand"),
                "upper_domination": (3, "hand"),
                "independent_domination": (2, "hand"),
                "independence": (3, "hand"),
                "wcw_dimension": (2, "hand"),
                "wwd_dimension": (2, "hand"),
                "fringe": ([0, 4], "definition"),
                "anchored_fringe": ([0, 4], "definition"),
            },
        ),
        Fixture(
            "star_1_3",
            star_graph(3),
            expected={
                "well_covered": (False, "hand"),
                "well_dominated": (False, "hand"),
                "domination": (1, "definition"),
                "upper_domination": (3, "hand"),
                "independent_domination": (1, "definition"),
                "independence": (3, "definition"),
                "wcw_dimension": (3, "hand"),
                "wwd_dimension": (3, "hand"),
                "fringe": ([1, 2, 3], "definition"),
                "anchored_fringe": ([1, 2, 3], "definition"),
            },
        ),
        Fixture(
            "cycle7",
            cycle_graph(7),
            expected={
                "well_covered": (True, "hand"),
                "well_dominated": (True, "hand"),
                "domination": (3, "hand"),
                "upper_domination": (3, "hand"),
                "independent_domination": (3, "hand"),
                "independence": (3, "hand"),
                "wcw_dimension": (1, "hand"),
                "wwd_dimension": (1, "hand"),
                "fringe": ([], "definition"),
                "cycles_present": ({4: False, 5: False, 6: False, 7: True}, "definition"),
            },
        ),
        Fixture(
            "triangle_tripod",
            triangle_tripod_graph(),
            expected={
                "edge_count": (12, "definition"),
                "connected": (True, "definition"),
                "cycles_present": ({3: True, 4: False, 5: False, 6: False}, "hand"),
                "well_covered": (True, "hand"),
                "well_dominated": (True, "hand"),
                "domination": (4, "hand"),
                "upper_domination": (4, "hand"),
                "independent_domination": (4, "oracle"),
                "independence": (4, "oracle"),
                "wcw_dimension": (1, "oracle"),
                "wwd_dimension": (1, "oracle"),
                "fringe": ([], "definition"),
            },
        ),
        Fixture(
            "complete_bipartite_3_3",
            complete_bipartite_graph(3, 3),
            expected={
                "cycles_present": ({4: True}, "definition"),
                "well_covered": (True, "hand"),
                "well_dominated": (False, "hand"),
                "domination": (2, "hand"),
                "independent_domination": (3, "hand"),
                "independence": (3, "hand"),
                "minimal_dominating_witness": ([0, 3], "hand"),
                "wcw_dimension": (5, "hand"),
                "wwd_dimension": (0, "hand"),
            },
        ),
        Fixture(
            "five_cycles_triangle",
            triple_five_cycles_with_triangle(),
            expected={
                "connected": (True, "definition"),
                "cycles_present": ({3: True, 4: False, 5: True}, "definition"),
                "well_covered": (True, "hand"),
                "well_dominated": (False, "hand"),
                "independent_domination": (6, "hand"),
                "independence": (6, "hand"),
                "minimal_dominating_witness": ([0, 1, 4, 7, 8, 12, 13], "hand"),
            },
        ),
        Fixture(
            "two_six_cycles",
            double_six_cycle(),
            expected={
                "connected": (True, "definition"),
                "cycles_present": ({4: False, 5: False, 6: True}, "definition"),
                "fringe": ([], "definition"),
                "wwd_dimension": (2, "hand"),
                # spanning vectors: one per cycle; vertices 2, 5 and 8 weigh
                # nothing, the opposite cycle halves carry opposite signs
                "wwd_space_rows": ([[1, 1, 0, -1, -1, 0, 0, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 0, 0, 1, 1, 0, -1, -1]], "hand"),
            },
        ),
        Fixture(
            "paw",
            triangle_with_pendants(1),
            expected={
                "well_covered": (False, "hand"),
                "well_dominated": (False, "hand"),
                "domination": (1, "definition"),
                "upper_domination": (2, "hand"),
                "independence": (2, "hand"),
                "wcw_dimension": (2, "hand"),
                "wwd_dimension": (2, "hand"),
                "fringe": ([1, 2, 3], "definition"),
                "anchored_fringe": ([1, 2, 3], "hand"),
            },
        ),
        Fixture(
            "triangle_three_pendants",
            triangle_with_pendants(3),
            expected={
                "well_covered": (True, "hand"),
                "well_dominated": (True, "hand"),
                "domination": (3, "hand"),
                "upper_domination": (3, "hand"),
                "independence": (3, "hand"),
                "wcw_dimension": (3, "hand"),
                "wwd_dimension": (3, "hand"),
                "fringe": ([3, 4, 5], "definition"),
                "anchored_fringe": ([3, 4, 5], "definition"),
            },
        ),
        Fixture(
            "two_triangles_bridge",
            two_triangles_bridged(),
            expected={
                "well_covered": (True, "hand"),
                "well_dominated": (True, "hand"),
                "domination": (2, "hand"),
                "upper_domination": (2, "hand"),
                "independence": (2, "hand"),
                "wcw_dimension": (2, "hand"),
                "wwd_dimension": (2, "hand"),
                "fringe": ([0, 1, 4, 5], "definition"),
                "anchored_fringe": ([0, 1, 4, 5], "hand"),
            },
        ),
        Fixture(
            "fringe_gap",
            fringe_gap_graph(),
            expected={
                "connected": (True, "definition"),
                "cycles_present": ({3: True, 4: False, 5: False, 6: False}, "hand"),
                "fringe": ([0], "hand"),
                "anchored_fringe": ([], "hand"),
                "wcw_dimension": (1, "hand"),
                "wwd_dimension": (0, "hand"),
            },
        ),
    ]


__all__ = [
    "Fixture",
    "FixtureResult",
    "SOURCE_TAGS",
    "builtin_fixtures",
    "check_fixture",
    "is_minimal_dominating",
    "run_builtin_checks",
]
