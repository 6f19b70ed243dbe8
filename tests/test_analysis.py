import hashlib
import json
import re
from collections import Counter

import pytest
import hypothesis.strategies as st
from hypothesis import given

from welldom.analysis import (
    OracleSection,
    analyze,
    characterized_wcw_basis,
    characterized_wwd_basis,
    recognized_status,
    run_property_sweep,
)
from welldom.cli import cli_main
from welldom.fixtures import builtin_fixtures
from welldom.generators import GeneratorConfig, generate_family
from welldom.graphs import Graph, induced_subgraph, iter_bits, parse_graph
from welldom.linalg import nullspace, row_space, subspace_equal
from welldom.named_graphs import (
    complete_bipartite_graph,
    cycle_graph,
    fringe_gap_graph,
    path_graph,
    triangle_with_pendants,
)
from welldom.oracle import (
    EnumerationBudget,
    _subset_sums,
    _weigh,
    enumerate_maximal_independent_sets,
    enumerate_minimal_dominating_sets,
    well_dominated_weight_space_oracle,
)
from welldom.structure import CharacterizationOutcome, ComponentFacts
from welldom.weightspace import SpecialForm, well_covered_weight_basis, well_dominated_weight_basis

from conftest import count_calls, searched_components

ALL_CHECKS = (
    "domination_chain",
    "well_covered_recognition_matches_oracle",
    "well_dominated_recognition_matches_oracle",
    "wcw_matches_oracle",
    "wwd_matches_oracle",
    "wwd_contained_in_wcw",
    "wwd_dimension_equals_anchored_fringe",
    "wcw_dimension_equals_fringe_independence",
)


def path4_plus_triangle() -> Graph:
    return Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)])


class TestComponentCombination:
    def test_direct_sum_dimensions_add(self):
        g = path4_plus_triangle()
        wcw = characterized_wcw_basis(g)
        assert wcw.basis.dimension == 3  # 2 for the path, 1 for the triangle
        assert wcw.special_forms == (SpecialForm.GENERAL, SpecialForm.COMPLETE_SMALL)  # in component order
        assert characterized_wwd_basis(g).special_forms == wcw.special_forms
        assert any("component at 4" in note for note in wcw.notes)

    @pytest.mark.parametrize("g", [path_graph(4), cycle_graph(7), fringe_gap_graph(),
                                   parse_graph("IuO_OGB?W", "graph6")])
    def test_connected_graph_keeps_its_component_record(self, g):
        # the basis of a connected graph is its one component's, not a relabelled copy
        for engine, component_engine in ((characterized_wcw_basis, well_covered_weight_basis),
                                         (characterized_wwd_basis, well_dominated_weight_basis)):
            whole, component = engine(g), component_engine(g)
            assert whole.basis is component.basis
            assert whole.special_forms == component.special_forms
            assert whole.notes == tuple(f"component at 0: {note}" for note in component.notes)

    def test_component_vectors_stay_inside_their_component(self):
        g = path4_plus_triangle()
        for row in characterized_wwd_basis(g).basis.rows:
            support = {v for v, x in enumerate(row) if x}
            assert support <= {0, 1, 2, 3} or support <= {4, 5, 6}

    @pytest.mark.parametrize("engine", [characterized_wcw_basis, characterized_wwd_basis])
    def test_direct_sum_is_row_space_of_embedded_rows(self, engine):
        # components interleaved in the labels: {0, 2, 5, 7}, {1, 3, 4}, {6, 8}
        g = Graph.from_edges(9, [(0, 2), (2, 5), (5, 7), (1, 3), (3, 4), (4, 1), (6, 8)])
        embedded = []
        for comp in ((0, 2, 5, 7), (1, 3, 4), (6, 8)):
            sub, _ = induced_subgraph(g, comp)
            for row in engine(sub).basis.rows:
                wide = [0] * g.n
                for local, value in enumerate(row):
                    wide[comp[local]] = value
                embedded.append(wide)
        assert engine(g).basis == row_space(embedded, g.n)

    def test_recognition_over_components(self):
        status = recognized_status(path4_plus_triangle())
        assert status.well_covered and status.well_dominated
        assert status.component_clauses == ("simplicial_partition", "simplicial_partition")

    def test_one_bad_component_spoils_recognition(self):
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])
        status = recognized_status(g)
        assert not status.well_covered
        assert "unrecognized" in status.component_clauses

    def test_family_preconditions(self):
        with pytest.raises(ValueError, match="4-cycle"):
            characterized_wcw_basis(complete_bipartite_graph(2, 2))
        with pytest.raises(ValueError, match="empty"):
            recognized_status(Graph.from_edges(0, []))


@pytest.mark.parametrize("text", ["HCAIbCg", "HK_R?Kg", "KhOOS?C?gHH?", "IuO_OGB?W"])
def test_wwd_basis_matches_oracle_on_known_fault(text, tmp_path):
    # the graphs on which the earlier anchored-fringe search was wrong.  The
    # two 9-vertex ones, both of the criterion-7 family: dimension 0 by the
    # oracle, where the search gave 1.  The 12- and the 10-vertex one:
    # dimensions 2 and 1, where it gave 3 and 2, since their WWD couples the
    # weights of two ears
    g = parse_graph(text, "graph6")
    assert subspace_equal(characterized_wwd_basis(g).basis, well_dominated_weight_space_oracle(g))
    assert analyze(g).failed_checks == ()
    path = tmp_path / "graph.g6"
    path.write_text(text + "\n")
    assert cli_main(["analyze", "--format", "graph6", str(path)]) == 0


def test_coupled_ears_are_noted_and_counted():
    # the smallest graph whose WWD couples two ears: the 8-cycle
    # 0-1-4-6-8-7-5-2 with ear 3 on edge 0-1 and ear 9 on edge 7-8, whose
    # piece coefficients must sum to 0
    report = analyze(parse_graph("IuO_OGB?W", "graph6"))
    assert report.characterization.wwd.dimension == 1
    assert "component at 0: coupled ears: [3, 9]" in report.characterization.notes
    by_name = {c.name: c for c in report.checks}
    assert by_name["wwd_dimension_equals_anchored_fringe"].detail == (
        "component at 0: dimension 1 = anchored fringe independence 2 minus coupling rank 1"
    )


def shifted_past_an_edge(g: Graph) -> Graph:
    """``g`` on vertices 2.., after a component that is the edge 0-1."""
    return Graph.from_edges(g.n + 2, [(0, 1)] + [(u + 2, v + 2) for u, v in g.edges()])


def test_notes_name_whole_graph_vertices_once_each():
    # the edge component is complete_small in both bases, and its note is
    # listed once; the other component's local vertex 0 is vertex 2
    report = analyze(shifted_past_an_edge(fringe_gap_graph()))
    assert report.structure.zero_forced_fringe == frozenset({2})
    assert report.characterization.notes == (
        "component at 0: complete_small: constant weights",
        "component at 2: zero-forced fringe vertices: [2]",
    )
    report = analyze(shifted_past_an_edge(parse_graph("IuO_OGB?W", "graph6")))
    assert report.characterization.notes == (
        "component at 0: complete_small: constant weights",
        "component at 2: coupled ears: [5, 11]",
    )


class TestAnalyzeReport:
    def test_clean_graph_passes_every_check(self):
        report = analyze(path_graph(4))
        assert tuple(c.name for c in report.checks) == ALL_CHECKS
        assert report.failed_checks == ()
        assert all(c.status == "pass" for c in report.checks)

    def test_adjacent_anchored_pair_passes_every_check(self):
        # the paw's two ears are anchored and adjacent: three anchored
        # vertices, but one free weight between the two ears
        report = analyze(triangle_with_pendants(1))
        assert report.failed_checks == ()
        assert sorted(report.structure.anchored_fringe) == [1, 2, 3]
        assert report.characterization.wwd.dimension == 2
        by_name = {c.name: c for c in report.checks}
        assert by_name["wwd_dimension_equals_anchored_fringe"].status == "pass"
        assert by_name["wwd_matches_oracle"].status == "pass"

    def test_out_of_family_graph_reports_reasons_and_skips(self):
        report = analyze(complete_bipartite_graph(3, 3))
        assert not report.recognition.applicable
        assert "4-cycle" in report.recognition.reason
        assert not report.characterization.applicable
        assert "6-cycle" in report.characterization.reason
        by_name = {c.name: c for c in report.checks}
        assert by_name["wcw_matches_oracle"].status == "skip"
        assert by_name["wwd_dimension_equals_anchored_fringe"].status == "skip"
        # containment still checkable from the oracle bases alone
        assert by_name["wwd_contained_in_wcw"].status == "pass"
        assert report.oracle.wcw.dimension == 5
        assert report.oracle.wwd.dimension == 0

    def test_oracle_skips_over_budget(self):
        report = analyze(Graph.from_edges(25, []))
        assert not report.oracle.independent_available
        assert not report.oracle.dominating_available
        assert len(report.oracle.skip_reasons) == 2
        by_name = {c.name: c for c in report.checks}
        assert by_name["domination_chain"].status == "skip"
        assert report.characterization.applicable  # closed form needs no enumeration
        assert report.characterization.wcw.dimension == 25

    @pytest.mark.parametrize("n, independent_count", [(21, 351), (22, 465), (23, 616), (24, 816)])
    def test_oracle_keeps_independent_sets_past_the_dominating_gate(self, n, independent_count):
        report = analyze(path_graph(n))
        assert report.oracle.skip_reasons == (
            f"minimal dominating sets: {n} vertices exceed the dominating-set enumeration budget of 20",
        )
        assert report.oracle.maximal_independent_count == independent_count
        assert not report.oracle.dominating_available

    @pytest.mark.parametrize(
        "max_sets, reasons",
        [
            # P10 has 16 maximal independent and 25 minimal dominating sets
            (20, ("minimal dominating sets: more than 20 minimal dominating sets",)),
            (10, ("maximal independent sets: more than 10 maximal independent sets",
                  "minimal dominating sets: more than 10 minimal dominating sets")),
        ],
    )
    def test_oracle_skips_past_the_set_count(self, max_sets, reasons):
        report = analyze(path_graph(10), EnumerationBudget(max_sets=max_sets))
        assert report.oracle.skip_reasons == reasons
        assert report.oracle.independent_available == (max_sets >= 16)

    def test_check_statuses_and_details_are_pinned(self, monkeypatch):
        # every skip reason, the closed forms without the oracle, a graph
        # outside both families, and the fail details of a wrong engine
        def checks(g):
            return [(c.name, c.status, c.detail) for c in analyze(g).checks]

        unavailable = [
            "recognition or oracle unavailable", "recognition or oracle unavailable",
            "characterization or oracle unavailable", "characterization or oracle unavailable",
        ]
        cycles = "contains a 4-cycle, a 6-cycle"
        assert checks(complete_bipartite_graph(13, 13)) == list(zip(
            ALL_CHECKS, ["skip"] * 8,
            ["oracle unavailable", *unavailable, "bases unavailable", cycles, cycles],
        ))
        singletons = "; ".join(f"component at {v} is complete_small" for v in range(25))
        assert checks(Graph.from_edges(25, [])) == list(zip(
            ALL_CHECKS, ["skip"] * 5 + ["pass"] * 3,
            ["oracle unavailable", *unavailable, "dimensions 25 <= 25", singletons, singletons],
        ))
        assert checks(complete_bipartite_graph(3, 3)) == list(zip(
            ALL_CHECKS, ["pass", "skip", "skip", "skip", "skip", "pass", "skip", "skip"],
            ["2 <= 3 <= 3 <= 3", *unavailable, "dimensions 0 <= 5", cycles, cycles],
        ))

        def whole_space(facts):
            return CharacterizationOutcome((facts.special_form,), nullspace([], facts.graph.n))

        monkeypatch.setattr(ComponentFacts, "wwd", property(whole_space))
        assert checks(triangle_with_pendants(1)) == list(zip(
            ALL_CHECKS, ["pass"] * 4 + ["fail", "fail", "fail", "pass"],
            [
                "1 <= 1 <= 2 <= 2",
                "recognized False, enumerated False",
                "recognized False, enumerated False",
                "dimensions 2 vs 2",
                "dimensions 4 vs 2",
                "dimensions 4 <= 2",
                "component at 0: dimension 4 vs anchored fringe independence 2",
                "",
            ],
        ))

    def test_each_fact_and_basis_is_built_once(self, monkeypatch):
        counts = count_calls(monkeypatch, [
            ("welldom.graphs", "cycle_lengths"),
            ("welldom.graphs", "is_isomorphic_small"),
            ("welldom.structure", "family_forced_ear_rows"),
            ("welldom.structure", "_simplicial"),
            ("welldom.linalg", "nullspace"),
            ("welldom.linalg", "_canonical"),
            ("welldom.oracle", "weight_space_from_family"),
        ])
        analyze(fringe_gap_graph())
        # one search for the one component, which is neither a tree nor an ear cactus
        assert counts["cycle_lengths"] == searched_components(fringe_gap_graph()) == 1
        assert counts["family_forced_ear_rows"] == 1
        assert counts["is_isomorphic_small"] <= 1
        # the oracle certifies both closed-form bases with no reduction of
        # its own, and the bases are kept as their generators: the report
        # reduces neither
        assert counts["weight_space_from_family"] == 2
        assert counts["nullspace"] == 0
        assert counts["_canonical"] == 0
        # one table, shared by the summary and the simplicial partition search
        assert counts["_simplicial"] == 1
        # the engines on an equal graph read the records analyze built
        counts.clear()
        characterized_wcw_basis(fringe_gap_graph())
        characterized_wwd_basis(fringe_gap_graph())
        assert counts == Counter()
        # on another graph both bases share one build of the records
        g = fringe_gap_graph()
        g = Graph.from_edges(g.n + 1, g.edges() + [(9, g.n)])  # a pendant at the far vertex
        characterized_wcw_basis(g)
        characterized_wwd_basis(g)
        assert counts["cycle_lengths"] == searched_components(g) == 1
        assert counts["_simplicial"] == 0
        assert counts["family_forced_ear_rows"] == 1  # only the dominating engine reads them
        assert counts["_canonical"] == 0  # a row forces the ear 0 to zero: the two bases differ, unreduced
        # one set of rows per component, also where the rows couple two ears
        counts.clear()
        coupled = parse_graph("IuO_OGB?W", "graph6")
        analyze(Graph.from_edges(12, [(0, 1)] + [(u + 2, v + 2) for u, v in coupled.edges()]))
        assert counts["family_forced_ear_rows"] == 2

    def test_certified_oracle_section_equals_the_reduced_one(self):
        # analyze hands the oracle its closed-form bases to certify; the
        # section must be what the oracle reads off the families alone
        cfg = GeneratorConfig(max_n=12, forbidden_cycles=frozenset({4, 5, 6}), seed=77, count=380)
        graphs = [fixture.graph for fixture in builtin_fixtures()] + list(generate_family(cfg))
        for g in graphs:
            reduced = OracleSection.from_families(
                enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g)
            )
            assert analyze(g).oracle == reduced, g.edges()
        assert len(graphs) == 15 + 380

    def test_empty_graph(self):
        report = analyze(Graph.from_edges(0, []))
        assert report.vertex_count == 0
        assert not report.recognition.applicable
        assert report.recognition.reason == "empty graph"


class TestJsonReport:
    def test_schema_and_key_layout(self):
        payload = analyze(path_graph(4)).to_json_dict()
        assert payload["schema_version"] == 1
        assert list(payload) == [
            "schema_version",
            "graph",
            "cycles_present",
            "structure",
            "recognition",
            "characterization",
            "oracle",
            "checks",
        ]
        assert payload["graph"] == {
            "vertex_count": 4,
            "edge_count": 3,
            "connected": True,
            "components": [[0, 1, 2, 3]],
        }
        assert payload["cycles_present"] == {str(k): False for k in (3, 4, 5, 6, 7)}
        structure = payload["structure"]
        assert structure["fringe"] == [0, 3]
        assert structure["confined_neighbors"] == {"1": [0], "2": [3]}
        assert structure["simplicial_partition"] == {
            "centers": [0, 3],
            "cells": [[0, 1], [2, 3]],
        }
        assert payload["recognition"]["component_clauses"] == ["simplicial_partition"]
        assert payload["characterization"]["special_forms"] == ["general"]
        assert payload["oracle"]["maximal_independent_count"] == 3
        assert {c["status"] for c in payload["checks"]} == {"pass"}

    def test_serialization_is_deterministic(self):
        first = json.dumps(analyze(triangle_with_pendants(2)).to_json_dict())
        second = json.dumps(analyze(triangle_with_pendants(2)).to_json_dict())
        assert first == second
        json.loads(first)  # round-trips

    def test_reports_are_pinned(self):
        """The JSON reports of the fixtures and the criterion-7 stream, byte for byte.

        A change that means to alter a report updates this digest and records
        which reports changed and why; any other change must leave it alone.
        """
        cfg = GeneratorConfig(max_n=12, forbidden_cycles=frozenset({4, 5, 6}), seed=77, count=380)
        graphs = [fixture.graph for fixture in builtin_fixtures()] + list(generate_family(cfg))
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(json.dumps(analyze(g).to_json_dict()).encode() + b"\n")
        assert len(graphs) == 15 + 380
        assert digest.hexdigest() == "edcbb1b925e8fdc879eba70cadcbff08b7b2e975136807f681336b290fe804d0"


class TestPropertySweep:
    def test_recognition_sweep_is_clean(self):
        cfg = GeneratorConfig(max_n=8, forbidden_cycles=frozenset({4, 5}), seed=3, count=45)
        report = run_property_sweep(cfg)
        assert report.ok, report.failures
        assert report.graphs_checked == 45
        assert 0 < report.family_instances <= 45

    def test_characterization_sweep_is_clean(self):
        cfg = GeneratorConfig(max_n=8, forbidden_cycles=frozenset({4, 5, 6}), seed=4, count=45)
        report = run_property_sweep(cfg)
        assert report.ok, report.failures
        assert report.skips == ()

    def test_characterization_sweep_reduces_no_closed_form_basis(self, monkeypatch):
        # the oracle certifies each closed-form basis, which is then compared by identity
        counts = count_calls(monkeypatch, [("welldom.linalg", "_canonical")])
        cfg = GeneratorConfig(max_n=12, forbidden_cycles=frozenset({4, 5, 6}), seed=77, count=40)
        report = run_property_sweep(cfg)
        assert report.ok, report.failures
        assert report.family_instances > 0
        assert counts["_canonical"] == 0

    def test_chains_only_sweep(self):
        # nothing is forbidden, so only the two domination chains are checked
        cfg = GeneratorConfig(max_n=8, seed=5, count=30)
        report = run_property_sweep(cfg)
        assert report.ok, report.failures
        assert report.family_instances == 0

    @given(st.lists(st.integers(0, 144), max_size=24).flatmap(
        lambda weights: st.tuples(st.just(weights), st.lists(st.integers(0, (1 << len(weights)) - 1)))))
    def test_subset_sums_weigh_each_mask(self, weights_and_masks):
        weights, masks = weights_and_masks
        expected = [sum(weights[v] for v in iter_bits(m)) for m in masks]
        assert _weigh(masks, _subset_sums(weights)) == expected

    @pytest.mark.parametrize(
        "budget, skipped, digest",
        [
            (EnumerationBudget(max_sets=40), 3, "f346515d59f8fa3cdadce1603bf44172740905273f4c18a8754a541447fbae3e"),
            (EnumerationBudget(max_dominating_vertices=8), 24,
             "6c7e12be46f87f527a5b36c1131d7b398ff5fbdcd583e9417ddb9568da728bd2"),
            (EnumerationBudget(max_independent_vertices=8, max_dominating_vertices=8), 24,
             "7aa7ab9fcedb3cd82def24296974a979b67545ec2d2f267c4acc2ffdc412ee10"),
        ],
    )
    def test_skip_texts_are_pinned(self, budget, skipped, digest):
        # each skip states the error of the first family over its budget
        cfg = GeneratorConfig(max_n=12, forbidden_cycles=frozenset({4, 5}), seed=3, count=60)
        report = run_property_sweep(cfg, budget)
        assert len(report.skips) == skipped
        assert hashlib.sha256("\n".join(report.skips).encode()).hexdigest() == digest

    def test_failure_and_skip_labels_replay_the_graph(self, monkeypatch):
        # recognition that never holds fails on every well-covered graph
        monkeypatch.setattr(ComponentFacts, "recognition", property(lambda facts: None))
        cfg = GeneratorConfig(max_n=8, forbidden_cycles=frozenset({4, 5}), seed=3, count=20)
        report = run_property_sweep(cfg, EnumerationBudget(max_independent_vertices=6))
        family = list(generate_family(cfg))
        assert report.failures and report.skips
        pattern = re.compile(r"graph (\d+) \(seed (\d+), n=(\d+), m=(\d+), graph6 (\S+)\): ")
        for line in report.failures + report.skips:
            index, seed, n, m, text = pattern.match(line).groups()
            g = parse_graph(text, "graph6")
            assert int(seed) == cfg.seed
            assert g == family[int(index)]
            assert (g.n, g.edge_count) == (int(n), int(m))

