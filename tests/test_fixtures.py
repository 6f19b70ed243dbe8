from collections import Counter

import pytest
from hypothesis import given

from welldom.fixtures import (
    Fixture,
    builtin_fixtures,
    check_fixture,
    is_minimal_dominating,
    run_builtin_checks,
)
from welldom.linalg import nullspace
from welldom.named_graphs import path_graph
from welldom.oracle import enumerate_minimal_dominating_sets
from welldom.structure import CharacterizationOutcome, ComponentFacts

from conftest import count_calls, family_graphs, graphs, searched_components


def assert_rule_matches_oracle(g) -> None:
    # ascending masks on both sides: the rule accepts exactly the oracle's sets
    passing = [m for m in range(1 << g.n) if is_minimal_dominating(g, m)]
    assert passing == sorted(enumerate_minimal_dominating_sets(g).masks), g.edges()


class TestMinimalDominatingRule:
    def test_matches_oracle_on_family_graphs(self):
        for level in family_graphs(8):
            for g in level:
                assert_rule_matches_oracle(g)

    @given(graphs(max_n=8))
    def test_matches_oracle_on_random_graphs(self, g):
        assert_rule_matches_oracle(g)
        assert not is_minimal_dominating(g, g.full_mask + 1)  # a vertex outside g


class TestFixtureValidation:
    def test_source_tags_must_be_known(self):
        with pytest.raises(ValueError, match="unknown source tags"):
            Fixture("bad", path_graph(2), expected={"edge_count": (1, "guessed")})

    def test_unknown_expectation_key_is_a_failure(self):
        fixture = Fixture("odd", path_graph(2), expected={"girth": (0, "hand")})
        result = check_fixture(fixture)
        assert not result.ok
        assert "unknown expectation key 'girth'" in result.failures[0]

    def test_wrong_frozen_value_is_caught(self):
        fixture = Fixture("off_by_one", path_graph(3), expected={"edge_count": (3, "definition")})
        result = check_fixture(fixture)
        assert result.failures == ("edge_count: expected 3, got 2",)

    def test_bogus_witness_is_caught(self):
        fixture = Fixture(
            "bad_witness",
            path_graph(4),
            expected={"minimal_dominating_witness": ([0, 1, 2, 3], "hand")},
        )
        result = check_fixture(fixture)
        assert not result.ok and "not a minimal dominating set" in result.failures[0]

    def test_failed_analysis_check_is_a_failure(self, monkeypatch):
        # a wrong dominating-set engine: every weight passes
        def whole_space(facts):
            return CharacterizationOutcome((facts.special_form,), nullspace([], facts.graph.n))

        monkeypatch.setattr(ComponentFacts, "wwd", property(whole_space))
        by_name = {f.name: f for f in builtin_fixtures()}
        result = check_fixture(by_name["fringe_gap"])
        assert [line for line in result.failures if line.startswith("check failed: ")] == [
            "check failed: wwd_matches_oracle: dimensions 10 vs 0",
            "check failed: wwd_contained_in_wcw: dimensions 10 <= 1",
            "check failed: wwd_dimension_equals_anchored_fringe: "
            "component at 0: dimension 10 vs anchored fringe independence 0",
        ]

    def test_wrong_described_space_is_caught(self):
        fixture = next(f for f in builtin_fixtures() if "wwd_space_rows" in f.expected)
        rows, tag = fixture.expected["wwd_space_rows"]
        # one dimension short, and a space of the same dimension that is not it
        for wrong in (rows[:-1], rows[:-1] + [[1] * fixture.graph.n]):
            result = check_fixture(Fixture("wrong", fixture.graph, expected={"wwd_space_rows": (wrong, tag)}))
            assert [line.split(" (")[0] for line in result.failures] == ["wwd_space_rows: described space"]

    def test_fixture_checks_take_no_canonical_form(self, monkeypatch):
        # the closed-form bases are certified and compared by identity, the
        # described space by dimension and containment
        counts = count_calls(monkeypatch, [("welldom.linalg", "_canonical")])
        assert all(result.ok for result in run_builtin_checks())
        assert counts["_canonical"] == 0

    def test_component_facts_are_built_once(self, monkeypatch):
        counts = count_calls(
            monkeypatch, [("welldom.structure", "component_facts"), ("welldom.graphs", "cycle_lengths")]
        )
        for fixture in builtin_fixtures():
            counts.clear()
            assert check_fixture(fixture).ok
            # one cycle search per component that is neither a tree nor an
            # ear cactus, taken while building its facts; those two take none
            searched = searched_components(fixture.graph)
            assert counts == Counter(component_facts=1, cycle_lengths=searched), fixture.name

    def test_each_oracle_family_is_enumerated_once(self, monkeypatch):
        # by analyze, through one search that lists both families and no
        # enumeration of either alone; a witness is checked without a
        # second enumeration
        names = ["_search", "enumerate_maximal_independent_sets", "enumerate_minimal_dominating_sets"]
        counts = count_calls(monkeypatch, [("welldom.oracle", name) for name in names])
        for fixture in builtin_fixtures():
            counts.clear()
            assert check_fixture(fixture).ok
            assert counts == Counter(_search=1), fixture.name


class TestBuiltinCorpus:
    def test_names_are_unique(self):
        names = [f.name for f in builtin_fixtures()]
        assert len(names) == len(set(names)) == 15

    def test_every_builtin_fixture_checks_out(self):
        results = run_builtin_checks()
        bad = [r for r in results if not r.ok]
        assert bad == [], [(r.name, r.failures) for r in bad]

    def test_corpus_covers_both_outcomes(self):
        by_name = {f.name: f for f in builtin_fixtures()}
        covered = {f.expected["well_covered"][0] for f in by_name.values() if "well_covered" in f.expected}
        assert covered == {True, False}
        # at least one fixture exercises the anchored/unanchored split
        assert "fringe_gap" in by_name
        assert by_name["fringe_gap"].expected["anchored_fringe"] == ([], "hand")
