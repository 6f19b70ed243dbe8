import pytest
from hypothesis import given

from welldom.analysis import analyze, characterized_wcw_basis, characterized_wwd_basis, recognized_status
from welldom.generators import GeneratorConfig, generate_family
from welldom.graphs import Graph, induced_subgraph
from welldom.linalg import constants_space, row_space, subspace_contains, subspace_equal
from welldom.named_graphs import (
    complete_graph,
    cycle_graph,
    double_six_cycle,
    fringe_gap_graph,
    path_graph,
    triangle_tripod_graph,
    triangle_with_pendants,
    two_triangles_bridged,
)
from welldom.oracle import (
    enumerate_maximal_independent_sets,
    enumerate_minimal_dominating_sets,
    is_well_covered,
    is_well_dominated,
    weight_space_from_family,
    well_covered_weight_space_oracle,
    well_dominated_weight_space_oracle,
)
from welldom.structure import (
    anchored_fringe_vertices,
    component_facts,
    fringe_vertices,
    independence_number,
)
from welldom.weightspace import (
    SpecialForm,
    dimension_checks,
    recognize_well_covered,
    special_form_of,
    well_covered_weight_basis,
    well_dominated_weight_basis,
)

from conftest import (
    count_calls,
    eared_cycle,
    eared_trees,
    family_graphs,
    is_simplicial_partition,
    path_corona,
    random_eared_tree,
    windmill,
)
from family_oracle_check import oracle_mismatches


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestSpecialForms:
    def test_seven_cycle(self):
        assert special_form_of(cycle_graph(7)) is SpecialForm.CYCLE7

    def test_seven_cycle_survives_relabeling(self):
        scrambled = relabel(cycle_graph(7), [3, 6, 2, 5, 1, 4, 0])
        assert special_form_of(scrambled) is SpecialForm.CYCLE7

    def test_tripod(self):
        g = triangle_tripod_graph()
        assert special_form_of(g) is SpecialForm.TRIANGLE_TRIPOD
        assert special_form_of(relabel(g, list(reversed(range(10))))) is SpecialForm.TRIANGLE_TRIPOD

    def test_small_complete(self):
        for n in (1, 2, 3):
            assert special_form_of(complete_graph(n)) is SpecialForm.COMPLETE_SMALL

    def test_everything_else_is_general(self):
        assert special_form_of(path_graph(3)) is SpecialForm.GENERAL
        assert special_form_of(path_graph(7)) is SpecialForm.GENERAL
        assert special_form_of(path_graph(10)) is SpecialForm.GENERAL
        assert special_form_of(complete_graph(4)) is SpecialForm.GENERAL


class TestRecognition:
    def test_seven_cycle_clause(self):
        out = recognize_well_covered(cycle_graph(7))
        assert out.holds and out.clause == "cycle7" and out.partition is None

    def test_tripod_clause(self):
        out = recognize_well_covered(triangle_tripod_graph())
        assert out.holds and out.clause == "triangle_tripod"

    def test_partition_clause(self):
        g = path_graph(4)
        out = recognize_well_covered(g)
        assert out.holds and out.clause == "simplicial_partition"
        assert out.partition is not None and is_simplicial_partition(g, out.partition)

    def test_negative(self):
        out = recognize_well_covered(path_graph(5))
        assert not out.holds and out.clause is None

    def test_well_dominated_same_answer(self):
        # on this family one recognition answers both questions
        for g in (path_graph(4), path_graph(5), cycle_graph(7), complete_graph(3)):
            holds = recognize_well_covered(g).holds
            assert holds == is_well_covered(g) == is_well_dominated(g)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="connected"):
            recognize_well_covered(Graph.from_edges(2, []))
        with pytest.raises(ValueError, match="4-cycle"):
            recognize_well_covered(cycle_graph(4))
        with pytest.raises(ValueError, match="5-cycle"):
            recognize_well_covered(cycle_graph(5))
        with pytest.raises(ValueError, match="empty"):
            recognize_well_covered(Graph.from_edges(0, []))

    def test_matches_oracle_on_sampled_family(self):
        cfg = GeneratorConfig(max_n=9, forbidden_cycles=frozenset({4, 5}), seed=7, count=60)
        checked = 0
        for g in generate_family(cfg):
            if not g.is_connected or g.n == 0:
                continue
            out = recognize_well_covered(g)
            assert out.holds == is_well_covered(g)
            assert out.holds == is_well_dominated(g)
            checked += 1
        assert checked >= 30


class TestWeightBases:
    def test_special_forms_carry_constants(self):
        for g in (cycle_graph(7), triangle_tripod_graph(), complete_graph(2)):
            wcw = well_covered_weight_basis(g)
            wwd = well_dominated_weight_basis(g)
            assert subspace_equal(wcw.basis, constants_space(g.n))
            assert subspace_equal(wwd.basis, constants_space(g.n))
            assert wcw.notes and "constant weights" in wcw.notes[0]

    def test_path4_exact_basis(self):
        wcw = well_covered_weight_basis(path_graph(4))
        assert wcw.special_forms == (SpecialForm.GENERAL,)
        assert wcw.basis.rows == ((1, 1, 0, 0), (0, 0, 1, 1))
        wwd = well_dominated_weight_basis(path_graph(4))
        assert wwd.basis.rows == wcw.basis.rows
        assert wwd.notes == ()

    def test_zero_forced_fringe_noted(self):
        g = fringe_gap_graph()
        wwd = well_dominated_weight_basis(g)
        assert wwd.basis.dimension == 0
        assert wwd.notes == ("zero-forced fringe vertices: [0]",)
        wcw = well_covered_weight_basis(g)
        assert wcw.basis.dimension == 1

    @pytest.mark.parametrize("length", [7, 9])
    def test_eared_odd_cycle_has_fractional_entries(self, length):
        # every entry of both bases is +-1 on the family graphs up to 10
        # vertices; here the WCW basis has +-1/2 entries
        g = eared_cycle(length)
        report = analyze(g)
        assert [check.status for check in report.checks] == ["pass"] * 8
        wcw, wwd = report.characterization.wcw, report.characterization.wwd
        assert {x.denominator for row in wcw.sparse_rows for x in row.values()} == {1, 2}
        families = (enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g))
        # the generators are the 0/1 piece vectors, each keyed by an ear of its own
        assert all(x == 1 for row in wcw.integer_rows.values() for x in row.values())
        assert all(key >= length for key in wcw.integer_rows)
        for basis, family in zip((wcw, wwd), families):
            assert weight_space_from_family(family, basis) is basis
            keys = basis.integer_rows.keys()
            for key, row in basis.integer_rows.items():
                assert row[key] and row.keys() & keys == {key}
                assert all(type(x) is int and x for x in row.values())
            assert row_space(basis.integer_rows.values(), g.n) == basis

    def test_preconditions(self):
        with pytest.raises(ValueError, match="6-cycle"):
            well_covered_weight_basis(double_six_cycle())
        with pytest.raises(ValueError, match="connected"):
            well_dominated_weight_basis(Graph.from_edges(3, [(0, 1)]))

    def test_matches_oracle_on_sampled_family(self):
        cfg = GeneratorConfig(
            max_n=9, forbidden_cycles=frozenset({4, 5, 6}), seed=19, count=60
        )
        checked = 0
        for g in generate_family(cfg):
            if not g.is_connected or g.n == 0:
                continue
            wcw = well_covered_weight_basis(g)
            wwd = well_dominated_weight_basis(g)
            assert subspace_equal(wcw.basis, well_covered_weight_space_oracle(g))
            assert subspace_equal(wwd.basis, well_dominated_weight_space_oracle(g))
            assert subspace_contains(wcw.basis, wwd.basis)
            checked += 1
        assert checked >= 30


class TestPieceVectors:
    @given(eared_trees())
    def test_wcw_is_the_span_of_the_piece_vectors(self, g):
        (facts,) = component_facts(g)
        wcw = well_covered_weight_basis(g).basis
        assert facts.special_form is SpecialForm.GENERAL
        assert subspace_equal(wcw, well_covered_weight_space_oracle(g))
        assert wcw.dimension == len(facts.fringe_pieces)
        assert subspace_contains(wcw, well_dominated_weight_basis(g).basis)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_windmill_matches_oracle(self, k):
        g = windmill(k)
        assert subspace_equal(well_covered_weight_basis(g).basis, well_covered_weight_space_oracle(g))

    def test_large_windmill_has_one_vector_per_triangle(self):
        # the centre's confined set has 2^40 maximal independent subsets,
        # each taking one ear of every triangle
        g = windmill(40)
        pieces = [{0: 1, 2 * i + 1: 1, 2 * i + 2: 1} for i in range(40)]
        assert characterized_wcw_basis(g).basis == row_space(pieces, g.n)


class TestInvariantsAtScale:
    # far beyond the oracle: the invariants that need no enumeration
    @staticmethod
    def check_invariants(g: Graph) -> None:
        (facts,) = component_facts(g)
        wcw = characterized_wcw_basis(g).basis
        wwd = characterized_wwd_basis(g).basis
        assert wcw.dimension == len(facts.fringe_pieces)
        assert subspace_contains(wcw, wwd)

    def test_two_thousand_vertex_eared_tree(self):
        self.check_invariants(random_eared_tree(1700, 300))

    def test_eight_thousand_vertex_eared_tree(self):
        self.check_invariants(random_eared_tree(6800, 1200))

    def test_twelve_hundred_cell_path_corona(self):
        self.check_invariants(path_corona(1200))

    @pytest.mark.parametrize("build", [lambda: path_corona(100), lambda: random_eared_tree(4000, 1000, seed=7)],
                             ids=["corona-200", "eared-5000"])
    def test_closed_form_engines_read_no_masks_above_the_gate(self, monkeypatch, build):
        # one n-bit int per vertex is quadratic memory: past the 62-vertex
        # gate of the oracle and the graph6 form, no engine may build one
        def guarded(prop):
            def get(g):
                if g.n > 62:
                    raise AssertionError(f"{prop.attrname} read on {g.n} vertices")
                return prop.func(g)
            return property(get)

        for name in ("adjacency_bits", "closed_bits"):
            monkeypatch.setattr(Graph, name, guarded(vars(Graph)[name]))
        g = build()
        assert recognized_status(g).component_clauses
        characterized_wcw_basis(g)
        characterized_wwd_basis(g)
        assert dimension_checks(g).fringe_independence_matches
        anchored_fringe_vertices(g)
        assert not analyze(g).failed_checks

    def test_path_corona_takes_no_reduction(self, monkeypatch):
        # recognition reduces nothing, both bases are kept as their generators,
        # and with no ear the dominating basis is the independent one
        g = path_corona(30)
        counts = count_calls(monkeypatch, [("welldom.linalg", "_canonical")])
        recognized_status(g)
        wcw = characterized_wcw_basis(g).basis
        assert characterized_wwd_basis(g).basis is wcw
        assert counts["_canonical"] == 0


class TestDimensionReport:
    def test_adjacent_anchored_pair_shares_one_weight(self):
        # the ears 1 and 2 of the paw are both anchored and adjacent, so the
        # three anchored vertices carry two free weights
        report = dimension_checks(triangle_with_pendants(1))
        assert report.special_form is SpecialForm.GENERAL
        assert report.wwd_dimension == 2
        assert report.anchored_fringe_size == 3
        assert report.anchored_independence == 2
        assert report.anchored_independence_matches
        assert report.wcw_dimension == 2
        assert report.fringe_independence == 2
        assert report.fringe_independence_matches

    def test_two_pairs(self):
        report = dimension_checks(two_triangles_bridged())
        assert report.wwd_dimension == 2 and report.anchored_fringe_size == 4
        assert report.anchored_independence == 2
        assert report.anchored_independence_matches
        assert report.fringe_independence_matches

    def test_gap_graph_counts_agree(self):
        report = dimension_checks(fringe_gap_graph())
        assert report.wwd_dimension == 0 and report.anchored_fringe_size == 0
        assert report.anchored_independence_matches
        assert report.wcw_dimension == 1 and report.fringe_independence == 1
        assert report.fringe_independence_matches

    def test_special_form_flagged(self):
        report = dimension_checks(cycle_graph(7))
        assert report.special_form is SpecialForm.CYCLE7
        # the constants, where the fringe counts (no fringe here) do not apply
        assert (report.wcw_dimension, report.fringe_independence) == (1, 0)
        assert not report.fringe_independence_matches

    def test_dimension_formulas_on_sampled_family(self):
        # the dominating-space dimension equals the independence number of
        # the anchored fringe subgraph; the independent-space dimension
        # equals the independence number of the full fringe subgraph
        cfg = GeneratorConfig(
            max_n=9, forbidden_cycles=frozenset({4, 5, 6}), seed=23, count=60
        )
        checked = 0
        for g in generate_family(cfg):
            if not g.is_connected or g.n == 0:
                continue
            if special_form_of(g) is not SpecialForm.GENERAL:
                continue
            report = dimension_checks(g)
            anchored = anchored_fringe_vertices(g)
            sub, _ = induced_subgraph(g, anchored)
            assert report.wwd_dimension == independence_number(sub)
            assert report.anchored_independence_matches
            fringe, _ = induced_subgraph(g, fringe_vertices(g))
            assert report.fringe_independence == independence_number(fringe)
            assert report.fringe_independence_matches
            assert report.wwd_dimension <= report.wcw_dimension
            checked += 1
        assert checked >= 30


class TestEveryFamilyGraph:
    """Every connected graph without 4-, 5- and 6-cycles on at most 10 vertices."""

    def test_counts(self):
        assert [len(level) for level in family_graphs(10)] == [1, 1, 2, 3, 7, 16, 42, 109, 321, 971]

    def test_wwd_is_the_span_of_the_piece_vectors_without_forced_rows(self):
        checked = 0
        for level in family_graphs(10):
            for g in level:
                (f,) = component_facts(g)
                if f.special_form is SpecialForm.GENERAL and f.forced == (frozenset(), ()):
                    assert f.wwd.basis == row_space(f.piece_vectors, g.n), g.edges()
                    assert f.wwd.notes == ()
                    checked += 1
        assert checked == 1043  # of the 1,473 graphs

    def test_bases_match_oracle(self):
        failures = [(g.edges(), f) for level in family_graphs(10) for g in level for f in oracle_mismatches(g)]
        assert failures == []
