import time
from itertools import combinations

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from welldom.analysis import (
    analyze,
    characterized_wcw_basis,
    characterized_wwd_basis,
    recognized_status,
    run_property_sweep,
)
from welldom.generators import GeneratorConfig
from welldom.graphs import Graph, cycle_lengths, parse_graph
from welldom.linalg import row_space
from welldom.named_graphs import (
    complete_graph,
    cycle_graph,
    fringe_gap_graph,
    path_graph,
    star_graph,
    triangle_tripod_graph,
    triangle_with_pendants,
    two_triangles_bridged,
)
from welldom.oracle import (
    BudgetExceededError,
    well_dominated_weight_space_oracle,
)
from welldom.structure import (
    CYCLE_LENGTHS,
    NotApplicableError,
    anchored_fringe_vertices,
    component_facts,
    confined_neighbors,
    ear_partners,
    family_forced_ear_rows,
    forced_ear_rows,
    fringe_vertices,
    independence_number,
    simplicial_partition,
    simplicial_vertices,
    structure_summary,
)
from welldom.weightspace import dimension_report

from conftest import (
    brute_cycle_lengths,
    brute_maximal_independent,
    caterpillar,
    count_calls,
    double_star,
    eared_cycle,
    eared_trees,
    family_graphs,
    glued_graphs,
    gnp_graphs,
    graphs,
    hub_with_ears,
    is_simplicial_partition,
    path_corona,
    random_eared_tree,
    reference_forced_ear_rows,
    reference_partition,
    windmill,
)


def anchored_by_definition(g: Graph) -> frozenset[int]:
    """The fringe vertices on which some weight of the enumerated
    well-dominated space is nonzero."""
    space = well_dominated_weight_space_oracle(g)
    return frozenset(v for v in fringe_vertices(g) if any(v in row for row in space.sparse_rows))


class TestFringe:
    def test_path_has_leaf_fringe(self):
        assert fringe_vertices(path_graph(5)) == frozenset({0, 4})

    def test_triangle_members_with_degree_two(self):
        assert fringe_vertices(triangle_with_pendants(1)) == frozenset({1, 2, 3})
        assert fringe_vertices(complete_graph(3)) == frozenset({0, 1, 2})

    def test_cycle_has_none(self):
        assert fringe_vertices(cycle_graph(7)) == frozenset()
        assert fringe_vertices(triangle_tripod_graph()) == frozenset()

    def test_ear_partners(self):
        partners = ear_partners(two_triangles_bridged())
        assert partners == {0: (1, 2), 1: (0, 2), 4: (3, 5), 5: (3, 4)}

    @given(graphs(max_n=8))
    def test_fringe_vertices_have_a_covering_neighbor(self, g):
        # being in the fringe is the same as some neighbor's closed
        # neighborhood swallowing yours
        nb = g.closed_bits
        for v in range(g.n):
            swallowed = any(not (nb[v] & ~nb[u]) for u in g.adj[v])
            assert (v in fringe_vertices(g)) == (
                g.degree(v) == 1 or (g.degree(v) == 2 and swallowed)
            )


class TestConfinedNeighbors:
    def test_path_interior(self):
        g = path_graph(4)
        assert confined_neighbors(g, 1) == frozenset({0})
        assert confined_neighbors(g, 2) == frozenset({3})

    def test_middle_of_path5_has_none(self):
        assert confined_neighbors(path_graph(5), 2) == frozenset()

    def test_star_center_confines_all_leaves(self):
        assert confined_neighbors(star_graph(3), 0) == frozenset({1, 2, 3})

    @given(graphs(max_n=8))
    def test_confined_neighbors_land_in_fringe_when_square_free(self, g):
        # once squares are forbidden a confined neighbor has degree at most
        # two and its neighborhood is a clique, hence it sits in the fringe
        if cycle_lengths(g, (4,)):
            return
        fringe = fringe_vertices(g)
        for v in range(g.n):
            assert confined_neighbors(g, v) <= fringe


def simplicial_by_definition(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if all(g.has_edge(a, b) for a, b in combinations(g.adj[v], 2)))


def confined_by_definition(g: Graph, v: int) -> frozenset[int]:
    return frozenset(u for u in g.adj[v] if g.adj[u] <= g.adj[v] | {v})


# the tables read the fringe and the degrees first: ears and pendants, the
# trees (no cycle search), a K3 component (every vertex an ear), and blocks
# that are one cycle or not quite one; then the ear cacti, whose profile
# takes no search (K3, a leaf edge with an ear: two ears on one triangle),
# two ears on one edge (a 4-cycle, searched), and C_L with an ear on every
# edge, one block with chords
@given(st.one_of(gnp_graphs(max_n=11), glued_graphs(max_n=11), eared_trees(max_n=11)))
@example(path_graph(9))
@example(star_graph(5))
@example(Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))
@example(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]))
@example(Graph.from_edges(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (1, 7)]))
@example(complete_graph(6))
@example(complete_graph(3))
@example(Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)]))
@example(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]))
@example(eared_cycle(3))
@example(eared_cycle(4))
@example(eared_cycle(5))
@example(eared_cycle(6))
@example(eared_cycle(7))
@example(eared_cycle(8))
@example(eared_cycle(9))
@example(eared_cycle(10))
@example(eared_cycle(11))
@example(eared_cycle(12))
def test_tables_match_their_definitions(g):
    simplicial = simplicial_by_definition(g)
    assert simplicial_vertices(g) == simplicial
    for v in range(g.n):
        assert confined_neighbors(g, v) == confined_by_definition(g, v)
    lifted_simplicial, lifted_confined = set(), {}
    for f in component_facts(g):
        assert f.cycles == brute_cycle_lengths(f.graph) & set(CYCLE_LENGTHS)
        lifted_simplicial |= {f.labels[v] for v in f.simplicial}
        lifted_confined |= {f.labels[v]: {f.labels[u] for u in near} for v, near in f.confined.items()}
    assert lifted_simplicial == simplicial
    fringe = fringe_vertices(g)
    assert lifted_confined == {v: confined_by_definition(g, v) for v in range(g.n) if v not in fringe}


def test_ear_cacti_take_no_cycle_search(monkeypatch):
    counts = count_calls(monkeypatch, [("welldom.graphs", "cycle_lengths")])
    two_ears_on_one_edge = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    for g, searches, cycles in [
        (complete_graph(3), 0, {3}),
        (Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), 0, {3}),  # a leaf edge with an ear
        (random_eared_tree(40, 12), 0, {3}),
        (windmill(30), 0, {3}),
        (two_ears_on_one_edge, 1, {3, 4}),
        (eared_cycle(9), 1, {3}),  # rank L + 1 with L ear triangles
    ]:
        counts.clear()
        (f,) = component_facts(g)
        assert f.cycles == cycles
        assert counts["cycle_lengths"] == searches


class TestAnchoredFringe:
    def test_pendants_always_anchored(self):
        g = path_graph(6)
        assert anchored_fringe_vertices(g) == frozenset({0, 5})

    def test_paw_ears_anchored(self):
        assert anchored_fringe_vertices(triangle_with_pendants(1)) == frozenset({1, 2, 3})

    def test_gap_graph_has_unanchored_fringe(self):
        g = fringe_gap_graph()
        assert fringe_vertices(g) == frozenset({0})
        assert anchored_fringe_vertices(g) == frozenset()

    # the gap graph's ear is forced to zero; the graph6 graphs are those on
    # which the earlier far-zone search was wrong, the last with two coupled ears
    @given(eared_trees())
    @example(fringe_gap_graph())
    @example(parse_graph("HCAIbCg", "graph6"))
    @example(parse_graph("HK_R?Kg", "graph6"))
    @example(parse_graph("KhOOS?C?gHH?", "graph6"))
    @example(parse_graph("IuO_OGB?W", "graph6"))
    def test_matches_definition(self, g):
        assert anchored_fringe_vertices(g) == anchored_by_definition(g)


class TestForcedEarRows:
    # the rows built from the adjacency sets, over witness pairs and one
    # side at a time, against the rows on bitmasks
    def test_match_bitmask_rows_on_family_graphs(self):
        with_rows = 0
        for g in FAMILY:
            rows = forced_ear_rows(g, ear_partners(g))
            assert rows == family_forced_ear_rows(g, ear_partners(g)) == reference_forced_ear_rows(g, ear_partners(g))
            with_rows += bool(rows)
        assert with_rows > 100

    @pytest.mark.parametrize("tree_n, ears, seed", [(12, 3, 0), (40, 10, 1), (160, 40, 2), (400, 100, 3),
                                                    (800, 200, 4), (1600, 400, 5)])
    def test_match_bitmask_rows_on_eared_trees(self, tree_n, ears, seed):
        g = random_eared_tree(tree_n, ears, seed)
        rows = family_forced_ear_rows(g, ear_partners(g))
        assert rows == forced_ear_rows(g, ear_partners(g)) == reference_forced_ear_rows(g, ear_partners(g))
        assert rows or tree_n < 100

    @pytest.mark.parametrize("shape", [double_star, windmill, hub_with_ears])
    @pytest.mark.parametrize("pendants", [False, True])
    def test_match_bitmask_rows_around_hubs(self, shape, pendants):
        with_rows = 0
        for k in (1, 2, 3, 4, 7):
            g = shape(k, pendants)
            rows = family_forced_ear_rows(g, ear_partners(g))
            assert rows == reference_forced_ear_rows(g, ear_partners(g))
            with_rows += bool(rows)
        assert with_rows >= 3 or shape is windmill and not pendants

    def test_component_with_a_4_cycle_keeps_the_witness_pair_loop(self, monkeypatch):
        # the ears 3 and 4 on the edge 0-1 close the 4-cycle 0-3-1-4, and
        # one side at a time would take ear 4 for an x of ear 3
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)])
        partners = ear_partners(g)
        assert forced_ear_rows(g, partners) == reference_forced_ear_rows(g, partners) == ((3, 4),)
        assert family_forced_ear_rows(g, partners) != ((3, 4),)
        counts = count_calls(monkeypatch, [("welldom.structure", "forced_ear_rows"),
                                           ("welldom.structure", "family_forced_ear_rows")])
        (facts,) = component_facts(g)
        assert 4 in facts.cycles
        assert facts.forced == (frozenset(), ((1, 2),))  # the pieces of the ears 3 and 4, coupled
        assert counts == {"forced_ear_rows": 1}


class TestIndependenceNumber:
    @given(graphs(max_n=8))
    def test_matches_enumeration(self, g):
        # against the brute-force reference, not the oracle it reads
        assert independence_number(g) == max(len(s) for s in brute_maximal_independent(g))

    def test_budget_gate(self):
        with pytest.raises(BudgetExceededError):
            independence_number(Graph.from_edges(30, []))


FAMILY = [g for level in family_graphs(10) for g in level]


def relabelled_answers(g: Graph, perm: list[int]) -> list:
    """Recognition up to the order of the components, and both bases with
    each vertex v renamed perm[v] and reduced again; an engine that refuses
    g gives its reason instead."""
    answers: list = []
    for engine in (recognized_status, characterized_wcw_basis, characterized_wwd_basis):
        try:
            answer = engine(g)
        except NotApplicableError as exc:
            answers.append(str(exc))
        else:
            if engine is recognized_status:
                answers.append((answer.well_covered, sorted(answer.component_clauses)))
            else:
                moved = [{perm[c]: x for c, x in row.items()} for row in answer.basis.sparse_rows]
                answers.append(row_space(moved, g.n))
    return answers


def assert_partition_matches_reference(g: Graph) -> None:
    part = simplicial_partition(g)
    expected = reference_partition(g, simplicial_vertices(g))
    assert (None if part is None else (part.centers, part.cells)) == expected


class TestSimplicial:
    def test_simplicial_vertices(self):
        assert simplicial_vertices(path_graph(3)) == frozenset({0, 2})
        assert simplicial_vertices(complete_graph(4)) == frozenset({0, 1, 2, 3})
        assert simplicial_vertices(cycle_graph(5)) == frozenset()

    def test_partition_of_path4(self):
        part = simplicial_partition(path_graph(4))
        assert part is not None
        assert is_simplicial_partition(path_graph(4), part)
        assert sorted(part.centers) == [0, 3]

    def test_no_partition_for_cycle7(self):
        assert simplicial_partition(cycle_graph(7)) is None

    def test_no_partition_for_path5(self):
        assert simplicial_partition(path_graph(5)) is None

    def test_partition_with_triangles(self):
        g = triangle_with_pendants(3)
        part = simplicial_partition(g)
        assert part is not None and is_simplicial_partition(g, part)

    @given(graphs(max_n=8))
    def test_partition_when_found_is_valid(self, g):
        part = simplicial_partition(g)
        if part is not None:
            assert is_simplicial_partition(g, part)

    def test_partition_matches_search_on_family_graphs(self):
        for g in FAMILY:
            assert_partition_matches_reference(g)

    # the path 3-0-2-1: the cell {0, 3} comes first, though its center is 3
    @given(gnp_graphs(max_n=12))
    @example(Graph.from_edges(4, [(0, 3), (0, 2), (1, 2)]))
    def test_partition_matches_search_on_random_graphs(self, g):
        assert_partition_matches_reference(g)

    def test_caterpillar_is_rejected_at_once(self):
        # the search covered each spine vertex by its first pendant before
        # finding vertex 2k uncovered, then backtracked through 2^k choices
        g = caterpillar(40)
        started = time.perf_counter()
        assert not recognized_status(g).well_covered
        assert time.perf_counter() - started < 1.0
        assert simplicial_partition(g) is None
        # one pendant per spine vertex is a corona, which has its partition
        corona = Graph.from_edges(80, [(i, i + 1) for i in range(39)] + [(i, 40 + i) for i in range(40)])
        assert simplicial_partition(corona).centers == tuple(range(40, 80))

    # glued graphs may be disconnected or hold 4- or 5-cycles
    @given(st.one_of(eared_trees(), st.sampled_from(FAMILY), glued_graphs()), st.randoms(use_true_random=False))
    def test_recognition_ignores_the_labels(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert relabelled_answers(h, list(range(h.n))) == relabelled_answers(g, perm)
        part, image = simplicial_partition(g), simplicial_partition(h)
        assert (part is None) == (image is None)
        if part is not None:
            assert set(image.cells) == {frozenset(perm[v] for v in cell) for cell in part.cells}

    def test_partition_deeper_than_the_recursion_limit(self):
        g = path_corona(1200)
        assert recognized_status(g).well_covered
        part = simplicial_partition(g)
        assert part is not None and is_simplicial_partition(g, part)


class TestStructureSummary:
    def test_summary_fields_cohere(self):
        g = two_triangles_bridged()
        summary = structure_summary(g)
        assert summary.fringe == frozenset({0, 1, 4, 5})
        assert summary.anchored_fringe == summary.fringe
        assert summary.zero_forced_fringe == frozenset()
        assert set(summary.confined) == {2, 3}
        assert summary.confined[2] == frozenset({0, 1})

    def test_gap_graph_zero_forced(self):
        summary = structure_summary(fringe_gap_graph())
        assert summary.zero_forced_fringe == frozenset({0})


def test_records_with_a_4_cycle_refuse_the_bases():
    # K4 minus the edge 2-3: vertex 1 is a confined neighbor of 0 outside the
    # fringe {2, 3}, and of degree 3 it closes the 4-cycle 0-2-1-3
    (f,) = component_facts(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 2)]))
    for read in (lambda: f.wcw, lambda: f.wwd, lambda: dimension_report(f)):
        with pytest.raises(NotApplicableError, match="not applicable: contains a 4-cycle"):
            read()


def answers(facts) -> list:
    """The records with the answers read off them; the bases only where
    they apply, without 4-, 5- and 6-cycles."""
    return [(f, f.recognition) + (() if f.cycles & {4, 5, 6} else (f.wcw, f.wwd)) for f in facts]


def tables(facts) -> list:
    """Copies of the records' dicts (their values are immutable)."""
    return [(dict(f.ear_partners), dict(f.confined)) for f in facts]


class TestLastRecordsKept:
    """component_facts keeps the last graph's records: it must serve them
    only for an equal graph, and no engine may change them."""

    @given(eared_trees(max_n=10), st.data())
    def test_interleaved_calls_match_fresh_builds(self, a, data):
        # an eared tree has a non-edge; adding it may close a cycle of any length
        missing = [(u, v) for u in range(a.n) for v in range(u + 1, a.n) if not a.has_edge(u, v)]
        grown = Graph.from_edges(a.n, a.edges() + [data.draw(st.sampled_from(missing))])
        trio = (a, Graph.from_edges(a.n, a.edges()), grown)
        for i in data.draw(st.lists(st.sampled_from(range(3)), min_size=2, max_size=8)):
            assert answers(component_facts(trio[i])) == answers(component_facts.__wrapped__(trio[i]))

    @given(eared_trees(max_n=10))
    def test_engines_leave_the_records_unchanged(self, g):
        facts = component_facts(g)
        before = tables(facts)
        analyze(g)
        recognized_status(g)
        characterized_wcw_basis(g)
        characterized_wwd_basis(g)
        assert component_facts(g) is facts
        assert tables(facts) == before

    def test_sweep_leaves_the_records_unchanged(self, monkeypatch):
        built = []

        def recorded(g):
            facts = component_facts(g)
            built.append((facts, tables(facts)))
            return facts

        monkeypatch.setattr("welldom.analysis.component_facts", recorded)
        cfg = GeneratorConfig(max_n=10, forbidden_cycles=frozenset({4, 5, 6}), seed=3, count=40)
        assert run_property_sweep(cfg).ok
        assert len(built) == 40
        assert all(tables(facts) == before for facts, before in built)
