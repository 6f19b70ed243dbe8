from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from welldom import oracle
from welldom.analysis import analyze, characterized_wcw_basis, characterized_wwd_basis
from welldom.fixtures import builtin_fixtures
from welldom.graphs import Graph, mask_of, set_of
from welldom.linalg import SubspaceBasis, constants_space, nullspace, row_space
from welldom.named_graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    fringe_gap_graph,
    path_graph,
    star_graph,
    triangle_tripod_graph,
)
from welldom.oracle import (
    BudgetExceededError,
    DominationNumbers,
    EnumerationBudget,
    SetFamily,
    domination_numbers,
    enumerate_families,
    enumerate_maximal_independent_sets,
    enumerate_minimal_dominating_sets,
    is_well_covered,
    is_well_dominated,
    _search,
    search_families,
    set_weight,
    weight_space_from_family,
    well_covered_weight_space_oracle,
    well_dominated_weight_space_oracle,
)
from welldom.structure import independence_number

from conftest import (
    brute_maximal_independent,
    brute_minimal_dominating,
    family_graphs,
    graphs,
    reference_set_masks,
)


class TestMaximalIndependentEnumeration:
    @given(graphs(max_n=8))
    def test_matches_brute_force(self, g):
        family = enumerate_maximal_independent_sets(g)
        assert list(family.sets) == sorted(brute_maximal_independent(g), key=mask_of)

    @given(graphs(max_n=8))
    def test_sets_are_in_canonical_mask_order(self, g):
        family = enumerate_maximal_independent_sets(g)
        keys = [sum(1 << v for v in s) for s in family.sets]
        assert keys == sorted(set(keys))

    def test_empty_graph_has_empty_maximal_set(self):
        family = enumerate_maximal_independent_sets(Graph.from_edges(0, []))
        assert family.sets == (frozenset(),)

    @given(graphs(max_n=12))
    def test_search_matches_reference_order_and_nodes(self, g):
        for independent in (True, False):
            assert [m for m, _ in _search(g, independent)] == list(reference_set_masks(g, independent))

    def test_search_depth_is_not_bounded_by_the_stack(self):
        g = path_graph(3000)
        first = set_of(next(_search(g, True))[0])
        assert all(not g.adj[v] & first for v in first)  # independent
        assert all(v in first or g.adj[v] & first for v in range(g.n))  # maximal


class TestMinimalDominatingEnumeration:
    @given(graphs(max_n=7))
    def test_matches_brute_force(self, g):
        family = enumerate_minimal_dominating_sets(g)
        assert list(family.sets) == sorted(brute_minimal_dominating(g), key=mask_of)

    def test_star_families(self):
        family = enumerate_minimal_dominating_sets(star_graph(4))
        assert set(family.sets) == {frozenset({0}), frozenset({1, 2, 3, 4})}

    def test_complete_bipartite_has_cross_pairs(self):
        family = enumerate_minimal_dominating_sets(complete_bipartite_graph(3, 3))
        assert len(family) == 11  # 9 cross pairs plus the two sides
        assert frozenset({0, 3}) in family.sets


def budget_error(call, g, budget):
    with pytest.raises(BudgetExceededError) as err:
        call(g, budget)
    return str(err.value), err.value.partial


class TestOneSearch:
    @given(graphs(max_n=12))
    def test_matches_the_two_enumerations(self, g):
        assert enumerate_families(g) == (enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g))

    def test_matches_the_two_enumerations_on_every_fixture(self):
        for fixture in builtin_fixtures():
            g = fixture.graph
            assert enumerate_families(g) == (
                enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g)
            ), fixture.name

    @pytest.mark.parametrize(
        "g, budget",
        [
            *[(path_graph(n), EnumerationBudget()) for n in range(21, 25)],  # the dominating gate
            (path_graph(25), EnumerationBudget()),  # both gates
            (path_graph(10), EnumerationBudget(max_sets=20)),  # 16 independent, 25 dominating sets
            (path_graph(10), EnumerationBudget(max_sets=10)),  # fewer than either family
            (cycle_graph(7), EnumerationBudget(max_sets=3)),
            # the dominating search finishes and the independent gate still refuses
            (path_graph(10), EnumerationBudget(max_independent_vertices=8)),
        ],
    )
    def test_budget_errors_are_those_of_the_two_enumerations(self, g, budget):
        # each family is what its own enumerator returns, or the error it raises
        def outcome(enumerate_family):
            try:
                return enumerate_family(g, budget)
            except BudgetExceededError as exc:
                return str(exc), exc.partial

        expected = outcome(enumerate_maximal_independent_sets), outcome(enumerate_minimal_dominating_sets)
        ind, dom = search_families(g, budget)
        assert tuple(
            (str(f), f.partial) if isinstance(f, BudgetExceededError) else f for f in (ind, dom)
        ) == expected
        # enumerate_families raises the first error, independent first, with the same message and partial sets
        errors = [e for e in expected if isinstance(e, tuple)]
        assert errors
        assert budget_error(enumerate_families, g, budget) == errors[0]
        labels = ("maximal independent sets", "minimal dominating sets")
        assert analyze(g, budget).oracle.skip_reasons == tuple(
            [f"{label}: {e[0]}" for label, e in zip(labels, expected) if isinstance(e, tuple)]
        )

    def test_no_family_is_searched_twice(self, monkeypatch):
        # P10 has 16 maximal independent and 25 minimal dominating sets: the dominating search
        # fails on max_sets, and only the independent sets get a search of their own
        searched = []

        def spy(g, independent):
            searched.append(independent)
            return _search(g, independent)

        monkeypatch.setattr(oracle, "_search", spy)
        g, budget = path_graph(10), EnumerationBudget(max_sets=20)
        assert budget_error(enumerate_families, g, budget)[0] == "more than 20 minimal dominating sets"
        assert searched == [False, True]
        searched.clear()
        assert analyze(g, budget).oracle.skip_reasons == (
            "minimal dominating sets: more than 20 minimal dominating sets",
        )
        assert searched == [False, True]

    def test_only_the_joint_search_keeps_independent_members(self):
        # the dominating enumerator alone drops them, so it does not collect them
        g = path_graph(8)
        assert oracle._enumerate(g, False, oracle.DEFAULT_BUDGET)[1] is None
        assert oracle._enumerate(g, False, oracle.DEFAULT_BUDGET, split=True)[1] == enumerate_maximal_independent_sets(g)


class TestBudgets:
    def test_vertex_gate_for_independent_sets(self):
        g = Graph.from_edges(25, [])
        with pytest.raises(BudgetExceededError):
            enumerate_maximal_independent_sets(g)

    def test_vertex_gate_for_dominating_sets(self):
        g = Graph.from_edges(21, [])
        with pytest.raises(BudgetExceededError):
            enumerate_minimal_dominating_sets(g)

    def test_set_count_gate(self):
        budget = EnumerationBudget(max_sets=3)
        with pytest.raises(BudgetExceededError):
            enumerate_maximal_independent_sets(cycle_graph(7), budget)

    def test_set_count_gate_for_dominating_sets(self):
        g = cycle_graph(7)
        with pytest.raises(BudgetExceededError, match="more than 3 minimal dominating sets") as err:
            enumerate_minimal_dominating_sets(g, EnumerationBudget(max_sets=3))
        partial = err.value.partial
        assert len(partial) == len(set(partial)) == 4
        assert {set_of(m) for m in partial} <= brute_minimal_dominating(g)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_sets=0)


class TestDominationNumbers:
    def test_seven_cycle(self):
        numbers = domination_numbers(cycle_graph(7))
        assert (numbers.domination, numbers.upper_domination) == (3, 3)
        assert (numbers.independent_domination, numbers.independence) == (3, 3)

    def test_tripod(self):
        numbers = domination_numbers(triangle_tripod_graph())
        assert (numbers.domination, numbers.upper_domination) == (4, 4)
        assert (numbers.independent_domination, numbers.independence) == (4, 4)

    def test_empty_graph(self):
        # each enumeration of the empty graph yields the one empty set
        g = Graph.from_edges(0, [])
        assert domination_numbers(g) == DominationNumbers(0, 0, 0, 0)
        assert independence_number(g) == 0

    @given(graphs(max_n=7))
    def test_chain_always_holds(self, g):
        numbers = domination_numbers(g)
        assert (
            numbers.domination
            <= numbers.independent_domination
            <= numbers.independence
            <= numbers.upper_domination
        )

    def test_recognizers(self):
        assert is_well_covered(path_graph(4))
        assert is_well_dominated(path_graph(4))
        assert is_well_covered(complete_bipartite_graph(3, 3))
        assert not is_well_dominated(complete_bipartite_graph(3, 3))


class TestSetFamily:
    @given(graphs(max_n=10))
    def test_masks_sets_and_sizes_agree(self, g):
        for family in (enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g)):
            assert list(family.masks) == sorted(set(family.masks))
            assert family.sets == tuple(set_of(m) for m in family.masks)
            assert family.sizes() == tuple(len(s) for s in family.sets)
            assert len(family) == len(family.masks)


def weight_space_from_frozensets(family) -> SubspaceBasis:
    """The difference rows chi(S) - chi(S_0), built from frozensets."""
    first = family.sets[0]
    rows = [{**dict.fromkeys(s - first, 1), **dict.fromkeys(first - s, -1)} for s in family.sets[1:]]
    return nullspace(rows, family.n)


def rank_mod_2(family) -> int:
    """The rank over GF(2) of the masks S ^ S_0."""
    basis: dict[int, int] = {}  # bit length -> a kept mask of that length
    for s in family.masks[1:]:
        x = s ^ family.masks[0]
        while x and x.bit_length() in basis:
            x ^= basis[x.bit_length()]
        if x:
            basis[x.bit_length()] = x
    return len(basis)


# any nonempty family of subsets of at most 10 points
mask_families = st.integers(0, 10).flatmap(
    lambda n: st.sets(st.integers(0, (1 << n) - 1), min_size=1).map(
        lambda masks: SetFamily(n, tuple(sorted(masks)))))


def disjoint_union(*parts: Graph) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


def record_nullspace_rows(monkeypatch) -> list[int]:
    """The number of rows of each ``nullspace`` call the oracle makes, in order."""
    calls: list[int] = []

    def counted(rows, ambient_dim):
        rows = list(rows)
        calls.append(len(rows))
        return nullspace(rows, ambient_dim)

    monkeypatch.setattr(oracle, "nullspace", counted)
    return calls


class TestWeightSpaces:
    @given(graphs(max_n=12))
    def test_mask_rows_match_frozenset_rows(self, g):
        for family in (enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g)):
            assert weight_space_from_family(family) == weight_space_from_frozensets(family)

    @given(graphs(max_n=7))
    def test_basis_vectors_weigh_sets_equally(self, g):
        family = enumerate_minimal_dominating_sets(g)
        space = weight_space_from_family(family)
        for vector in space.rows:
            weights = {set_weight(vector, s) for s in family.sets}
            assert len(weights) == 1

    def test_oracle_wrappers(self):
        g = path_graph(4)
        assert well_covered_weight_space_oracle(g).dimension == 2
        assert well_dominated_weight_space_oracle(g).dimension == 2

    def test_constant_weights_always_included_when_well_covered(self):
        g = cycle_graph(7)
        space = well_covered_weight_space_oracle(g)
        assert space.contains_vector([1] * 7)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            weight_space_from_family(SetFamily(3, ()))

    def test_every_family_on_three_points_matches_the_reference(self, monkeypatch):
        calls = record_nullspace_rows(monkeypatch)
        rechecked = []
        for n in range(4):
            for chosen in range(1, 1 << (1 << n)):
                family = SetFamily(n, tuple(m for m in range(1 << n) if chosen >> m & 1))
                calls.clear()
                assert weight_space_from_family(family) == weight_space_from_frozensets(family)
                if len(calls) > 1:
                    rechecked.append(family.masks)
        # their difference rows are independent over Q but not mod 2, so the
        # probe finds a set the rows picked mod 2 miss
        assert len(rechecked) == 2
        assert (0b000, 0b011, 0b101, 0b110) in rechecked
        assert weight_space_from_family(SetFamily(3, (0b000, 0b011, 0b101, 0b110))).dimension == 0

    @given(mask_families)
    def test_arbitrary_mask_families_match_the_reference(self, family):
        assert weight_space_from_family(family) == weight_space_from_frozensets(family)

    @given(mask_families, st.randoms(use_true_random=False))
    def test_candidates_are_certified_or_reduced_again(self, family, rng):
        # a wrong candidate fails the probe or the dimension test and the
        # family is reduced; a right one comes back itself when the rank
        # mod 2 is the rank over Q
        n = family.n
        truth = weight_space_from_frozensets(family)
        candidates = [truth, constants_space(n)]
        if truth.dimension:
            rows = list(truth.sparse_rows)
            rows[rng.randrange(len(rows))] = {rng.randrange(n): 1}
            candidates.append(row_space(rows, n))
        for dimension in range(n + 1):
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(dimension)]
            candidates.append(row_space(rows, n))
        for candidate in candidates:
            assert weight_space_from_family(family, candidate) == truth
        if truth.dimension == n - rank_mod_2(family):
            assert weight_space_from_family(family, truth) is truth

    def test_candidate_of_another_ambient_dimension_rejected(self):
        with pytest.raises(ValueError, match="ambient dimension 4 for 3 points"):
            weight_space_from_family(SetFamily(3, (0b001, 0b010)), constants_space(4))

    def test_engine_bases_of_every_family_graph_are_certified(self, monkeypatch):
        calls = record_nullspace_rows(monkeypatch)
        for level in family_graphs(10):
            for g in level:
                wcw = characterized_wcw_basis(g).basis
                wwd = characterized_wwd_basis(g).basis
                calls.clear()
                assert weight_space_from_family(enumerate_maximal_independent_sets(g), wcw) is wcw
                assert weight_space_from_family(enumerate_minimal_dominating_sets(g), wwd) is wwd
                assert calls == [], g.edges()  # certified without a reduction

    @pytest.mark.parametrize("g", [
        cycle_graph(20),
        disjoint_union(*[cycle_graph(5)] * 4),
        disjoint_union(*[complete_graph(3)] * 6, complete_graph(2)),
    ], ids=["C20", "4xC5", "6xK3+K2"])
    def test_gate_sized_families_match_the_reference(self, g):
        for family in (enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g)):
            assert weight_space_from_family(family) == weight_space_from_frozensets(family)

    def test_only_the_rows_that_count_are_reduced(self, monkeypatch):
        # one reduction of n - dim rows: the rows picked mod 2 are the pivots,
        # and no set sends the probe back for another round
        calls = record_nullspace_rows(monkeypatch)
        for g in (fringe_gap_graph(), *(g for level in family_graphs(8) for g in level)):
            for family in (enumerate_maximal_independent_sets(g), enumerate_minimal_dominating_sets(g)):
                calls.clear()
                space = weight_space_from_family(family)
                assert calls == [g.n - space.dimension]


class TestExtremalWeights:
    @given(graphs(max_n=6), st.lists(st.integers(0, 5), min_size=6, max_size=6))
    def test_weighted_chain_for_nonnegative_weights(self, g, raw):
        # the lightest minimal dominating set weighs at most the lightest
        # maximal independent set, the heaviest at least the heaviest one
        weights = [Fraction(x) for x in raw[: g.n]]
        independent = [set_weight(weights, s) for s in enumerate_maximal_independent_sets(g).sets]
        dominating = [set_weight(weights, s) for s in enumerate_minimal_dominating_sets(g).sets]
        assert min(dominating) <= min(independent) <= max(independent) <= max(dominating)
