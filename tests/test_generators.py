import hashlib
import random

import pytest
from hypothesis import given

from welldom.generators import (
    SAMPLING_ATTEMPTS,
    GeneratorConfig,
    _has_four_cycle,
    generate_family,
    random_tree,
    random_triangle_tree,
    sample_cycle_free,
)
from welldom.graphs import Graph, contains_cycle_of_length, cycle_lengths, serialize_graph
from welldom.oracle import BudgetExceededError

from conftest import graphs


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.max_n == 10 and cfg.count == 100 and cfg.forbidden_cycles == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(max_n=0)
        with pytest.raises(ValueError):
            GeneratorConfig(count=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(forbidden_cycles={2})

    def test_forbidden_cycles_coerced(self):
        cfg = GeneratorConfig(forbidden_cycles=[4, 5, 4])
        assert cfg.forbidden_cycles == frozenset({4, 5})

    def test_forbidden_cycles_from_an_iterator(self):
        cfg = GeneratorConfig(forbidden_cycles=(k for k in [4, 5]))
        assert cfg.forbidden_cycles == frozenset({4, 5})
        with pytest.raises(ValueError):
            GeneratorConfig(forbidden_cycles=(k for k in [4, 2]))


def graph_per_candidate(rng, n, p, forbidden):
    """Reference sampler: a validated Graph and ``cycle_lengths`` per candidate."""
    for _ in range(SAMPLING_ATTEMPTS):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if not cycle_lengths(g, forbidden):
            return g
    raise BudgetExceededError("no sample")


def outcome(sampler, *args):
    try:
        return sampler(*args)
    except BudgetExceededError:
        return "gave up"


class TestBuildingBlocks:
    def test_random_tree_shape(self):
        rng = random.Random(0)
        for n in (1, 2, 5, 9):
            g = random_tree(rng, n)
            assert g.n == n and g.edge_count == n - 1 and g.is_connected

    def test_triangle_tree_stays_within_bounds(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_triangle_tree(rng, 9)
            assert 1 <= g.n <= 9
            assert g.is_connected
            assert not cycle_lengths(g, (4, 5, 6, 7))

    def test_sampler_respects_forbidden_lengths(self):
        rng = random.Random(2)
        for _ in range(30):
            g = sample_cycle_free(rng, 7, 0.3, frozenset({3, 4}))
            assert not contains_cycle_of_length(g, 3)
            assert not contains_cycle_of_length(g, 4)

    @pytest.mark.parametrize("forbidden", [{3}, {4, 5}, {4, 5, 6}])
    def test_sampler_matches_a_graph_per_candidate(self, forbidden):
        # the sampler's own test accepts the same candidate, after the
        # same draws, as building a Graph for each and testing that; at
        # n = 3 it gives up on a triangle, after the same draws too
        forbidden = frozenset(forbidden)
        for seed in range(48):
            n = 1 + seed % 12
            p = min(1.0, 2.6 / max(n - 1, 1))
            rng, reference_rng = random.Random(seed), random.Random(seed)
            assert outcome(sample_cycle_free, rng, n, p, forbidden) == outcome(
                graph_per_candidate, reference_rng, n, p, forbidden
            )
            assert rng.getstate() == reference_rng.getstate()

    @given(graphs(max_n=12))
    def test_four_cycle_test_matches_the_cycle_search(self, g):
        assert _has_four_cycle(list(g.adjacency_bits)) == (4 in cycle_lengths(g, (4,)))

    def test_four_cycle_test_matches_on_sparse_candidates(self):
        # graphs as sparse as the sampler's, where both answers are common
        rng = random.Random(5)
        answers = set()
        for _ in range(400):
            n = rng.randint(1, 12)
            g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 2.6 / n])
            found = _has_four_cycle(list(g.adjacency_bits))
            assert found == (4 in cycle_lengths(g, (4,))), g.edges()
            answers.add(found)
        assert answers == {True, False}

    def test_sampler_gives_up_when_constraints_are_hopeless(self):
        # edge probability 1 forces K6, which always has triangles
        rng = random.Random(3)
        with pytest.raises(BudgetExceededError, match="edge probability"):
            sample_cycle_free(rng, 6, 1.0, frozenset({3}))


class TestFamilyStream:
    def test_deterministic_for_a_seed(self):
        cfg = GeneratorConfig(max_n=8, forbidden_cycles=frozenset({4, 5}), seed=11, count=40)
        first = [serialize_graph(g) for g in generate_family(cfg)]
        second = [serialize_graph(g) for g in generate_family(cfg)]
        assert first == second
        assert len(first) == 40

    @pytest.mark.parametrize(
        "max_n, forbidden, seed, count, digest",
        [
            (12, {4, 5, 6}, 77, 380, "22f1de6c1c8c0d0e8ee5b260b10ecf2a5896b4ea1abe77563a340d4dd6b22ad6"),
            (10, {4, 5}, 20260814, 620, "28d2b9f49a8606d2f52cf860133f76f9bdf0a072504f313e5fe646969e889863"),
        ],
    )
    def test_criterion_streams_are_pinned(self, max_n, forbidden, seed, count, digest):
        # the criterion-7 and criterion-6 families; a changed rejection test
        # must not shift the graphs they draw
        cfg = GeneratorConfig(max_n=max_n, forbidden_cycles=frozenset(forbidden), seed=seed, count=count)
        text = "".join(serialize_graph(g, "graph6") for g in generate_family(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seeds_differ(self):
        base = GeneratorConfig(max_n=8, seed=1, count=30)
        other = GeneratorConfig(max_n=8, seed=2, count=30)
        a = [serialize_graph(g) for g in generate_family(base)]
        b = [serialize_graph(g) for g in generate_family(other)]
        assert a != b

    def test_forbidden_cycles_absent_from_stream(self):
        cfg = GeneratorConfig(max_n=9, forbidden_cycles=frozenset({4, 5, 6}), seed=12, count=60)
        for g in generate_family(cfg):
            assert g.n <= 9
            assert not cycle_lengths(g, (4, 5, 6))

    def test_triangles_do_appear_when_allowed(self):
        cfg = GeneratorConfig(max_n=9, forbidden_cycles=frozenset({4, 5}), seed=13, count=60)
        assert any(contains_cycle_of_length(g, 3) for g in generate_family(cfg))

    def test_triangles_absent_when_forbidden(self):
        cfg = GeneratorConfig(max_n=9, forbidden_cycles=frozenset({3}), seed=14, count=40)
        for g in generate_family(cfg):
            assert not contains_cycle_of_length(g, 3)
