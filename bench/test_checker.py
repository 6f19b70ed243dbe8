"""Tests of the benchmark's checker and input builders (no welldom needed).

Run with ``python3 -m pytest bench``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import checker
import spans
from inputs import eared_tree, path_corona, relabel

PAW = (4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # triangle 0-1-2 with pendant 3 at 0
C7 = (7, [(i, (i + 1) % 7) for i in range(7)])
P4 = (4, [(0, 1), (1, 2), (2, 3)])


def sets(masks):
    return sorted(sorted(checker.members(m)) for m in masks)


def test_paw_families_and_spaces():
    fam = checker.brute_families(*PAW)
    assert sets(fam.mds) == [[0], [1, 3], [2, 3]]
    assert sets(fam.mis) == [[0], [1, 3], [2, 3]]
    assert len(checker.equal_weight_space(4, fam.mds)) == 2
    assert fam.numbers["domination"] == 1 and fam.numbers["upper_domination"] == 2
    assert not fam.numbers["well_dominated"]


def test_seven_cycle_carries_only_the_constants():
    fam = checker.brute_families(*C7)
    ones = ((Fraction(1),) * 7,)
    assert checker.equal_weight_space(7, fam.mis) == ones
    assert checker.equal_weight_space(7, fam.mds) == ones
    assert fam.numbers["well_covered"] and fam.numbers["well_dominated"]
    assert [checker.has_cycle(*C7, k) for k in range(3, 8)] == [False] * 4 + [True]


def test_path_numbers():
    fam = checker.brute_families(*P4)
    assert sets(fam.mis) == [[0, 2], [0, 3], [1, 3]]
    assert fam.numbers["independence"] == 2 and fam.numbers["domination"] == 2


def test_rref_and_nullspace_are_canonical():
    assert checker.rref([[2, 4, 0], [1, 2, 0], [0, 0, 3]], 3) == ((1, 2, 0), (0, 0, 1))
    assert checker.nullspace([[1, 1, 0]], 3) == ((1, -1, 0), (0, 0, 1))
    assert checker.rref([], 2) == ()


def test_mismatches_are_reported():
    want = checker.rref([[1, 1, 0]], 3)
    assert checker.check_space("g", "WCW", want, want) == []
    assert checker.check_space("g", "WCW", checker.rref([[1, 0, 0]], 3), want)
    assert checker.check_space("g", "WCW", (), want)


def test_corona_closed_form_matches_brute_force():
    path, leaves, edges = path_corona(4)
    perm, renamed = relabel(random.Random(5), 8, edges)
    path, leaves = [perm[v] for v in path], [perm[v] for v in leaves]
    fam = checker.brute_families(8, renamed)
    wcw = checker.equal_weight_space(8, fam.mis)
    wwd = checker.equal_weight_space(8, fam.mds)
    assert len(wcw) == 4
    assert checker.check_corona("c", 8, path, leaves, wcw, wwd, (True, True)) == []
    dropped = wcw[:-1]  # what a reduction that loses its last row would give
    assert checker.check_corona("c", 8, path, leaves, dropped, wwd, (True, True))
    assert checker.check_corona("c", 8, path, leaves, wcw, wwd, (True, False))


def test_large_space_properties_hold_for_brute_force_spaces():
    rng = random.Random(1)
    for _ in range(5):
        n, edges = eared_tree(rng, 10, 3)
        fam = checker.brute_families(n, edges)
        wcw = checker.equal_weight_space(n, fam.mis)
        wwd = checker.equal_weight_space(n, fam.mds)
        assert checker.check_large_spaces("t", n, edges, wcw, wwd, random.Random(2), 200) == []


def test_large_space_properties_catch_a_zero_forced_vertex_left_free():
    # the path 0-1-2-3-4 with the ear 5 on its edge 1-2: e(5) lies outside WWD,
    # so widening WWD by it must break the equal weight of sampled sets
    n, edges = 6, [(0, 1), (1, 2), (2, 3), (1, 5), (2, 5), (3, 4)]
    fam = checker.brute_families(n, edges)
    wcw = checker.equal_weight_space(n, fam.mis)
    wwd = checker.equal_weight_space(n, fam.mds)
    widened = checker.rref(list(wwd) + [[0, 0, 0, 0, 0, 1]], n)
    assert widened != wwd
    assert checker.check_large_spaces("t", n, edges, wcw, widened, random.Random(3), 200)


def test_sampled_sets_are_maximal_independent_and_minimal_dominating():
    rng = random.Random(4)
    n, edges = eared_tree(rng, 11, 4)
    fam = checker.brute_families(n, edges)
    adj = checker.neighbour_masks(n, edges)
    for _ in range(50):
        assert checker.random_maximal_independent(rng, n, adj) in fam.mis
        assert checker.random_minimal_dominating(rng, n, adj) in fam.mds


def test_eared_trees_have_only_triangles():
    rng = random.Random(6)
    for leaf_edges in (True, False):
        for _ in range(20):
            n, edges = eared_tree(rng, 12, 4, leaf_edges=leaf_edges)
            assert [checker.has_cycle(n, edges, k) for k in (4, 5, 6)] == [False] * 3
            if not leaf_edges:
                fringe = set(checker.fringe(n, edges))
                assert not any(u in fringe and v in fringe for u, v in edges)


def test_benchmark_file_names_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: spans.unit_of(name) for name in spans.PER_LAYER}
