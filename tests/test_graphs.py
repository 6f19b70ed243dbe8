import math

import networkx as nx
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from welldom.analysis import analyze
from welldom.graphs import (
    Graph,
    MAX_EDGELIST_VERTICES,
    ParseError,
    _blocks,
    components,
    contains_cycle_of_length,
    cycle_lengths,
    induced_subgraph,
    is_complete,
    is_isomorphic_small,
    parse_graph,
    serialize_graph,
)
from welldom.named_graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    triangle_tripod_graph,
)

from conftest import (
    brute_cycle_lengths,
    brute_has_cycle,
    distances_from,
    eared_trees,
    glued_graphs,
    gnp_graphs,
    graphs,
)


class TestGraphBasics:
    def test_validation_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_degree_and_edges(self):
        g = path_graph(4)
        assert g.degree_sequence == (1, 1, 2, 2)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("rows", [
        ({1}, {0, 2}, {1}),
        [frozenset({1}), frozenset({0, 2}), frozenset({1})],
        ([1], [0, 2], [1]),
    ])
    def test_rows_of_sets_or_lists_make_the_same_graph(self, rows):
        g, twin = Graph(3, rows), Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g == twin and hash(g) == hash(twin)
        assert type(g.adj) is tuple and all(type(row) is frozenset for row in g.adj)
        assert analyze(g).to_json_dict() == analyze(twin).to_json_dict()

    @pytest.mark.parametrize("n, rows, message", [
        (-1, (), "vertex count must be non-negative"),
        (2, ({1},), "adjacency table has 1 rows for n=2"),
        (2, ({2}, ()), "neighbor 2 of vertex 0 out of range"),
        (1, ({0},), "loop at vertex 0"),
        (2, ({1}, ()), "asymmetric edge 0-1"),
    ])
    def test_malformed_tables_are_refused(self, n, rows, message):
        with pytest.raises(ValueError) as err:
            Graph(n, rows)
        assert str(err.value) == message

    def test_is_complete(self):
        assert is_complete(complete_graph(4))
        assert not is_complete(path_graph(3))
        assert is_complete(complete_graph(1))


class TestEdgeListFormat:
    def test_round_trip(self):
        g = triangle_tripod_graph()
        assert parse_graph(serialize_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n3\n0 1  # trailing\n\n1 2\n"
        g = parse_graph(text)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("3\n0 1 2\n")
        assert err.value.line == 2

    def test_missing_count(self):
        with pytest.raises(ParseError):
            parse_graph("0 1\n")

    def test_vertex_count_ceiling(self):
        assert parse_graph(f"{MAX_EDGELIST_VERTICES}\n").n == MAX_EDGELIST_VERTICES
        with pytest.raises(ParseError, match="exceeds the limit") as err:
            parse_graph(f"{MAX_EDGELIST_VERTICES + 1}\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, line, message", [
        ("3 4\n", 1, "expected a single vertex count"),
        ("x\n", 1, "vertex count 'x' is not an integer"),
        # int() takes these; only ASCII digits with at most a leading minus are integers here
        ("1_1\n", 1, "vertex count '1_1' is not an integer"),
        ("+3\n", 1, "vertex count '+3' is not an integer"),
        ("\u0663\n", 1, "vertex count '\u0663' is not an integer"),
        ("\uff13\n", 1, "vertex count '\uff13' is not an integer"),
        ("--3\n", 1, "vertex count '--3' is not an integer"),
        ("-\n", 1, "vertex count '-' is not an integer"),
        ("-2\n", 1, "vertex count -2 is negative"),
        ("3\n0 1 2\n", 2, "expected 'u v', got '0 1 2'"),
        ("3\n0 x\n", 2, "non-integer endpoint in '0 x'"),
        ("3\n0 1\n+1 2\n", 3, "non-integer endpoint in '+1 2'"),
        ("3\n0 1_0\n", 2, "non-integer endpoint in '0 1_0'"),
        ("3\n0 \u0661\n", 2, "non-integer endpoint in '0 \u0661'"),
        ("3\n# 1 2\n\n0 3\n", 4, "edge (0, 3) out of range for n=3"),
        ("3\n-1 2\n", 2, "edge (-1, 2) out of range for n=3"),
        ("3\n1 1\n", 2, "loop at vertex 1"),
        ("# nothing\n\n", None, "empty input: missing vertex count"),
    ])
    def test_each_error_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    def test_leading_zeros_and_comments_after_numbers(self):
        assert parse_graph("03\n00 2# x\n").edges() == [(0, 2)]

    def test_any_whitespace_separates_numbers(self):
        # only the numbers must be ASCII; str.split() separators such as
        # the no-break and ideographic spaces are accepted
        assert parse_graph("\u30003\n0\u00a01\n1\u30002\t\n").edges() == [(0, 1), (1, 2)]


class TestGraph6Format:
    def test_known_encoding(self):
        # 5-cycle, short form, cross-checked against networkx
        assert serialize_graph(cycle_graph(5), "graph6") == "Dhc\n"
        assert parse_graph("Dhc", "graph6") == cycle_graph(5)

    def test_header_tolerated(self):
        assert parse_graph(">>graph6<<Dhc", "graph6") == cycle_graph(5)

    @given(graphs(max_n=12))
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g, "graph6"), "graph6") == g

    @given(graphs(max_n=12))
    def test_matches_networkx(self, g):
        ours = serialize_graph(g, "graph6").strip()
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs

    def test_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            serialize_graph(Graph.from_edges(63, []), "graph6")

    def test_rejects_nonzero_padding(self):
        # valid n=2 with an edge is "A_"; "A`" sets a padding bit
        assert parse_graph("A_", "graph6").edge_count == 1
        with pytest.raises(ParseError):
            parse_graph("A`", "graph6")

    @pytest.mark.parametrize("text, line, message", [
        ("\n \n", None, "empty graph6 input"),
        (">>graph6<<\n", 1, "empty graph6 input"),
        ("Dhc\nDhc\n", 2, "one graph per file"),
        ("Dhc\n\n~\n", 3, "one graph per file"),
        ("~?@", 1, "extended graph6 (n >= 63) is not supported"),
        ("!", 1, "bad graph6 size byte '!'"),
        ("\nDh\n", 2, "graph6 body has 1 bytes, expected 2 for n=5"),
        ("Dh!", 1, "graph6 byte '!' at offset 3 out of range"),
        ("A`", 1, "graph6 padding bits must be zero"),
    ])
    def test_each_error_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text, "graph6")
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")


# the characters each format is made of
ALPHABETS = {"edgelist": "0123456789-# \t\n\r\x0b\xa0", "graph6": [chr(c) for c in range(63, 127)] + ["\n", " "]}


@st.composite
def format_and_text(draw):
    """A format, and any text, text of the format's characters, or a graph's
    text in the format, with up to two short runs replaced."""
    fmt = draw(st.sampled_from(sorted(ALPHABETS)))
    text = draw(st.one_of(st.text(), st.text(ALPHABETS[fmt]), graphs(max_n=8).map(lambda g: serialize_graph(g, fmt))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(ALPHABETS[fmt], max_size=2)) + text[at + draw(st.integers(0, 2)):]
    return fmt, text


@given(format_and_text())
@example(("edgelist", "3\n0 1\n1 2 # a path\n"))
@example(("graph6", ">>graph6<<Dhc\n"))
def test_any_text_parses_or_is_refused(fmt_text):
    """Text in either format gives a Graph or a ParseError, and a Graph
    serializes back to text that parses to the same graph."""
    fmt, text = fmt_text
    try:
        g = parse_graph(text, fmt)
    except ParseError:
        return
    assert isinstance(g, Graph)
    assert parse_graph(serialize_graph(g, fmt), fmt) == g


class TestDistances:
    def test_distances_from_single_source(self):
        g = path_graph(4)
        assert distances_from(g, [0]) == [0, 1, 2, 3]

    def test_unreachable_is_infinite(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert distances_from(g, [0]) == [0, 1, math.inf]


class TestComponents:
    def test_split(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        assert components(g) == [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})]

    def test_induced_subgraph_remaps(self):
        g = path_graph(5)
        sub, remap = induced_subgraph(g, {1, 2, 4})
        assert sub.n == 3
        assert remap == {1: 0, 2: 1, 4: 2}
        assert sub.edges() == [(0, 1)]

    @given(graphs(max_n=8))
    def test_component_union_is_vertex_set(self, g):
        comps = components(g)
        assert sorted(v for c in comps for v in c) == list(range(g.n))


# a 7-cycle 0..6 with the path 7-8-9-10 hung on vertex 3, three steps from 0
SEVEN_CYCLE_WITH_TAIL = Graph.from_edges(
    11, [(i, (i + 1) % 7) for i in range(7)] + [(3, 7), (7, 8), (8, 9), (9, 10)]
)
# the path 0..8 ending in the triangle 8-9-10
TRIANGLE_ON_TAIL = Graph.from_edges(11, [(i, i + 1) for i in range(9)] + [(8, 10), (9, 10)])
# a triangle and a 7-cycle through vertex 0: finding the triangle must not
# narrow the search for the 7-cycle
SHARED_ROOT = Graph.from_edges(9, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (7, 8), (0, 8)])


def with_triangle(g: Graph, at: int) -> Graph:
    """g with a triangle hung at vertex ``at`` through two new vertices."""
    n = g.n
    return Graph.from_edges(n + 2, g.edges() + [(at, n), (at, n + 1), (n, n + 1)])


def odd_cycles_at_a_cut_vertex(a: int, b: int) -> Graph:
    """An a-cycle and a b-cycle sharing only vertex 0."""
    first = [(i, (i + 1) % a) for i in range(a)]
    second = [(0, a)] + [(a + i, a + i + 1) for i in range(b - 2)] + [(a + b - 2, 0)]
    return Graph.from_edges(a + b - 1, first + second)


class TestCycleDetection:
    @given(graphs(max_n=7), st.integers(3, 7))
    def test_matches_brute_force(self, g, k):
        assert contains_cycle_of_length(g, k) == brute_has_cycle(g, k)

    # K_{3,3} with a triangle at its first root is not bipartite, but its
    # big block is; two odd cycles at a cut vertex are two blocks.  A block
    # with as many edges as vertices is read as one cycle with no search: a
    # 6-cycle with a chord, or a 7-cycle with an ear, is not one
    @given(st.one_of(graphs(max_n=9), gnp_graphs(max_n=11), eared_trees(max_n=11), glued_graphs(max_n=11)),
           st.sets(st.integers(3, 12)))
    @example(cycle_graph(8), set(range(3, 8)))
    @example(SEVEN_CYCLE_WITH_TAIL, set(range(3, 8)))
    @example(TRIANGLE_ON_TAIL, set(range(3, 8)))
    @example(SHARED_ROOT, set(range(3, 8)))
    @example(with_triangle(complete_bipartite_graph(3, 3), 0), set(range(3, 8)))
    @example(odd_cycles_at_a_cut_vertex(3, 5), set(range(3, 8)))
    @example(odd_cycles_at_a_cut_vertex(5, 5), set(range(3, 8)))
    @example(odd_cycles_at_a_cut_vertex(3, 7), set(range(3, 8)))
    @example(path_graph(11), set(range(3, 12)))
    @example(star_graph(10), set(range(3, 12)))
    @example(Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), {3, 4, 5})
    @example(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]), set(range(3, 8)))
    @example(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)]), set(range(3, 8)))
    @example(Graph.from_edges(8, [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (1, 7)]), set(range(3, 9)))
    def test_profile_matches_brute_force(self, g, lengths):
        assert cycle_lengths(g, lengths) == lengths & brute_cycle_lengths(g)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_profile_is_its_own_length(self, n):
        g = cycle_graph(n)
        for lengths in (range(3, 13), {n}, {k for k in (n - 1, n + 1) if k >= 3}, (3, 4, 5, 6, 7)):
            assert cycle_lengths(g, lengths) == set(lengths) & {n}

    def test_profile_examples(self):
        assert cycle_lengths(cycle_graph(8), range(3, 8)) == frozenset()
        assert cycle_lengths(SEVEN_CYCLE_WITH_TAIL, range(3, 8)) == {7}
        assert cycle_lengths(TRIANGLE_ON_TAIL, range(3, 8)) == {3}
        assert cycle_lengths(SHARED_ROOT, range(3, 8)) == {3, 7}
        assert cycle_lengths(complete_graph(5), ()) == frozenset()
        assert cycle_lengths(complete_graph(5), (3, 6)) == {3}  # 6 > n

    @given(st.one_of(graphs(max_n=10), glued_graphs(max_n=10)))
    @example(with_triangle(complete_bipartite_graph(3, 3), 0))
    @example(odd_cycles_at_a_cut_vertex(3, 5))
    def test_blocks_match_networkx(self, g):
        # the blocks of the whole graph and whether each is bipartite; the
        # search only ever asks for those of the 2-core
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        expected = {(frozenset(c), nx.is_bipartite(h.subgraph(c))) for c in nx.biconnected_components(h)}
        assert {(frozenset(block), bipartite) for block, bipartite in _blocks(g.adj, set(range(g.n)))} == expected

    def test_large_complete_bipartite_profile(self):
        # one bipartite block: no search for an odd length starts
        assert cycle_lengths(complete_bipartite_graph(40, 40), range(3, 8)) == {4, 6}

    def test_cycle_graph_has_only_its_length(self):
        g = cycle_graph(6)
        assert contains_cycle_of_length(g, 6)
        assert not any(contains_cycle_of_length(g, k) for k in (3, 4, 5, 7))

    def test_short_lengths_rejected(self):
        with pytest.raises(ValueError):
            contains_cycle_of_length(path_graph(3), 2)
        with pytest.raises(ValueError):
            cycle_lengths(complete_graph(4), (2, 3))

    def test_excludes_cycles(self):
        assert not cycle_lengths(triangle_tripod_graph(), (4, 5, 6))
        assert cycle_lengths(triangle_tripod_graph(), (3,))
        assert not cycle_lengths(complete_graph(5), ())


class TestIsomorphism:
    def test_relabelling_is_isomorphic(self):
        g = triangle_tripod_graph()
        order = [9, 0, 3, 1, 4, 2, 5, 7, 6, 8]
        relabel = {old: new for new, old in enumerate(order)}
        h = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        assert is_isomorphic_small(g, h)

    def test_same_degrees_different_structure(self):
        # C6 versus two triangles: both 2-regular on 6 vertices
        c6 = cycle_graph(6)
        kk = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic_small(c6, kk)

    @given(graphs(max_n=7), st.permutations(range(7)))
    def test_matches_networkx(self, g, perm):
        relabel = {old: perm[old] for old in range(g.n)}
        image = sorted(relabel[v] for v in range(g.n))
        back = {new: i for i, new in enumerate(image)}
        h = Graph.from_edges(g.n, [(back[relabel[u]], back[relabel[v]]) for u, v in g.edges()])
        assert is_isomorphic_small(g, h)

    def test_size_gate(self):
        with pytest.raises(ValueError):
            is_isomorphic_small(Graph.from_edges(13, []), Graph.from_edges(13, []))


def test_star_graph_layout():
    g = star_graph(4)
    assert g.degree(0) == 4
    assert all(g.degree(v) == 1 for v in range(1, 5))
