"""Constructors for the named graphs used throughout the tests and fixtures."""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """Center vertex 0 joined to ``leaves`` pendant vertices."""
    return complete_bipartite_graph(1, leaves)


def triangle_tripod_graph() -> Graph:
    """Ten-vertex graph: a triangle whose three corners each reach one shared
    apex through a path of three edges.

    Corners 0,1,2; the corner paths run 0-3-4-9, 1-5-6-9 and 2-7-8-9.  Its
    cycles have lengths 3, 7 and 8 only, and every maximal independent set has
    four vertices.
    """
    edges = [
        (0, 1), (0, 2), (1, 2),
        (0, 3), (3, 4), (4, 9),
        (1, 5), (5, 6), (6, 9),
        (2, 7), (7, 8), (8, 9),
    ]
    return Graph.from_edges(10, edges)


def triangle_with_pendants(k: int) -> Graph:
    """Triangle 0-1-2 with a pendant vertex hung on each of its first ``k`` corners."""
    if not 0 <= k <= 3:
        raise ValueError("a triangle has at most 3 corners")
    edges = [(0, 1), (0, 2), (1, 2)]
    edges.extend((i, 3 + i) for i in range(k))
    return Graph.from_edges(3 + k, edges)


def two_triangles_bridged() -> Graph:
    """Two triangles joined by a single bridge edge between them."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def triple_five_cycles_with_triangle() -> Graph:
    """Three disjoint 5-cycles whose first vertices are joined into a triangle.

    Vertices 0-4, 5-9 and 10-14 carry the cycles; the extra triangle is
    {0, 5, 10}.  Well covered (every maximal independent set picks two
    vertices per 5-cycle) but not well dominated.
    """
    edges = []
    for base in (0, 5, 10):
        edges.extend((base + i, base + (i + 1) % 5) for i in range(5))
    edges.extend([(0, 5), (5, 10), (0, 10)])
    return Graph.from_edges(15, edges)


def double_six_cycle() -> Graph:
    """Two edge-disjoint 6-cycles sharing the single vertex 5."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges.extend([(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 5)])
    return Graph.from_edges(11, edges)


def fringe_gap_graph() -> Graph:
    """Ten-vertex witness of a fringe vertex whose weight is forced to zero.

    Vertex 0 sits on the triangle {0, 1, 2}; long antennas 1-3-5-7 and
    2-4-6-8 meet at the far vertex 9.  The independent set {7, 8} of the far
    zone reaches neither neighbor track of the triangle, which pins w(0) to
    zero in the well-dominated weight space.
    """
    edges = [
        (0, 1), (0, 2), (1, 2),
        (1, 3), (2, 4),
        (3, 5), (4, 6),
        (5, 7), (6, 8),
        (7, 9), (8, 9),
    ]
    return Graph.from_edges(10, edges)


__all__ = [
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "double_six_cycle",
    "fringe_gap_graph",
    "path_graph",
    "star_graph",
    "triangle_tripod_graph",
    "triangle_with_pendants",
    "triple_five_cycles_with_triangle",
    "two_triangles_bridged",
]
