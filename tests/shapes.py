#!/usr/bin/env python3
"""The graph shapes that the tests and CI build, each defined once.

Each builder takes a size and returns ``(n, edges)``: the vertices are
0..n-1 and the edges come in the order in which they are printed.  The
module uses only the standard library and imports nothing from welldom.

    python tests/shapes.py NAME SIZE...

prints the shape ``NAME(SIZE...)`` as an edge list (the vertex count, then
one ``u v`` line per edge).  Every SIZE is an integer passed in order, so
``windmill 10 1`` is the windmill with pendants.  For example

    python tests/shapes.py cycle 100000 | python -m welldom.cli analyze /dev/stdin
"""

from __future__ import annotations

import random
import sys
from typing import Iterable

Shape = tuple[int, list[tuple[int, int]]]


def caterpillar(k: int) -> Shape:
    """The spine 0..k-1 with two pendants k + i and 2k + i at spine vertex i."""
    spine = [(i, i + 1) for i in range(k - 1)]
    return 3 * k, spine + [(i, j * k + i) for j in (1, 2) for i in range(k)]


def complete_bipartite(a: int, copies: int = 1) -> Shape:
    """``copies`` disjoint K_{a,a}: copy c has the sides 2ac + i and 2ac + a + j, for i, j < a."""
    return 2 * a * copies, [(2 * a * c + i, 2 * a * c + a + j)
                            for c in range(copies) for i in range(a) for j in range(a)]


def eared_tree(tree_n: int, ears: int, seed: int = 1) -> Shape:
    """A random recursive tree on ``tree_n`` vertices from ``random.Random(seed)``,
    with the ear tree_n + i joined to both ends of the i-th of ``ears`` distinct
    tree edges.  Every cycle is a triangle."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, tree_n)]
    for i, (u, v) in enumerate(rng.sample(edges, ears)):
        edges += [(u, tree_n + i), (v, tree_n + i)]
    return tree_n + ears, edges


def cycle(length: int) -> Shape:
    """The cycle C_length: the edges i, i + 1 mod length."""
    return length, [(i, (i + 1) % length) for i in range(length)]


def eared_cycle(length: int) -> Shape:
    """The cycle C_length with an ear on every edge: ear length + i on the edge i, i + 1."""
    edges = []
    for i in range(length):
        j = (i + 1) % length
        edges += [(i, j), (i, length + i), (j, length + i)]
    return 2 * length, edges


def path_corona(cells: int) -> Shape:
    """A path on ``cells`` vertices, each with one pendant: cells + i at i."""
    return 2 * cells, [(i, i + 1) for i in range(cells - 1)] + [(i, cells + i) for i in range(cells)]


def _with_pendants(n: int, edges: list[tuple[int, int]], at: Iterable[int]) -> Shape:
    """The shape on 0..n-1 with ``edges``, and a new pendant at each vertex of ``at``."""
    at = list(at)
    return n + len(at), edges + [(v, n + i) for i, v in enumerate(at)]


def double_star(k: int, pendants: bool = False) -> Shape:
    """Two adjacent hubs 0 and 1 with k leaves each (3..k+2 at 0, k+3..2k+2 at
    1, in alternation) and the ear 2 on their edge; with ``pendants``, a
    pendant at every other leaf."""
    edges = [(0, 1), (0, 2), (1, 2)] + [e for i in range(k) for e in ((0, 3 + i), (1, 3 + k + i))]
    return _with_pendants(2 * k + 3, edges, range(3, 2 * k + 3, 2) if pendants else ())


def windmill(k: int, pendants: bool = False) -> Shape:
    """The triangles 0, 2i + 1, 2i + 2 on the hub 0, for i < k; with
    ``pendants``, a pendant at 2i + 1 for every other i."""
    edges = [e for i in range(k) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))]
    return _with_pendants(2 * k + 1, edges, range(1, 2 * k + 1, 4) if pendants else ())


def hub_with_ears(k: int, pendants: bool = False) -> Shape:
    """A hub 0 with the spokes 3i + 1, for i < k, each with the pendant 3i + 2
    and the ear 3i + 3 on the hub-spoke edge; with ``pendants``, a second
    pendant at every other spoke and one at the hub."""
    edges = [e for i in range(k) for e in ((0, 3 * i + 1), (3 * i + 1, 3 * i + 2), (0, 3 * i + 3),
                                           (3 * i + 1, 3 * i + 3))]
    return _with_pendants(3 * k + 1, edges, [0, *range(1, 3 * k + 1, 6)] if pendants else ())


SHAPES = {build.__name__: build for build in (
    caterpillar, complete_bipartite, eared_tree, cycle, eared_cycle, path_corona,
    double_star, windmill, hub_with_ears,
)}


def edge_list(n: int, edges: list[tuple[int, int]]) -> str:
    """The edge-list text of the shape: the vertex count, then one ``u v`` line per edge."""
    return "".join([f"{n}\n", *(f"{u} {v}\n" for u, v in edges)])


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in SHAPES:
        print(f"usage: shapes.py NAME SIZE...; NAME is one of {', '.join(SHAPES)}", file=sys.stderr)
        return 2
    name, *sizes = argv
    sys.stdout.write(edge_list(*SHAPES[name](*map(int, sizes))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
