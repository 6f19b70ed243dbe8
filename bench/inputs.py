"""Seeded input graphs for the benchmark, as ``(n, edges)`` and edgelist text.

Nothing here imports welldom: the program receives these graphs only through
their text form, which the workloads parse with ``welldom.parse_graph``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def edgelist(self) -> str:
        return "".join([f"{self.n}\n"] + [f"{u} {v}\n" for u, v in self.edges])


def eared_tree(rng: random.Random, tree_n: int, ears: int, *, leaf_edges: bool = True) -> tuple[int, list]:
    """A random recursive tree with one new vertex joined to both ends of
    ``ears`` distinct tree edges.

    One ear per edge keeps 4-, 5- and 6-cycles out: every cycle is a
    triangle.  With ``leaf_edges`` false the ears go on edges whose two ends
    both have tree degree at least two, so no two fringe vertices are
    adjacent (fewer ears when the tree has fewer such edges).
    """
    edges = [(rng.randrange(v), v) for v in range(1, tree_n)]
    degree = [0] * tree_n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    candidates = edges if leaf_edges else [e for e in edges if min(degree[e[0]], degree[e[1]]) > 1]
    n = tree_n
    out = list(edges)
    for u, v in rng.sample(candidates, min(ears, len(candidates))):
        out += [(u, n), (v, n)]
        n += 1
    return n, out


def path_corona(cells: int) -> tuple[list[int], list[int], list]:
    """Path v_0..v_{cells-1}, each v_i with one pendant leaf_i = cells + i."""
    path = list(range(cells))
    leaves = [cells + i for i in range(cells)]
    edges = [(i, i + 1) for i in range(cells - 1)] + list(zip(path, leaves))
    return path, leaves, edges


def relabel(rng: random.Random, n: int, edges) -> tuple[list[int], tuple]:
    """A uniformly random vertex numbering; returns the map and the renamed edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    renamed = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(renamed)
    return perm, tuple(renamed)
