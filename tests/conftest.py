"""Shared strategies and independent brute-force oracles.

The oracles here deliberately avoid the package's clever enumeration code:
they filter all 2^n subsets (or all k-permutations for cycles) so that the
production algorithms are checked against something dumb and obviously
correct.
"""

from __future__ import annotations

from itertools import combinations, permutations

import hypothesis.strategies as st
from hypothesis import settings

from welldom.graphs import Graph, iter_bits

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


@st.composite
def eared_trees(draw, max_n: int = 12) -> Graph:
    """A tree on at least 3 vertices with pendant triangles hung on some
    vertices and ears on some vertex-disjoint tree edges.

    Every cycle is a triangle, and a vertex may carry several pendant
    triangles, so several two-ear pieces can share a confined set.
    """
    tree_n = draw(st.integers(3, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, tree_n)]
    n, touched = tree_n, set()
    for u, v in draw(st.lists(st.sampled_from(edges), unique=True)):
        if n < max_n and not {u, v} & touched:
            touched |= {u, v}
            edges += [(u, n), (v, n)]
            n += 1
    for c in draw(st.lists(st.integers(0, tree_n - 1), max_size=4)):
        if n + 2 <= max_n:
            edges += [(c, n), (c, n + 1), (n, n + 1)]
            n += 2
    return Graph.from_edges(n, edges)


def subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def is_independent(g: Graph, s: frozenset[int]) -> bool:
    return all(not g.has_edge(u, v) for u in s for v in s if u < v)


def is_dominating(g: Graph, s: frozenset[int]) -> bool:
    covered = set(s)
    for v in s:
        covered |= g.adj[v]
    return len(covered) == g.n


def brute_maximal_independent(g: Graph) -> set[frozenset[int]]:
    independent = [s for s in subsets(g.n) if is_independent(g, s)]
    return {
        s for s in independent
        if all(not (s < t) for t in independent)
    }


def brute_minimal_dominating(g: Graph) -> set[frozenset[int]]:
    # domination is monotone, so minimality only needs single-vertex removals
    return {
        s for s in subsets(g.n)
        if is_dominating(g, s)
        and all(not is_dominating(g, s - {v}) for v in s)
    }


def brute_has_cycle(g: Graph, k: int) -> bool:
    for vertices in combinations(range(g.n), k):
        first, rest = vertices[0], vertices[1:]
        for order in permutations(rest):
            walk = (first, *order)
            if all(g.has_edge(walk[i], walk[(i + 1) % k]) for i in range(k)):
                return True
    return False


def reference_set_masks(g: Graph, independent: bool, within=None, forbidden=0, on_node=None):
    """The oracle search as it was before it carried the ``twice`` mask: every
    dominating child re-derives irredundance over all its members, and the
    branch vertex is picked with ``min``.  ``iter_set_masks`` must yield the
    same sequence and call ``on_node`` as often."""
    full = g.full_mask if within is None else within
    nb = g.closed_bits

    def irredundant(chosen: int) -> bool:
        once = twice = 0
        for w in iter_bits(chosen):
            twice |= once & nb[w]
            once |= nb[w]
        return all(nb[w] & full & ~twice for w in iter_bits(chosen))

    stack = [(0, 0, forbidden)]
    while stack:
        if on_node is not None:
            on_node()
        chosen, dominated, forbidden = stack.pop()
        undominated = full & ~dominated
        if not undominated:
            yield chosen
            continue
        allowed = full & ~forbidden
        if independent:
            allowed &= ~dominated
        v = min(iter_bits(undominated), key=lambda w: (nb[w] & allowed).bit_count())
        branches = nb[v] & allowed
        while branches:
            u = branches.bit_length() - 1
            branches ^= 1 << u
            child = chosen | 1 << u
            if independent or irredundant(child):
                stack.append((child, dominated | nb[u], forbidden | branches))
