"""Shared strategies and independent brute-force oracles.

The oracles here deliberately avoid the package's clever enumeration code:
they filter all 2^n subsets (or all k-permutations, or all paths, for
cycles) so that the production algorithms are checked against something
dumb and obviously correct.  The large shapes are those of the catalogue
``shapes``, made ``Graph``s.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cache, wraps
from itertools import combinations, permutations
from typing import Iterable

import hypothesis.strategies as st
import pytest
from hypothesis import settings

import shapes
from welldom.graphs import Graph, components, is_isomorphic_small, iter_bits
from welldom.structure import SimplicialPartition, component_facts, simplicial_vertices

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def fresh_component_facts():
    """Start every test with no graph's records kept, so that none built
    under another test's monkeypatch is served to this one."""
    component_facts.cache_clear()


def count_calls(monkeypatch, names) -> Counter:
    """Count the calls of the named functions, each given as (module, name),
    wherever a welldom module refers to them."""
    counts: Counter = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "welldom"]
    for module_name, attr in names:
        original = getattr(sys.modules[module_name], attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


@st.composite
def gnp_graphs(draw, max_n: int = 12) -> Graph:
    """G(n, p): each pair of vertices is an edge with probability p."""
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


@st.composite
def glued_graphs(draw, max_n: int = 9) -> Graph:
    """Small random graphs glued into one, each to a vertex already there:
    it shares its vertex 0 with that vertex, or hangs from it by an edge.
    The shared vertices are cut vertices and the edges bridges, so the
    result has several blocks."""
    n, edges = 1, []
    while n < max_n and draw(st.booleans()):
        part = draw(graphs(max_n=min(5, max_n - n + 1), min_n=2))
        at = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            names = [at] + list(range(n, n + part.n - 1))
        elif n + part.n <= max_n:
            names = list(range(n, n + part.n))
            edges.append((at, n))
        else:
            break
        edges += [(names[u], names[v]) for u, v in part.edges()]
        n = max(n, max(names) + 1)
    return Graph.from_edges(n, edges)


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


def brute_cycle_lengths(g: Graph) -> frozenset[int]:
    """The lengths of every simple cycle of g, found over every vertex set
    that a path spans.

    ``ends[S]`` holds the last vertices of the paths that start at the
    smallest vertex s of S and visit exactly S; S carries a cycle through all
    of its vertices iff one of them is a neighbour of s and |S| >= 3.  The
    sets are taken one size at a time, each from the sets one smaller, so
    every path on S is listed before S is read.
    """
    found = set()
    ends = {1 << s: 1 << s for s in range(g.n)}
    while ends:
        grown: dict[int, int] = {}
        for mask, last in ends.items():
            s = (mask & -mask).bit_length() - 1
            for v in iter_bits(last):
                if mask.bit_count() >= 3 and s in g.adj[v]:
                    found.add(mask.bit_count())
                for u in g.adj[v]:
                    if u > s and not mask >> u & 1:
                        grown[mask | 1 << u] = grown.get(mask | 1 << u, 0) | 1 << u
        ends = grown
    return frozenset(found)


def searched_components(g: Graph) -> int:
    """The components of g whose cycle profile takes a search: those that are
    neither trees nor ear cacti.  An ear cactus has as many distinct
    triangles through a degree-two vertex as its cycle rank m - n + 1, and
    no two of them share an edge."""
    searched = 0
    for comp in components(g):
        rank = sum(len(g.adj[v]) for v in comp) // 2 - len(comp) + 1
        triangles = {frozenset((v, *g.adj[v])) for v in comp
                     if len(g.adj[v]) == 2 and g.has_edge(*g.adj[v])}
        sides = [frozenset(side) for t in triangles for side in combinations(t, 2)]
        searched += rank > 0 and not (len(triangles) == rank and len(set(sides)) == len(sides))
    return searched


def reference_set_masks(g: Graph, independent: bool):
    """The oracle search as it was before it carried the ``twice`` mask: every
    dominating child re-derives irredundance over all its members, and the
    branch vertex is picked with ``min``.  ``_search`` must yield the
    same sequence."""
    full = g.full_mask
    nb = g.closed_bits

    def irredundant(chosen: int) -> bool:
        once = twice = 0
        for w in iter_bits(chosen):
            twice |= once & nb[w]
            once |= nb[w]
        return all(nb[w] & ~twice for w in iter_bits(chosen))

    stack = [(0, 0, 0)]
    while stack:
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


def reference_partition(g: Graph, simplicial: frozenset[int]):
    """The exact-cover search the linear partition rule replaced, as
    (centers, cells) or None.

    Branches on the lowest uncovered vertex; candidate cells are closed
    neighborhoods of simplicial vertices that avoid everything covered so
    far, tried in ascending order of their centers.  Exponential in the
    worst case, so only for small graphs.
    """
    simp = sorted(simplicial)
    cells = {x: g.closed_bits[x] for x in simp}
    full = g.full_mask

    def candidates(covered: int):
        undone = ~covered & full
        v_bit = undone & -undone
        return (x for x in simp if cells[x] & v_bit and not cells[x] & covered)

    chosen: list[int] = []
    covered = 0
    untried = [candidates(covered)]  # untried[d]: the remaining branches at depth d
    while covered != full:
        x = next(untried[-1], None)
        if x is None:
            untried.pop()
            if not chosen:
                return None
            covered &= ~cells[chosen.pop()]
        else:
            chosen.append(x)
            covered |= cells[x]
            untried.append(candidates(covered))
    return tuple(chosen), tuple(frozenset(iter_bits(cells[x])) for x in chosen)


def is_simplicial_partition(g: Graph, part: SimplicialPartition) -> bool:
    """Whether ``part`` splits the vertices of g into the closed
    neighbourhoods of its centers, each center simplicial in g."""
    simp = simplicial_vertices(g)
    if any(c not in simp for c in part.centers):
        return False
    seen: set[int] = set()
    for center, cell in zip(part.centers, part.cells):
        if cell != g.adj[center] | {center} or seen & cell:
            return False
        seen |= cell
    return len(part.centers) == len(part.cells) and seen == set(range(g.n))


def reference_forced_ear_rows(g: Graph, partners: dict[int, tuple[int, int]]):
    """``forced_ear_rows`` as it was computed on bitmasks, before the sets of
    ``g.adj``: B, F and each row are vertex masks.  The two must agree."""
    nb = g.closed_bits
    abits = g.adjacency_bits
    ears_at: dict[int, list[tuple[int, int]]] = {}  # u -> (bit of the other partner, ear)
    for e, (a, b) in partners.items():
        ears_at.setdefault(a, []).append((1 << b, e))
        ears_at.setdefault(b, []).append((1 << a, e))
    rows = set()
    for e, (a, b) in partners.items():
        ends = 1 << a | 1 << b
        for x in iter_bits(abits[a] & ~nb[b]):
            for y in iter_bits(abits[b] & ~nb[a]):
                avoid = (nb[x] | nb[y] | 1 << e) & ~ends
                forced = ends
                for z in iter_bits(avoid):
                    out = nb[z] & ~avoid
                    if not out:
                        break
                    if not out & (out - 1):
                        forced |= out
                else:
                    ears = {ear for u in iter_bits(forced) for bit, ear in ears_at.get(u, ()) if bit & forced}
                    rows.add(tuple(sorted(ears)))
    return tuple(sorted(rows))


def _graph_of(build):
    """The builder of ``shapes`` with its ``(n, edges)`` made a ``Graph``."""
    @wraps(build)
    def graph(*args, **kwargs) -> Graph:
        return Graph.from_edges(*build(*args, **kwargs))
    return graph


random_eared_tree = _graph_of(shapes.eared_tree)
eared_cycle = _graph_of(shapes.eared_cycle)
path_corona = _graph_of(shapes.path_corona)
caterpillar = _graph_of(shapes.caterpillar)
double_star = _graph_of(shapes.double_star)
windmill = _graph_of(shapes.windmill)
hub_with_ears = _graph_of(shapes.hub_with_ears)


def distances_from(g: Graph, sources: Iterable[int]) -> list[int | float]:
    """BFS distance from the vertex set ``sources`` to every vertex (inf if unreachable)."""
    dist: list[int | float] = [math.inf] * g.n
    frontier: list[int] = []
    for s in set(sources):
        if not 0 <= s < g.n:
            raise ValueError(f"source vertex {s} out of range")
        dist[s] = 0
        frontier.append(s)
    d = 0
    while frontier:
        d += 1
        nxt: list[int] = []
        for v in frontier:
            for u in g.adj[v]:
                if dist[u] == math.inf:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def _refined_colours(g: Graph) -> tuple[int, ...]:
    """The sorted colours of one-dimensional colour refinement: the same for
    isomorphic graphs, and for most others different."""
    colours = [len(g.adj[v]) for v in range(g.n)]
    for _ in range(g.n):
        colours = [hash((colours[v], tuple(sorted(colours[u] for u in g.adj[v])))) for v in range(g.n)]
    return tuple(sorted(colours))


@cache
def family_graphs(max_n: int) -> tuple[tuple[Graph, ...], ...]:
    """Every connected graph without 4-, 5- and 6-cycles on 1..max_n vertices,
    one per isomorphism class; entry n - 1 holds those on n vertices.

    Each graph on n vertices is one on n - 1 plus a vertex joined to a set S:
    removing a vertex that is no cut vertex leaves a connected family graph.
    The new vertex closes no 4-, 5- or 6-cycle iff every two vertices of S are
    adjacent with no common neighbour, or more than 4 apart.  Duplicates are
    dropped by refined colours, then by ``is_isomorphic_small``.
    """
    levels = [(Graph.from_edges(1, []),)]
    for n in range(2, max_n + 1):
        kept: dict[tuple, list[Graph]] = {}
        for g in levels[-1]:
            dist = [distances_from(g, [u]) for u in range(g.n)]

            def fits(u: int, v: int) -> bool:
                if dist[u][v] == 1:
                    return not g.adj[u] & g.adj[v]
                return dist[u][v] > 4

            def neighbour_sets(start: int, chosen: list[int]):
                for u in range(start, g.n):
                    if all(fits(u, v) for v in chosen):
                        chosen.append(u)
                        yield list(chosen)
                        yield from neighbour_sets(u + 1, chosen)
                        chosen.pop()

            for s in neighbour_sets(0, []):
                h = Graph.from_edges(n, g.edges() + [(u, n - 1) for u in s])
                bucket = kept.setdefault((h.edge_count, _refined_colours(h)), [])
                if not any(is_isomorphic_small(h, other, max_vertices=n) for other in bucket):
                    bucket.append(h)
        levels.append(tuple(h for bucket in kept.values() for h in bucket))
    return tuple(levels)
