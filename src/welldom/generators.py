"""Seeded random graphs avoiding prescribed cycle lengths.

Three interleaved sources: random trees (cycle-free by construction), trees
with pendant triangles attached at leaves (exercise the fringe machinery
without creating cycles longer than 3), and sparse rejection-sampled graphs.
Streams are fully determined by the config seed.  Every emitted graph passes
one forbidden-cycle test: a sparse graph the sampler's own, a tree the guard
that catches a generator bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import Graph, _iter_cycle_lengths, cycle_lengths
from .oracle import BudgetExceededError

SAMPLING_ATTEMPTS = 300


@dataclass(frozen=True)
class GeneratorConfig:
    max_n: int = 10
    forbidden_cycles: frozenset[int] = frozenset()
    seed: int = 0
    count: int = 100

    def __post_init__(self) -> None:
        # converted before the check, which would use up an iterator
        object.__setattr__(self, "forbidden_cycles", frozenset(self.forbidden_cycles))
        if self.max_n < 1:
            raise ValueError("max_n must be at least 1")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if any(k < 3 for k in self.forbidden_cycles):
            raise ValueError("cycle lengths start at 3")


def _tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph.from_edges(n, _tree_edges(rng, n))


def random_triangle_tree(rng: random.Random, max_n: int) -> Graph:
    """Random tree with triangles pasted onto some leaves.

    Each pasted triangle turns a leaf into a degree-3 vertex with two new
    degree-2 triangle neighbors; no cycle longer than 3 appears because every
    triangle is its own block.
    """
    base = rng.randint(1, max(1, max_n - 2))
    edges = _tree_edges(rng, base)
    degree = [0] * base
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    n = base
    leaves = [v for v in range(base) if degree[v] <= 1]
    rng.shuffle(leaves)
    for leaf in leaves:
        if n + 2 > max_n or rng.random() < 0.5:
            continue
        a, b = n, n + 1
        edges.extend([(leaf, a), (leaf, b), (a, b)])
        n += 2
    return Graph.from_edges(n, edges)


def sample_cycle_free(
    rng: random.Random,
    n: int,
    edge_probability: float,
    forbidden_cycles: frozenset[int],
) -> Graph:
    """Rejection-sample a graph on n vertices avoiding the forbidden lengths.

    Each candidate draws one number per vertex pair, in the order of
    ``combinations``, and is tested on its own bitmasks and neighbour
    lists; only the accepted one becomes a ``Graph``.  When 4 is forbidden, a candidate with
    a 4-cycle, which is most rejected ones, is rejected by the cheap
    ``_has_four_cycle`` before the cycle search.  Raises a resource error
    when no acceptable sample shows up within ``SAMPLING_ATTEMPTS`` tries;
    the caller should lower the density or the order.
    """
    draw = rng.random
    four = 4 in forbidden_cycles
    for _ in range(SAMPLING_ATTEMPTS):
        edges = [pair for pair in combinations(range(n), 2) if draw() < edge_probability]
        abits = [0] * n
        for i, j in edges:
            abits[i] |= 1 << j
            abits[j] |= 1 << i
        if four and _has_four_cycle(abits):
            continue
        nbrs = [[] for _ in range(n)]
        for i, j in edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        if next(_iter_cycle_lengths(nbrs, set(forbidden_cycles)), None) is None:
            return Graph.from_edges(n, edges)
    raise BudgetExceededError(
        f"no sample free of cycle lengths {sorted(forbidden_cycles)} within "
        f"{SAMPLING_ATTEMPTS} attempts at n={n}, p={edge_probability:.3f}; lower the "
        "edge probability or max_n"
    )


def _has_four_cycle(abits: list[int]) -> bool:
    """Whether two neighbours of some vertex v share a neighbour other than
    v, which is exactly a 4-cycle through v; O(n + m) mask operations."""
    for v, rest in enumerate(abits):
        others = ~(1 << v)
        seen = 0
        while rest:
            low = rest & -rest
            rest ^= low
            second = abits[low.bit_length() - 1] & others
            if seen & second:
                return True
            seen |= second
    return False


def _sparse_probability(n: int) -> float:
    if n < 2:
        return 0.0
    return min(1.0, 1.3 * n / (n * (n - 1) / 2))


def generate_family(cfg: GeneratorConfig) -> Iterator[Graph]:
    """Deterministic stream of cfg.count graphs avoiding cfg.forbidden_cycles."""
    rng = random.Random(cfg.seed)
    kinds = ["tree", "sparse"]
    if 3 not in cfg.forbidden_cycles:
        kinds.insert(1, "triangle_tree")
    for index in range(cfg.count):
        kind = kinds[index % len(kinds)]
        if kind == "sparse":  # the sampler's acceptance test is the cycle test
            n = rng.randint(1, cfg.max_n)
            yield sample_cycle_free(rng, n, _sparse_probability(n), cfg.forbidden_cycles)
            continue
        if kind == "tree":
            g = random_tree(rng, rng.randint(1, cfg.max_n))
        else:
            g = random_triangle_tree(rng, cfg.max_n)
        bad = cycle_lengths(g, cfg.forbidden_cycles)
        if bad:
            raise RuntimeError(f"generator bug: emitted graph with cycle lengths {sorted(bad)}")
        yield g


__all__ = [
    "GeneratorConfig",
    "SAMPLING_ATTEMPTS",
    "generate_family",
    "random_tree",
    "random_triangle_tree",
    "sample_cycle_free",
]
