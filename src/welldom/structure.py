"""Structural predicates behind the short-cycle-free characterizations.

The vocabulary used across the package:

* fringe vertices: degree-one vertices plus degree-two vertices lying on a
  triangle.  These are exactly the vertices whose closed neighborhood is
  contained in a neighbor's closed neighborhood.
* confined neighbors of v: the neighbors u with N(u) inside N[v]; they never
  see past v's closed neighborhood.
* anchored fringe: the fringe vertices that keep a free weight in the
  well-dominated weight space.  A pendant vertex is always anchored; an ear
  vertex v on a triangle (v, a, b) is anchored iff every maximal independent
  set of the zone beyond v's distance-2 ball dominates at least one of the
  two boundary tracks N(a) and N(b) restricted to v's second sphere.  Those
  sets are never listed: one pair of track vertices at a time, the question
  is decided inside v's distance-4 ball (see anchored_fringe_vertices), so
  an ear costs work bounded by that ball, not by the far zone's sets.

ComponentFacts holds these tables, the cycle profile and the special form of
one connected component, computed once for every engine to read, together
with the component's piece vectors, which both weight-space engines start
from: one vector per connected piece of G[fringe], 1 on the piece and on each
non-fringe vertex whose confined set meets it.  Without 4-cycles a confined
set lies in the fringe, and a piece it meets is one vertex or the two ears of
a pendant triangle, of which every maximal independent subset of the confined
set takes exactly one.  So every such subset gives a non-fringe vertex the
same weight, and there is no choice of subset to make or to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .graphs import (
    Graph,
    components,
    cycle_lengths,
    induced_subgraph,
    is_complete,
    is_isomorphic_small,
    iter_bits,
)
from .named_graphs import cycle_graph, triangle_tripod_graph
from .oracle import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    EnumerationBudget,
    iter_set_masks,
)


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood is a clique (isolated vertices included)."""
    abits = g.adjacency_bits
    nb = g.closed_bits
    out = []
    for v in range(g.n):
        if all(not (abits[v] & ~nb[u]) for u in g.adj[v]):
            out.append(v)
    return frozenset(out)


@dataclass(frozen=True)
class SimplicialPartition:
    """A partition of the vertex set into closed neighborhoods of simplicial vertices."""

    centers: tuple[int, ...]
    cells: tuple[frozenset[int], ...]

    def is_valid_for(self, g: Graph) -> bool:
        simp = simplicial_vertices(g)
        if any(c not in simp for c in self.centers):
            return False
        seen: set[int] = set()
        for center, cell in zip(self.centers, self.cells):
            if cell != g.adj[center] | {center}:
                return False
            if seen & cell:
                return False
            seen |= cell
        return len(self.centers) == len(self.cells) and seen == set(range(g.n))


def simplicial_partition(g: Graph) -> SimplicialPartition | None:
    """Exact-cover search for a simplicial partition, or None.

    Branches on the lowest uncovered vertex; candidate cells are closed
    neighborhoods of simplicial vertices that avoid everything covered so far,
    tried in ascending order of their centers.  The search keeps its own
    stack, so its depth (one level per cell) is not bounded by Python's.
    """
    return _partition_search(g, simplicial_vertices(g))


def _partition_search(g: Graph, simplicial: frozenset[int]) -> SimplicialPartition | None:
    """``simplicial_partition`` given the simplicial vertices of g."""
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
    return SimplicialPartition(
        tuple(chosen),
        tuple(frozenset(iter_bits(cells[x])) for x in chosen),
    )


def ear_partners(g: Graph) -> dict[int, tuple[int, int]]:
    """For each degree-two triangle vertex, its two (sorted) triangle partners."""
    out: dict[int, tuple[int, int]] = {}
    for v in range(g.n):
        if len(g.adj[v]) == 2:
            a, b = sorted(g.adj[v])
            if g.has_edge(a, b):
                out[v] = (a, b)
    return out


def fringe_vertices(g: Graph) -> frozenset[int]:
    """Degree-one vertices plus degree-two vertices on a triangle."""
    return _fringe(g, ear_partners(g))


def _fringe(g: Graph, partners: dict[int, tuple[int, int]]) -> frozenset[int]:
    return frozenset(partners).union(v for v in range(g.n) if len(g.adj[v]) == 1)


def confined_neighbors(g: Graph, v: int) -> frozenset[int]:
    """Neighbors u of v with N(u) contained in N[v]."""
    abits = g.adjacency_bits
    nb_v = g.closed_bits[v]
    return frozenset(u for u in g.adj[v] if not abits[u] & ~nb_v)


def anchored_fringe_vertices(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> frozenset[int]:
    """The fringe vertices whose weight stays free under well-domination.

    Pendants qualify outright.  An ear v on (a, b) is unanchored iff some
    maximal independent set of the far zone (v's component minus its 2-ball
    B = N[a] | N[b]) misses the far neighbours of a track vertex t of a and
    of a track vertex t' of b, the tracks being N(a) - N[v] and N(b) - N[v].
    Each pair is decided in its distance-4 neighbourhood: with X the far
    neighbours of t and t' and C = N(X) - B - X, such a set exists iff
    G[X | C] has a maximal independent set that avoids X, that is iff some
    independent subset of C dominates X.
      * A far-zone set that misses X dominates X, so its part in C is one.
      * One in C grows greedily into a far-zone set that never takes a
        vertex of X, each being dominated already.
    The pairs are tried in order and the first that passes decides v.

    Every search node of an ear's pair checks is charged to
    ``budget.max_sets``; past it a BudgetExceededError names the ear and
    carries the vertices decided so far.
    """
    partners = ear_partners(g)
    nb = g.closed_bits
    abits = g.adjacency_bits
    decided: dict[int, bool] = {}
    nodes = 0

    def charge() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_sets:
            raise BudgetExceededError(
                f"more than {budget.max_sets} search nodes while "
                f"classifying fringe vertex {v if g.names is None else g.names[v]}",
                partial=dict(decided),
            )

    for v in sorted(_fringe(g, partners)):
        if v not in partners:
            decided[v] = True  # pendant
            continue
        a, b = partners[v]
        ball = nb[a] | nb[b]
        # the tracks N(a) - N[v] and N(b) - N[v], each vertex as the mask of
        # its far neighbours; an empty track leaves no pair, and v anchored
        track_a, track_b = ([abits[t] & ~ball for t in iter_bits(abits[x] & ~nb[v])] for x in (a, b))
        nodes = 0
        decided[v] = not any(
            _far_set_avoids(g, xa | xb, ball, charge) for xa in track_a for xb in track_b
        )
    return frozenset(v for v, ok in decided.items() if ok)


def _far_set_avoids(g: Graph, far: int, ball: int, on_node: Callable[[], None]) -> bool:
    """Whether a maximal independent set of the far zone (outside ``ball``)
    avoids ``far``, decided as whether one of G[far | C] does, C being the
    neighbours of ``far`` outside ``ball``."""
    reach = 0
    for x in iter_bits(far):
        reach |= g.adjacency_bits[x]
    return next(iter_set_masks(g, True, far | reach & ~ball, far, on_node), None) is not None


def independence_number(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Maximum independent set size by branch and bound."""
    if g.n > budget.max_independent_vertices:
        raise BudgetExceededError(
            f"{g.n} vertices exceed the independence-number budget "
            f"of {budget.max_independent_vertices}"
        )
    abits = g.adjacency_bits
    nb = g.closed_bits
    best = 0

    def grow(p: int, size: int) -> None:
        nonlocal best
        if size + p.bit_count() <= best:
            return
        if not p:
            best = max(best, size)
            return
        v = max(iter_bits(p), key=lambda u: (abits[u] & p).bit_count())
        grow(p & ~nb[v], size + 1)
        grow(p & ~(1 << v), size)

    grow(g.full_mask, 0)
    return best


class SpecialForm(Enum):
    CYCLE7 = "cycle7"
    TRIANGLE_TRIPOD = "triangle_tripod"
    COMPLETE_SMALL = "complete_small"
    GENERAL = "general"


_CYCLE7 = cycle_graph(7)
_TRIPOD = triangle_tripod_graph()


def special_form_of(g: Graph) -> SpecialForm:
    if g.n == 7 and is_isomorphic_small(g, _CYCLE7):
        return SpecialForm.CYCLE7
    if g.n == 10 and is_isomorphic_small(g, _TRIPOD):
        return SpecialForm.TRIANGLE_TRIPOD
    if 1 <= g.n <= 3 and is_complete(g):
        return SpecialForm.COMPLETE_SMALL
    return SpecialForm.GENERAL


CYCLE_LENGTHS = (3, 4, 5, 6, 7)


@dataclass(frozen=True)
class ComponentFacts:
    """What the engines read about one connected component, computed once.

    ``labels[v]`` is the whole-graph label of the component's vertex v.  The
    simplicial vertices, the partition and the anchored fringe (which
    enumerates, and which the independent-set engines never read) are
    computed on first use, as are the piece vectors, which the two
    weight-space engines share.
    """

    graph: Graph
    labels: tuple[int, ...]
    cycles: frozenset[int]  # the lengths of CYCLE_LENGTHS that occur
    special_form: SpecialForm
    fringe: frozenset[int]
    ear_partners: dict[int, tuple[int, int]]
    confined: dict[int, frozenset[int]]  # keyed by the vertices outside the fringe
    budget: EnumerationBudget

    @cached_property
    def simplicial(self) -> frozenset[int]:
        return simplicial_vertices(self.graph)

    @cached_property
    def fringe_pieces(self) -> tuple[tuple[int, ...], ...]:
        return induced_pieces(self.graph, self.fringe)

    @cached_property
    def partition(self) -> SimplicialPartition | None:
        return _partition_search(self.graph, self.simplicial)

    @cached_property
    def anchored(self) -> frozenset[int]:
        try:
            return anchored_fringe_vertices(self.graph, self.budget)
        except BudgetExceededError as err:
            err.partial = {self.labels[v]: ok for v, ok in err.partial.items()}
            raise

    @cached_property
    def piece_vectors(self) -> tuple[dict[int, int], ...]:
        """One well-covered weight per fringe piece C, as {vertex: 1}: 1 on C
        and on every non-fringe vertex whose confined set meets C.

        They span the equal-weight space (see the module docstring) and are
        independent, each being the only one nonzero on its piece.
        """
        vectors = [dict.fromkeys(piece, 1) for piece in self.fringe_pieces]
        vector_of = {u: vec for piece, vec in zip(self.fringe_pieces, vectors) for u in piece}
        for v, near in self.confined.items():
            for u in near:
                vector_of[u][v] = 1
        return tuple(vectors)


def induced_pieces(g: Graph, vertices: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """The connected components of G[vertices], each as a sorted tuple of g's vertices."""
    sub, _ = induced_subgraph(g, vertices)
    kept = sorted(vertices)  # vertex i of sub is kept[i]
    return tuple(tuple(sorted(kept[i] for i in comp)) for comp in components(sub))


def component_facts(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[ComponentFacts, ...]:
    """The facts of every connected component of ``g``, by smallest vertex."""
    comps = components(g)
    if len(comps) == 1:
        # the labels are the identity, so ``g`` itself names every vertex as
        # its component would
        subs = [g]
    else:
        # each component keeps its whole-graph labels as vertex names, for messages
        named = g if g.names is not None else Graph(g.n, g.adj, tuple(map(str, range(g.n))))
        subs = [induced_subgraph(named, comp)[0] for comp in comps]
    out = []
    for comp, sub in zip(comps, subs):
        partners = ear_partners(sub)
        fringe = _fringe(sub, partners)
        out.append(
            ComponentFacts(
                graph=sub,
                labels=tuple(sorted(comp)),
                cycles=cycle_lengths(sub, CYCLE_LENGTHS),
                special_form=special_form_of(sub),
                fringe=fringe,
                ear_partners=partners,
                confined={v: confined_neighbors(sub, v) for v in range(sub.n) if v not in fringe},
                budget=budget,
            )
        )
    return tuple(out)


def outside_family(
    facts: Sequence[ComponentFacts], lengths: tuple[int, ...], *, connected: bool = False
) -> str | None:
    """Why a graph with these components is not in the family (non-empty, no
    cycle of the given lengths, connected if asked), or None if it is."""
    if not facts:
        return "empty graph"
    if connected and len(facts) > 1:
        return "not connected"
    present = [k for k in lengths if any(k in f.cycles for f in facts)]
    if present:
        return "contains " + ", ".join(f"a {k}-cycle" for k in present)
    return None


class NotApplicableError(ValueError):
    """The input graph lies outside the family an engine covers."""


def family_facts(
    g: Graph, lengths: tuple[int, ...], budget: EnumerationBudget = DEFAULT_BUDGET, *, connected: bool = False
) -> tuple[ComponentFacts, ...]:
    """The component facts of ``g``, or NotApplicableError when it is outside the family."""
    facts = component_facts(g, budget)
    reason = outside_family(facts, lengths, connected=connected)
    if reason is not None:
        raise NotApplicableError(f"not applicable: {reason}")
    return facts


@dataclass(frozen=True)
class StructureSummary:
    fringe: frozenset[int]
    anchored_fringe: frozenset[int]
    confined: dict[int, frozenset[int]]  # keyed by the vertices outside the fringe
    ear_partners: dict[int, tuple[int, int]]
    simplicial: frozenset[int]

    @property
    def zero_forced_fringe(self) -> frozenset[int]:
        return self.fringe - self.anchored_fringe


def summarize(facts: Sequence[ComponentFacts]) -> StructureSummary:
    """The whole-graph tables, put together from the facts of its components."""

    def lift(f: ComponentFacts, vertices: Iterable[int]) -> frozenset[int]:
        return frozenset(f.labels[v] for v in vertices)

    return StructureSummary(
        fringe=frozenset().union(*(lift(f, f.fringe) for f in facts)),
        anchored_fringe=frozenset().union(*(lift(f, f.anchored) for f in facts)),
        confined={f.labels[v]: lift(f, near) for f in facts for v, near in f.confined.items()},
        ear_partners={f.labels[v]: (f.labels[a], f.labels[b])
                      for f in facts for v, (a, b) in f.ear_partners.items()},
        simplicial=frozenset().union(*(lift(f, f.simplicial) for f in facts)),
    )


def structure_summary(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> StructureSummary:
    return summarize(component_facts(g, budget))


__all__ = [
    "CYCLE_LENGTHS",
    "ComponentFacts",
    "NotApplicableError",
    "SimplicialPartition",
    "SpecialForm",
    "StructureSummary",
    "anchored_fringe_vertices",
    "component_facts",
    "confined_neighbors",
    "ear_partners",
    "family_facts",
    "fringe_vertices",
    "independence_number",
    "induced_pieces",
    "outside_family",
    "simplicial_partition",
    "simplicial_vertices",
    "special_form_of",
    "structure_summary",
    "summarize",
]
