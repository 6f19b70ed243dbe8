"""Structural predicates behind the short-cycle-free characterizations.

The vocabulary used across the package:

* fringe vertices: degree-one vertices plus degree-two vertices lying on a
  triangle.  These are exactly the vertices whose closed neighborhood is
  contained in a neighbor's closed neighborhood.
* confined neighbors of v: the neighbors u with N(u) inside N[v]; they never
  see past v's closed neighborhood.
* forced ear rows: for each ear and witness pair, the ears that certain
  minimal dominating sets must double (see forced_ear_rows; without 4-, 5-
  and 6-cycles they are built one side at a time, family_forced_ear_rows).
  The work for one ear stays inside its distance-4 ball: there is no search.
* anchored fringe: the fringe vertices on which some well-dominated weight
  is nonzero, that is whose piece the forced rows do not force to zero.

ComponentFacts holds these tables, the cycle profile and the special form of
one connected component, computed once for every engine to read, together
with the component's piece vectors, which both weight-space engines start
from: one vector per connected piece of G[fringe], 1 on the piece and on each
non-fringe vertex whose confined set meets it.  Without 4-cycles a confined
set lies in the fringe, and a piece it meets is one vertex or the two ears of
a pendant triangle, of which every maximal independent subset of the confined
set takes exactly one.  So every such subset gives a non-fringe vertex the
same weight, and there is no choice of subset to make or to check.

Without 4-, 5- and 6-cycles a piece vector is 1 on a clique (a pendant and
its neighbour, or a triangle), which every minimal dominating set meets
once, except that a set holding both partners of a lone ear doubles it.  So
the well-dominated weights are the combinations of piece vectors whose
coefficients every forced row sums to 0.  That the rows catch every doubled
set of ears is verified, not proven: the rule matches the enumeration oracle
on every connected family graph with at most 13 vertices.

The component's answers are properties of the record as well: ``recognition``
(the clause that makes it well-covered, or None), and ``wcw`` and ``wwd``,
its two weight-space bases with their notes.  Every whole-graph path reads
them off the record, so each is computed at most once per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .graphs import (
    Graph,
    components,
    cycle_lengths,
    induced_subgraph,
    is_complete,
    is_isomorphic_small,
)
from .linalg import SubspaceBasis, constants_space, nullspace
from .named_graphs import cycle_graph, triangle_tripod_graph
from .oracle import DEFAULT_BUDGET, EnumerationBudget, enumerate_maximal_independent_sets


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose neighborhood is a clique (isolated vertices included):
    each neighbour u sees the other len(N(v)) - 1 neighbours."""
    return _simplicial(g, fringe_vertices(g))


def _simplicial(g: Graph, fringe: frozenset[int]) -> frozenset[int]:
    """``simplicial_vertices`` given the fringe of g.

    A vertex of degree at most 1 is simplicial, and one of degree 2 is iff
    its neighbours are adjacent, that is iff it is an ear: so the fringe and
    the isolated vertices are the simplicial vertices of degree below 3.
    One of degree d >= 3 is tested only when every neighbour has degree at
    least d, which a neighbour that sees the other d - 1 must have.
    """
    adj = g.adj
    found = []
    for v, nbrs in enumerate(adj):
        d = len(nbrs)
        if d > 2:
            for u in nbrs:  # a plain loop: most vertices fail here, and all(<genexpr>) costs more
                if len(adj[u]) < d:
                    break
            else:
                if all(len(nbrs & adj[u]) == d - 1 for u in nbrs):
                    found.append(v)
        elif not d:
            found.append(v)
    return fringe.union(found)


@dataclass(frozen=True)
class SimplicialPartition:
    """A partition of the vertex set into closed neighborhoods of simplicial vertices."""

    centers: tuple[int, ...]
    cells: tuple[frozenset[int], ...]


def simplicial_partition(g: Graph) -> SimplicialPartition | None:
    """The partition of V into closed neighborhoods of simplicial vertices, or None.

    No search is needed.  A simplicial x lies in some cell N[c], so x = c or
    x ~ c, and two adjacent simplicial vertices have the same closed
    neighborhood: N[x] is itself a cell.  So a partition exists iff the
    distinct N[x], x simplicial, are pairwise disjoint and cover V, and then
    it is unique.  Each cell's center is its smallest simplicial vertex, and
    the cells come in order of their smallest vertex.
    """
    return _partition(g, simplicial_vertices(g))


def _partition(g: Graph, simplicial: frozenset[int]) -> SimplicialPartition | None:
    """``simplicial_partition`` given the simplicial vertices of g."""
    covered: set[int] = set()
    cells: dict[int, frozenset[int]] = {}  # center -> N[center]
    for x in sorted(simplicial):
        if x in covered:  # x is in the cell of a smaller simplicial neighbour: N[x] is that cell
            continue
        cell = g.adj[x] | {x}
        if not covered.isdisjoint(cell):
            return None
        covered |= cell
        cells[x] = cell
    if len(covered) != g.n:
        return None
    centers = sorted(cells, key=lambda c: min(cells[c]))
    return SimplicialPartition(tuple(centers), tuple([cells[c] for c in centers]))


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
    return _confined(g, v, frozenset())


def _confined(g: Graph, v: int, fringe: frozenset[int]) -> frozenset[int]:
    """``confined_neighbors`` of v, given fringe vertices of the graph (all
    of them, or any part: an empty set leaves every neighbour to the test).

    A fringe neighbour u is confined: a pendant has N(u) = {v}, and an ear on
    (v, b) has N(u) = {v, b} with b in N(v).  Any other neighbour u needs
    N(u) inside N[v] - {u}, so at most deg(v) neighbours, before N[v] is
    built and compared.
    """
    adj = g.adj
    nbrs = adj[v]
    confined = []
    closed = None
    for u in nbrs:
        if u in fringe:
            confined.append(u)
        elif len(adj[u]) <= len(nbrs):
            if closed is None:
                closed = nbrs | {v}
            if adj[u] <= closed:
                confined.append(u)
    return frozenset(confined)


def forced_ear_rows(g: Graph, partners: dict[int, tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The distinct forced ear rows of g, each a sorted tuple of ears.

    For an ear e on (a, b), x in N(a) - N[b] and y in N(b) - N[a], let
    B = (N[x] | N[y] | {e}) - {a, b}.  The pair (x, y) is a witness iff every
    vertex of B has a closed neighbour outside B; its forced set F is {a, b}
    plus each vertex that is the only closed neighbour outside B of some
    vertex of B, and its row is e and every other ear whose partners both
    lie in F.  This loop over witness pairs holds on any graph; without 4-,
    5- and 6-cycles ``family_forced_ear_rows`` gives the same rows one side
    at a time.
    """
    adj = g.adj
    ears_at: dict[int, list[tuple[int, int]]] = {}  # u -> (the other partner, ear)
    for e, (a, b) in partners.items():
        ears_at.setdefault(a, []).append((b, e))
        ears_at.setdefault(b, []).append((a, e))
    rows = set()
    for e, (a, b) in partners.items():
        ends = {a, b}
        for x in adj[a] - adj[b] - ends:
            for y in adj[b] - adj[a] - ends:
                avoid = (adj[x] | adj[y] | {x, y, e}) - ends
                forced = set(ends)
                for z in avoid:
                    out = adj[z] - avoid  # z's closed neighbours outside B, z being in B
                    if not out:
                        break
                    if len(out) == 1:
                        forced |= out
                else:  # e itself is among the ears, both its partners being forced
                    ears = {ear for u in forced for other, ear in ears_at.get(u, ()) if other in forced}
                    rows.add(tuple(sorted(ears)))
    return tuple(sorted(rows))


def family_forced_ear_rows(g: Graph, partners: dict[int, tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """``forced_ear_rows`` of a graph without 4-, 5- and 6-cycles, one side at a time.

    There, an ear e on (a, b) is the only common neighbour of a and b, and
    B_x = N[x] - {a} and B_y = N[y] - {b} neither meet nor touch: a shared
    or adjacent vertex would close a 4-, 5- or 6-cycle through a and b.  As
    e touches only a and b, a vertex of B_x has the same closed neighbours
    outside B as outside B_x.  So (x, y) is a witness iff each side passes
    on its own: every vertex of B_x has a neighbour outside B_x.  The side's
    forced set F_x (a, and each such neighbour that is a vertex's only one)
    depends on the directed edge (x, a) alone, and the row is e and every
    ear whose partners both lie in {a, b} | F_x | F_y, over the distinct F_x
    and the distinct F_y.  On other graphs the rows can differ: use
    ``forced_ear_rows`` there.

    Each side is computed once per directed edge.  Each vertex x keeps once
    which neighbours have no neighbour outside N[x] and which have exactly
    one, and the side of (x, a) only sets a and the common neighbour of x
    and a apart; a neighbour of degree four or more has at least two outside
    N[x], and its neighbours are never read.  A partner a with several ears
    keeps a tally of the distinct F_x over all its neighbours, from which an
    ear takes off its two excluded ones, b and e.  So a hub costs its degree
    once, not once per ear or per witness pair.
    """
    adj = g.adj
    ear_on = {pair: e for e, pair in partners.items()}
    outside: dict[int, tuple[list[int], dict[int, int]]] = {}  # x -> (none outside N[x], z -> the one)
    sides: dict[tuple[int, int], frozenset[int] | None] = {}  # (x, a) -> F_x, None if the side fails
    tallies: dict[int, dict[frozenset[int], int]] = {}  # a -> F_x -> how many neighbours x give it
    lone: dict[int, bool] = {}  # partner -> whether it has one ear
    for a, b in partners.values():
        lone[a] = a not in lone
        lone[b] = b not in lone

    def side(x: int, a: int) -> frozenset[int] | None:
        if (x, a) in sides:
            return sides[x, a]
        tables = outside.get(x)
        if tables is None:
            closed = adj[x] | {x}
            none, one = [], {}
            for z in adj[x]:
                if len(adj[z]) < 4:
                    out = adj[z] - closed
                    if not out:
                        none.append(z)
                    elif len(out) == 1:
                        one[z] = next(iter(out))
            tables = outside[x] = none, one
        none, one = tables
        # a is outside B_x, and the common neighbour of x and a sees a there:
        # only these two are set apart, so any other with none outside fails the side
        near = adj[a]
        if len(none) > 2 or any(z != a and z not in near for z in none):
            forced = None
        else:
            forced = frozenset([a, *(w for z, w in one.items() if z != a and z not in near)])
        sides[x, a] = forced
        return forced

    def distinct(a: int, b: int, e: int) -> Iterable[frozenset[int]]:
        """The distinct F_x over the neighbours x of a other than b and e."""
        if lone[a]:  # no other ear excludes b and e, so they need no side
            found = {side(x, a) for x in adj[a] if x != b and x != e}
            found.discard(None)
            return found
        if a not in tallies:
            tally: dict[frozenset[int], int] = {}
            for x in adj[a]:
                forced = side(x, a)
                if forced is not None:
                    tally[forced] = tally.get(forced, 0) + 1
            tallies[a] = tally
        excluded: dict[frozenset[int] | None, int] = {}
        for x in (b, e):
            forced = side(x, a)
            excluded[forced] = excluded.get(forced, 0) + 1
        return [forced for forced, count in tallies[a].items() if count > excluded.get(forced, 0)]

    rows = set()
    for e, (a, b) in partners.items():
        if len(adj[a]) > len(adj[b]):
            a, b = b, a
        if len(adj[a]) == 2:  # b and e are a's only neighbours: no x
            continue
        xs = distinct(a, b, e)
        ys = distinct(b, a, e) if xs else ()
        for fx in xs:
            for fy in ys:
                inside = fx | fy | {a, b}
                rows.add(tuple(sorted(ear_on[p, q] for p in inside for q in adj[p] & inside
                                      if p < q and (p, q) in ear_on)))
    return tuple(sorted(rows))


def anchored_fringe_vertices(g: Graph) -> frozenset[int]:
    """The fringe vertices on which some well-dominated weight is nonzero:
    every pendant, and each ear whose piece the forced ear rows do not force
    to zero (see ComponentFacts.coefficients)."""
    return frozenset(f.labels[v] for f in component_facts(g) for v in f.anchored)


def independence_number(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """The size of a largest maximal independent set, read off the oracle's
    enumeration (BudgetExceededError above its vertex gate)."""
    return max(enumerate_maximal_independent_sets(g, budget).sizes())


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
class CharacterizationOutcome:
    special_forms: tuple[SpecialForm, ...]  # one per component
    basis: SubspaceBasis
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ComponentFacts:
    """What the engines read about one connected component, computed once.

    ``labels[v]`` is the whole-graph label of the component's vertex v.  The
    cycle profile (which the property sweep never reads), the confined sets
    (which recognition never reads), the simplicial vertices, the partition,
    the forced ear rows and what they force (which the independent-set
    engines never read) are computed on first use, as are the piece
    vectors, which the two weight-space bases share, and the answers:
    ``recognition``, ``wcw`` and ``wwd``.
    """

    graph: Graph
    labels: tuple[int, ...]
    special_form: SpecialForm
    fringe: frozenset[int]
    ear_partners: dict[int, tuple[int, int]]

    @cached_property
    def confined(self) -> dict[int, frozenset[int]]:
        """The confined neighbors of each vertex outside the fringe."""
        g, fringe = self.graph, self.fringe
        return {v: _confined(g, v, fringe) for v in range(g.n) if v not in fringe}

    @cached_property
    def cycles(self) -> frozenset[int]:
        """The lengths of CYCLE_LENGTHS that occur, searched by ``cycle_lengths``
        unless the component is a tree or an ear cactus.

        Its cycle rank is r = m - n + 1, and a tree has r = 0.  An ear e on
        (a, b) lies on the triangle {e, a, b}.  If there are exactly r
        distinct ear triangles and no two share an edge, the profile is {3}:
        r edge-disjoint cycles span the cycle space, and a simple cycle that
        is the sum of two or more edge-disjoint triangles would need a
        vertex of degree 4, or would fall apart into pieces.  Two distinct
        ear triangles can share only the edge between their ears' partners
        (an ear has no third neighbour), so they are edge-disjoint iff no
        two ears have the same partners.
        """
        g, partners = self.graph, self.ear_partners
        rank = g.edge_count - g.n + 1
        if not rank:
            return frozenset()
        triangles = {frozenset((e, a, b)) for e, (a, b) in partners.items()}
        if len(triangles) == rank and len(set(partners.values())) == len(partners):
            return frozenset({3})
        return cycle_lengths(g, CYCLE_LENGTHS)

    @cached_property
    def simplicial(self) -> frozenset[int]:
        return _simplicial(self.graph, self.fringe)

    @cached_property
    def fringe_pieces(self) -> tuple[tuple[int, ...], ...]:
        return induced_pieces(self.graph, self.fringe)

    @cached_property
    def partition(self) -> SimplicialPartition | None:
        return _partition(self.graph, self.simplicial)

    @cached_property
    def forced(self) -> tuple[frozenset[int], tuple[tuple[int, ...], ...]]:
        """The forced ear rows in the indices of ``fringe_pieces``: the pieces
        some row forces to zero on its own, once the pieces so forced are
        dropped from every row, and the coupled rows, which then hold two or more.

        The rows are built one side at a time unless the component has a 4-,
        5- or 6-cycle, where the sides can depend on each other: ``analyze``
        reads the anchored fringe of every graph, so those keep the loop over
        witness pairs.  An ear with a partner of degree 2 has no witness pair
        (the partner has no neighbour for its side) under either rule, so
        where every ear has one, the cycle profile is not read."""
        g, partners = self.graph, self.ear_partners
        paired = any(len(g.adj[a]) > 2 and len(g.adj[b]) > 2 for a, b in partners.values())
        ear_rows = forced_ear_rows if paired and self.cycles & {4, 5, 6} else family_forced_ear_rows
        piece_of = {v: i for i, piece in enumerate(self.fringe_pieces) for v in piece}
        rows = {frozenset(piece_of[e] for e in row) for row in ear_rows(g, partners)}
        zero: set[int] = set()
        while single := {p for row in rows if len(row) == 1 for p in row}:
            zero |= single
            rows = {row - zero for row in rows} - {frozenset()}
        return frozenset(zero), tuple(sorted([tuple(sorted(row)) for row in rows]))

    @cached_property
    def coefficients(self) -> dict[int, dict[int, int]]:
        """A basis of the piece coefficients that every forced row sums to 0, as integer
        rows keyed by pieces where they alone are nonzero; only coupled rows need a null space."""
        zero, coupled = self.forced
        if not coupled:  # each piece outside the zero-forced ones is free on its own
            return {p: {p: 1} for p in range(len(self.fringe_pieces)) if p not in zero}
        rows = [dict.fromkeys(row, 1) for row in coupled] + [{p: 1} for p in zero]
        return nullspace(rows, len(self.fringe_pieces)).integer_rows

    @cached_property
    def anchored(self) -> frozenset[int]:
        """The fringe vertices on which some well-dominated weight is nonzero."""
        return frozenset(v for row in self.coefficients.values() for p in row for v in self.fringe_pieces[p])

    @cached_property
    def piece_vectors(self) -> tuple[dict[int, int], ...]:
        """One well-covered weight per fringe piece C, as {vertex: 1}: 1 on C
        and on every non-fringe vertex whose confined set meets C.

        They span the equal-weight space (see the module docstring) and are
        independent, each being the only one nonzero on its piece.  A
        confined neighbor outside the fringe has degree 3 or more, so it
        closes a 4-cycle with its vertex: such a component is refused.
        """
        vectors = [dict.fromkeys(piece, 1) for piece in self.fringe_pieces]
        vector_of = {u: vec for piece, vec in zip(self.fringe_pieces, vectors) for u in piece}
        for v, near in self.confined.items():
            for u in near:
                if u not in vector_of:
                    raise NotApplicableError("not applicable: contains a 4-cycle")
                vector_of[u][v] = 1
        return tuple(vectors)

    @cached_property
    def recognition(self) -> str | None:
        """Why the component is well-covered, and so well-dominated, when it
        has no 4- or 5-cycle: "cycle7", "triangle_tripod" or
        "simplicial_partition"; None when it is neither."""
        if self.special_form in (SpecialForm.CYCLE7, SpecialForm.TRIANGLE_TRIPOD):
            return self.special_form.value
        return None if self.partition is None else "simplicial_partition"

    @cached_property
    def wcw(self) -> CharacterizationOutcome:
        """A basis of the weights under which every maximal independent set
        weighs the same, without 4-, 5- and 6-cycles.

        The 7-cycle, the triangle tripod and the complete graphs on up to
        three vertices carry exactly the constant weights; every other
        component has its piece vectors, keyed by their pieces' first vertices.
        """
        n = self.graph.n
        if self.special_form is not SpecialForm.GENERAL:
            note = f"{self.special_form.value}: constant weights"
            return CharacterizationOutcome((self.special_form,), constants_space(n), (note,))
        vectors = {piece[0]: vec for piece, vec in zip(self.fringe_pieces, self.piece_vectors)}
        return CharacterizationOutcome((self.special_form,), SubspaceBasis(n, vectors))

    @cached_property
    def wwd(self) -> CharacterizationOutcome:
        """A basis of the weights under which every minimal dominating set
        weighs the same, without 4-, 5- and 6-cycles.

        A special form carries the constants, as for ``wcw``; otherwise the
        basis is the combinations of the piece vectors given by
        ``coefficients``, each keyed by the first vertex of its key piece.
        The notes name the zero-forced fringe vertices and each coupled
        row's ears by their whole-graph labels.
        """
        if self.special_form is not SpecialForm.GENERAL or self.forced == (frozenset(), ()):
            return self.wcw  # with no forced row every piece vector is kept, and no note applies
        kept = {}
        for key, coefficients in self.coefficients.items():
            vec: dict[int, int] = {}
            for p, x in coefficients.items():
                for v in self.piece_vectors[p]:
                    vec[v] = vec.get(v, 0) + x
            kept[self.fringe_pieces[key][0]] = {v: x for v, x in vec.items() if x}
        labels = self.labels
        zero_forced = sorted(labels[v] for v in self.fringe - self.anchored)
        notes = [f"zero-forced fringe vertices: {zero_forced}"] if zero_forced else []
        notes += [f"coupled ears: {sorted(labels[v] for p in row for v in self.fringe_pieces[p])}"
                  for row in self.forced[1]]
        return CharacterizationOutcome((self.special_form,), SubspaceBasis(self.graph.n, kept), tuple(notes))


def induced_pieces(g: Graph, vertices: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """The connected components of G[vertices], each as a sorted tuple of g's
    vertices, by smallest member: a search of g's adjacency kept to ``vertices``."""
    seen: set[int] = set()
    pieces = []
    for start in sorted(vertices):
        if start in seen:
            continue
        seen.add(start)
        piece, stack = [start], [start]
        while stack:
            for u in g.adj[stack.pop()]:
                if u in vertices and u not in seen:
                    seen.add(u)
                    piece.append(u)
                    stack.append(u)
        pieces.append(tuple(sorted(piece)))
    return tuple(pieces)


@lru_cache(maxsize=1)
def component_facts(g: Graph) -> tuple[ComponentFacts, ...]:
    """The facts of every connected component of ``g``, by smallest vertex.

    A record is built with its component's fringe, ear partners and special
    form; every other table is computed on first read.  The last graph's
    records are kept, so consecutive calls on one graph (or an equal one)
    share them and their cached answers.  The records are never mutated:
    their dicts are read-only by convention.
    """
    comps = components(g)
    subs = [g] if len(comps) == 1 else [induced_subgraph(g, comp)[0] for comp in comps]
    out = []
    for comp, sub in zip(comps, subs):
        partners = ear_partners(sub)
        fringe = _fringe(sub, partners)
        out.append(
            ComponentFacts(
                graph=sub,
                labels=tuple(sorted(comp)),
                special_form=special_form_of(sub),
                fringe=fringe,
                ear_partners=partners,
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
    g: Graph, lengths: tuple[int, ...], *, connected: bool = False
) -> tuple[ComponentFacts, ...]:
    """The component facts of ``g``, or NotApplicableError when it is outside the family."""
    facts = component_facts(g)
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


def structure_summary(g: Graph) -> StructureSummary:
    return summarize(component_facts(g))


__all__ = [
    "CYCLE_LENGTHS",
    "CharacterizationOutcome",
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
    "family_forced_ear_rows",
    "forced_ear_rows",
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
