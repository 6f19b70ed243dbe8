"""Immutable simple graphs with exact metric, search and format primitives.

Vertices are dense 0-based indices.  Adjacency is stored as a tuple of
frozensets; bitmask views (bit i of a mask <-> vertex i) are cached for the
enumeration-heavy callers.  A view holds one n-bit int per vertex, which is
quadratic memory, so only code that never sees more than 62 vertices reads
one: the oracle behind its vertex gates (the independence number goes
through it too), and the fixtures' witness check.  The closed-form engines
read the sets; the cycle search builds masks only on each root's ball of
radius at most 3 (for lengths up to 7), relabelled 0..k-1.

Everything here is exact: distances are BFS integers, the cycle search
prunes only paths that cannot close a wanted cycle, and the two text
formats round-trip bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed graph text.  Carries the 1-based line of the offending token."""

    def __init__(self, message: str, *, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    The rows of ``adj`` may be given as any collections of neighbours (sets,
    lists); they are stored as a tuple of frozensets, so every graph hashes.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency table has {len(self.adj)} rows for n={self.n}")
        rows = []
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")
            rows.append(frozenset(nbrs))  # the row itself when it is a frozenset already
        # per-graph tuples here and across the package are built from lists,
        # not from generators: tuple(<genexpr>) allocates spare slots and
        # shrinks, so each freed tuple lands on CPython's free list of its
        # final size, and between full collections those lists grow to their
        # cap and raise peak memory
        object.__setattr__(self, "adj", tuple(rows))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, adj)

    # -- cached bitmask views ------------------------------------------------

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        return tuple([mask_of(nbrs) for nbrs in self.adj])

    @cached_property
    def closed_bits(self) -> tuple[int, ...]:
        return tuple([bits | (1 << v) for v, bits in enumerate(self.adjacency_bits)])

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- basic queries --------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted([len(nbrs) for nbrs in self.adj]))

    @cached_property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @cached_property
    def is_connected(self) -> bool:
        return len(components(self)) <= 1


def is_complete(g: Graph) -> bool:
    return all(len(nbrs) == g.n - 1 for nbrs in g.adj)


# -- text formats --------------------------------------------------------------


def parse_graph(text: str, format: str = "edgelist") -> Graph:
    if format == "edgelist":
        return _parse_edgelist(text)
    if format == "graph6":
        return _parse_graph6(text)
    raise ValueError(f"unknown graph format {format!r}")


def serialize_graph(g: Graph, format: str = "edgelist") -> str:
    if format == "edgelist":
        lines = [str(g.n)]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        return "\n".join(lines) + "\n"
    if format == "graph6":
        return _graph6_encode(g) + "\n"
    raise ValueError(f"unknown graph format {format!r}")


MAX_EDGELIST_VERTICES = 100_000  # refused before any table is built: a 12-byte header must not take gigabytes


def _parse_edgelist(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise ParseError("expected a single vertex count", line=lineno)
            if not _is_integer(tokens[0]):
                raise ParseError(f"vertex count {tokens[0]!r} is not an integer", line=lineno)
            n = int(tokens[0])
            if n < 0:
                raise ParseError(f"vertex count {n} is negative", line=lineno)
            if n > MAX_EDGELIST_VERTICES:
                raise ParseError(f"vertex count {n} exceeds the limit of {MAX_EDGELIST_VERTICES}", line=lineno)
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        a, b = tokens
        if not (_is_integer(a) and _is_integer(b)):
            raise ParseError(f"non-integer endpoint in {line!r}", line=lineno)
        u, v = int(a), int(b)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) out of range for n={n}", line=lineno)
        if u == v:
            raise ParseError(f"loop at vertex {u}", line=lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input: missing vertex count")
    return Graph.from_edges(n, edges)


def _is_integer(token: str) -> bool:
    """ASCII digits, with at most a leading minus sign; ``int()`` would also
    take "1_1", "+3" and other numerals."""
    return token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit())


# graph6 packs the strict upper triangle column by column, six bits per
# printable byte (offset 63).  Only the short form (n <= 62) is supported.


def _graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise ValueError(f"graph6 short form supports at most 62 vertices, got {g.n}")
    bits: list[int] = []
    for j in range(g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def _parse_graph6(text: str) -> Graph:
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1) if (line := raw.strip())]
    if not lines:
        raise ParseError("empty graph6 input")
    if len(lines) > 1:
        raise ParseError("one graph per file", line=lines[1][0])
    lineno, payload = lines[0]
    header = ">>graph6<<"
    if payload.startswith(header):
        payload = payload[len(header) :]
    if not payload:
        raise ParseError("empty graph6 input", line=lineno)
    first = ord(payload[0]) - 63
    if first == 63:
        raise ParseError("extended graph6 (n >= 63) is not supported", line=lineno)
    if not 0 <= first <= 62:
        raise ParseError(f"bad graph6 size byte {payload[0]!r}", line=lineno)
    n = first
    need = (n * (n - 1) // 2 + 5) // 6
    body = payload[1:]
    if len(body) != need:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {need} for n={n}", line=lineno)
    bits: list[int] = []
    for pos, ch in enumerate(body, start=2):
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise ParseError(f"graph6 byte {ch!r} at offset {pos} out of range", line=lineno)
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    if any(bits[k:]):
        raise ParseError("graph6 padding bits must be zero", line=lineno)
    return Graph.from_edges(n, edges)


# -- subgraphs and components ---------------------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``vertices`` plus the old->new index map."""
    kept = sorted(set(vertices))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v])
        for u in kept
        for v in g.adj[u]
        if u < v and v in remap
    ]
    return Graph.from_edges(len(kept), edges), remap


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, sorted by smallest member."""
    seen = [False] * g.n
    out: list[frozenset[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        out.append(frozenset(comp))
    return out


# -- cycle search ----------------------------------------------------------------


def cycle_lengths(g: Graph, lengths: Iterable[int]) -> frozenset[int]:
    """The lengths among ``lengths`` at which some distinct vertices of g form
    a cycle subgraph (not necessarily induced).

    Every cycle lies in one block (2-connected component) of the 2-core, so
    the search runs block by block, and a block with b vertices is searched
    only for the wanted lengths up to b, and only for the even ones when it
    is bipartite.  This bounds K_{a,a}: its one block is bipartite, so no
    search for an odd length starts.  A block with as many edges as vertices
    is one cycle, whose length is read off with no search.  Any other block
    is relabelled 0..b-1 and searched by ``_iter_cycle_lengths`` one root
    at a time, each on the masks of its own small ball, and the search stops
    once every wanted length has turned up.
    """
    wanted = _checked_lengths(lengths)
    found: set[int] = set()
    adj = g.adj
    for block, bipartite in _blocks(adj, _two_core(adj)):
        if found == wanted:
            break
        b = len(block)
        if b < 3:  # a bridge
            continue
        here = {k for k in wanted - found if k <= b and not (bipartite and k % 2)}
        if not here:
            continue
        if sum([len(adj[v] & block) for v in block]) == 2 * b:
            # b edges: a 2-connected graph has minimum degree 2, so the block is one b-cycle
            if b in here:
                found.add(b)
            continue
        members = sorted(block)
        local = {v: i for i, v in enumerate(members)}
        found.update(_iter_cycle_lengths([[local[u] for u in adj[v] if u in local] for v in members], here))
    return frozenset(found)


def contains_cycle_of_length(g: Graph, k: int) -> bool:
    return k in cycle_lengths(g, (k,))


def _checked_lengths(lengths: Iterable[int]) -> set[int]:
    wanted = set(lengths)
    if any(k < 3 for k in wanted):
        raise ValueError(f"cycle length must be at least 3, got {min(wanted)}")
    return wanted


def _two_core(adj: Sequence[frozenset[int]]) -> set[int]:
    """The vertices left once every vertex of degree < 2 is removed, until none is left."""
    degree = [len(nbrs) for nbrs in adj]
    core = set(range(len(adj)))
    doomed = [v for v, d in enumerate(degree) if d < 2]
    while doomed:
        v = doomed.pop()
        core.discard(v)
        for u in adj[v]:
            if u in core:
                degree[u] -= 1
                if degree[u] == 1:
                    doomed.append(u)
    return core


def _blocks(adj: Sequence[frozenset[int]], core: set[int]) -> Iterator[tuple[set[int], bool]]:
    """The blocks of G[core] as vertex sets, each with whether it is bipartite.

    One iterative depth-first search: a child u of v closes a block (v and
    the vertices found since u) when no back edge from u's subtree climbs
    above v.  Each vertex of a block but its top one reaches its parent by a
    tree edge of the block, and so do its back edges.  The depth parity
    2-colours the tree edges, so the block is bipartite iff none of these
    back edges spans an even number of levels, which would close an odd cycle.
    """
    depth = [-1] * len(adj)
    low = [0] * len(adj)
    odd_back: set[int] = set()  # the vertices with a back edge that closes an odd cycle
    for root in sorted(core):
        if depth[root] >= 0:
            continue
        depth[root] = low[root] = 0
        trail = [root]  # the vertices found, not yet in a block
        stack = [(root, iter(adj[root]))]
        while stack:
            v, todo = stack[-1]
            for u in todo:
                if u not in core:
                    continue
                d = depth[u]
                if d < 0:
                    depth[u] = low[u] = depth[v] + 1
                    trail.append(u)
                    stack.append((u, iter(adj[u])))
                    break
                if d < depth[v]:  # to an ancestor: the parent, or a back edge
                    low[v] = min(low[v], d)
                    if not (depth[v] - d) & 1:
                        odd_back.add(v)
            else:  # every neighbour of v is seen: v is done
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= depth[p]:
                    block = {v}
                    while (w := trail.pop()) != v:
                        block.add(w)
                    bipartite = odd_back.isdisjoint(block)
                    block.add(p)
                    yield block, bipartite


def _iter_cycle_lengths(nbrs: Sequence[Sequence[int]], wanted: set[int]) -> Iterator[int]:
    """Yield each length of ``wanted`` at which the graph on 0..n-1 with the
    neighbour lists ``nbrs`` has a cycle, once, as it turns up; ``wanted`` is
    used up.

    Each cycle is searched from its smallest vertex s, inside the 2-core of
    G[{s} | higher vertices] (vertices of degree < 2 removed until none is
    left): no cycle passes through a removed vertex.  The core is a flag and
    a degree per vertex, peeled once before the first root (a block loses
    nothing) and again as each root leaves.  The search from s reads only
    its ball of radius top // 2 in the core, top the longest length wanted,
    so that ball alone is found by breadth-first search and relabelled
    0..k-1 in the order found, s first: the vertices within distance r of s
    are then the first ones, and ``_paths_from`` searches masks of k bits.
    On a graph of bounded degree every ball is small, and the search takes
    linear time.  Both ``cycle_lengths``, on each block with a chord, and
    the generator's sampler, on each whole candidate, run it.
    """
    degree = [len(row) for row in nbrs]
    live = [True] * len(nbrs)
    left = len(nbrs)
    doomed = [v for v, d in enumerate(degree) if d < 2]
    for s in range(len(nbrs)):
        while doomed:
            v = doomed.pop()
            live[v] = False
            left -= 1
            for u in nbrs[v]:
                if live[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        doomed.append(u)
        if not wanted or left < min(wanted):
            return
        if not live[s]:
            continue
        index = {s: 0}
        ball = [1]
        frontier = [s]
        for _ in range(max(wanted) // 2):
            reached = []
            for v in frontier:
                for u in nbrs[v]:
                    if live[u] and u not in index:
                        index[u] = len(index)
                        reached.append(u)
            frontier = reached
            ball.append((1 << len(index)) - 1)
        abits = []
        for v in index:
            bits = 0
            for u in nbrs[v]:
                i = index.get(u)
                if i is not None:
                    bits |= 1 << i
            abits.append(bits)
        yield from _paths_from(abits, ball, wanted)
        doomed.append(s)


def _paths_from(abits: Sequence[int], ball: list[int], wanted: set[int]) -> Iterator[int]:
    """Yield each length of ``wanted`` that a cycle through vertex 0 has,
    removing it from ``wanted``; ``ball[r]`` holds the vertices within
    distance r of 0 in the part of the graph searched, for r up to
    max(wanted) // 2.

    Two rules keep the search small without changing its answer:

    - a path of k edges from 0 extends to u only if u is within distance
      min(top - k, top // 2) of 0, where top is the largest length still
      wanted and k counts the new edge: the cycle must still close within
      top edges, and each vertex of a cycle of length <= top is at most
      top // 2 from 0 along it;
    - the search stops once every wanted length has been found.
    """
    top = max(wanted)
    stack = [(0, 1, 0)]
    while stack:
        v, used, k = stack.pop()
        if k >= 2 and abits[v] & 1 and k + 1 in wanted:
            wanted.discard(k + 1)
            yield k + 1
            if not wanted:
                return
            top = max(wanted)
        radius = min(top - k - 1, top // 2)
        if radius < 1:
            continue
        step = abits[v] & ball[radius] & ~used
        while step:
            low = step & -step
            stack.append((low.bit_length() - 1, used | low, k + 1))
            step ^= low


# -- isomorphism -------------------------------------------------------------------


def is_isomorphic_small(g: Graph, h: Graph, *, max_vertices: int = 12) -> bool:
    """Exact isomorphism test for graphs with at most ``max_vertices`` vertices.

    Backtracking on a degree-sorted vertex order with adjacency-consistency
    pruning; the degree sequence gate rejects most non-isomorphic pairs first.
    """
    if g.n > max_vertices or h.n > max_vertices:
        raise ValueError(f"isomorphism search is limited to {max_vertices} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence != h.degree_sequence:
        return False
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    return _extend_isomorphism(g, h, order, [-1] * g.n, [False] * g.n, 0)


def _extend_isomorphism(
    g: Graph, h: Graph, order: list[int], mapping: list[int], used: list[bool], i: int
) -> bool:
    """Whether the partial map of ``order[:i]`` extends to an isomorphism.

    A plain recursive function rather than a closure: a closure that calls
    itself holds its own cell, and that cycle would keep both graphs alive
    until a full garbage collection.
    """
    if i == g.n:
        return True
    v = order[i]
    dv = len(g.adj[v])
    for u in range(g.n):
        if used[u] or len(h.adj[u]) != dv:
            continue
        if all(
            (order[j] in g.adj[v]) == (mapping[order[j]] in h.adj[u])
            for j in range(i)
        ):
            mapping[v] = u
            used[u] = True
            if _extend_isomorphism(g, h, order, mapping, used, i + 1):
                return True
            mapping[v] = -1
            used[u] = False
    return False


__all__ = [
    "Graph",
    "MAX_EDGELIST_VERTICES",
    "ParseError",
    "components",
    "contains_cycle_of_length",
    "cycle_lengths",
    "induced_subgraph",
    "is_complete",
    "is_isomorphic_small",
    "iter_bits",
    "mask_of",
    "parse_graph",
    "serialize_graph",
    "set_of",
]
