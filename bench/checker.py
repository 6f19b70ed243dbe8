"""Independent answers for the benchmark's correctness checks.

Nothing here imports welldom.  Graphs arrive as ``(n, edges)`` with vertices
0..n-1, weight-space bases as sequences of rows of ``Fraction``.  The checker
derives its answers from first principles:

* maximal independent and minimal dominating sets by running over every
  vertex subset (a bitmask table, so graphs of up to about 16 vertices);
* weight spaces by its own exact elimination over ``Fraction``;
* the closed form of path coronas;
* for graphs too large to enumerate, properties any correct answer has:
  equal weight on randomly sampled maximal independent and minimal
  dominating sets, WWD inside WCW, and dim WCW equal to the number of
  components of the fringe subgraph.

Every ``check_*`` function returns a list of mismatch messages; an empty
list means the program's output agrees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Edges = Sequence[tuple[int, int]]
Rows = Sequence[Sequence[Fraction]]


def neighbour_masks(n: int, edges: Edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def members(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


# -- brute force over all vertex subsets -----------------------------------------


@dataclass(frozen=True)
class Families:
    """Every maximal independent (``mis``) and minimal dominating (``mds``) set, as bitmasks."""

    mis: tuple[int, ...]
    mds: tuple[int, ...]

    @property
    def numbers(self) -> dict:
        mis = [m.bit_count() for m in self.mis]
        mds = [m.bit_count() for m in self.mds]
        return {
            "maximal_independent_count": len(mis),
            "minimal_dominating_count": len(mds),
            "domination": min(mds),
            "independent_domination": min(mis),
            "independence": max(mis),
            "upper_domination": max(mds),
            "well_covered": len(set(mis)) == 1,
            "well_dominated": len(set(mds)) == 1,
        }


def brute_families(n: int, edges: Edges) -> Families:
    """Run over all 2^n subsets: the independent ones that dominate, and the
    dominating ones that stop dominating when any member leaves."""
    if n > 20:
        raise ValueError(f"brute force over 2^{n} subsets is out of reach")
    adj = neighbour_masks(n, edges)
    closed = [adj[v] | 1 << v for v in range(n)]
    size = 1 << n
    full = size - 1
    dom = [0] * size
    independent = bytearray(size)
    independent[0] = 1
    for m in range(1, size):
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        dom[m] = dom[rest] | closed[v]
        independent[m] = independent[rest] and not adj[v] & rest
    mis = tuple(m for m in range(size) if independent[m] and dom[m] == full)
    mds = tuple(
        m
        for m in range(size)
        if dom[m] == full and all(dom[m ^ 1 << v] != full for v in members(m))
    )
    return Families(mis, mds)


# -- exact elimination -------------------------------------------------------------


def rref(rows: Rows, width: int) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical reduced row echelon form of the span of ``rows``.

    Rows are reduced one at a time against the basis found so far, so a tall
    input of dependent rows costs one reduction per row.
    """
    basis: dict[int, list[Fraction]] = {}  # pivot column -> row with 1 there
    for raw in rows:
        if len(raw) != width:
            raise ValueError(f"row has {len(raw)} entries, expected {width}")
        row = [Fraction(x) for x in raw]
        for pivot, brow in basis.items():
            c = row[pivot]
            if c:
                row = [x - c * y for x, y in zip(row, brow)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [x / inv for x in row]
        for pivot, brow in basis.items():
            c = brow[lead]
            if c:
                basis[pivot] = [x - c * y for x, y in zip(brow, row)]
        basis[lead] = row
        if len(basis) == width:
            break
    return tuple(tuple(basis[p]) for p in sorted(basis))


def nullspace(rows: Rows, width: int) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical basis of {x : r.x = 0 for every row r}."""
    reduced = rref(rows, width)
    pivots = [next(i for i, x in enumerate(r) if x) for r in reduced]
    free = [c for c in range(width) if c not in set(pivots)]
    vectors = []
    for f in free:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            v[pc] = -r[f]
        vectors.append(v)
    return rref(vectors, width)


def indicator(n: int, mask: int) -> list[int]:
    return [mask >> v & 1 for v in range(n)]


def equal_weight_space(n: int, family: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """Weights giving every set of ``family`` the same total."""
    first = indicator(n, family[0])
    rows = [[a - b for a, b in zip(indicator(n, m), first)] for m in family[1:]]
    return nullspace(rows, n)


def contains(outer: Rows, inner: Rows, width: int) -> bool:
    return len(rref(list(outer) + list(inner), width)) == len(rref(outer, width))


# -- structure -------------------------------------------------------------------------


def components(vertices: Sequence[int], edges: Edges) -> int:
    """Number of connected components of the subgraph induced on ``vertices``."""
    keep = set(vertices)
    parent = {v: v for v in keep}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(keep)
    for u, v in edges:
        if u in keep and v in keep:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                count -= 1
    return count


def is_connected(n: int, edges: Edges) -> bool:
    return n > 0 and components(range(n), edges) == 1


def fringe(n: int, edges: Edges) -> list[int]:
    """Degree-one vertices, and degree-two vertices whose neighbours are adjacent."""
    adj = neighbour_masks(n, edges)
    out = []
    for v in range(n):
        nbrs = members(adj[v])
        if len(nbrs) == 1 or (len(nbrs) == 2 and adj[nbrs[0]] >> nbrs[1] & 1):
            out.append(v)
    return out


def has_cycle(n: int, edges: Edges, k: int) -> bool:
    """Whether k distinct vertices carry a cycle (depth-first over simple paths)."""
    adj = neighbour_masks(n, edges)

    def extend(start: int, v: int, used: int, left: int) -> bool:
        if left == 0:
            return bool(adj[v] >> start & 1)
        for u in members(adj[v] & ~used):
            if u > start and extend(start, u, used | 1 << u, left - 1):
                return True
        return False

    return any(extend(s, s, 1 << s, k - 1) for s in range(n))


# -- sampled sets for graphs beyond enumeration ------------------------------------------


def random_maximal_independent(rng: random.Random, n: int, adj: list[int]) -> int:
    order = list(range(n))
    rng.shuffle(order)
    chosen = 0
    for v in order:
        if not adj[v] & chosen:
            chosen |= 1 << v
    return chosen


def random_minimal_dominating(rng: random.Random, n: int, adj: list[int]) -> int:
    """Start from all vertices and drop them in random order while the rest dominates."""
    nbrs = [members(adj[v] | 1 << v) for v in range(n)]
    cover = [len(c) for c in nbrs]  # chosen vertices in each closed neighbourhood
    chosen = (1 << n) - 1
    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        if all(cover[u] > 1 for u in nbrs[v]):
            chosen &= ~(1 << v)
            for u in nbrs[v]:
                cover[u] -= 1
    return chosen


def integral(row: Sequence[Fraction]) -> list[int]:
    """The row scaled by the common denominator, so set weights are integer sums."""
    scale = math.lcm(*(x.denominator for x in row))
    return [int(x * scale) for x in row]


def set_weight(row: Sequence[int], mask: int) -> int:
    return sum(row[v] for v in members(mask))


# -- the checks ---------------------------------------------------------------------------


def check_families(label: str, fam: Families, mis: Sequence[int], mds: Sequence[int]) -> list[str]:
    """Enumerated families (as bitmasks, any order) against brute force."""
    errors = []
    if sorted(mis) != list(fam.mis):
        errors.append(f"{label}: {len(mis)} maximal independent sets, brute force finds {len(fam.mis)}")
    if sorted(mds) != list(fam.mds):
        errors.append(f"{label}: {len(mds)} minimal dominating sets, brute force finds {len(fam.mds)}")
    return errors


def check_space(label: str, name: str, got: Rows, want: Rows) -> list[str]:
    """A canonical basis from the program against the checker's canonical basis."""
    got = tuple(tuple(Fraction(x) for x in row) for row in got)
    if got == tuple(want):
        return []
    return [f"{label}: {name} has dimension {len(got)}, expected {len(want)} (or another span)"]


def check_numbers(label: str, fam: Families, report: dict) -> list[str]:
    """Counts, domination numbers and the two properties, keyed as in the JSON report."""
    return [
        f"{label}: {key} is {report[key]!r}, expected {value!r}"
        for key, value in fam.numbers.items()
        if report[key] != value
    ]


def check_corona(label: str, n: int, path: Sequence[int], leaves: Sequence[int], wcw: Rows, wwd: Rows,
                 recognized: tuple[bool, bool]) -> list[str]:
    """Path corona: both spaces are span{e(v_i) + e(leaf_i)} and the graph is well-covered."""
    vectors = []
    for v, leaf in zip(path, leaves):
        row = [Fraction(0)] * n
        row[v] = row[leaf] = Fraction(1)
        vectors.append(row)
    want = rref(vectors, n)
    errors = check_space(label, "WCW", wcw, want) + check_space(label, "WWD", wwd, want)
    if recognized != (True, True):
        errors.append(f"{label}: recognized (well-covered, well-dominated) = {recognized}, expected (True, True)")
    return errors


def check_large_spaces(label: str, n: int, edges: Edges, wcw: Rows, wwd: Rows, rng: random.Random,
                       samples: int) -> list[str]:
    """Properties of the weight spaces of a graph too large to enumerate.

    Every WCW row weighs all sampled maximal independent sets alike, every WWD
    row all sampled minimal dominating sets alike; WWD lies inside WCW; and
    dim WCW equals the number of components of the fringe subgraph.
    """
    errors = []
    adj = neighbour_masks(n, edges)
    mis = [random_maximal_independent(rng, n, adj) for _ in range(samples)]
    mds = [random_minimal_dominating(rng, n, adj) for _ in range(samples)]
    for name, rows, family in (("WCW", wcw, mis), ("WWD", wwd, mds)):
        for i, row in enumerate(rows):
            scaled = integral(row)
            weights = {set_weight(scaled, m) for m in family}
            if len(weights) > 1:
                errors.append(f"{label}: {name} row {i} gives {len(weights)} different weights to sampled sets")
                break
    if not contains(wcw, wwd, n):
        errors.append(f"{label}: WWD is not contained in WCW")
    expected = components(fringe(n, edges), edges)
    if len(wcw) != expected:
        errors.append(f"{label}: dim WCW is {len(wcw)}, the fringe subgraph has {expected} components")
    return errors
