"""Brute-force ground truth by exhaustive enumeration.

Every decision the characterization engine makes can be re-derived here from
first principles: list the maximal independent sets, list the minimal
dominating sets, and read the answers off the families.  One search lists
both families.  For minimal dominating sets it carries, next to the
dominated vertices, the ``twice`` mask of the vertices that two chosen
vertices dominate, so a new member rechecks only the members it could have
left without a private neighbor.  A maximal independent set is exactly a
minimal dominating set that is independent, and a finished dominating set
is independent iff none of its members is in ``twice`` (two adjacent
members dominate each other), so ``search_families`` reads both families
off one dominating-set search.  Budgets keep it honest: a vertex gate per
family, and ``max_sets`` on the number of finished sets of either family.
Exceeding one raises, never truncates silently.  Only the oracle
enumerates: the closed-form engines take no budget.

A weight space is read off a family without reducing all its difference
rows: the rows independent mod 2 are reduced, and one exact probe weighing
of every set, with the 6-bit subset-sum tables the sweep also weighs with,
confirms that no other row cuts the space further.  A closed-form basis
handed in as a candidate is certified by that weighing and the rank mod 2
alone, with no reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .graphs import Graph, iter_bits, set_of
from .linalg import SubspaceBasis, nullspace


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured budget.

    ``partial`` carries whatever had been computed when the limit hit, for
    diagnostics only; it is never a trustworthy answer.
    """

    def __init__(self, message: str, *, partial=None) -> None:
        self.partial = partial
        super().__init__(message)


@dataclass(frozen=True)
class EnumerationBudget:
    """Vertex gates for the two oracle families, and ``max_sets``: the most
    finished sets of one oracle family."""

    max_independent_vertices: int = 24
    max_dominating_vertices: int = 20
    max_sets: int = 1_000_000

    def __post_init__(self) -> None:
        if min(self.max_independent_vertices, self.max_dominating_vertices, self.max_sets) < 1:
            raise ValueError("budget fields must be positive")


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class SetFamily:
    """A complete family of vertex sets as bitmasks, in ascending order.

    ``sets`` views the same family as frozensets, built on first read.
    """

    n: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple([set_of(m) for m in self.masks])

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        return tuple([m.bit_count() for m in self.masks])

    def sizes(self) -> tuple[int, ...]:
        return self._sizes


def _search(g: Graph, independent: bool) -> Iterator[tuple[int, int]]:
    """Each finished set with its ``twice`` mask (0 for independent sets).

    Depth-first search over (chosen, dominated, twice, forbidden) masks on an
    explicit stack, so depth is not bounded by Python's recursion limit.  Each
    node branches on which allowed closed neighbor covers the undominated
    vertex with the fewest of them (ties to the lowest vertex); earlier
    siblings are forbidden to later ones, so every set is reached exactly
    once.  For independent sets only undominated vertices are allowed.  For
    dominating sets ``twice`` holds the vertices that two chosen vertices
    dominate, and a branch is cut as soon as some member has no private
    neighbor left, which no superset can restore.  A child only rechecks the
    members whose closed neighborhood meets the vertices it newly doubles: the
    parent passed the check, and the new member keeps as a private neighbor
    the undominated vertex it was chosen to cover.
    """
    full = g.full_mask
    nb = g.closed_bits
    stack = [(0, 0, 0, 0)]
    while stack:
        chosen, dominated, twice, forbidden = stack.pop()
        undominated = full & ~dominated
        if not undominated:
            yield chosen, twice
            continue
        allowed = full & ~forbidden
        if independent:
            allowed &= ~dominated
        # the undominated vertex with the fewest allowed closed neighbors
        fewest = full.bit_length() + 1
        rest = undominated
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            count = (nb[w] & allowed).bit_count()
            if count < fewest:
                v, fewest = w, count
                if not count:
                    break
            rest ^= low
        branches = nb[v] & allowed
        while branches:  # pushed highest first, so the lowest is searched first
            u = branches.bit_length() - 1
            branches ^= 1 << u
            if independent:
                # the lower branches, searched before this one, are forbidden in it
                stack.append((chosen | 1 << u, dominated | nb[u], 0, forbidden | branches))
                continue
            doubled = twice | dominated & nb[u]
            newly = doubled & ~twice
            members = chosen if newly else 0
            while members:  # recheck the members that dominate a newly doubled vertex
                low = members & -members
                members ^= low
                cover = nb[low.bit_length() - 1]
                if cover & newly and not cover & ~doubled:
                    break
            else:
                stack.append((chosen | 1 << u, dominated | nb[u], doubled, forbidden | branches))


def _enumerate(
    g: Graph, independent: bool, budget: EnumerationBudget, split: bool = False
) -> tuple[SetFamily, SetFamily | None]:
    """The family one search lists and, when ``split`` asks for them from a
    dominating search within the independent gate, its independent members:
    the maximal independent sets."""
    kind = "independent" if independent else "dominating"
    max_vertices = budget.max_independent_vertices if independent else budget.max_dominating_vertices
    if g.n > max_vertices:
        raise BudgetExceededError(f"{g.n} vertices exceed the {kind}-set enumeration budget of {max_vertices}")
    max_sets = budget.max_sets
    masks: list[int] = []
    ind = [] if split and g.n <= budget.max_independent_vertices else None
    for m, twice in _search(g, independent):
        masks.append(m)
        if ind is not None and not m & twice:
            ind.append(m)
        if len(masks) > max_sets:
            raise BudgetExceededError(
                f"more than {max_sets} {'maximal' if independent else 'minimal'} {kind} sets", partial=masks
            )
    masks.sort()
    if ind is None:
        return SetFamily(g.n, tuple(masks)), None
    ind.sort()
    return SetFamily(g.n, tuple(masks)), SetFamily(g.n, tuple(ind))


def search_families(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[SetFamily | BudgetExceededError, SetFamily | BudgetExceededError]:
    """The maximal independent and the minimal dominating sets, each as its
    family or as the error its enumerator raises.  The dominating search runs
    first; the independent sets get a search of their own only when it does
    not list them, so no family is searched twice."""
    ind = None
    try:
        dom, ind = _enumerate(g, False, budget, split=True)
    except BudgetExceededError as exc:
        dom = exc
    if ind is None:
        try:
            ind = _enumerate(g, True, budget)[0]
        except BudgetExceededError as exc:
            ind = exc
    return ind, dom


def enumerate_families(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> tuple[SetFamily, SetFamily]:
    """``search_families``, raising its first budget error, independent first."""
    ind, dom = search_families(g, budget)
    if isinstance(ind, BudgetExceededError):
        raise ind
    if isinstance(dom, BudgetExceededError):
        raise dom
    return ind, dom


def enumerate_maximal_independent_sets(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SetFamily:
    return _enumerate(g, True, budget)[0]


def enumerate_minimal_dominating_sets(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SetFamily:
    return _enumerate(g, False, budget)[0]


@dataclass(frozen=True)
class DominationNumbers:
    domination: int  # smallest minimal dominating set
    upper_domination: int  # largest minimal dominating set
    independent_domination: int  # smallest maximal independent set
    independence: int  # largest maximal independent set


def domination_numbers(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> DominationNumbers:
    ind, dom = enumerate_families(g, budget)
    mis, mds = ind.sizes(), dom.sizes()
    return DominationNumbers(min(mds), max(mds), min(mis), max(mis))


def is_well_covered(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """Every maximal independent set has the same size."""
    sizes = enumerate_maximal_independent_sets(g, budget).sizes()
    return len(set(sizes)) <= 1


def is_well_dominated(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """Every minimal dominating set has the same size."""
    sizes = enumerate_minimal_dominating_sets(g, budget).sizes()
    return len(set(sizes)) <= 1


def set_weight(weights: Sequence[Fraction], s: frozenset[int]) -> Fraction:
    return sum((weights[v] for v in s), Fraction(0))


def _subset_sums(weights: Sequence[int]) -> list[list[int]]:
    """For each chunk of six vertices, the weight of each of its 64 subsets."""
    tables = []
    for start in range(0, len(weights), 6):
        table = [0]
        for w in weights[start:start + 6]:
            table += [s + w for s in table]
        tables.append(table)
    return tables


def _weigh(masks: Sequence[int], tables: list[list[int]]) -> list[int]:
    """The weight of each vertex mask, read off the subset sums chunk by chunk."""
    out = []
    for m in masks:
        total = 0
        for table in tables:
            total += table[m & 63]
            m >>= 6
        out.append(total)
    return out


def _difference_row(s: int, first: int) -> dict[int, int]:
    """The sparse row chi(S) - chi(S_0) of the masks ``s`` and ``first``."""
    row = dict.fromkeys(iter_bits(s & ~first), 1)
    row.update(dict.fromkeys(iter_bits(first & ~s), -1))
    return row


def _probe(space: SubspaceBasis) -> list[int]:
    """One integer weight per vertex that carries every basis vector as a digit.

    Vector i of ``integer_rows`` is shifted by i*w bits, with 2^w > 2n max|v|.
    A set's weight minus S_0's then has the digits v_i(S) - v_i(S_0), each
    of size at most n max|v| < 2^w / 2, so it is zero iff every digit is.
    """
    vectors = space.integer_rows.values()
    largest = max(abs(x) for vector in vectors for x in vector.values())
    w = (2 * space.ambient_dim * largest).bit_length()
    probe = [0] * space.ambient_dim
    for i, vector in enumerate(vectors):
        for c, x in vector.items():
            probe[c] += x << i * w
    return probe


def _unequal_set(masks: Sequence[int], space: SubspaceBasis) -> int | None:
    """The first set that some basis vector of ``space`` weighs unlike the
    first set, by one probe weighing of every set; None when there is none."""
    weights = _weigh(masks, _subset_sums(_probe(space)))
    return next((s for s, weight in zip(masks, weights) if weight != weights[0]), None)


def weight_space_from_family(
    family: SetFamily, candidate: SubspaceBasis | None = None
) -> SubspaceBasis:
    """Weights that are constant across the family, as a basis.

    The null space N(F) of the difference rows chi(S) - chi(S_0), reduced
    from the few rows that count.  A xor basis keeps a set's row only when
    its mask S ^ S_0 is independent mod 2 of the rows kept before.  Rows
    independent mod 2 are independent over Q (some square minor is odd), so
    at most n rows are kept and their null space N(R) contains N(F).  One
    probe weighing of every set (``_probe``) then decides exactly whether
    each basis vector weighs every set alike: if so, N(R) = N(F); otherwise
    the first set that differs adds a row outside the span of R and the
    reduction is repeated, at most n times.  A single-set family therefore
    yields the full space.

    A ``candidate`` basis (a closed-form answer) is certified instead of
    reduced again: if its dimension is n minus the rank mod 2 of the rows
    and the probe weighs every set alike under it, then it lies in N(F),
    whose dimension is at most its own, so it is N(F) and is returned
    itself.  Otherwise the reduction runs as without one.
    """
    if not family.masks:
        raise ValueError("weight space of an empty family is undefined")
    n, masks = family.n, family.masks
    if candidate is not None and candidate.ambient_dim != n:
        raise ValueError(f"candidate of ambient dimension {candidate.ambient_dim} for {n} points")
    first = masks[0]
    xor_basis = [0] * (n + 1)  # bit length -> a kept difference mask of that length
    kept: list[int] = []
    for s in masks[1:]:
        x = s ^ first
        while x:
            lead = x.bit_length()
            if not xor_basis[lead]:
                xor_basis[lead] = x
                kept.append(s)
                break
            x ^= xor_basis[lead]
        if len(kept) == n:
            break
    if candidate is not None and candidate.dimension == n - len(kept):
        # the zero space has no vector to weigh, and a single set weighs alike under any
        if not candidate.dimension or len(masks) == 1 or _unequal_set(masks, candidate) is None:
            return candidate
    while True:
        space = nullspace([_difference_row(s, first) for s in kept], n)
        if len(kept) in (n, len(masks) - 1):
            return space
        unequal = _unequal_set(masks, space)
        if unequal is None:
            return space
        kept.append(unequal)


def well_covered_weight_space_oracle(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SubspaceBasis:
    return weight_space_from_family(enumerate_maximal_independent_sets(g, budget))


def well_dominated_weight_space_oracle(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SubspaceBasis:
    return weight_space_from_family(enumerate_minimal_dominating_sets(g, budget))


__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DominationNumbers",
    "EnumerationBudget",
    "SetFamily",
    "domination_numbers",
    "enumerate_families",
    "enumerate_maximal_independent_sets",
    "enumerate_minimal_dominating_sets",
    "is_well_covered",
    "is_well_dominated",
    "search_families",
    "set_weight",
    "weight_space_from_family",
    "well_covered_weight_space_oracle",
    "well_dominated_weight_space_oracle",
]
