"""Brute-force ground truth by exhaustive enumeration.

Every decision the characterization engine makes can be re-derived here from
first principles: list the maximal independent sets, list the minimal
dominating sets, and read the answers off the families.  Budgets keep the
exponential cores honest; exceeding one raises, never truncates silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
    max_independent_vertices: int = 24
    max_dominating_vertices: int = 20
    max_sets: int = 1_000_000

    def __post_init__(self) -> None:
        if min(self.max_independent_vertices, self.max_dominating_vertices, self.max_sets) < 1:
            raise ValueError("budget fields must be positive")


DEFAULT_BUDGET = EnumerationBudget()


class FamilyKind(Enum):
    MAXIMAL_INDEPENDENT = "maximal_independent"
    MINIMAL_DOMINATING = "minimal_dominating"


@dataclass(frozen=True)
class SetFamily:
    """A complete family of vertex sets in canonical (ascending bitmask) order."""

    kind: FamilyKind
    n: int
    sets: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.sets)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)


def iter_maximal_independent_masks(g: Graph) -> Iterator[int]:
    """All maximal independent sets as bitmasks, in discovery order.

    Pivoted recursion over the complement's closed non-neighborhoods; a branch
    is cut as soon as it can no longer reach a maximal set.
    """
    n = g.n
    if n == 0:
        yield 0
        return
    full = g.full_mask
    cn = [full & ~g.closed_bits[v] for v in range(n)]

    def expand(r: int, p: int, x: int) -> Iterator[int]:
        if not p and not x:
            yield r
            return
        pivot = max(iter_bits(p | x), key=lambda u: (p & cn[u]).bit_count())
        cand = p & ~cn[pivot]
        for v in iter_bits(cand):
            bit = 1 << v
            yield from expand(r | bit, p & cn[v], x & cn[v])
            p &= ~bit
            x |= bit

    yield from expand(0, full, 0)


def enumerate_maximal_independent_sets(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SetFamily:
    if g.n > budget.max_independent_vertices:
        raise BudgetExceededError(
            f"{g.n} vertices exceed the independent-set enumeration budget "
            f"of {budget.max_independent_vertices}"
        )
    masks: list[int] = []
    for m in iter_maximal_independent_masks(g):
        masks.append(m)
        if len(masks) > budget.max_sets:
            raise BudgetExceededError(
                f"more than {budget.max_sets} maximal independent sets",
                partial=masks,
            )
    masks.sort()
    return SetFamily(FamilyKind.MAXIMAL_INDEPENDENT, g.n, tuple(set_of(m) for m in masks))


def _minimal_dominating_masks(g: Graph, max_sets: int) -> list[int]:
    n = g.n
    if n == 0:
        return [0]
    full = g.full_mask
    nb = g.closed_bits
    visited: set[int] = set()
    found: set[int] = set()

    # Branch on which closed neighbor covers the lowest undominated vertex.
    # Every minimal dominating set survives some branch; non-minimal artifacts
    # are removed by the private-neighbor filter below.
    def cover(s: int, dom: int) -> None:
        if s in visited:
            return
        visited.add(s)
        if dom == full:
            found.add(s)
            if len(found) > max_sets:
                raise BudgetExceededError(
                    f"more than {max_sets} dominating-set candidates",
                    partial=found,
                )
            return
        undone = ~dom & full
        v = (undone & -undone).bit_length() - 1
        for u in iter_bits(nb[v]):
            cover(s | (1 << u), dom | nb[u])

    cover(0, 0)

    def is_minimal(s: int) -> bool:
        members = list(iter_bits(s))
        for u in members:
            covered_by_rest = 0
            for w in members:
                if w != u:
                    covered_by_rest |= nb[w]
            if not nb[u] & ~covered_by_rest:
                return False
        return True

    return sorted(m for m in found if is_minimal(m))


def enumerate_minimal_dominating_sets(
    g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET
) -> SetFamily:
    if g.n > budget.max_dominating_vertices:
        raise BudgetExceededError(
            f"{g.n} vertices exceed the dominating-set enumeration budget "
            f"of {budget.max_dominating_vertices}"
        )
    masks = _minimal_dominating_masks(g, budget.max_sets)
    return SetFamily(FamilyKind.MINIMAL_DOMINATING, g.n, tuple(set_of(m) for m in masks))


@dataclass(frozen=True)
class DominationNumbers:
    domination: int  # smallest minimal dominating set
    upper_domination: int  # largest minimal dominating set
    independent_domination: int  # smallest maximal independent set
    independence: int  # largest maximal independent set


def domination_numbers(g: Graph, budget: EnumerationBudget = DEFAULT_BUDGET) -> DominationNumbers:
    if g.n == 0:
        return DominationNumbers(0, 0, 0, 0)
    mis = enumerate_maximal_independent_sets(g, budget).sizes()
    mds = enumerate_minimal_dominating_sets(g, budget).sizes()
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


def weight_space_from_family(family: SetFamily) -> SubspaceBasis:
    """Weights that are constant across the family, as a canonical basis.

    Null space of the difference rows chi(S_i) - chi(S_0); a single-set family
    therefore yields the full space.
    """
    if not family.sets:
        raise ValueError("weight space of an empty family is undefined")
    first = family.sets[0]
    rows = []
    for s in family.sets[1:]:
        row = [0] * family.n
        for v in s:
            row[v] += 1
        for v in first:
            row[v] -= 1
        rows.append(row)
    return nullspace(rows, family.n)


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
    "FamilyKind",
    "SetFamily",
    "domination_numbers",
    "enumerate_maximal_independent_sets",
    "enumerate_minimal_dominating_sets",
    "is_well_covered",
    "is_well_dominated",
    "iter_maximal_independent_masks",
    "set_weight",
    "weight_space_from_family",
    "well_covered_weight_space_oracle",
    "well_dominated_weight_space_oracle",
]
