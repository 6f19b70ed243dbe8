"""Exact rational linear algebra for weight spaces.

Everything runs over fractions.Fraction; floating point never enters.  A
subspace is always carried in reduced row echelon form, which makes the RREF
matrix the canonical representative: two spans are equal iff their bases
compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _as_row(row: Sequence[Fraction | int], width: int) -> list[Fraction]:
    if len(row) != width:
        raise ValueError(f"row has {len(row)} entries, expected {width}")
    return [Fraction(x) for x in row]


def rref(
    rows: Iterable[Sequence[Fraction | int]], width: int
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns the nonzero rows and pivot columns."""
    m = [_as_row(r, width) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of Q^ambient_dim."""

    ambient_dim: int
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence[Fraction | int]) -> Vector:
        """Residual of ``vector`` after elimination against the basis rows."""
        v = _as_row(vector, self.ambient_dim)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return tuple(v)

    def contains_vector(self, vector: Sequence[Fraction | int]) -> bool:
        return not any(self.reduce(vector))

    def to_json_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dimension": self.dimension,
            "basis": [[fraction_str(x) for x in row] for row in self.rows],
        }


def row_space(rows: Iterable[Sequence[Fraction | int]], ambient_dim: int) -> SubspaceBasis:
    reduced, pivots = rref(rows, ambient_dim)
    return SubspaceBasis(ambient_dim, reduced, pivots)


def nullspace(rows: Iterable[Sequence[Fraction | int]], ambient_dim: int) -> SubspaceBasis:
    """Canonical basis of {x : R x = 0} for the constraint rows R."""
    reduced, pivots = rref(rows, ambient_dim)
    free = [c for c in range(ambient_dim) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        v = [Fraction(0)] * ambient_dim
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][f]
        basis.append(v)
    # a second reduction canonicalizes the standard free-column basis
    return row_space(basis, ambient_dim)


def constants_space(ambient_dim: int) -> SubspaceBasis:
    """Span of the all-ones vector (the constant weight functions)."""
    if ambient_dim == 0:
        return row_space([], 0)
    return row_space([[Fraction(1)] * ambient_dim], ambient_dim)


def full_space(ambient_dim: int) -> SubspaceBasis:
    return nullspace([], ambient_dim)


def subspace_contains(outer: SubspaceBasis, inner: SubspaceBasis) -> bool:
    """Whether every vector of ``inner`` lies in ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {outer.ambient_dim} vs {inner.ambient_dim}"
        )
    return all(outer.contains_vector(row) for row in inner.rows)


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    return a.rows == b.rows


def sum_spaces(spaces: Iterable[SubspaceBasis], ambient_dim: int) -> SubspaceBasis:
    rows: list[Vector] = []
    for s in spaces:
        if s.ambient_dim != ambient_dim:
            raise ValueError("summands must share the ambient dimension")
        rows.extend(s.rows)
    return row_space(rows, ambient_dim)


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


__all__ = [
    "SubspaceBasis",
    "Vector",
    "constants_space",
    "fraction_str",
    "full_space",
    "nullspace",
    "parse_fraction",
    "row_space",
    "rref",
    "subspace_contains",
    "subspace_equal",
    "sum_spaces",
]
