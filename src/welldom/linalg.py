"""Exact rational linear algebra for weight spaces.

Everything is exact; floating point never enters.  A subspace is always
carried in reduced row echelon form, which makes the RREF matrix the
canonical representative: two spans are equal iff their bases compare equal
structurally.

Row reduction runs over sparse integer rows ({column: int}), reduced one
input row at a time against a basis kept fully reduced and primitive; only
that final basis is turned into ``Fraction`` rows.  Bases stay sparse
({column: Fraction}); dense rows of the ambient width are built only when
read.  Membership and containment reduce integer rows the same way, against
a basis's ``integer_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

Vector = tuple[Fraction, ...]
Row = Sequence[Fraction | int] | dict[int, Fraction | int]  # dense, or sparse {column: value}

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row: Row, width: int) -> dict[int, int]:
    """The nonzero entries of ``row``, scaled by the lcm of their denominators."""
    if isinstance(row, dict):
        if row and not 0 <= min(row) <= max(row) < width:
            raise ValueError(f"sparse row has a column outside 0..{width - 1}")
        values, items = row.values(), row.items()
    else:
        if len(row) != width:
            raise ValueError(f"row has {len(row)} entries, expected {width}")
        values, items = row, enumerate(row)
    if set(map(type, values)) <= {int}:
        return {c: x for c, x in items if x}
    fractions = [(c, x if isinstance(x, Fraction) else Fraction(x)) for c, x in items]
    scale = lcm(*(x.denominator for _, x in fractions))
    return {c: x.numerator * (scale // x.denominator) for c, x in fractions if x}


def _eliminate(row: dict[int, int], pivot: int, by: dict[int, int]) -> None:
    """Clear ``row[pivot]`` in place with an integer combination a*row - b*by, a > 0."""
    a, b = by[pivot], row[pivot]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, y in by.items():
        x = row.get(c, 0) - b * y
        if x:
            row[c] = x
        else:
            del row[c]


def _make_primitive(row: dict[int, int], lead: int) -> None:
    """Divide ``row`` in place by the gcd of its entries, signed so that
    ``row[lead]`` > 0.  A row that leads with 1 is primitive already."""
    if row[lead] == 1:
        return
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def rref(
    rows: Iterable[Row], width: int
) -> tuple[tuple[dict[int, Fraction], ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns the nonzero rows and pivot columns.

    Rows are dense sequences of length ``width`` or sparse {column: value}
    dicts, with int or Fraction entries.  The output rows are sparse:
    {column: Fraction} with no zero entries, in pivot order.
    """
    # pivot column -> primitive integer row whose first nonzero column is the
    # pivot; every row is zero in every other row's pivot column
    basis: dict[int, dict[int, int]] = {}
    # column -> pivots of the kept rows that are nonzero there, besides their
    # own pivot; a new pivot is eliminated from exactly these rows
    holders: dict[int, set[int]] = {}
    for raw in rows:
        row = _integer_row(raw, width)
        for pivot in [c for c in row if c in basis]:
            _eliminate(row, pivot, basis[pivot])
        if not row:
            continue
        pivot = min(row)
        _make_primitive(row, pivot)
        for lead in holders.pop(pivot, ()):
            other = basis[lead]
            _eliminate(other, pivot, row)
            _make_primitive(other, lead)
            # only the columns of ``row`` can appear in or vanish from ``other``
            for c in row:
                if c in other:
                    holders.setdefault(c, set()).add(lead)
                elif c != pivot:
                    holders[c].discard(lead)
        for c in row:
            if c != pivot:
                holders.setdefault(c, set()).add(pivot)
        basis[pivot] = row
    pivots = tuple(sorted(basis))
    out = []
    # each entry x / lead is one shared Fraction per distinct pair in this call
    shared: dict[int, dict[int, Fraction]] = {}  # lead -> x -> Fraction(x, lead)
    for pivot in pivots:
        row = basis[pivot]
        lead = row[pivot]
        quotients = shared.setdefault(lead, {})
        entries = {}
        for c, x in row.items():
            q = quotients.get(x)
            if q is None:
                q = quotients[x] = Fraction(x, lead)
            entries[c] = q
        out.append(entries)
    return tuple(out), pivots


def dense_row(entries: dict[int, Fraction], width: int) -> Vector:
    """The row of length ``width`` with these entries and zeros elsewhere."""
    # every zero is one shared Fraction
    row = [_ZERO] * width
    for c, x in entries.items():
        row[c] = x
    return tuple(row)


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a subspace of Q^ambient_dim.

    ``sparse_rows`` holds each basis row as {column: nonzero entry}, in the
    order of ``pivots``; the dense ``rows`` are built only when read.
    """

    ambient_dim: int
    sparse_rows: tuple[dict[int, Fraction], ...]
    pivots: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.sparse_rows)

    @cached_property
    def rows(self) -> tuple[Vector, ...]:
        """Each basis row as a tuple of ``ambient_dim`` entries."""
        return tuple([dense_row(row, self.ambient_dim) for row in self.sparse_rows])

    @cached_property
    def integer_rows(self) -> dict[int, dict[int, int]]:
        """Each basis row by its pivot, scaled to primitive integers: an RREF
        row leads with 1, so the lcm of its denominators leaves no common factor."""
        return {p: _integer_row(row, self.ambient_dim) for p, row in zip(self.pivots, self.sparse_rows)}

    def contains_vector(self, vector: Row) -> bool:
        """Whether ``vector``, dense or sparse, lies in the span."""
        row = _integer_row(vector, self.ambient_dim)
        # a basis row is zero in the other rows' pivot columns, so each pivot
        # column of the row is cleared by its own basis row, in any order
        basis = self.integer_rows
        for pivot in [c for c in row if c in basis]:
            _eliminate(row, pivot, basis[pivot])
        return not row

    def row_texts(self) -> Iterator[list[str]]:
        """Each basis row as the texts of its ``ambient_dim`` entries, one row
        at a time: a shared row of "0/1" copied and filled from the sparse row."""
        zeros = ["0/1"] * self.ambient_dim
        for row in self.sparse_rows:
            cells = zeros.copy()
            for c, x in row.items():
                cells[c] = fraction_str(x)
            yield cells

    def to_json_dict(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "dimension": self.dimension, "basis": list(self.row_texts())}


def row_space(rows: Iterable[Row], ambient_dim: int) -> SubspaceBasis:
    reduced, pivots = rref(rows, ambient_dim)
    return SubspaceBasis(ambient_dim, reduced, pivots)


def nullspace(rows: Iterable[Row], ambient_dim: int) -> SubspaceBasis:
    """Canonical basis of {x : R x = 0} for the constraint rows R.

    One reduction, of R with its columns reversed (c -> n-1-c): each reduced
    row then leads at its largest original column p and is nonzero only below
    it.  So the vector of a free column f (1 at f, -R[r][f] at each pivot p_r)
    is nonzero only at f and at pivots above f: it leads at its own free
    column, where no other vector is nonzero, and the vectors already form
    the canonical RREF basis.
    """
    last = ambient_dim - 1
    flipped = (
        {last - c: x for c, x in row.items()} if isinstance(row, dict) else row[::-1]
        for row in rows
    )
    reduced, flipped_pivots = rref(flipped, ambient_dim)
    pivots = {last - p for p in flipped_pivots}
    vectors = {f: {f: _ONE} for f in range(ambient_dim) if f not in pivots}
    for row, p in zip(reduced, flipped_pivots):
        for c, x in row.items():
            if c != p:
                vectors[last - c][last - p] = -x
    return SubspaceBasis(ambient_dim, tuple(vectors.values()), tuple(vectors))


def constants_space(ambient_dim: int) -> SubspaceBasis:
    """Span of the all-ones vector (the constant weight functions)."""
    return row_space([[1] * ambient_dim], ambient_dim)


def subspace_contains(outer: SubspaceBasis, inner: SubspaceBasis) -> bool:
    """Whether every vector of ``inner`` lies in ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {outer.ambient_dim} vs {inner.ambient_dim}"
        )
    return all(outer.contains_vector(row) for row in inner.sparse_rows)


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    return a.sparse_rows == b.sparse_rows


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


__all__ = [
    "SubspaceBasis",
    "Vector",
    "constants_space",
    "dense_row",
    "fraction_str",
    "nullspace",
    "row_space",
    "rref",
    "subspace_contains",
    "subspace_equal",
]
