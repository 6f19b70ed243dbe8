"""Exact rational linear algebra for weight spaces.

Everything is exact; floating point never enters.  A subspace is carried as
independent integer rows ({column: int}), each keyed by a column where it
alone is nonzero.  Row reduction reduces such rows one at a time against a
basis kept fully reduced and primitive, and membership and containment
reduce them against the key columns.  Only ``_canonical``, behind ``rref``
and ``SubspaceBasis.sparse_rows``, turns a reduced basis into ``Fraction``
rows: the canonical form, in which two spans are equal iff their bases
compare equal, computed only where a basis is read or compared.
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


def _reduce(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced basis of the span of integer rows {column: nonzero int},
    which it changes in place and keeps, in pivot order: each pivot column
    maps to a primitive integer row whose first nonzero column it is, and
    every row is zero in every other row's pivot column."""
    basis: dict[int, dict[int, int]] = {}
    # column -> pivots of the kept rows that are nonzero there, besides their
    # own pivot; a new pivot is eliminated from exactly these rows
    holders: dict[int, set[int]] = {}
    for row in rows:
        if not basis.keys().isdisjoint(row):  # a row that holds no pivot skips the scan
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
    return {p: basis[p] for p in sorted(basis)}


def _canonical(basis: dict[int, dict[int, int]]) -> tuple[dict[int, Fraction], ...]:
    """The canonical rows of a reduced basis from ``_reduce``: each row divided
    by its pivot entry, as {column: Fraction}, in pivot order."""
    out = []
    # each entry x / lead is one shared Fraction per distinct pair in this call
    shared: dict[int, dict[int, Fraction]] = {}  # lead -> x -> Fraction(x, lead)
    for pivot, row in basis.items():
        lead = row[pivot]
        quotients = shared.setdefault(lead, {})
        entries = {}
        for c, x in row.items():
            q = quotients.get(x)
            if q is None:
                q = quotients[x] = Fraction(x, lead)
            entries[c] = q
        out.append(entries)
    return tuple(out)


def rref(rows: Iterable[Row], width: int) -> tuple[tuple[dict[int, Fraction], ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns the nonzero rows and pivot columns.

    Rows are dense sequences of length ``width`` or sparse {column: value}
    dicts, with int or Fraction entries.  The output rows are sparse:
    {column: Fraction} with no zero entries, in pivot order.
    """
    basis = _reduce(_integer_row(row, width) for row in rows)
    return _canonical(basis), tuple(basis)


@dataclass(frozen=True)
class SubspaceBasis:
    """A basis of a subspace of Q^ambient_dim, as integer rows {column: nonzero int}.

    ``integer_rows`` keys each row by a column where it alone is nonzero (a
    reduced basis by its pivots).  That makes the rows independent, which
    ``dimension`` and the oracle's certification trust, so it is checked
    when the basis is built.  The canonical (RREF) rows come from one
    reduction of the integer rows on first read.
    """

    ambient_dim: int
    integer_rows: dict[int, dict[int, int]]

    def __post_init__(self) -> None:
        keys = self.integer_rows.keys()
        for key, row in self.integer_rows.items():
            if not row.get(key) or len(row.keys() & keys) != 1:
                raise ValueError(f"basis row {key} is not the only row nonzero at its key column")

    @property
    def dimension(self) -> int:
        return len(self.integer_rows)

    @cached_property
    def sparse_rows(self) -> tuple[dict[int, Fraction], ...]:
        """Each canonical row as {column: nonzero entry}, in pivot order.

        The integer rows are reduced as copies, by key, largest first.  The
        canonical form does not depend on the order, but the work does.  A
        row is zero at the other rows' keys, so a new pivot that is a key
        column is held by no kept row and cleared from none.  On a hub every
        row holds the hub's column: largest key first, each row after the
        first leads at its own key, while smallest first each leads at the
        key of the row before it, which the kept rows hold.
        """
        rows = self.integer_rows
        return _canonical(_reduce(dict(rows[key]) for key in sorted(rows, reverse=True)))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple([min(row) for row in self.sparse_rows])

    @cached_property
    def rows(self) -> tuple[Vector, ...]:
        """Each canonical row as a tuple of ``ambient_dim`` entries, every zero one shared Fraction."""
        out = []
        for entries in self.sparse_rows:
            row = [_ZERO] * self.ambient_dim
            for c, x in entries.items():
                row[c] = x
            out.append(tuple(row))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self is other or (self.ambient_dim, self.sparse_rows) == (other.ambient_dim, other.sparse_rows)

    def contains_vector(self, vector: Row) -> bool:
        """Whether ``vector``, dense or sparse, lies in the span."""
        row = _integer_row(vector, self.ambient_dim)
        # a basis row is zero in the other rows' key columns, so each key
        # column of the row is cleared by its own basis row, in any order
        basis = self.integer_rows
        for key in [c for c in row if c in basis]:
            _eliminate(row, key, basis[key])
        return not row

    def row_texts(self) -> Iterator[list[str]]:
        """Each canonical row as the texts of its ``ambient_dim`` entries, one
        row at a time: a shared row of "0/1" copied and filled from the sparse row."""
        zeros = ["0/1"] * self.ambient_dim
        for row in self.sparse_rows:
            cells = zeros.copy()
            for c, x in row.items():
                cells[c] = fraction_str(x)
            yield cells

    def to_json_dict(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "dimension": self.dimension, "basis": list(self.row_texts())}


def row_space(rows: Iterable[Row], ambient_dim: int) -> SubspaceBasis:
    return SubspaceBasis(ambient_dim, _reduce(_integer_row(row, ambient_dim) for row in rows))


def nullspace(rows: Iterable[Row], ambient_dim: int) -> SubspaceBasis:
    """A basis of {x : R x = 0} for the constraint rows R, keyed by the free columns.

    One reduction, of R with its columns reversed (c -> n-1-c): each reduced
    row then leads at its largest original column p and is nonzero only below
    it.  So the vector of a free column f (1 at f, -R[r][f] / R[r][p_r] at
    each pivot p_r, scaled to primitive integers) is nonzero only at f and at
    pivots above f: it alone is nonzero at f, and it is a canonical row scaled.
    """
    last = ambient_dim - 1
    flipped = ({last - c: x for c, x in row.items()} if isinstance(row, dict) else row[::-1] for row in rows)
    reduced = _reduce(_integer_row(row, ambient_dim) for row in flipped)
    pivots = {last - q for q in reduced}
    vectors: dict[int, dict[int, Fraction | int]] = {f: {f: 1} for f in range(ambient_dim) if f not in pivots}
    for q, row in reduced.items():
        for c, x in row.items():
            if c != q:
                vectors[last - c][last - q] = -x if row[q] == 1 else Fraction(-x, row[q])
    # scaled by the lcm of its denominators, a vector with 1 at f is primitive
    return SubspaceBasis(ambient_dim, {f: _integer_row(vector, ambient_dim) for f, vector in vectors.items()})


def constants_space(ambient_dim: int) -> SubspaceBasis:
    """Span of the all-ones vector (the constant weight functions)."""
    return row_space([[1] * ambient_dim], ambient_dim)


def subspace_contains(outer: SubspaceBasis, inner: SubspaceBasis) -> bool:
    """Whether every vector of ``inner`` lies in ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {outer.ambient_dim} vs {inner.ambient_dim}")
    return all(outer.contains_vector(row) for row in inner.integer_rows.values())


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    return a == b


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


__all__ = [
    "SubspaceBasis",
    "Vector",
    "constants_space",
    "fraction_str",
    "nullspace",
    "row_space",
    "rref",
    "subspace_contains",
    "subspace_equal",
]
