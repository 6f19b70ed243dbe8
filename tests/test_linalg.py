import math
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from welldom import linalg
from welldom.analysis import characterized_wcw_basis
from welldom.linalg import (
    SubspaceBasis,
    constants_space,
    fraction_str,
    nullspace,
    row_space,
    rref,
    subspace_contains,
    subspace_equal,
)

from conftest import double_star

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _matrices(entries, max_width, max_rows):
    return st.integers(1, max_width).flatmap(
        lambda width: st.lists(
            st.lists(entries, min_size=width, max_size=width), min_size=0, max_size=max_rows
        ).map(lambda rows: (rows, width))
    )


small_matrices = _matrices(fractions, 4, 5)
# the shapes the engines feed in: 0/+-1 constraint and difference rows
sign_matrices = _matrices(st.sampled_from([0, 0, 1, -1]), 12, 30)
fraction_matrices = _matrices(fractions, 8, 12)
# wide and sparse: a kept row gains and loses columns as later pivots are
# eliminated from it
wide_sparse_matrices = st.integers(1, 40).flatmap(
    lambda width: st.lists(
        st.dictionaries(
            st.integers(0, width - 1), st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]), max_size=4
        ),
        max_size=60,
    ).map(lambda rows: (rows, width))
)


@st.composite
def keyed_rows(draw):
    """Integer rows, each nonzero at a key column where every other row is zero."""
    width = draw(st.integers(1, 8))
    keys = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
    rows = {}
    for key in keys:
        row = {c: draw(st.integers(-3, 3)) for c in range(width) if c not in keys}
        row[key] = draw(st.sampled_from([1, -1, 2, -3]))
        rows[key] = {c: x for c, x in row.items() if x}
    return rows, width


@st.composite
def matrix_pairs(draw):
    """Two matrices of one width, the second often built from rows of the first."""
    width = draw(st.integers(1, 6))
    row = st.lists(
        st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]), min_size=width, max_size=width
    )
    a = draw(st.lists(row, max_size=5))
    b = draw(st.lists(st.sampled_from(a), max_size=4)) if a else []
    return a, b + draw(st.lists(row, max_size=2)), width


def dense(rows, width):
    """Sparse rows as tuples of ``width`` Fractions."""
    return tuple(tuple(Fraction(row.get(c, 0)) for c in range(width)) for row in rows)


def dense_rref(rows, width):
    """Reference: Gauss-Jordan on dense Fraction rows, column by column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


class TestRref:
    def test_known_reduction(self):
        rows, pivots = rref([[2, 4], [1, 3]], 2)
        assert dense(rows, 2) == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )
        assert pivots == (0, 1)

    def test_zero_rows_dropped(self):
        rows, pivots = rref([[0, 0], [1, 1], [2, 2]], 2)
        assert dense(rows, 2) == ((Fraction(1), Fraction(1)),)
        assert pivots == (0,)

    @given(st.one_of(sign_matrices, fraction_matrices))
    def test_matches_dense_reference(self, matrix):
        rows, width = matrix
        reduced, pivots = rref(rows, width)
        assert (dense(reduced, width), pivots) == dense_rref(rows, width)

    @given(wide_sparse_matrices)
    # row 0 loses column 2 and gains column 3 when pivot 1 is eliminated
    # from it; the last two rows then read both changes off the column index
    @example(([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1, 3: 1}, {3: 1}, {2: 1}], 4))
    def test_wide_sparse_rows_match_dense_reference(self, matrix):
        rows, width = matrix
        reduced, pivots = rref(rows, width)
        assert (dense(reduced, width), pivots) == dense_rref(dense(rows, width), width)
        for row, pivot in zip(reduced, pivots):
            assert min(row) == pivot and row[pivot] == 1
            assert all(type(x) is Fraction and x for x in row.values())

    def test_disjoint_rows_eliminate_nothing(self, monkeypatch):
        calls = 0
        eliminate = linalg._eliminate

        def counted(*args):
            nonlocal calls
            calls += 1
            return eliminate(*args)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        rows, pivots = rref([{2 * i: 2, 2 * i + 1: i + 1} for i in range(2000)], 4000)
        assert calls == 0
        assert len(rows) == 2000 and pivots == tuple(range(0, 4000, 2))

    @given(fraction_matrices)
    def test_sparse_rows_match_dense_rows(self, matrix):
        rows, width = matrix
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        assert rref(sparse, width) == rref(rows, width)

    def test_row_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            rref([[1, 2, 3]], 2)
        with pytest.raises(ValueError):
            rref([{2: 1}], 2)

    @given(small_matrices)
    def test_idempotent(self, matrix):
        rows, width = matrix
        once, pivots = rref(rows, width)
        twice, pivots2 = rref(once, width)
        assert once == twice and pivots == pivots2

    @given(small_matrices)
    def test_pivot_columns_are_unit(self, matrix):
        rows, width = matrix
        reduced, pivots = rref(rows, width)
        for i, p in enumerate(pivots):
            column = [row.get(p, 0) for row in reduced]
            assert column[i] == 1
            assert all(x == 0 for j, x in enumerate(column) if j != i)


class TestNullspace:
    @given(small_matrices)
    def test_orthogonal_to_rows(self, matrix):
        rows, width = matrix
        null = nullspace(rows, width)
        for vec in null.rows:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    @given(small_matrices)
    def test_rank_nullity(self, matrix):
        rows, width = matrix
        rank = row_space(rows, width).dimension
        assert rank + nullspace(rows, width).dimension == width

    @given(small_matrices)
    def test_canonical_form(self, matrix):
        rows, width = matrix
        null = nullspace(rows, width)
        rerefed, pivots = rref(null.rows, width)
        assert null.rows == dense(rerefed, width) and null.pivots == pivots

    @given(st.one_of(small_matrices, wide_sparse_matrices))
    def test_matches_two_pass_reference(self, matrix):
        # reduce the rows, build the free-column vectors, reduce those again
        rows, width = matrix
        reduced, pivots = rref(rows, width)
        vectors = {f: {f: 1} for f in range(width) if f not in pivots}
        for row, p in zip(reduced, pivots):
            for c, x in row.items():
                if c != p:
                    vectors[c][p] = -x
        assert nullspace(rows, width) == row_space(vectors.values(), width)

    def test_full_and_constants(self):
        assert nullspace([], 3).dimension == 3
        c = constants_space(4)
        assert c.dimension == 1
        assert c.rows[0] == (1, 1, 1, 1)


class TestSubspaceOps:
    def test_containment(self):
        outer = row_space([[1, 0, 0], [0, 1, 0]], 3)
        inner = row_space([[1, 1, 0]], 3)
        assert subspace_contains(outer, inner)
        assert not subspace_contains(inner, outer)

    def test_equality_ignores_presentation(self):
        a = row_space([[1, 2], [0, 1]], 2)
        b = row_space([[3, 1], [1, 1]], 2)
        assert subspace_equal(a, b)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_contains(nullspace([], 2), nullspace([], 3))
        with pytest.raises(ValueError, match="row has 2 entries, expected 3"):
            nullspace([], 3).contains_vector([1, 2])

    @given(small_matrices)
    def test_reduce_is_membership_test(self, matrix):
        rows, width = matrix
        space = row_space(rows, width)
        for row in rows:
            assert space.contains_vector(row)


class TestSparseBasis:
    @given(sign_matrices)
    def test_dense_rows_and_json_follow_sparse_rows(self, matrix):
        rows, width = matrix
        space = row_space(rows, width)
        assert space.rows == dense(space.sparse_rows, width)
        assert space.dimension == len(space.rows)
        payload = space.to_json_dict()
        assert payload["basis"] == [[fraction_str(x) for x in row] for row in space.rows]
        # each integer row is the sparse row scaled to primitive integers
        assert list(space.integer_rows) == list(space.pivots)
        for p, row in zip(space.pivots, space.sparse_rows):
            scaled = space.integer_rows[p]
            assert scaled[p] > 0 and math.gcd(*scaled.values()) == 1
            assert scaled.keys() == row.keys()
            assert all(scaled[c] == x * scaled[p] for c, x in row.items())

    @given(matrix_pairs())
    def test_comparisons_agree_with_dense_rows(self, pair):
        a_rows, b_rows, width = pair
        a, b = row_space(a_rows, width), row_space(b_rows, width)
        assert subspace_equal(a, b) == (a.rows == b.rows)
        stacked = dense_rref(a.rows + b.rows, width)
        assert subspace_contains(a, b) == (stacked == (a.rows, a.pivots))
        assert subspace_contains(a, b) == all(a.contains_vector(row) for row in b.rows)


class TestKeyedBasis:
    def test_key_columns_are_checked(self):
        with pytest.raises(ValueError, match="key column"):
            SubspaceBasis(3, {0: {1: 1, 2: 1}})  # zero at its own key column
        with pytest.raises(ValueError, match="key column"):
            SubspaceBasis(3, {0: {0: 1, 1: 1}, 1: {1: 2}})  # nonzero at another row's key

    @given(keyed_rows(), st.data())
    def test_keyed_rows_agree_with_their_row_space(self, keyed, data):
        rows, width = keyed
        basis, reduced = SubspaceBasis(width, rows), row_space(rows.values(), width)
        assert basis.dimension == reduced.dimension == len(rows)
        assert basis == reduced and subspace_equal(reduced, basis)
        assert basis.rows == reduced.rows and basis.pivots == reduced.pivots
        vector = data.draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width))
        assert basis.contains_vector(vector) == reduced.contains_vector(vector)
        combination = [sum(x * row.get(c, 0) for x, row in zip(vector, rows.values())) for c in range(width)]
        assert basis.contains_vector(combination)
        other = row_space(data.draw(st.lists(st.lists(
            st.integers(-2, 2), min_size=width, max_size=width), max_size=3)), width)
        assert subspace_contains(basis, other) == subspace_contains(reduced, other)
        assert subspace_contains(other, basis) == subspace_contains(other, reduced)
        assert (basis == other) == (reduced.rows == other.rows)


class TestCanonicalRows:
    @given(keyed_rows(), st.data())
    def test_canonical_rows_are_rref_of_the_rows_in_any_order(self, keyed, data):
        rows, width = keyed
        kept = {key: dict(row) for key, row in rows.items()}
        basis = SubspaceBasis(width, rows)
        order = data.draw(st.permutations(list(rows.values())))
        assert basis.sparse_rows == rref(order, width)[0]
        assert basis.integer_rows == kept  # reduced as copies

    def test_hub_rows_take_linear_work(self, monkeypatch):
        # every piece vector of the double star holds a hub column: by key,
        # smallest first, each new pivot was cleared from every kept row
        calls = 0
        eliminate = linalg._eliminate

        def counted(*args):
            nonlocal calls
            calls += 1
            return eliminate(*args)

        work = []
        for k in (200, 400):
            basis = characterized_wcw_basis(double_star(k)).basis
            monkeypatch.setattr(linalg, "_eliminate", counted)
            calls = 0
            assert len(basis.sparse_rows) == 2 * k + 1
            work.append(calls)
            monkeypatch.setattr(linalg, "_eliminate", eliminate)
        assert 0 < work[1] <= 2.5 * work[0]


class TestSerialization:
    def test_fraction_str_always_has_denominator(self):
        assert fraction_str(Fraction(3)) == "3/1"
        assert fraction_str(Fraction(-1, 2)) == "-1/2"

    def test_json_dict(self):
        space = row_space([[1, 2]], 2)
        payload = space.to_json_dict()
        assert payload == {
            "ambient_dim": 2,
            "dimension": 1,
            "basis": [["1/1", "2/1"]],
        }
