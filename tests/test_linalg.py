"""Exact rank, pivot columns, span test and determinant: sympy as an oracle,
invariance under row operations, and the entry-size bound of the row
reduction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from positroid import linalg

# Zero is drawn often, as an int and as a Fraction, so rows go sparse and
# some reduce to zero.
entries = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-4, 4),
                    st.fractions(-4, 4, max_denominator=5))


def _matrices(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


matrices = st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(
    lambda shape: _matrices(*shape))
square_matrices = st.integers(0, 5).flatmap(lambda n: _matrices(n, n))
nonzero = st.fractions(-4, 4, max_denominator=5).filter(bool)


def _sympy_matrix(sympy, rows):
    ncols = len(rows[0]) if rows else 0
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in row])


def _sparse(rows, data):
    # Each sparse row keeps a drawn subset of its zeros, in a drawn column
    # order, so explicit zero values and empty dicts both occur.
    sparse = []
    for row in rows:
        order = data.draw(st.permutations(range(len(row))), label="order")
        sparse.append({c: row[c] for c in order
                       if row[c] or data.draw(st.booleans(),
                                              label="keep zero")})
    return sparse


class TestOracle:
    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_rank_matches_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        ref = _sympy_matrix(sympy, rows)
        assert linalg.rank(rows) == ref.rank()
        assert sorted(linalg.echelon(rows)) == list(ref.rref()[1])

    @settings(max_examples=100, deadline=None)
    @given(matrices, st.data())
    def test_sparse_rows_match_dense_and_sympy(self, rows, data):
        sympy = pytest.importorskip("sympy")
        sparse = _sparse(rows, data)
        ref = _sympy_matrix(sympy, rows)
        assert linalg.rank(sparse) == linalg.rank(rows) == ref.rank()
        assert sorted(linalg.echelon(sparse)) == \
            sorted(linalg.echelon(rows)) == list(ref.rref()[1])

    @settings(max_examples=100, deadline=None)
    @given(matrices, st.data())
    def test_in_span_matches_rank(self, rows, data):
        # The row is either drawn freely or a drawn combination of the rows,
        # so both answers occur.
        ncols = len(rows[0]) if rows else 0
        if rows and data.draw(st.booleans(), label="combination"):
            coeffs = data.draw(st.lists(entries, min_size=len(rows),
                                        max_size=len(rows)), label="coeffs")
            row = [sum((a * r[c] for a, r in zip(coeffs, rows)), Fraction(0))
                   for c in range(ncols)]
        else:
            row = data.draw(st.lists(entries, min_size=ncols,
                                     max_size=ncols), label="row")
        expected = linalg.rank(rows + [row]) == linalg.rank(rows)
        kept = linalg.echelon(rows)
        assert linalg.in_span(kept, row) == expected
        assert linalg.in_span(kept, dict(enumerate(row))) == expected

    def test_sparse_edge_rows(self):
        rows = [{}, {0: 0, 2: Fraction(0)}, {3: Fraction(1, 2), 1: 0},
                {1: Fraction(2, 3), 3: 1}, [0, Fraction(4, 3), 0, 2]]
        assert linalg.rank(rows) == 2
        assert sorted(linalg.echelon(rows)) == [1, 3]
        assert linalg.rank([{}, {}]) == 0

    @settings(max_examples=100, deadline=None)
    @given(square_matrices, st.data())
    def test_det_matches_sympy(self, rows, data):
        sympy = pytest.importorskip("sympy")
        ref = _sympy_matrix(sympy, rows).det()
        expected = Fraction(int(ref.p), int(ref.q))
        assert linalg.det(rows) == expected
        assert linalg.det(_sparse(rows, data)) == expected

    def test_det_of_a_large_matrix_matches_sympy(self):
        # Deeper than the drawn matrices: each row's unit column lies past
        # 29 reductions against earlier rows.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0)
        rows = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
        assert linalg.det(rows) == int(sympy.Matrix(rows).det())


class TestRowOperations:
    @settings(max_examples=100, deadline=None)
    @given(matrices.filter(bool), st.data())
    def test_rank_invariant(self, rows, data):
        n = len(rows)
        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1), label="j")
        f = data.draw(nonzero, label="factor")
        expected = linalg.rank(rows)
        added = [list(r) for r in rows]
        if i != j:
            added[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
        scaled = [list(r) for r in rows]
        scaled[i] = [f * x for x in rows[i]]
        swapped = [list(r) for r in rows]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert linalg.rank(added) == expected
        assert linalg.rank(scaled) == expected
        assert linalg.rank(swapped) == expected

    @settings(max_examples=100, deadline=None)
    @given(square_matrices.filter(lambda rows: len(rows) >= 2), st.data())
    def test_det_swap_and_repeat(self, rows, data):
        n = len(rows)
        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i),
                      label="j")
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert linalg.det(swapped) == -linalg.det(rows)
        repeated = list(rows)
        repeated[j] = rows[i]
        assert linalg.det(repeated) == 0


class TestEdgeCases:
    def test_empty_matrix_has_rank_zero(self):
        assert linalg.rank([]) == 0

    @pytest.mark.parametrize("rows", [
        [[1, 2]], [[1, 2, 3], [0, 1, 1]], [[1], [2, 0]],
        [{1: 2}], [{0: 1}, {2: 0}], [{-1: 1}, {0: 1}]])
    def test_det_rejects_non_square_rows(self, rows):
        with pytest.raises(ValueError):
            linalg.det(rows)

    def test_zero_row_has_rank_zero(self):
        assert linalg.rank([[0, 0]]) == 0


def test_kept_entries_within_hadamard_bound():
    # An elimination that never divides its rows down reaches 14,040-bit
    # entries on this matrix, against a bound of 449 bits.
    rng = random.Random(0)
    rows = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(80)]
    hadamard_sq = math.prod(sum(x * x for x in row) for row in rows)
    bound_bits = math.isqrt(hadamard_sq).bit_length()
    kept = linalg.echelon(rows)
    assert len(kept) == 80
    bits = max(abs(x).bit_length() for r in kept.values()
               for x in r.values())
    assert bits <= bound_bits
