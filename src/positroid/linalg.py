"""Exact linear algebra over the rationals: echelon form, span test, rank
and determinant.

A matrix is given by its rows, each either dense, a list or tuple of
entries, or sparse, a dict {column: entry} that may leave zeros out;
entries are ints or Fractions. All rest on one fraction-free row
reduction, `_reduce`, which reduces one sparse integer row against rows
kept so far, dividing it by its content after every step. `echelon` keeps each row that does not
reduce to zero, `in_span` asks whether a row does against a given echelon,
and `rank` and `det` read the kept rows of `echelon`. The kept rows are
keyed by pivot, so the pivot columns are `sorted(echelon(rows))`. A kept
row is primitive and proportional to a vector of minors of the input (with
its row denominators cleared), so no entry exceeds the Hadamard bound of
the nonzero input rows, the product of their Euclidean norms.

A kept row carries no record of the factor by which it scales its input
row; only `det` needs those factors, and it reads them off unit columns
appended to its rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .poly import sort_sign

# A dense row, a list or tuple [entry, ...], or a sparse row, a dict
# {column: entry}, told apart by the cheap `isinstance(row, dict)`.
_Row = Sequence | dict[int, object]
# The kept rows of an echelon form, keyed by pivot: each a sparse primitive
# integer row {column: entry}.
Echelon = dict[int, dict[int, int]]


def _reduce(kept: Echelon, row: _Row) -> tuple[int, dict[int, int]] | None:
    """Reduce one row against kept rows, each keyed by its pivot, until
    its lowest column is no pivot of theirs.

    Returns None when the row lies in the span of the kept rows. Otherwise
    returns the remainder's pivot c, its lowest column, and the remainder,
    a sparse primitive integer row {column: entry}: a nonzero multiple of
    the row minus multiples of the kept rows.
    """
    r = {c: x for c, x in (row.items() if isinstance(row, dict)
                           else enumerate(row)) if x}
    d = lcm(*(x.denominator for x in r.values()))
    r = {c: x.numerator * (d // x.denominator) for c, x in r.items()}
    while r:
        g = gcd(*r.values())
        if g != 1:
            r = {c: x // g for c, x in r.items()}
        c = min(r)
        if c not in kept:
            return c, r
        p = kept[c]
        g = gcd(p[c], r[c])
        a, b = p[c] // g, r[c] // g
        if a != 1:
            for j in r:
                r[j] *= a
        for j, y in p.items():
            x = r.get(j, 0) - b * y
            if x:
                r[j] = x
            else:
                del r[j]
    return None


def echelon(rows: Sequence[_Row]) -> Echelon:
    """Reduce the rows one at a time against the rows kept so far.

    Returns the kept rows in input order, keyed by their pivot, the lowest
    column of the row. A kept row is a sparse primitive integer row
    {column: entry}: a nonzero multiple of its input row minus multiples
    of earlier input rows.
    """
    kept: Echelon = {}
    for row in rows:
        if reduced := _reduce(kept, row):
            c, r = reduced
            kept[c] = r
    return kept


def in_span(kept: Echelon, row: _Row) -> bool:
    """Whether the row lies in the span of the kept rows of an `echelon`."""
    return _reduce(kept, row) is None


def rank(rows: Sequence[_Row]) -> int:
    """Exact rank of a rational matrix, given as dense rows [entry, ...]
    or sparse rows {column: entry}, or a mix of both."""
    return len(echelon(rows))


def det(rows: Sequence[_Row]) -> Fraction:
    """Exact determinant of a square rational matrix, given as k dense
    rows of length k or k sparse rows with columns in [0, k).

    Row i gets the unit column k + i. Its kept row is s_i times the row
    minus multiples of earlier kept rows, which have no entry at k + i, so
    it reads s_i there. A pivot of k or more means the rows are dependent.
    Otherwise the first k columns of the kept rows, sorted by pivot, are
    triangular with their leads on the diagonal, and their determinant is
    det(rows) * prod(s_i).
    """
    k = len(rows)
    unit = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            if len(row) != k:
                raise ValueError(f"row {i} has length {len(row)}, not {k}")
            row = dict(enumerate(row))
        elif any(not 0 <= c < k for c in row):
            raise ValueError(f"row {i} has a column outside [0, {k})")
        unit.append({**row, k + i: 1})
    kept = echelon(unit)
    if any(c >= k for c in kept):
        return Fraction(0)
    return Fraction(sort_sign(kept)[0] * prod(r[c] for c, r in kept.items()),
                    prod(r[k + i] for i, r in enumerate(kept.values())))
