"""Exact linear algebra over the rationals: rank, determinant, row reduction.

Matrices are lists of rows; entries are ints or Fractions. Rank uses
fraction-free (Bareiss-style) elimination on integer rows for speed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    out = []
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) if isinstance(x, Fraction) else x * denom
                    for x in row])
    return out


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a rational matrix."""
    m = [r for r in _integer_rows(rows) if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        pval = prow[c]
        for i in range(r + 1, len(m)):
            v = m[i][c]
            if v:
                row = m[i]
                g = gcd(pval, v)
                a, b = pval // g, v // g
                for j in range(c, ncols):
                    row[j] = a * row[j] - b * prow[j]
        r += 1
        if r == len(m):
            break
    return r


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pval = m[c][c]
        out *= pval
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pval
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return sign * out
