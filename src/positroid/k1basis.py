"""k=1 admissible monomials: the counting identity, the terminating
rewriting system, and basis verification against graded dimensions and the
evaluation rank on count + 3 points at eps=1 with integer parameters in
[1, 2^20] from a seeded generator, generic by the Schwartz-Zippel lemma
(Schwartz, J. ACM 27(4), 1980).

A k = 1 monomial is a `poly.Monomial` in the variables ("D", b, (i,)).
A variable sorts by color b, then index i, so the factors of color b read
off `Monomial.factors` as a sorted index list. The admissible monomials of
a multidegree are the keys of `hilbert.component_monomials` outside the
ones-locus variables, the pattern ideal's vanishing set, decoded through
the variable tuple of `hilbert.surviving_variables` and filtered by the
descent test; the enumeration meets `MAX_COMPONENT_MONOMIALS` before any
key is built, and only `enumerate_admissible` builds a `Monomial`, for
each admissible key.
The set of variables off the ones locus is kept for the last 8 patterns,
like the other per-pattern memos."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterable

from . import hilbert, ideals, linalg
from .fibers import FiberPoint, k1_point
from .patterns import JugglingPattern
from .poly import Monomial, Var


class ZeroInQuotient(ValueError):
    """The monomial's normal form violates the ones-locus condition for the
    given pattern, so it represents zero on the fibers."""


@dataclass(frozen=True)
class NormalForm:
    epsilon_power: int
    monomial: Monomial


# The sets of the last 8 patterns: one object per pattern, so the key of
# `hilbert.component_monomials` hashes it once.
@lru_cache(maxsize=8)
def _off_ones_locus(J: JugglingPattern) -> frozenset[Var]:
    """The variables ("D", b, (i,)) whose diagonal (b + i - 1) mod n lies
    outside the ones locus: zero in the quotient."""
    if J.k != 1:
        raise ValueError("admissibility is defined for k = 1 patterns")
    n, L = J.n, J.ones_locus
    return frozenset(("D", b, (i,)) for b in range(n)
                     for i in range(1, n + 1) if (b + i - 1) % n not in L)


def _index_lists(factors: Iterable[Var], n: int) -> list[list[int]]:
    """The sorted index list of each color's factors, from the sorted
    variables `factors` of a monomial."""
    idx: list[list[int]] = [[] for _ in range(n)]
    for _, b, (i,) in factors:
        idx[b].append(i)
    return idx


def _find_violation(idx: list[list[int]]):
    """Lexicographically smallest (b, s, u, r) with i = idx[b][u] > s
    and idx[b+s][r] > i - s, or None."""
    n = len(idx)
    for b in range(n):
        for s in range(1, n):
            other = idx[(b + s) % n]
            for u, i in enumerate(idx[b]):
                if i <= s:
                    continue
                for r, j in enumerate(other):
                    if j > i - s:
                        return (b, s, u, r)
    return None


def is_admissible(mon: Monomial, J: JugglingPattern) -> bool:
    """Both admissibility conditions: every factor's diagonal lands in the
    ones locus, and no descending pair across a shift s."""
    return (_off_ones_locus(J).isdisjoint(mon.factors)
            and _find_violation(_index_lists(mon.factors, J.n)) is None)


def rewrite_to_normal_form(mon: Monomial, J: JugglingPattern):
    """Rewrite descending pairs until none is left; returns
    (NormalForm(e, monomial), trace), e the accumulated epsilon power and
    trace the index-product measure of each state visited, which strictly
    decreases. A normal form violating the ones-locus condition of J
    raises ZeroInQuotient."""
    n = J.n
    idx = _index_lists(mon.factors, n)
    e = 0
    trace = [prod(map(prod, idx))]
    while (hit := _find_violation(idx)) is not None:
        b, s, u, r = hit
        c = (b + s) % n
        i, j = idx[b][u], idx[c][r]
        if j <= n - s:
            idx[b][u] = j + s
        else:
            idx[b][u] = j + s - n
            e += 1
        idx[c][r] = i - s
        idx[b].sort()
        idx[c].sort()
        trace.append(prod(map(prod, idx)))
    nf = Monomial(("D", b, (i,)) for b, row in enumerate(idx) for i in row)
    if not _off_ones_locus(J).isdisjoint(nf.factors):
        raise ZeroInQuotient(
            f"the normal form {nf} has a factor whose diagonal lies "
            f"outside the ones locus {set(J.ones_locus)}")
    return NormalForm(e, nf), trace


def _admissible(J: JugglingPattern, m: tuple[int, ...]
                ) -> tuple[list[hilbert.Key], tuple[Var, ...]]:
    """The J-admissible monomials of multidegree m, lexicographically, as
    (keys, variables): the keys of the component outside the ones locus
    whose factors, decoded through `variables`, pass the descent test."""
    off = _off_ones_locus(J)
    keys = hilbert.component_monomials(1, J.n, tuple(m), off)
    variables, _ = hilbert.surviving_variables(1, J.n, off)
    return [key for key in keys if _find_violation(_index_lists(
        map(variables.__getitem__, key), J.n)) is None], variables


def enumerate_admissible(J: JugglingPattern,
                         m: tuple[int, ...]) -> list[Monomial]:
    """All J-admissible monomials of multidegree m, lexicographically."""
    keys, variables = _admissible(J, m)
    return [Monomial(map(variables.__getitem__, key)) for key in keys]


def count_admissible(J: JugglingPattern, m: tuple[int, ...]) -> int:
    return len(_admissible(J, m)[0])


def expected_count(J: JugglingPattern, m: tuple[int, ...]) -> int:
    """The closed-form count C(|m| + ell - 1, |m|)."""
    M = sum(m)
    return comb(M + J.ell - 1, M)


def evaluate(mon: Monomial, point: FiberPoint) -> Fraction:
    """Product of the vertex-line coordinates (k=1 points only): the factor
    ("D", b, (i,)) reads entry i of the row spanning vertex b's line."""
    out = Fraction(1)
    for _, b, (i,) in mon.factors:
        out *= point.spaces[b].basis[0][i - 1]
    return out


def sample_lambda(J: JugglingPattern, t: int) -> dict[int, Fraction]:
    """The t-th parameter vector: an integer in [1, 2^20] per element of
    the ones locus, in increasing order, drawn by `random.Random(t)`."""
    rng = random.Random(t)
    return {l: Fraction(rng.randint(1, 1 << 20))
            for l in sorted(J.ones_locus)}


def sample_points(J: JugglingPattern, count: int) -> list[FiberPoint]:
    """The first `count` sampled points of the eps=1 fiber."""
    return [k1_point(J, sample_lambda(J, t), 1) for t in range(count)]


def verify_basis(J: JugglingPattern, m: tuple[int, ...],
                 epsilons) -> tuple[bool, dict]:
    """Check the basis property in multidegree m: the admissible count
    equals the binomial count and the graded component dimension at every
    epsilon, and the evaluation matrix on count + 3 sampled points at eps=1
    has full rank. Returns (passed, case), case being the `basis` report
    case: `admissible`, `count`, `binomial`, `dims` (keyed by `str` of each
    epsilon, in the order given) and `evaluation_rank`."""
    mons = enumerate_admissible(J, m)
    count = len(mons)
    binomial = expected_count(J, m)
    dims = {str(Fraction(eps)): hilbert.graded_component_dim(
        ideals.global_positroid_ideal(J, eps), m) for eps in epsilons}

    points = sample_points(J, count + 3)
    matrix = [[evaluate(mon, pt) for mon in mons] for pt in points]
    rank = linalg.rank(matrix) if count else 0

    passed = (all(d == count for d in dims.values())
              and rank == count == binomial)
    case = {
        "admissible": [str(mon) for mon in mons],
        "count": count,
        "binomial": binomial,
        "dims": dims,
        "evaluation_rank": rank,
    }
    return passed, case
