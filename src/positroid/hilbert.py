"""Multigraded component dimensions of quotient rings via exact rank.

A specialized ideal I of the colored Pluecker ring S is in the normal form
of `groebner.Ideal`: its generators are the variables of `I.vanishing`
(the set Z) and others I' with no term in Z. So S/I = S/(Z + I') is
isomorphic to S'/I', where S' is the ring in the variables outside Z, and
the graded components are computed over S', each from the exact rank of a
sparse matrix with one {column: coefficient} row per product of a
generator and a monomial.

A sweep asks for the same component of one pattern at several values of
eps, and its basis and cofactor monomials depend only on (k, n, m) and the
vanishing set, which is the same at every eps. `component_monomials` is
the one memo of a component, a {monomial: column} map keyed by (k, n, m,
vanishing) and bounded to the last 8 keys: one m and the cofactor
multidegrees of its generator groups. `k1basis` reads the same entries,
as for k = 1 the vanishing set is the set of variables off the ones locus.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod
from typing import Container

from . import groebner, linalg
from .poly import Monomial, Var


def monomials_of_multidegree(k: int, n: int, m: tuple[int, ...],
                             excluded: Container[Var] = frozenset()
                             ) -> list[Monomial]:
    """All monomials in the colored Pluecker variables outside `excluded`
    with exactly m_b factors of color b, in lexicographic order of their
    per-color k-subset lists.

    The full-ring count, prod_b C(N + m_b - 1, m_b) with N = C(n, k), is
    checked against MAX_COMPONENT_MONOMIALS before any monomial is built,
    whatever `excluded` leaves out."""
    if len(m) != n:
        raise ValueError(f"multidegree length {len(m)} != n={n}")
    N, cap = comb(n, k), groebner.MAX_COMPONENT_MONOMIALS
    if prod(comb(N + mb - 1, mb) for mb in m) > cap:
        raise groebner.ResourceCapExceeded(
            f"multidegree {m} has more than {cap} monomials")
    subsets = list(combinations(range(1, n + 1), k))
    per_color = [list(combinations_with_replacement(
                     [("D", b, I) for I in subsets
                      if ("D", b, I) not in excluded], mb))
                 for b, mb in enumerate(m)]
    return [Monomial(sum(pick, ())) for pick in product(*per_color)]


@lru_cache(maxsize=8)
def component_monomials(k: int, n: int, m: tuple[int, ...],
                        excluded: frozenset[Var]) -> dict[Monomial, int]:
    """`monomials_of_multidegree(k, n, m, excluded)`, each monomial mapped
    to its column in that order; shared, so read-only."""
    return {mono: i for i, mono in
            enumerate(monomials_of_multidegree(k, n, m, excluded))}


def graded_component_dim(ideal: groebner.Ideal, m: tuple[int, ...]) -> int:
    """Dimension of the multidegree-m component of the quotient ring.

    Requires a specialized (epsilon-free) ideal. As S/I = S'/I', the
    dimension is the count of multidegree-m monomials outside
    `ideal.vanishing` minus the exact rank of the span of the products of
    each group of `ideal.by_multidegree` by the monomials of S' of the
    complementary multidegree. Each product is one sparse row
    {column: coefficient}, with one entry per term of the generator.
    """
    if ideal.has_epsilon:
        raise ValueError("specialize epsilon before computing graded "
                         "component dimensions")
    k, n, zero = ideal.k, ideal.n, ideal.vanishing
    column = component_monomials(k, n, tuple(m), zero)
    rows = []
    for d, gens in ideal.by_multidegree:
        diff = tuple(mb - db for mb, db in zip(m, d))
        if any(x < 0 for x in diff):
            continue
        cofactors = component_monomials(k, n, diff, zero)
        rows += ({column[mono * mu]: c for mono, c in g.terms.items()}
                 for g, mu in product(gens, cofactors))
    return len(column) - linalg.rank(rows)
