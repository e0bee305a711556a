"""Multigraded component dimensions of quotient rings via exact rank."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import comb, prod

from . import groebner, linalg
from .poly import Monomial


def monomials_of_multidegree(k: int, n: int,
                             m: tuple[int, ...]) -> list[Monomial]:
    """All monomials in the colored Pluecker variables with exactly m_b
    factors of color b, in lexicographic order of their per-color k-subset
    lists.

    Their number, prod_b C(N + m_b - 1, m_b) with N = C(n, k), is checked
    against MAX_COMPONENT_MONOMIALS before any monomial is built."""
    if len(m) != n:
        raise ValueError(f"multidegree length {len(m)} != n={n}")
    N, cap = comb(n, k), groebner.MAX_COMPONENT_MONOMIALS
    if prod(comb(N + mb - 1, mb) for mb in m) > cap:
        raise groebner.ResourceCapExceeded(
            f"multidegree {m} has more than {cap} monomials")
    subsets = list(combinations(range(1, n + 1), k))
    per_color = [[tuple((("D", b, I), combo.count(I))
                        for I in dict.fromkeys(combo))
                  for combo in combinations_with_replacement(subsets, mb)]
                 for b, mb in enumerate(m)]
    return [Monomial(sum(pick, ())) for pick in product(*per_color)]


def graded_component_dim(ideal: groebner.Ideal, m: tuple[int, ...]) -> int:
    """Dimension of the multidegree-m component of the quotient ring.

    Requires a specialized (epsilon-free) ideal: the count of multidegree-m
    monomials minus the exact rank of the span of all generator*monomial
    products of multidegree m.
    """
    if ideal.has_epsilon:
        raise ValueError("specialize epsilon before computing graded "
                         "component dimensions")
    basis = monomials_of_multidegree(ideal.k, ideal.n, m)
    index = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for g in ideal.generators:
        d = g.multidegree(ideal.n)
        if d is None:
            raise ValueError(f"generator is not multihomogeneous: {g!r}")
        diff = tuple(mb - db for mb, db in zip(m, d))
        if any(x < 0 for x in diff):
            continue
        for mu in monomials_of_multidegree(ideal.k, ideal.n, diff):
            row = [0] * len(basis)
            for mono, c in g.terms.items():
                row[index[mono * mu]] = c
            rows.append(row)
    return len(basis) - linalg.rank(rows)
