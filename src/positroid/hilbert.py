"""Multigraded component dimensions of quotient rings via exact rank.

A specialized ideal I of the colored Pluecker ring S is in the normal form
of `groebner.Ideal`: its generators are the variables of `I.vanishing`
(the set Z) and others I' with no term in Z. So S/I = S/(Z + I') is
isomorphic to S'/I', where S' is the ring in the variables outside Z, and
the graded components are computed over S', each from the exact rank of a
sparse matrix with one {column: coefficient} row per product mu * g of a
generator g and a cofactor monomial mu of S'.

Most of those rows are redundant, and the trivial (Koszul) syzygies
g_i * g_j = g_j * g_i find many of them from the grlex leads alone
(Faugere's F5 criterion, 2002). Order the generators as the groups of
`Ideal.by_multidegree` and the generators within each group. The row
mu * g_i is skipped when the lead lt(g_j) of an earlier generator g_j
(j < i) divides mu. The rank stays exact. Write mu = nu * lt(g_j) and
g_j = c lt(g_j) + sum_s c_s s. Then

    c mu * g_i = sum_t c_t (nu t) * g_j - sum_s c_s (nu s) * g_i,

with t over the terms of g_i and s over the non-lead terms of g_j. Each
row on the right is a row of the same matrix: it has multidegree m and no
variable in Z. It is a row of an earlier generator, or a row of g_i whose
cofactor nu s is grlex-smaller than mu. By induction on i, then on mu, the
skipped rows add nothing to the span. A lead cannot divide a cofactor of
smaller degree, so a group whose cofactor degree is below the lowest
generator degree skips nothing and computes no lead: for the quadric
ideals of the package that is every component of total degree at most 3.

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
from operator import le, sub
from typing import Container

from . import groebner, linalg
from .poly import MONOMIAL_ONE, Monomial, Var, grlex_rank


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


def _first_divisors(ideal: groebner.Ideal, diff: tuple[int, ...],
                    last: tuple, leads: dict) -> dict[Monomial, int]:
    """The cofactors of multidegree `diff` that the lead of a generator of
    `ideal.by_multidegree` up to the group `last` divides, each mapped to
    the first such generator: -1 for one of an earlier group, its index in
    `last` for one of `last`.

    Only a group with multidegree d <= diff has such leads; they are
    computed once per `graded_component_dim` call, into `leads` under the
    group's index, and divide exactly the products lead * nu with nu of
    multidegree diff - d. When that is zero, the lead itself is the only
    one."""
    first = {}
    for j, (d, gens) in enumerate(ideal.by_multidegree):
        if all(map(le, d, diff)):
            if j not in leads:
                leads[j] = [min(g.terms, key=grlex_rank) for g in gens]
            q = tuple(map(sub, diff, d))
            multiples = (monomials_of_multidegree(ideal.k, ideal.n, q,
                                                  ideal.vanishing)
                         if any(q) else [MONOMIAL_ONE])
            for t, lead in enumerate(leads[j]):
                for nu in multiples:
                    first.setdefault(lead * nu, t if gens is last else -1)
        if gens is last:
            return first


def graded_component_dim(ideal: groebner.Ideal, m: tuple[int, ...]) -> int:
    """Dimension of the multidegree-m component of the quotient ring.

    Requires a specialized (epsilon-free) ideal. As S/I = S'/I', the
    dimension is the count of multidegree-m monomials outside
    `ideal.vanishing` minus the exact rank of the span of the products
    mu * g of each generator g of `ideal.by_multidegree` by the monomials
    mu of S' of the complementary multidegree. Each product is one sparse
    row {column: coefficient}, with one entry per term of g. The product
    mu * g_i is left out when the lead of an earlier generator g_j, in the
    order of the groups and within a group, divides mu
    (`_first_divisors`): the module docstring shows that it adds nothing
    to the span. A group whose cofactor degree is below the lowest
    generator degree has no such mu and computes no lead.
    """
    if ideal.has_epsilon:
        raise ValueError("specialize epsilon before computing graded "
                         "component dimensions")
    k, n, zero = ideal.k, ideal.n, ideal.vanishing
    column = component_monomials(k, n, tuple(m), zero)
    groups = ideal.by_multidegree
    rows, leads, low = [], {}, None
    for d, gens in groups:
        diff = tuple(mb - db for mb, db in zip(m, d))
        if any(x < 0 for x in diff):
            continue
        cofactors = component_monomials(k, n, diff, zero)
        first = {}
        if any(diff):
            if low is None:
                low = min(sum(dj) for dj, _ in groups)
            if sum(diff) >= low:
                first = _first_divisors(ideal, diff, gens, leads)
        rows += ({column[mono * mu]: c for mono, c in g.terms.items()}
                 for t, g in enumerate(gens) for mu in cofactors
                 if first.get(mu, t) >= t)
    return len(column) - linalg.rank(rows)
