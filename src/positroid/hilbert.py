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
skipped rows add nothing to the span. A lead lt(g_j) divides a cofactor
of g_i only if |m| >= deg g_i + deg g_j, so a component with |m| below
twice the lowest generator degree skips nothing and takes no lead: for
the quadric ideals of the package that is every component of total
degree at most 3.

A monomial of S' is written as its key, the tuple of its factors'
positions among the variables of S', which are ordered by color and then
subset lex as in `poly`: `surviving_variables(k, n, Z)` holds them in
that order and maps each to its position, for the last 8 vanishing sets,
so the variables of one color are a run of positions. A key is sorted,
and the key of a product is `tuple(sorted(a + b))` of the keys a and b
of its factors, so a row entry is a dict lookup on small ints, with no
`Monomial` built. The grlex leads are taken on `Monomial`, with
`poly.grlex_rank`, and converted to keys once per call.

The skipped cofactors of the group of multidegree d are one set,
`blocked`, of keys of multidegree m - d. Before the group's rows it
takes the multiples lt(g_j) * nu of the leads of each earlier group of
multidegree d_j, with nu over the keys of multidegree m - d - d_j,
enumerated once per earlier group. After the rows of each generator of
the group, the multiples of that generator's own lead join it. The row
mu * g is built exactly when mu is not in `blocked`.

A sweep asks for the same component of one pattern at several values of
eps, and its basis and cofactor monomials depend only on (k, n, m) and the
vanishing set, which is the same at every eps. `component_monomials` is
the one memo of a component, a {key: column} map keyed by (k, n, m,
vanishing) and bounded to the last 8 keys: one m and the cofactor
multidegrees of its generator groups. `k1basis` reads the same entries,
as for k = 1 the vanishing set is the set of variables off the ones locus,
and decodes them through the variable tuple of `surviving_variables`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import sub
from typing import AbstractSet

from . import groebner, linalg
from .poly import Monomial, Var, grlex_rank

Key = tuple[int, ...]


# The variables of the last 8 vanishing sets: a sweep builds every
# component of a pattern, at every eps, against one set.
@lru_cache(maxsize=8)
def surviving_variables(k: int, n: int, excluded: frozenset[Var]
                        ) -> tuple[tuple[Var, ...], dict[Var, int]]:
    """(variables, position): the colored Pluecker variables outside
    `excluded`, in the order of `groebner.plucker_universe`, by color and
    then subset lex, so that position p of a key is variables[p], and the
    map of each to its position. Shared, so read-only."""
    kept = tuple(v for v in groebner.plucker_universe(k, n)
                 if v not in excluded)
    return kept, {v: p for p, v in enumerate(kept)}


def _keys(k: int, n: int, m: tuple[int, ...],
          excluded: frozenset[Var]) -> list[Key]:
    """The keys of the monomials outside `excluded` with exactly m_b
    factors of color b, in lexicographic order of their per-color key
    parts, which is that of their per-color k-subset lists.

    The full-ring count, prod_b C(N + m_b - 1, m_b) with N = C(n, k), is
    checked against MAX_COMPONENT_MONOMIALS before any key is built,
    whatever `excluded` leaves out."""
    if len(m) != n:
        raise ValueError(f"multidegree length {len(m)} != n={n}")
    N, cap = comb(n, k), groebner.MAX_COMPONENT_MONOMIALS
    if prod(comb(N + mb - 1, mb) for mb in m) > cap:
        raise groebner.ResourceCapExceeded(
            f"multidegree {m} has more than {cap} monomials")
    # ("D", b) sorts just before the variables of color b, so the
    # positions of color b are range(start[b], start[b + 1]).
    variables, _ = surviving_variables(k, n, excluded)
    start = [bisect_left(variables, ("D", b)) for b in range(n + 1)]
    colors = map(range, start, start[1:])
    return [sum(pick, ()) for pick in product(
        *map(combinations_with_replacement, colors, m))]


def monomials_of_multidegree(k: int, n: int, m: tuple[int, ...],
                             excluded: AbstractSet[Var] = frozenset()
                             ) -> list[Monomial]:
    """All monomials in the colored Pluecker variables outside `excluded`
    with exactly m_b factors of color b, in lexicographic order of their
    per-color k-subset lists: the keys of `_keys`, decoded, so the
    limit is checked before any key is built."""
    excluded = frozenset(excluded)
    keys = _keys(k, n, m, excluded)
    variables, _ = surviving_variables(k, n, excluded)
    return [Monomial(map(variables.__getitem__, key)) for key in keys]


@lru_cache(maxsize=8)
def component_monomials(k: int, n: int, m: tuple[int, ...],
                        excluded: frozenset[Var]) -> dict[Key, int]:
    """The monomials of `monomials_of_multidegree(k, n, m, excluded)`,
    each as its key in `surviving_variables(k, n, excluded)`, mapped to
    its column in that order; shared, so read-only."""
    return {key: i for i, key in enumerate(_keys(k, n, m, excluded))}


def graded_component_dim(ideal: groebner.Ideal, m: tuple[int, ...]) -> int:
    """Dimension of the multidegree-m component of the quotient ring.

    Requires a specialized (epsilon-free) ideal. As S/I = S'/I', the
    dimension is the count of multidegree-m monomials outside
    `ideal.vanishing` minus the exact rank of the span of the products
    mu * g of each generator g of `ideal.by_multidegree` by the monomials
    mu of S' of the complementary multidegree. Each product is one sparse
    row {column: coefficient}, with one entry per term of g, at the column
    of the key of that term times mu. Every generator of an `Ideal` is
    primitive, so each coefficient has denominator 1, and the row holds
    its numerator, an int. The product mu * g_i is left out when the lead
    of an earlier generator g_j, in the order of the groups and within a
    group, divides mu, that is when mu is in the group's `blocked` set:
    the module docstring shows that it adds nothing to the span. Below
    |m| = twice the lowest generator degree no lead divides any mu, and
    none is taken.
    """
    if ideal.has_epsilon:
        raise ValueError("specialize epsilon before computing graded "
                         "component dimensions")
    k, n, zero = ideal.k, ideal.n, ideal.vanishing
    column = component_monomials(k, n, tuple(m), zero)
    _, position = surviving_variables(k, n, zero)
    groups = ideal.by_multidegree
    deep = sum(m) >= 2 * min((sum(d) for d, _ in groups), default=0)
    rows, earlier = [], []
    for d, gens in groups:
        diff = tuple(map(sub, m, d))
        if min(diff) < 0:
            continue
        cofactors = component_monomials(k, n, diff, zero)
        blocked, leads, own = set(), (), ()
        if deep:
            for dj, lj in earlier:
                q = tuple(map(sub, diff, dj))
                if min(q) >= 0:
                    nus = _keys(k, n, q, zero)
                    blocked.update(tuple(sorted(a + nu))
                                   for a in lj for nu in nus)
            leads = [tuple(map(position.__getitem__,
                               min(g.terms, key=grlex_rank).factors))
                     for g in gens]
            earlier.append((d, leads))
            q = tuple(map(sub, diff, d))
            if min(q) >= 0:
                own = _keys(k, n, q, zero)
        for t, g in enumerate(gens):
            terms = [(tuple(map(position.__getitem__, mono.factors)),
                      c.numerator) for mono, c in g.terms.items()]
            rows += ({column[tuple(sorted(a + mu))]: c for a, c in terms}
                     for mu in cofactors if mu not in blocked)
            blocked.update(tuple(sorted(leads[t] + nu)) for nu in own)
    return len(column) - linalg.rank(rows)
