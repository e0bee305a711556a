"""Generators of the global positroid ideal.

Four families: classical Pluecker quadrics per color, linear Schubert
vanishing monomials per vertex closed under the shifts of the quiver map,
and the shift relations and transported quadrics across two colors, both
from one rule (`transport`). Each family is built on its own;
`groebner.Ideal` drops the terms in the vanishing variables from the others.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .groebner import Ideal
from .patterns import JugglingPattern, KSubset, all_subsets
from .poly import Polynomial, dedup


def classical_plucker_generators(k: int, n: int, a: int) -> list[Polynomial]:
    """The Pluecker quadrics of color a: for subsets I, J and r in [k],
    Delta_I Delta_J minus the sum over swaps of j_r with each element of I."""
    subsets = list(combinations(range(1, n + 1), k))
    gens = []
    for I in subsets:
        for J in subsets:
            for r in range(k):
                g = Polynomial.plucker(a, I) * Polynomial.plucker(a, J)
                for u in range(k):
                    Iswap = I[:u] + (J[r],) + I[u + 1:]
                    Jswap = J[:r] + (I[u],) + J[r + 1:]
                    g = g - (Polynomial.plucker(a, Iswap) *
                             Polynomial.plucker(a, Jswap))
                gens.append(g)
    return dedup(gens)


def schubert_vanishing_generators(J: JugglingPattern) -> list[Polynomial]:
    """Linear monomials Delta^(a)_I for every color a and every I with
    J_(a+c) not <= I - c for some shift c in [0, n).

    Shift c = 0 is the Schubert condition of J_a on I. For c >= 1, the
    shift relation of (a, c, I, I') is Delta^(a)_I Delta^(a+c)_I' =
    eps^d Delta^(a)_(I'+c) Delta^(a+c)_(I-c), with the epsilon power on
    either side. When Delta^(a+c)_(I-c) is a Schubert vanishing monomial,
    it puts a power of epsilon times Delta^(a)_I Delta^(a+c)_I' in the
    ideal for every I', so Delta^(a)_I lies in the saturation with respect
    to epsilon and the color-(a+c) variables: it vanishes on every fiber.
    Shifts compose modulo n, so this one step closes the vanishing under
    the relations. For k = 1 the shift c = i - 1 gives exactly the
    ones-locus condition of `k1basis.is_admissible`.
    """
    n = J.n
    return [Polynomial.plucker(a, I.elements)
            for a in range(n) for I in all_subsets(J.k, n)
            if any(not J.entries[(a + c) % n].leq(I.shift(c))
                   for c in range(n))]


def transport(a: int, I: KSubset, c: int) -> tuple[int, Polynomial]:
    """The pair (d, t) with Delta^(a)_I = eps^(-d) t on every fiber with
    eps != 0: d = d_c(I), t = (-1)^(d(k-d)) Delta^(a+c)_(I-c). There U_(a+c)
    is M(eps)^c U_a, M(eps): w_1 -> eps*w_n (`fibers`). The -c shift wraps
    the d elements i <= c of I round to i - c + n, each with a factor eps,
    and sorting moves them past the other k - d: a sign (-1)^(d(k-d))."""
    d = I.d_shift(c)
    t = Polynomial.plucker((a + c) % I.n, I.shift(c).elements)
    return d, -t if d * (I.k - d) % 2 else t


def _clear_epsilon(terms: list[tuple[int, Polynomial]]) -> Polynomial:
    """Sum of eps^(top-d) p over the pairs (d, p), top the largest d."""
    top = max(d for d, _ in terms)
    return sum((Polynomial.epsilon(top - d) * p for d, p in terms),
               Polynomial.zero())


def epsilon_relations(k: int, n: int) -> list[Polynomial]:
    """The shift relations: for colors a, shifts c and subsets I, J, the
    transports by c of either factor of Delta^(a)_I Delta^(a)_(J+c) agree
    (`transport`); the negative powers of eps are cleared."""
    subsets = all_subsets(k, n)
    gens = []
    for a, c in product(range(n), range(n)):
        for I, J in product(subsets, subsets):
            Jp = J.unshift(c)
            DI, DJp = (Polynomial.plucker(a, X.elements) for X in (I, Jp))
            (d1, t1), (d2, t2) = transport(a, Jp, c), transport(a, I, c)
            gens.append(_clear_epsilon([(d1, DI * t1), (d2, -t2 * DJp)]))
    return dedup(gens)


def transported_plucker_generators(k: int, n: int) -> list[Polynomial]:
    """The color-a quadrics read across the colors a and a + c, for every
    shift c in [1, n): in each term of a color-a quadric the second factor
    (in variable order; the same variable for a square) is transported by
    c (`transport`), and the powers of eps are cleared.

    On a fiber with eps != 0, U_(a+c) = M(eps)^c U_a, so the Pluecker
    relations of U_a hold with that factor read off U_(a+c). The other
    families do not imply them: without them the fiber of 12|12|12|12 at
    eps = 1 has dimension 21 at each two-color multidegree (1, 1), where
    Gr(2,4) has 20.
    """
    gens = []
    for a in range(n):
        quadrics = classical_plucker_generators(k, n, a)
        for c, q in product(range(1, n), quadrics):
            terms = []
            for m, coef in q.terms.items():
                first, second = m.factors
                d, t = transport(a, KSubset(n, second[2]), c)
                terms.append((d, Polynomial.variable(first).scale(coef) * t))
            gens.append(_clear_epsilon(terms))
    return dedup(gens)


@lru_cache(maxsize=None)
def _pattern_free_generators(k: int, n: int):
    """The quadrics of every color and the two-color families, which depend
    on (k, n) only: built once and shared by the ideals of all patterns."""
    quadrics = tuple(g for a in range(n)
                     for g in classical_plucker_generators(k, n, a))
    return quadrics, tuple(epsilon_relations(k, n)
                           + transported_plucker_generators(k, n))


def global_positroid_ideal(J: JugglingPattern) -> Ideal:
    """The ideal generated by the classical quadrics of every color, the
    shift-closed Schubert vanishing monomials of J, and the two-color ones.

    The vanishing monomials with a shift c >= 1 lie in the saturation of
    the ideal generated by the unshifted ones and the relations, with
    respect to epsilon and the product of the color irrelevant ideals;
    without them that ideal carries torsion at multidegrees with a zero
    entry, so its graded dimensions there describe no property of the
    fibers. `Ideal` drops their variables from the other families.
    """
    quadrics, relations = _pattern_free_generators(J.k, J.n)
    return Ideal(J.k, J.n, quadrics + tuple(schubert_vanishing_generators(J))
                 + relations)
