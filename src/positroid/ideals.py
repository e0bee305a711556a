"""Generators of the global positroid ideal.

Three families: classical Pluecker quadrics per color, linear Schubert
vanishing monomials per vertex closed under the shifts of the quiver map,
and the epsilon-twisted shift relations connecting the colors. Each family
is built on its own; `groebner.Ideal` drops the terms in the vanishing
variables from the others.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .groebner import Ideal
from .patterns import JugglingPattern, all_subsets
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


def epsilon_relations(k: int, n: int) -> list[Polynomial]:
    """The shift relations: for colors a, shifts c and subsets I, J,
    Delta^(a)_I Delta^(a+c)_J = (-1)^(d1(k-d1)+d2(k-d2)) eps^(d1-d2)
    Delta^(a)_(J+c) Delta^(a+c)_(I-c), where d1 = d_c(J+c) and d2 = d_c(I),
    with the epsilon power moved to whichever side keeps it nonnegative.

    The sign is that of the fiber model of `fibers` (quiver map
    w_1 -> eps*w_n): the shift by c moves the d wrapped elements of a
    k-subset past the other k - d in sorted order, a permutation of sign
    (-1)^(d(k-d)). It is 1 for odd k.
    """
    subsets = all_subsets(k, n)
    gens = []
    for a, c in product(range(n), range(n)):
        for I, J in product(subsets, subsets):
            Jp = J.unshift(c)
            Im = I.shift(c)
            d1, d2 = Jp.d_shift(c), I.d_shift(c)
            d = d1 - d2
            lhs = (Polynomial.plucker(a, I.elements) *
                   Polynomial.plucker((a + c) % n, J.elements))
            rhs = (Polynomial.plucker(a, Jp.elements) *
                   Polynomial.plucker((a + c) % n, Im.elements))
            if (d1 * (k - d1) + d2 * (k - d2)) % 2:
                rhs = -rhs
            if d >= 0:
                g = lhs - rhs * Polynomial.epsilon(d) if d else lhs - rhs
            else:
                g = lhs * Polynomial.epsilon(-d) - rhs
            gens.append(g)
    return dedup(gens)


@lru_cache(maxsize=None)
def _pattern_free_generators(k: int, n: int):
    """The quadrics of every color and the shift relations, which depend on
    (k, n) only: built once and shared by the ideals of all patterns."""
    quadrics = tuple(g for a in range(n)
                     for g in classical_plucker_generators(k, n, a))
    return quadrics, tuple(epsilon_relations(k, n))


def global_positroid_ideal(J: JugglingPattern) -> Ideal:
    """The ideal generated by the classical quadrics of every color, the
    shift-closed Schubert vanishing monomials of J, and the shift relations.

    The vanishing monomials with a shift c >= 1 lie in the saturation of
    the ideal generated by the unshifted ones and the relations, with
    respect to epsilon and the product of the color irrelevant ideals;
    without them that ideal carries torsion at multidegrees with a zero
    entry, so its graded dimensions there describe no property of the
    fibers. `Ideal` drops their variables from the quadrics and relations.
    """
    quadrics, relations = _pattern_free_generators(J.k, J.n)
    return Ideal(J.k, J.n, quadrics + tuple(schubert_vanishing_generators(J))
                 + relations)
