"""Generators of the global positroid ideal.

On a fiber with eps != 0, U_(a+c) = M(eps)^c U_a, so a color-a identity
between products of two Pluecker coordinates also holds with one factor of
each term read off color a + c (`transport`). One rule reads two such
identities for every color a and shift c (`pattern_free_generators`): the
Pluecker quadrics of color a, whose c = 0 readings are the classical
quadrics, and the commutators Delta_I Delta_J - Delta_J Delta_I, whose
readings are the eps-twisted shift relations. The linear Schubert vanishing
monomials, closed under the shifts of the quiver map, are the only
generators that depend on the pattern; `groebner.Ideal` drops the terms in
their variables from the others.

A flatness check asks for the ideal of every pattern of one (k, n) at the
same few values of eps. `global_positroid_ideal(J, eps)` builds the
specialized ideal directly. The pattern-free generators are specialized
and deduplicated once per (k, n, eps) into a `groebner.GeneratorTable`:
each generator with the bitmask of its variables, one bitmask per term
and its multidegree, on one bit per variable of the universe. J's
Schubert vanishing monomials, which do not depend on eps, are built once
per pattern by `schubert_vanishing_generators`, which is its own memo,
and go in front of the table. The normal form of `groebner.Ideal` then
decides each family generator by masks: one that no vanishing variable
touches is kept as it is, one whose every term holds a vanishing variable
is dropped without being built, and only one that keeps some of its terms
is rebuilt. The table and the vanishing monomials are shared through
caches bounded to their last 8 keys, (k, n, eps) and the pattern J, and
nothing under the latter is cached. The pattern-free family itself is
built once per (k, n), in the one unbounded cache of the package, and
only when its count of readings is within `groebner.MAX_GENERATOR_READINGS`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

from . import groebner
from .groebner import GeneratorTable, Ideal
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


# The Schubert vanishing monomials of the last 8 patterns: a flatness sweep
# builds one pattern's ideal at a few values of eps in a row.
@lru_cache(maxsize=8)
def schubert_vanishing_generators(J: JugglingPattern
                                  ) -> tuple[Polynomial, ...]:
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
    entries = [E.elements for E in J.entries]
    shifted = [(I.elements, [I.shift(c).elements for c in range(n)])
               for I in all_subsets(J.k, n)]
    # Some c with J_(a+c) not <= I - c, componentwise.
    return tuple(Polynomial.plucker(a, I)
                 for a in range(n) for I, shifts in shifted
                 if any(any(j > i for j, i in zip(entries[(a + c) % n], Ic))
                        for c, Ic in enumerate(shifts)))


def transport(a: int, I: KSubset, c: int) -> tuple[int, Polynomial]:
    """The pair (d, t) with Delta^(a)_I = eps^(-d) t on every fiber with
    eps != 0: d = d_c(I), t = (-1)^(d(k-d)) Delta^(a+c)_(I-c). There U_(a+c)
    is M(eps)^c U_a, M(eps): w_1 -> eps*w_n (`fibers`). The -c shift wraps
    the d elements i <= c of I round to i - c + n, each with a factor eps,
    and sorting moves them past the other k - d: a sign (-1)^(d(k-d))."""
    d = I.d_shift(c)
    t = Polynomial.plucker((a + c) % I.n, I.shift(c).elements)
    return d, -t if d * (I.k - d) % 2 else t


def _read_across(a: int, c: int, terms: list[tuple]) -> Polynomial:
    """The color-a identity sum coef Delta_X Delta_Y = 0 over the triples
    (coef, X, Y), read with each Y off color a + c: the sum of coef
    Delta^(a)_X t with (d, t) = transport(a, Y, c), times the power of eps
    that clears the negative ones."""
    read = [(d, Polynomial.plucker(a, X.elements).scale(coef) * t)
            for coef, X, Y in terms for d, t in [transport(a, Y, c)]]
    top = max(d for d, _ in read)
    return sum((Polynomial.epsilon(top - d) * p for d, p in read),
               Polynomial())


@lru_cache(maxsize=None)
def pattern_free_generators(k: int, n: int) -> tuple[Polynomial, ...]:
    """Every generator that does not depend on the pattern, built once per
    (k, n): for each color a and shift c, two kinds of color-a identity
    read across the colors a and a + c (`_read_across`).

    - Each Pluecker quadric of color a. Each term moves its factor of
      smaller d_c, the second in variable order on a tie (every term at
      c = 0 and every square), so c = 0 gives the quadric itself. Moving
      the second factor always leaves the top eps power of some readings
      too high: the fiber of 123|123|123|123|123|123 at eps = 0 is then one
      dimension larger than at eps = 1 at m = e_0 + e_3. The other
      generators do not imply the readings at c >= 1: without them the
      fiber of 12|12|12|12 at eps = 1 has dimension 21 at each two-color
      multidegree (1, 1), where Gr(2,4) has 20.
    - Each commutator Delta_I Delta_(J+c) - Delta_(J+c) Delta_I, with no
      such choice, since both terms are one monomial: the shift relations.

    That is n^2 (k + 1) C(n, k)^2 readings, counting the k C(n, k)^2
    quadrics of a color before their dedup; over MAX_GENERATOR_READINGS,
    ResourceCapExceeded is raised before any is built.
    """
    readings = n * n * (k + 1) * comb(n, k) ** 2
    cap = groebner.MAX_GENERATOR_READINGS
    if readings > cap:
        raise groebner.ResourceCapExceeded(
            f"({k},{n}) has {readings} generator readings, over cap {cap}")
    subsets = all_subsets(k, n)
    # The (coef, X, Y) terms of each quadric, the same for every color.
    quadrics = [[(coef, *(KSubset(n, v[2]) for v in m.factors))
                 for m, coef in q.terms.items()]
                for q in classical_plucker_generators(k, n, 0)]
    gens = []
    for a in range(n):
        for c in range(n):
            gens.extend(_read_across(a, c, [
                (coef, Y, X) if X.d_shift(c) < Y.d_shift(c) else (coef, X, Y)
                for coef, X, Y in q]) for q in quadrics)
            gens.extend(_read_across(a, c, [(1, I, Jp), (-1, Jp, I)])
                        for I, J in product(subsets, subsets)
                        for Jp in [J.shift(-c)])
    return tuple(dedup(gens))


# The specialized families of the last 8 (k, n, eps) triples: a flatness
# sweep reads one (k, n) at a few values of eps.
@lru_cache(maxsize=8)
def _specialized_pattern_free_generators(k: int, n: int, epsilon: Fraction
                                         ) -> GeneratorTable:
    # On the bits of the whole universe, which hold every vanishing variable.
    universe = groebner.plucker_universe(k, n, with_epsilon=True)
    return GeneratorTable((g.substitute_epsilon(epsilon)
                           for g in pattern_free_generators(k, n)), n,
                          {v: 1 << i for i, v in enumerate(universe)})


def global_positroid_ideal(J: JugglingPattern, epsilon=None) -> Ideal:
    """The ideal generated by the shift-closed Schubert vanishing monomials
    of J and the pattern-free generators; with a rational `epsilon`, the
    ideal specialized at it, equal to `global_positroid_ideal(J)
    .specialize(epsilon)` with the generators in the same order.

    The specialized ideal is built from the table of its family, held once
    per (k, n, eps), with the rows of J's vanishing monomials in front: the
    normal form of `Ideal` keeps, drops or rebuilds each family generator
    by its masks. Without `epsilon`, `Ideal` builds the table itself.

    The vanishing monomials with a shift c >= 1 lie in the saturation of
    the ideal generated by those of shift 0 and the shift relations, with
    respect to epsilon and the product of the color irrelevant ideals;
    without them that ideal carries torsion at multidegrees with a zero
    entry, so its graded dimensions there describe no property of the
    fibers. `Ideal` drops their variables from the other generators.
    """
    schubert = schubert_vanishing_generators(J)
    if epsilon is None:
        return Ideal(J.k, J.n, schubert + pattern_free_generators(J.k, J.n))
    family = _specialized_pattern_free_generators(J.k, J.n, Fraction(epsilon))
    return Ideal(J.k, J.n, GeneratorTable(schubert, J.n, family.bits,
                                          family.rows), has_epsilon=False)
