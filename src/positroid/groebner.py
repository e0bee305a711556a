"""Buchberger's algorithm over exact rationals, computed fraction-free on
primitive integer polynomials; normal forms, Krull dimension of leading
ideals, and the Ideal container.

Buchberger computes on the terms of `poly.Polynomial` directly, as a
{Monomial: int} dict, and the lead of f is `min(f, key=grlex_rank)`. Every
element of a `GroebnerBasis` is primitive: integer coefficients of content
1 and a positive leading coefficient. A generator enters as the integer
numerators of its primitive form (`poly.primitive_terms`). The monomial
order (`poly.grlex_rank`), the primitive normalization of a generator and
the dedup of generators belong to `poly`. Fractions appear only at the
boundary: `normal_form` returns the exact rational normal form and
`polynomials` the monic basis.

`buchberger` uses the normal selection strategy in degree: the pending
S-pairs sit in a heap keyed by the degree of their lcm, and a pair of the
lowest lcm degree is reduced first. A pair is dropped unreduced by
Buchberger's product criterion (coprime leading monomials) or chain
criterion (a third leading monomial divides the lcm and both of its pairs
are done).

A `GroebnerBasis` owns the growing basis: its elements, their leading
monomials and the bitmask of each lead's support, one bit per variable of
the universe, kept in step. Every element enters through `_add`, the one
check of the basis caps. Every test of the leads against a monomial (the
chain criterion, the reducer search of the division `_reduce` and the
interreduction) is the one scan `_divisors`, which compares masks before
factors (Bachmann and Schoenemann, "Monomial representations for Groebner
bases computations", ISSAC 1998). The interreduction is one pass from the
smallest lead up into a new basis: an element whose lead a kept lead
divides is dropped, and every other is reduced by the ones kept before it.

One elimination step, f -= b x^q g with an integer b (`_eliminate`), is
the step of the division `_reduce` and also builds the S-polynomial of g_i
and g_j: (c_j / d) (l / l_i) g_i - (c_i / d) (l / l_j) g_j, where l is the
lcm of their leading monomials l_i, l_j, c_i, c_j their coefficients and
d = gcd(c_i, c_j). The division is fraction-free: f <- a f - b x^q g, with
a and b the lead coefficients of g and f divided by their gcd, scales the
remainder set aside by a too, and so differs from the rational division
only by a positive factor (as `linalg._reduce` does for rows).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Iterable

from .poly import EPSILON, Monomial, Polynomial, Var, dedup, grlex_rank


class ResourceCapExceeded(RuntimeError):
    """A resource limit was hit; results are never silently truncated."""


# The resource limits of every computation, one fixed policy: the largest
# working polynomial of a division or basis element, the largest Groebner
# basis, the largest total degree of a term of a basis element, the largest
# graded component `hilbert` builds a matrix for, the most
# (pattern, multidegree) cases one `flatness` run may hold, and the most
# readings `ideals.pattern_free_generators` may build for one (k, n).
MAX_TERMS = 200000
MAX_BASIS_SIZE = 20000
MAX_TOTAL_DEGREE = 80
MAX_COMPONENT_MONOMIALS = 200000
MAX_FLATNESS_CASES = 100000
MAX_GENERATOR_READINGS = 500000


def _check_universe(p: Polynomial, bits: dict[Var, int]) -> None:
    missing = [v for v in p.variables() if v not in bits]
    if missing:
        raise ValueError(f"variables outside the universe: {missing}")


def _divides(a: Monomial, b: Monomial) -> bool:
    # One pass over b's sorted factors finds a's in order, repeats too.
    rest = iter(b.factors)
    return all(v in rest for v in a.factors)


def _quotient(b: Monomial, a: Monomial) -> Monomial:
    # b with a's factors removed: b / a when a divides b, and otherwise the
    # part of b that a lacks, so that a * _quotient(b, a) is lcm(a, b).
    rest = list(b.factors)
    for v in a.factors:
        if v in rest:
            rest.remove(v)
    return Monomial(rest)


def _mask(m: Monomial, bits: dict[Var, int]) -> int:
    # The support of m as a bitmask, one bit per universe variable: a
    # divides b only if _mask(a) & ~_mask(b) == 0, one integer operation
    # that rejects most non-divisors before `_divides` reads the factors.
    out = 0
    for v in m.factors:
        out |= bits[v]
    return out


def _eliminate(f: dict, g: dict, q: Monomial, factor: int) -> None:
    # f -= factor * q * g, in place, with integer coefficients and factor,
    # dropping the terms that cancel: the one step of the fraction-free
    # division and of the S-polynomial.
    for m, c in g.items():
        t = m * q
        s = f.get(t, 0) - factor * c
        if s:
            f[t] = s
        else:
            f.pop(t, None)


def _primitive(f: dict, lead: Monomial) -> dict:
    # f divided by its content, signed so that the coefficient of `lead`
    # is positive: the form of every basis element.
    c = gcd(*f.values())
    if f[lead] < 0:
        c = -c
    return f if c == 1 else {m: v // c for m, v in f.items()}


class GroebnerBasis:
    """A growing, and once `buchberger` returns it reduced, Groebner basis
    over a fixed ordered variable universe. It owns its elements, their
    leading monomials and the support masks of those, kept in step: every
    element enters through `_add`, every lead-divides-monomial test is
    `_divisors` and every division is `_reduce`."""

    def __init__(self, variables: tuple[Var, ...]):
        self.variables = variables
        self._bits = {v: 1 << i for i, v in enumerate(variables)}
        self._basis: list[dict] = []
        self._leads: list[Monomial] = []
        self._masks: list[int] = []

    @property
    def polynomials(self) -> list[Polynomial]:
        """The elements made monic, with Fraction coefficients."""
        return [Polynomial({m: Fraction(c, g[lg]) for m, c in g.items()})
                for g, lg in zip(self._basis, self._leads)]

    def leading_monomials(self) -> list[Monomial]:
        return list(self._leads)

    def _add(self, g: dict, lead: Monomial) -> None:
        # The one check of the basis caps: the terms of g, the total degree
        # of every term of g, epsilon included, and the basis size.
        for what, value, cap in (
                ("term count", len(g), MAX_TERMS),
                ("degree", max(m.degree for m in g), MAX_TOTAL_DEGREE),
                ("basis size", len(self._basis) + 1, MAX_BASIS_SIZE)):
            if value > cap:
                raise ResourceCapExceeded(
                    f"{what} {value} of a basis element exceeds cap {cap}")
        self._basis.append(g)
        self._leads.append(lead)
        self._masks.append(_mask(lead, self._bits))

    def _divisors(self, m: Monomial):
        """The indices, in order, of the elements whose lead divides m."""
        leads, outside = self._leads, ~_mask(m, self._bits)
        for t, mg in enumerate(self._masks):
            if not mg & outside and _divides(leads[t], m):
                yield t

    def _reduce(self, f: dict) -> tuple[dict, int, int]:
        """The remainder of the integer polynomial f under the division
        algorithm, fraction-free: no term of the result is divisible by a
        lead. The first element g whose lead divides the current leading
        term is used, in the step f <- a f - b x^q g, where a and b are the
        leading coefficients of g and f divided by their gcd. A step with
        a != 1 scales the remainder set aside by a too, and then divides f
        and the remainder by their common content.

        Returns (r, u, v) with u, v > 0: r is u / v times the remainder of
        the division over the rationals. Raises ResourceCapExceeded when
        the working polynomial exceeds MAX_TERMS terms."""
        basis, leads, divisors = self._basis, self._leads, self._divisors
        f = dict(f)
        remainder: dict = {}
        u = v = 1
        while f:
            lead = min(f, key=grlex_rank)
            t = next(divisors(lead), None)
            if t is None:
                remainder[lead] = f.pop(lead)
                continue
            g, lg = basis[t], leads[t]
            d = gcd(f[lead], g[lg])
            a, b = g[lg] // d, f[lead] // d
            if a != 1:
                for h in (f, remainder):
                    for m in h:
                        h[m] *= a
                u *= a
            _eliminate(f, g, _quotient(lead, lg), b)
            if len(f) > MAX_TERMS:
                raise ResourceCapExceeded(
                    f"term count {len(f)} exceeds cap {MAX_TERMS}")
            if a != 1 and (c := gcd(*f.values(), *remainder.values())) > 1:
                for h in (f, remainder):
                    for m in h:
                        h[m] //= c
                v *= c
        return remainder, u, v

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The normal form of p: p with its denominators cleared, reduced
        fraction-free and divided by the scale of that reduction."""
        _check_universe(p, self._bits)
        den = lcm(*(c.denominator for c in p.terms.values()))
        r, u, v = self._reduce({m: c.numerator * (den // c.denominator)
                                for m, c in p.terms.items()})
        return Polynomial({m: Fraction(c * v, u * den) for m, c in r.items()})

    def krull_dimension(self) -> int:
        """Dimension of the quotient: maximum number of variables whose
        span meets no leading monomial's support; -1 for the unit ideal,
        whose quotient is the zero ring (V(1) is empty)."""
        supports = {frozenset(m.factors) for m in self._leads}
        if frozenset() in supports:
            return -1
        # keep only minimal supports
        minimal = [s for s in supports
                   if not any(t < s for t in supports)]
        best = [len(minimal)]

        def min_hitting(sups, count):
            # A hitting set meets the smallest support s in some v. After
            # the branch that takes v, the later branches leave v out, so
            # v leaves every support; one that empties cannot be hit.
            if count >= best[0]:
                return
            if not sups:
                best[0] = count
                return
            for v in sorted(min(sups, key=len)):
                min_hitting([t for t in sups if v not in t], count + 1)
                sups = [t - {v} for t in sups]
                if not all(sups):
                    return

        min_hitting(minimal, 0)
        return len(self.variables) - best[0]


def buchberger(generators: list[Polynomial],
               variables: tuple[Var, ...]) -> GroebnerBasis:
    """Compute the reduced grlex Groebner basis of the ideal generated by
    `generators` in the given ordered variable universe."""
    gb = GroebnerBasis(variables)
    for p in dedup(generators):
        _check_universe(p, gb._bits)
        # p is primitive, so its coefficients are integers.
        gb._add({m: c.numerator for m, c in p.terms.items()},
                min(p.terms, key=grlex_rank))
    basis, leads, masks = gb._basis, gb._leads, gb._masks

    # Normal selection: the pending S-pairs (i, j), i > j, sit in a heap
    # by the degree of their lcm, ties broken on (i, j); `pairs` holds the
    # same pairs for the chain criterion's membership test. By the product
    # criterion a pair with coprime leads has an S-polynomial that reduces
    # to zero, so it is never queued and counts as handled from the start.
    pairs: set[tuple[int, int]] = set()
    queue: list = []

    def push_pairs(i):
        for j in range(i):
            if masks[i] & masks[j]:
                pairs.add((i, j))
                degree = leads[i].degree + _quotient(leads[j], leads[i]).degree
                heapq.heappush(queue, (degree, i, j))

    for i in range(len(basis)):
        push_pairs(i)

    while queue:
        _, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        li, lj = leads[i], leads[j]
        qi = _quotient(lj, li)
        l = li * qi
        # chain criterion: a third element whose lead divides the lcm, with
        # both its pairs handled, lets us skip this pair
        if any(t != i and t != j and (max(i, t), min(i, t)) not in pairs
               and (max(j, t), min(j, t)) not in pairs
               for t in gb._divisors(l)):
            continue
        # S = (c_j / d) (l / l_i) g_i - (c_i / d) (l / l_j) g_j, with
        # d = gcd(c_i, c_j): the second half is one elimination step of
        # the division.
        gi, gj = basis[i], basis[j]
        ci, cj = gi[li], gj[lj]
        d = gcd(ci, cj)
        s = {m * qi: c * (cj // d) for m, c in gi.items()}
        _eliminate(s, gj, _quotient(l, lj), ci // d)
        r = gb._reduce(s)[0]
        if r:
            lr = min(r, key=grlex_rank)
            gb._add(_primitive(r, lr), lr)
            push_pairs(len(basis) - 1)

    # Interreduce in one pass from the smallest lead up, equal leads in
    # index order: an element whose lead a kept lead divides is dropped,
    # and the others are reduced by the ones kept before them, which hold
    # every lead that can divide a term below theirs.
    reduced = GroebnerBasis(variables)
    for i in sorted(range(len(basis)), key=lambda i: grlex_rank(leads[i]),
                    reverse=True):
        lg = leads[i]
        if next(reduced._divisors(lg), None) is None:
            reduced._add(_primitive(reduced._reduce(basis[i])[0], lg), lg)
    return reduced


def plucker_universe(k: int, n: int,
                     with_epsilon: bool = False) -> tuple[Var, ...]:
    """The ordered variable universe: Pluecker variables by color then
    subset lex, epsilon last."""
    subsets = list(combinations(range(1, n + 1), k))
    vs = [("D", a, I) for a in range(n) for I in subsets]
    if with_epsilon:
        vs.append(EPSILON)
    return tuple(vs)


def _is_linear(g: Polynomial) -> bool:
    # A single term of degree 1: its variable is zero on every fiber.
    return len(g.terms) == 1 and g.total_degree() == 1


def _row(g: Polynomial, n: int, term_masks: tuple[int, ...]) -> tuple:
    # The row of g that the normal form of `Ideal` reads; `by_multidegree`
    # skips a single variable, so its multidegree is not taken.
    mask = 0
    for t in term_masks:
        mask |= t
    if _is_linear(g):
        return g, mask, term_masks, None, True
    return g, mask, term_masks, g.multidegree(n), False


def _linear_mask(rows: tuple) -> int:
    # The variables of the single-variable rows, as one mask.
    out = 0
    for _, mask, _, _, linear in rows:
        if linear:
            out |= mask
    return out


def _vanishing(rows: tuple) -> frozenset[Var]:
    # The variables of the single-variable rows.
    return frozenset(v for g, _, _, _, linear in rows if linear
                     for v in g.variables())


class GeneratorTable:
    """Generators made primitive and deduplicated (`poly.dedup`), each as
    the row that the normal form of `Ideal` reads: (g, the bitmask of its
    variables, one bitmask per term in the order of `g.terms`, its
    multidegree or None if it is inhomogeneous, whether it is a single
    variable), followed by the rows of `tail`, a table on the same `bits`.
    `bits` maps each variable to its bit; a variable it lacks gets the
    next free bit when first seen.

    `ideals` keeps one table per specialized pattern-free family, on the
    bits of the whole variable universe, and puts a pattern's vanishing
    monomials in front of it, so that the masks are computed once per
    family and not once per ideal."""

    __slots__ = ("bits", "rows")

    def __init__(self, generators: Iterable[Polynomial], n: int,
                 bits: dict[Var, int] | None = None, tail: tuple = ()):
        self.bits = bits = {} if bits is None else bits
        rows = []
        for g in dedup(generators):
            term_masks = []
            for m in g.terms:
                t = 0
                for v in m.factors:
                    t |= bits.get(v) or bits.setdefault(v, 1 << len(bits))
                term_masks.append(t)
            rows.append(_row(g, n, tuple(term_masks)))
        self.rows = (*rows, *tail)


@dataclass
class Ideal:
    """An ideal in the colored Pluecker ring, optionally with epsilon.

    A generator that is a single term of degree 1 puts its variable in
    `vanishing`: the variable is zero on every fiber. Construction drops
    the terms in a vanishing variable from every other generator and dedups
    the result (`poly.dedup`), until no new variable vanishes. Callers pass
    raw generator families, or a `GeneratorTable` of them, and rely on this
    normal form.

    The normal form reads the rows of the table, built here from raw
    generators. In each round the single-variable rows give the vanishing
    mask; a row whose mask misses it is kept as the same object, a row
    each of whose terms meets it is dropped unbuilt, and only a row that
    keeps some of its terms is rebuilt with `Polynomial.without`. A
    rebuilt generator that is a single variable stays in the next round
    as a single-variable row, and its variable vanishes too.
    """

    k: int
    n: int
    generators: tuple[Polynomial, ...]
    has_epsilon: bool = True
    vanishing: frozenset[Var] = field(init=False, compare=False)
    _rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        table = self.generators
        if not isinstance(table, GeneratorTable):
            table = GeneratorTable(table, self.n)
        rows, mask = table.rows, None
        while mask != (new := _linear_mask(rows)):
            mask, zero, kept = new, None, {}
            for row in rows:
                g, g_mask, term_masks, _, linear = row
                if linear or not g_mask & mask:
                    kept.setdefault(g, row)
                elif not all(map(mask.__and__, term_masks)):
                    if zero is None:
                        zero = _vanishing(rows)
                    g = g.without(zero).primitive()
                    kept.setdefault(g, _row(g, self.n, tuple(
                        t for t in term_masks if not t & mask)))
            rows = tuple(kept.values())
        self.generators = tuple(row[0] for row in rows)
        self.vanishing = _vanishing(rows)
        self._rows = rows

    @cached_property
    def by_multidegree(self) -> tuple:
        """Read-only (multidegree, generators) groups of the generators that
        are not vanishing variables; ValueError if one is inhomogeneous."""
        groups: dict[tuple[int, ...], list[Polynomial]] = {}
        for g, _, _, d, linear in self._rows:
            if linear:
                continue
            if d is None:
                raise ValueError(f"generator is not multihomogeneous: {g!r}")
            groups.setdefault(d, []).append(g)
        return tuple((d, tuple(gs)) for d, gs in groups.items())

    def groebner(self) -> GroebnerBasis:
        return buchberger(list(self.generators), plucker_universe(
            self.k, self.n, with_epsilon=self.has_epsilon))

    def specialize(self, value) -> "Ideal":
        """Substitute epsilon by a rational constant."""
        return Ideal(self.k, self.n, tuple(g.substitute_epsilon(value)
                                           for g in self.generators),
                     has_epsilon=False)
