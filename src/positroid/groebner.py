"""Buchberger's algorithm over exact rationals, normal forms, Krull
dimension of leading ideals, and the Ideal container.

Buchberger computes on the terms of `poly.Polynomial` directly: a
polynomial is a {Monomial: Fraction} dict, and the lead of f is
`min(f, key=grlex_rank)`. The monomial order (`poly.grlex_rank`), the
primitive normalization of a basis element and the dedup of generators
belong to `poly`.

`buchberger` uses the normal selection strategy in degree: the pending
S-pairs sit in a heap keyed by the degree of their lcm, and a pair of the
lowest lcm degree is reduced first. A pair is dropped unreduced by
Buchberger's product criterion (coprime leading monomials) or chain
criterion (a third leading monomial divides the lcm and both of its pairs
are done). Each leading monomial carries the bitmask of its support, one
bit per variable of the universe, and every divisibility test against a
leading monomial (the chain criterion, the reducer search of a division
and the final interreduction) compares masks before factors (Bachmann
and Schoenemann, "Monomial representations for Groebner bases
computations", ISSAC 1998).

One elimination step, f -= c x^q g (`_eliminate`), is the step of the
division `_reduce` and also builds the S-polynomial of g_i and g_j:
(l / l_i) g_i / c_i, then one step by g_j with c = 1 / c_j, where l is the
lcm of their leading monomials l_i, l_j and c_i, c_j their coefficients.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .patterns import all_subsets
from .poly import (EPSILON, Monomial, Polynomial, Var, dedup, grlex_rank,
                   primitive_terms)


class ResourceCapExceeded(RuntimeError):
    """A resource limit was hit; results are never silently truncated."""


# The resource limits of every computation, one fixed policy: the largest
# working polynomial of a division, the largest Groebner basis, the largest
# total degree of a generator or basis element, and the largest graded
# component `hilbert` builds a matrix for.
MAX_TERMS = 200000
MAX_BASIS_SIZE = 20000
MAX_TOTAL_DEGREE = 80
MAX_COMPONENT_MONOMIALS = 200000


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


def _eliminate(f: dict, g: dict, q: Monomial, factor) -> None:
    # f -= factor * q * g, in place, dropping the terms that cancel.
    for m, c in g.items():
        t = m * q
        s = f.get(t, Fraction(0)) - factor * c
        if s:
            f[t] = s
        else:
            f.pop(t, None)


def _reduce(f: dict, basis: list[dict], leads: list[Monomial],
            masks: list[int], bits: dict[Var, int]) -> dict:
    """The remainder of f under the division algorithm by `basis`, where
    leads[i] is the leading monomial of basis[i] and masks[i] its support
    mask: no term of the result is divisible by any leading monomial. The
    first basis element whose lead divides the current leading term is
    used. Raises ResourceCapExceeded when the working polynomial exceeds
    MAX_TERMS terms."""
    f = dict(f)
    remainder: dict = {}
    while f:
        lead = min(f, key=grlex_rank)
        outside = ~_mask(lead, bits)
        for g, lg, mg in zip(basis, leads, masks):
            if not mg & outside and _divides(lg, lead):
                break
        else:
            remainder[lead] = f.pop(lead)
            continue
        _eliminate(f, g, _quotient(lead, lg), f[lead] / g[lg])
        if len(f) > MAX_TERMS:
            raise ResourceCapExceeded(
                f"term count {len(f)} exceeds cap {MAX_TERMS}")
    return remainder


def _bits(variables: tuple[Var, ...]) -> dict[Var, int]:
    return {v: 1 << i for i, v in enumerate(variables)}


class GroebnerBasis:
    """A reduced Groebner basis over a fixed ordered variable universe."""

    def __init__(self, variables: tuple[Var, ...], basis: list[dict]):
        self.variables = variables
        self._bits = _bits(variables)
        self._basis = basis
        self._leads = [min(g, key=grlex_rank) for g in basis]
        self._masks = [_mask(m, self._bits) for m in self._leads]

    @property
    def polynomials(self) -> list[Polynomial]:
        return [Polynomial(g) for g in self._basis]

    def leading_monomials(self) -> list[Monomial]:
        return list(self._leads)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The normal form of p."""
        _check_universe(p, self._bits)
        return Polynomial(_reduce(p.terms, self._basis, self._leads,
                                  self._masks, self._bits))

    def krull_dimension(self) -> int:
        """Dimension of the quotient: maximum number of variables whose
        span meets no leading monomial's support."""
        supports = {frozenset(m.factors) for m in self._leads}
        if frozenset() in supports:
            return 0  # the ideal is the whole ring; dimension of V(1) = 0
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
    bits = _bits(variables)
    basis: list[dict] = []
    for p in dedup(generators):
        _check_universe(p, bits)
        if len(p.terms) > MAX_TERMS:
            raise ResourceCapExceeded(
                f"generator has {len(p.terms)} terms, cap {MAX_TERMS}")
        deg = p.total_degree()
        if deg > MAX_TOTAL_DEGREE:
            raise ResourceCapExceeded(
                f"generator degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")
        basis.append(p.terms)
    leads = [min(g, key=grlex_rank) for g in basis]
    masks = [_mask(m, bits) for m in leads]

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
        # chain criterion: an intermediate basis element dividing the lcm
        # with both its pairs handled lets us skip this pair; the support
        # of the lcm is the union of the two supports
        outside = ~(masks[i] | masks[j])
        skip = False
        for t in range(len(basis)):
            if t in (i, j) or masks[t] & outside:
                continue
            if _divides(leads[t], l):
                p1 = (max(i, t), min(i, t))
                p2 = (max(j, t), min(j, t))
                if p1 not in pairs and p2 not in pairs:
                    skip = True
                    break
        if skip:
            continue
        # S = (l / l_i) g_i / c_i - (l / l_j) g_j / c_j: the second half is
        # one elimination step of the division.
        gi, gj = basis[i], basis[j]
        ci = gi[li]
        s = {m * qi: c / ci for m, c in gi.items()}
        _eliminate(s, gj, _quotient(l, lj), 1 / gj[lj])
        r = _reduce(s, basis, leads, masks, bits)
        if not r:
            continue
        lr = min(r, key=grlex_rank)
        if lr.degree > MAX_TOTAL_DEGREE:
            raise ResourceCapExceeded(
                f"degree {lr.degree} exceeds cap {MAX_TOTAL_DEGREE}")
        basis.append(primitive_terms(r, lr))
        leads.append(lr)
        masks.append(_mask(lr, bits))
        if len(basis) > MAX_BASIS_SIZE:
            raise ResourceCapExceeded(
                f"basis size exceeds cap {MAX_BASIS_SIZE}")
        push_pairs(len(basis) - 1)

    # interreduce to the unique reduced basis, from the smallest lead up
    keep = []
    for i, lg in enumerate(leads):
        outside = ~masks[i]
        if not any(j != i and not masks[j] & outside and
                   _divides(leads[j], lg) and (leads[j] != lg or j < i)
                   for j in range(len(leads))):
            keep.append(i)
    keep.sort(key=lambda i: grlex_rank(leads[i]), reverse=True)
    final = []
    for i in keep:
        others = [t for t in keep if t != i]
        r = _reduce(basis[i], [basis[t] for t in others],
                    [leads[t] for t in others], [masks[t] for t in others],
                    bits)
        c = r[leads[i]]
        final.append({m: v / c for m, v in r.items()})
    return GroebnerBasis(variables, final)


def plucker_universe(k: int, n: int, colors: list[int] | None = None,
                     with_epsilon: bool = False) -> tuple[Var, ...]:
    """The ordered variable universe: Pluecker variables by color then
    subset lex, epsilon last."""
    if colors is None:
        colors = list(range(n))
    vs = [("D", a, I.elements) for a in colors for I in all_subsets(k, n)]
    vs.sort()
    if with_epsilon:
        vs.append(EPSILON)
    return tuple(vs)


def _is_linear(g: Polynomial) -> bool:
    # A single term of degree 1: its variable is zero on every fiber.
    return len(g.terms) == 1 and g.total_degree() == 1


@dataclass
class Ideal:
    """An ideal in the colored Pluecker ring, optionally with epsilon.

    A generator that is a single term of degree 1 puts its variable in
    `vanishing`: the variable is zero on every fiber. Construction drops
    the terms in a vanishing variable from every other generator and dedups
    the result (`poly.dedup`), until no new variable vanishes. Callers pass
    raw generator families and rely on this normal form.
    """

    k: int
    n: int
    generators: tuple[Polynomial, ...]
    has_epsilon: bool = True
    vanishing: frozenset[Var] = field(init=False, compare=False)

    def __post_init__(self):
        self.vanishing = None
        while self.vanishing != (zero := frozenset(
                v for g in self.generators if _is_linear(g)
                for v in g.variables())):
            self.vanishing = zero
            self.generators = tuple(dedup(
                g if _is_linear(g) else g.without(zero)
                for g in self.generators))

    @cached_property
    def by_multidegree(self) -> tuple:
        """Read-only (multidegree, generators) groups of the generators that
        are not vanishing variables; ValueError if one is inhomogeneous."""
        groups: dict[tuple[int, ...], list[Polynomial]] = {}
        for g in self.generators:
            if _is_linear(g):
                continue
            d = g.multidegree(self.n)
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
