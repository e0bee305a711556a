"""Buchberger's algorithm over exact rationals, normal forms, Krull
dimension of leading ideals, and the Ideal container.

Internally polynomials are dense exponent tuples over a fixed ordered
variable universe; the public surface speaks `poly.Polynomial`. The
monomial order (`poly.grlex_key`), the primitive normalization of a basis
element and the dedup of generators belong to `poly`.

`buchberger` uses the normal selection strategy: the pending S-pairs sit
in a heap keyed by the order of their lcm, and the smallest is reduced
first. A pair is dropped unreduced by Buchberger's product criterion
(coprime leading monomials) or chain criterion (a third leading monomial
divides the lcm and both of its pairs are done). Each leading monomial
carries the bitmask of its support, and every divisibility test against
a leading monomial (the chain criterion, the reducer search of a division
and the final interreduction) compares masks before exponents (Bachmann
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
from .poly import (EPSILON, Monomial, Polynomial, Var, dedup, grlex_key,
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


def _to_dense(p: Polynomial, index: dict[Var, int], nvars: int):
    missing = [v for v in p.variables() if v not in index]
    if missing:
        raise ValueError(f"variables outside the universe: {missing}")
    out = {}
    for m, c in p.terms.items():
        e = [0] * nvars
        for v in m.factors:
            e[index[v]] += 1
        out[tuple(e)] = c
    return out


def _monomial(e, variables) -> Monomial:
    return Monomial(v for v, x in zip(variables, e) for _ in range(x))


def _to_polynomial(d, variables):
    return Polynomial({_monomial(e, variables): c for e, c in d.items()})


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mask(e) -> int:
    # The support of an exponent tuple as a bitmask: a divides b only if
    # _mask(a) & ~_mask(b) == 0, one integer operation that rejects most
    # non-divisors before `_divides` compares the exponents.
    return sum(1 << i for i, x in enumerate(e) if x)


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add_exp(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _eliminate(f: dict, g: dict, q, factor) -> None:
    # f -= factor * x^q * g, in place, dropping the terms that cancel.
    for e, c in g.items():
        t = _add_exp(e, q)
        s = f.get(t, Fraction(0)) - factor * c
        if s:
            f[t] = s
        else:
            f.pop(t, None)


def _reduce(f: dict, basis: list[dict], leads: list[tuple],
            masks: list[int], key) -> dict:
    """The remainder of f under the division algorithm by `basis`, where
    leads[i] is the leading exponent of basis[i] and masks[i] its support
    mask: no term of the result is divisible by any leading exponent. The
    first basis element whose lead divides the current leading term is
    used. Raises ResourceCapExceeded when the working polynomial exceeds
    MAX_TERMS terms."""
    f = dict(f)
    remainder: dict = {}
    while f:
        lead = max(f, key=key)
        outside = ~_mask(lead)
        for g, lg, mg in zip(basis, leads, masks):
            if not mg & outside and _divides(lg, lead):
                break
        else:
            remainder[lead] = f.pop(lead)
            continue
        _eliminate(f, g, _sub_exp(lead, lg), f[lead] / g[lg])
        if len(f) > MAX_TERMS:
            raise ResourceCapExceeded(
                f"term count {len(f)} exceeds cap {MAX_TERMS}")
    return remainder


class GroebnerBasis:
    """A reduced Groebner basis over a fixed ordered variable universe."""

    def __init__(self, variables: tuple[Var, ...], dense_basis: list[dict],
                 key):
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}
        self._key = key
        self._basis = dense_basis
        self._leads = [max(g, key=key) for g in dense_basis]
        self._masks = [_mask(e) for e in self._leads]

    @property
    def polynomials(self) -> list[Polynomial]:
        return [_to_polynomial(g, self.variables) for g in self._basis]

    def leading_monomials(self) -> list[Monomial]:
        return [_monomial(e, self.variables) for e in self._leads]

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The normal form of p."""
        dense = _to_dense(p, self._index, len(self.variables))
        return _to_polynomial(_reduce(dense, self._basis, self._leads,
                                      self._masks, self._key),
                              self.variables)

    def krull_dimension(self) -> int:
        """Dimension of the quotient: maximum number of variables whose
        span meets no leading monomial's support."""
        supports = {frozenset(i for i, x in enumerate(e) if x)
                    for e in self._leads}
        if frozenset() in supports:
            return 0  # the ideal is the whole ring; dimension of V(1) = 0
        # keep only minimal supports
        minimal = [s for s in supports
                   if not any(t < s for t in supports)]
        nvars = len(self.variables)
        best = [len(minimal)]

        def min_hitting(sups, count):
            if count >= best[0]:
                return
            if not sups:
                best[0] = count
                return
            s = min(sups, key=len)
            for v in sorted(s):
                min_hitting([t for t in sups if v not in t], count + 1)

        min_hitting(minimal, 0)
        return nvars - best[0]


def buchberger(generators: list[Polynomial],
               variables: tuple[Var, ...]) -> GroebnerBasis:
    """Compute the reduced grlex Groebner basis of the ideal generated by
    `generators` in the given ordered variable universe."""
    key = grlex_key(len(variables) - (EPSILON in variables))
    index = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)

    basis: list[dict] = []
    for p in dedup(generators):
        g = _to_dense(p, index, nvars)
        if len(g) > MAX_TERMS:
            raise ResourceCapExceeded(
                f"generator has {len(g)} terms, cap {MAX_TERMS}")
        deg = p.total_degree()
        if deg > MAX_TOTAL_DEGREE:
            raise ResourceCapExceeded(
                f"generator degree {deg} exceeds cap {MAX_TOTAL_DEGREE}")
        basis.append(g)
    leads = [max(g, key=key) for g in basis]
    masks = [_mask(e) for e in leads]

    # Normal selection: the pending S-pairs (i, j), i > j, sit in a heap
    # by the key of their lcm, ties broken on (i, j); `pairs` holds the
    # same pairs for the chain criterion's membership test. By the product
    # criterion a pair with coprime leads has an S-polynomial that reduces
    # to zero, so it is never queued and counts as handled from the start.
    pairs: set[tuple[int, int]] = set()
    queue: list = []

    def push_pairs(i):
        for j in range(i):
            if masks[i] & masks[j]:
                pairs.add((i, j))
                heapq.heappush(queue, (key(_lcm(leads[i], leads[j])), i, j))

    for i in range(len(basis)):
        push_pairs(i)

    while queue:
        _, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        li, lj = leads[i], leads[j]
        l = _lcm(li, lj)
        # chain criterion: an intermediate basis element dividing the lcm
        # with both its pairs handled lets us skip this pair
        outside = ~_mask(l)
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
        qi, ci = _sub_exp(l, li), gi[li]
        s = {_add_exp(e, qi): c / ci for e, c in gi.items()}
        _eliminate(s, gj, _sub_exp(l, lj), 1 / gj[lj])
        r = _reduce(s, basis, leads, masks, key)
        if not r:
            continue
        lr = max(r, key=key)
        if sum(lr) > MAX_TOTAL_DEGREE:
            raise ResourceCapExceeded(
                f"degree {sum(lr)} exceeds cap {MAX_TOTAL_DEGREE}")
        basis.append(primitive_terms(r, lr))
        leads.append(lr)
        masks.append(_mask(lr))
        if len(basis) > MAX_BASIS_SIZE:
            raise ResourceCapExceeded(
                f"basis size exceeds cap {MAX_BASIS_SIZE}")
        push_pairs(len(basis) - 1)

    # interreduce to the unique reduced basis
    keep = []
    for i, lg in enumerate(leads):
        outside = ~masks[i]
        if not any(j != i and not masks[j] & outside and
                   _divides(leads[j], lg) and (leads[j] != lg or j < i)
                   for j in range(len(leads))):
            keep.append(i)
    final = []
    for i in keep:
        others = [t for t in keep if t != i]
        r = _reduce(basis[i], [basis[t] for t in others],
                    [leads[t] for t in others], [masks[t] for t in others],
                    key)
        c = r[leads[i]]
        final.append({e: v / c for e, v in r.items()})
    final.sort(key=lambda g: key(max(g, key=key)))
    return GroebnerBasis(variables, final, key)


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
