"""Exact multivariate polynomials in epsilon and colored Pluecker variables.

Variables are plain tuples: EPSILON = ("e",) and ("D", a, I) for the
Pluecker coordinate of color a in Z_n and sorted k-subset I. Unsorted index
tuples are absorbed into coefficients via the sign of the sorting
permutation; repeated indices give the zero polynomial. The variable order
is the natural tuple order: Pluecker variables by color, then subset lex,
and epsilon last (since "D" < "e").

A `Monomial` is `factors`, the sorted tuple of its variables, each repeated
as often as its exponent: sorting is the only invariant, a product is the
concatenation of the factors, and a zero or negative exponent cannot be
stored. `Monomial.exps`, the (variable, exponent) pairs, is a derived view
for the text and JSON formats.

This module owns the monomial order, grlex, defined once by `grlex_rank` on
a `Monomial` and read by `groebner`, and the normal form of a generator:
primitive with a positive leading coefficient (`primitive_terms`),
deduplicated by `dedup`.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import AbstractSet, Iterable, Mapping

EPSILON = ("e",)

Var = tuple


def plucker_var(a: int, elements: Iterable[int]) -> Var:
    """Canonical variable for a sorted index tuple (no sign handling)."""
    elems = tuple(elements)
    if tuple(sorted(elems)) != elems or len(set(elems)) != len(elems):
        raise ValueError(f"indices must be strictly increasing, got {elems}")
    return ("D", a, elems)


def sort_sign(indices: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting `indices`; 0 on repeats."""
    seq = list(indices)
    if len(set(seq)) != len(seq):
        return 0, tuple(sorted(seq))
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign, tuple(sorted(seq))


class Monomial:
    """A power product: `factors`, its variables sorted, with repeats."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Iterable[Var] = ()):
        self.factors = tuple(sorted(factors))
        self._hash = hash(self.factors)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.factors + other.factors)

    @property
    def exps(self) -> tuple[tuple[Var, int], ...]:
        """The (variable, exponent) pairs in variable order: a view."""
        return tuple(Counter(self.factors).items())

    @property
    def degree(self) -> int:
        return len(self.factors)

    def epsilon_exponent(self) -> int:
        return self.factors.count(EPSILON)

    def multidegree(self, n: int) -> tuple[int, ...]:
        """Counts of Pluecker factors per color (epsilon contributes zero)."""
        m = [0] * n
        for v in self.factors:
            if v[0] == "D":
                m[v[1] % n] += 1
        return tuple(m)

    def __repr__(self):
        return f"Monomial({self.factors!r})"

    def __str__(self):
        return "*".join(map(var_to_text, self.factors)) or "1"


MONOMIAL_ONE = Monomial()


class Polynomial:
    """Sparse polynomial with exact rational coefficients; canonical form
    keeps no zero coefficients. Equality is structural. Nothing changes
    `terms` after construction, so the hash is taken once, when first
    asked for, and kept."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms = {m: x for m, c in (terms or {}).items()
                      if (x := Fraction(c))}

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({MONOMIAL_ONE: Fraction(c)})

    @classmethod
    def variable(cls, v: Var, exp: int = 1) -> "Polynomial":
        """v^exp; ValueError for exp < 0, which no polynomial is."""
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {v!r}")
        return cls({Monomial([v] * exp): Fraction(1)})

    @classmethod
    def epsilon(cls, exp: int = 1) -> "Polynomial":
        return cls.variable(EPSILON, exp)

    @classmethod
    def plucker(cls, a: int, indices: Iterable[int]) -> "Polynomial":
        """Sign-canonicalized Pluecker variable; zero on repeated indices."""
        sign, sorted_idx = sort_sign(indices)
        if sign == 0:
            return cls()
        return cls({Monomial([("D", a, sorted_idx)]): Fraction(sign)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    @classmethod
    def _of(cls, terms: dict) -> "Polynomial":
        # `terms` as they are: the caller keeps no zero coefficient in them.
        p = cls.__new__(cls)
        p.terms = terms
        return p

    def __add__(self, other: "Polynomial") -> "Polynomial":
        t = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(t, m, c)
        return Polynomial._of(t)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        t: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_term(t, m1 * m2, c1 * c2)
        return Polynomial._of(t)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial()
        return Polynomial._of({m: c * v for m, v in self.terms.items()})

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v in m.factors}

    def without(self, variables: AbstractSet[Var]) -> "Polynomial":
        """The terms that contain no variable of `variables`: self itself
        when no term drops."""
        kept = {m: c for m, c in self.terms.items()
                if variables.isdisjoint(m.factors)}
        return self if len(kept) == len(self.terms) else Polynomial._of(kept)

    def total_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def multidegree(self, n: int) -> tuple[int, ...] | None:
        """The common multidegree of all terms, or None if inhomogeneous."""
        degs = {m.multidegree(n) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def substitute_epsilon(self, value) -> "Polynomial":
        """Replace epsilon by a rational constant and renormalize."""
        value = Fraction(value)
        t: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if e := m.epsilon_exponent():
                m = Monomial(m.factors[:-e])  # epsilon sorts last
                c = c * value ** e
            if c:
                _add_term(t, m, c)
        return Polynomial._of(t)

    def evaluate(self, assignment: Mapping[Var, Fraction]) -> Fraction:
        out = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v in m.factors:
                x = assignment[v]
                if not x:
                    break
                val *= x
            else:
                out += val
        return out

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """The terms from the grlex-largest monomial down."""
        return sorted(self.terms.items(), key=lambda mc: grlex_rank(mc[0]))

    def primitive(self) -> "Polynomial":
        """Clear content and make the leading coefficient positive: self
        itself when it is primitive already."""
        if not self.terms:
            return self
        terms = primitive_terms(self.terms, min(self.terms, key=grlex_rank))
        return self if terms is self.terms else Polynomial._of(terms)

    def __repr__(self):
        return f"Polynomial({poly_to_text(self)!r})"


def _add_term(terms: dict, m: Monomial, c: Fraction) -> None:
    # terms[m] += c, dropping the entry when it cancels: a stored
    # coefficient is never zero.
    s = terms.get(m, Fraction(0)) + c
    if s:
        terms[m] = s
    else:
        terms.pop(m, None)


def grlex_rank(m: Monomial):
    """The rank of m in grlex, the one monomial order: the smallest rank
    is the largest monomial. A monomial is larger when its Pluecker degree
    is; with equal Pluecker degrees, when its Pluecker exponent vector is
    lexicographically larger (more of an earlier variable), which is when
    its sorted Pluecker factors (those before epsilon, which sorts last)
    are smaller; and with equal Pluecker parts, when its epsilon exponent
    is larger."""
    e = m.epsilon_exponent()
    seq = m.factors[:len(m.factors) - e]
    return (-len(seq), seq, -e)


def primitive_terms(terms: dict, lead) -> dict:
    """`terms` divided by their content, signed so that the coefficient of
    `lead` is positive. The content is the positive rational whose
    quotients with the coefficients are coprime integers: the gcd of the
    numerators over the lcm of the denominators. `terms` itself when the
    content is 1 and the coefficient of `lead` positive."""
    num, den = 0, 1
    for c in terms.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    if num == den == 1 and terms[lead] > 0:
        return terms
    c = Fraction(num if terms[lead] > 0 else -num, den)
    return {m: v / c for m, v in terms.items()}


def dedup(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero polynomials of `polys` made primitive, first occurrence
    of each kept: a repeat up to a rational factor is dropped."""
    return list(dict.fromkeys(p.primitive() for p in polys if p))


# -- plain-text and JSON polynomial formats ---------------------------------

def var_to_text(v: Var) -> str:
    if v == EPSILON:
        return "e"
    _, a, elems = v
    if all(x <= 9 for x in elems):
        return f"D{a}_" + "".join(map(str, elems))
    return f"D{a}_" + ".".join(map(str, elems))


def poly_to_text(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = []
        for v, e in m.exps:
            factors.append(var_to_text(v) + (f"^{e}" if e > 1 else ""))
        coeff = abs(c)
        body = "*".join(factors)
        if not factors:
            body = str(coeff)
        elif coeff != 1:
            body = f"{coeff}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# "p/q" or "p" in ASCII digits, q not zero: the one form of a rational number.
# Fraction would also read "1e0", "0.5", "+1", " 5 " and non-ASCII digits.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """The rational number `text`, "p/q" or "p"; ValueError otherwise."""
    if not (match := _RATIONAL.fullmatch(text)):
        raise ValueError(f"expected p/q, got {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


_NATURAL = re.compile("[0-9]+")


def parse_natural(text: str) -> int:
    """The natural number `text` in ASCII digits; ValueError otherwise.
    int() would also read "+1", " 1", "1_0" and non-ASCII digits."""
    if not _NATURAL.fullmatch(text):
        raise ValueError(f"expected digits 0-9, got {text!r}")
    return int(text)


def poly_to_json(p: Polynomial) -> list[dict]:
    out = []
    for m, c in p.sorted_terms():
        exps = {var_to_text(v): e for v, e in m.exps}
        out.append({"coeff": f"{c.numerator}/{c.denominator}", "exps": exps})
    return out


def polys_to_text(polys: Iterable[Polynomial]) -> str:
    return "\n".join(poly_to_text(p) for p in polys)
