"""Helpers shared by the tests: Pluecker variables, patterns,
multidegrees, the standard-monomial count of the Groebner oracle, and the
parsers of the plain-text and JSON polynomial formats that
`positroid.poly` writes. Pytest puts this directory on
`sys.path`, so a test module reads them with `from support import ...`."""

import re
from collections import Counter
from fractions import Fraction
from itertools import product

from positroid.hilbert import monomials_of_multidegree
from positroid.patterns import JugglingPattern, KSubset
from positroid.poly import (EPSILON, Monomial, Polynomial, Var, parse_rational,
                            plucker_var)


def D(a, *idx):
    """The Pluecker variable of color a and indices idx, signed by their
    sorting permutation; zero on a repeated index."""
    return Polynomial.plucker(a, idx)


def P(k, n, *entries):
    """The pattern of (k, n) whose vertex b carries the k-subset entries[b]."""
    return JugglingPattern(k, n, tuple(KSubset(n, e) for e in entries))


def constant_pattern(k, n):
    """The pattern with {1, ..., k} at every vertex."""
    return P(k, n, *[tuple(range(1, k + 1))] * n)


def multidegrees(n, bound):
    """Every multidegree of n entries with |m| <= bound, lexicographically,
    so m = 0 comes first."""
    return [m for m in product(range(bound + 1), repeat=n)
            if sum(m) <= bound]


def standard_monomial_count(k, n, leads, m):
    """The number of monomials of multidegree m in the full ring that no
    monomial of `leads` divides. For the leading monomials of a Groebner
    basis of a multihomogeneous ideal I, these monomials are a basis of
    the m-th component of S/I: its dimension without any rank."""
    fitting = [lead.exps for lead in leads
               if all(a <= b for a, b in zip(lead.multidegree(n), m))]
    count = 0
    for mono in monomials_of_multidegree(k, n, m):
        have = Counter(mono.factors)
        count += not any(all(have[v] >= e for v, e in lead)
                         for lead in fitting)
    return count


# ASCII digits only: int() would also read any other Unicode decimal digit.
_VAR_RE = re.compile(r"(e|D([0-9]+)_([0-9.]+))(?:\^([0-9]+))?")


def _parse_factor(tok: str) -> tuple[Var, int]:
    m = _VAR_RE.fullmatch(tok)
    if not m:
        raise ValueError(f"bad variable factor {tok!r}")
    exp = int(m.group(4)) if m.group(4) else 1
    if m.group(1) == "e":
        return EPSILON, exp
    a = int(m.group(2))
    idx = m.group(3)
    if "." in idx:
        elems = tuple(int(x) for x in idx.split("."))
    else:
        elems = tuple(int(ch) for ch in idx)
    return plucker_var(a, elems), exp


def parse_polynomial(text: str) -> Polynomial:
    # normalize "a - b" into explicit signed chunks
    chunks = re.split(r"\s*([+-])\s*", text.strip())
    chunks = chunks[1:] if chunks[0] == "" else ["+"] + chunks
    terms: dict[Monomial, Fraction] = {}
    for i in range(0, len(chunks), 2):
        sign = -1 if chunks[i] == "-" else 1
        body = chunks[i + 1]
        coeff = Fraction(sign)
        factors: list[Var] = []
        for tok in body.split("*"):
            tok = tok.strip()
            if tok.startswith(("D", "e")):
                v, e = _parse_factor(tok)
                factors += [v] * e
            else:
                coeff *= parse_rational(tok)
        m = Monomial(factors)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return Polynomial(terms)


def poly_from_json(data: list[dict]) -> Polynomial:
    """The polynomial of `poly_to_json`'s form: a list of terms
    {"coeff": "p/q", "exps": {variable name: int >= 1}}. ValueError on any
    other shape."""
    if type(data) is not list:
        raise ValueError(f"expected a list of terms, got {data!r}")
    terms: dict[Monomial, Fraction] = {}
    for term in data:
        if (type(term) is not dict or set(term) != {"coeff", "exps"}
                or type(term["coeff"]) is not str
                or type(term["exps"]) is not dict):
            raise ValueError(
                f'expected {{"coeff": "p/q", "exps": {{...}}}}, got {term!r}')
        factors: list[Var] = []
        for name, e in term["exps"].items():
            if type(name) is not str:
                raise ValueError(f"variable name {name!r} is not a string")
            if type(e) is not int or e < 1:
                raise ValueError(f"exponent of {name!r} not >= 1: {e!r}")
            v, extra = _parse_factor(name)
            factors += [v] * (e * extra)
        m = Monomial(factors)
        terms[m] = terms.get(m, Fraction(0)) + parse_rational(term["coeff"])
    return Polynomial(terms)


def parse_polynomials(text: str) -> list[Polynomial]:
    return [parse_polynomial(line) for line in text.splitlines()
            if line.strip()]
