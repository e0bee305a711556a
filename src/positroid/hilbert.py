"""Multigraded component dimensions of quotient rings via exact rank."""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from . import groebner, linalg
from .patterns import all_subsets
from .poly import Monomial


def monomials_of_multidegree(k: int, n: int,
                             m: tuple[int, ...]) -> list[Monomial]:
    """All monomials in the colored Pluecker variables with exactly m_b
    factors of color b."""
    if len(m) != n:
        raise ValueError(f"multidegree length {len(m)} != n={n}")
    subsets = [I.elements for I in all_subsets(k, n)]
    per_color = []
    for b, mb in enumerate(m):
        opts = []
        for combo in combinations_with_replacement(subsets, mb):
            exps: dict = {}
            for I in combo:
                v = ("D", b, I)
                exps[v] = exps.get(v, 0) + 1
            opts.append(tuple(exps.items()))
        per_color.append(opts)
    total = 1
    for opts in per_color:
        total *= len(opts)
        if total > groebner.MAX_COMPONENT_MONOMIALS:
            raise groebner.ResourceCapExceeded(
                f"multidegree {m} has more than "
                f"{groebner.MAX_COMPONENT_MONOMIALS} monomials")
    out = []
    for pick in product(*per_color):
        exps = []
        for chunk in pick:
            exps.extend(chunk)
        out.append(Monomial(exps))
    return out


def graded_component_dim(ideal: groebner.Ideal, m: tuple[int, ...]) -> int:
    """Dimension of the multidegree-m component of the quotient ring.

    Requires a specialized (epsilon-free) ideal: the count of multidegree-m
    monomials minus the exact rank of the span of all generator*monomial
    products of multidegree m.
    """
    if ideal.has_epsilon:
        raise ValueError("specialize epsilon before computing graded "
                         "component dimensions")
    basis = monomials_of_multidegree(ideal.k, ideal.n, m)
    index = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for g in ideal.generators:
        d = g.multidegree(ideal.n)
        if d is None:
            raise ValueError(f"generator is not multihomogeneous: {g!r}")
        diff = tuple(mb - db for mb, db in zip(m, d))
        if any(x < 0 for x in diff):
            continue
        for mu in monomials_of_multidegree(ideal.k, ideal.n, diff):
            row = [0] * len(basis)
            for mono, c in g.terms.items():
                row[index[mono * mu]] = c
            rows.append(row)
    return len(basis) - linalg.rank(rows)
