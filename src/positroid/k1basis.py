"""k=1 admissible monomials: the counting identity, the terminating
rewriting system, and basis verification against graded dimensions and the
evaluation rank on count + 3 points at eps=1 with integer parameters in
[1, 2^20] from a seeded generator, generic by the Schwartz-Zippel lemma
(Schwartz, J. ACM 27(4), 1980)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, prod

from . import hilbert, ideals, linalg
from .fibers import FiberPoint, k1_point
from .patterns import JugglingPattern


class ZeroInQuotient(ValueError):
    """The monomial's normal form violates the ones-locus condition for the
    given pattern, so it represents zero on the fibers."""


@dataclass(frozen=True)
class ColoredMonomial:
    """A product of colored coordinates, stored per vertex as weakly
    increasing index lists."""

    n: int
    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.factors) != self.n:
            raise ValueError("need one index list per vertex")
        for idx in self.factors:
            if any(not 1 <= i <= self.n for i in idx):
                raise ValueError(f"indices must lie in [1, {self.n}]")
            if tuple(sorted(idx)) != idx:
                raise ValueError("per-vertex index lists must be sorted")

    @property
    def multidegree(self) -> tuple[int, ...]:
        return tuple(len(idx) for idx in self.factors)

    def index_product(self) -> int:
        """The termination measure: the product of all indices."""
        return prod(i for idx in self.factors for i in idx)

    def evaluate(self, point: FiberPoint) -> Fraction:
        """Product of the vertex-line coordinates (k=1 points only)."""
        out = Fraction(1)
        for b, idx in enumerate(self.factors):
            row = point.spaces[b].basis[0]
            for i in idx:
                out *= row[i - 1]
        return out

    def __str__(self):
        parts = [f"D{b}_{i}" for b, idx in enumerate(self.factors)
                 for i in idx]
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class NormalForm:
    epsilon_power: int
    monomial: ColoredMonomial


def is_admissible(mon: ColoredMonomial, J: JugglingPattern) -> bool:
    """Both admissibility conditions: every factor's diagonal lands in the
    ones locus, and no descending pair across a shift s."""
    if J.k != 1:
        raise ValueError("admissibility is defined for k = 1 patterns")
    n = mon.n
    L = J.ones_locus
    for b, idx in enumerate(mon.factors):
        for i in idx:
            if (b + i - 1) % n not in L:
                return False
    return _find_violation(mon) is None


def _find_violation(mon: ColoredMonomial):
    """Lexicographically smallest (b, s, u, r) with i = factors[b][u] > s
    and factors[b+s][r] > i - s, or None."""
    n = mon.n
    for b in range(n):
        for s in range(1, n):
            other = mon.factors[(b + s) % n]
            for u, i in enumerate(mon.factors[b]):
                if i <= s:
                    continue
                for r, j in enumerate(other):
                    if j > i - s:
                        return (b, s, u, r)
    return None


def rewrite_to_normal_form(mon: ColoredMonomial,
                           J: JugglingPattern | None = None,
                           with_trace: bool = False):
    """Rewrite descending pairs until admissible (for the constant pattern);
    returns NormalForm(e, monomial) with the accumulated epsilon power.

    With a pattern given, a normal form violating the ones-locus condition
    raises ZeroInQuotient. With with_trace=True also returns the list of
    index-product measures, one per state visited.
    """
    n = mon.n
    factors = [list(idx) for idx in mon.factors]
    e = 0
    trace = [mon.index_product()]
    current = mon
    while (hit := _find_violation(current)) is not None:
        b, s, u, r = hit
        i = factors[b][u]
        j = factors[(b + s) % n][r]
        if j <= n - s:
            new_i = j + s
        else:
            new_i = j + s - n
            e += 1
        factors[b][u] = new_i
        factors[(b + s) % n][r] = i - s
        factors[b].sort()
        factors[(b + s) % n].sort()
        current = ColoredMonomial(n, tuple(tuple(f) for f in factors))
        trace.append(current.index_product())
    if J is not None and not is_admissible(current, J):
        raise ZeroInQuotient(
            f"the normal form {current} has a factor whose diagonal lies "
            f"outside the ones locus {set(J.ones_locus)}")
    nf = NormalForm(e, current)
    return (nf, trace) if with_trace else nf


def enumerate_admissible(J: JugglingPattern,
                         m: tuple[int, ...]) -> list[ColoredMonomial]:
    """All J-admissible monomials of multidegree m, lexicographically."""
    if J.k != 1:
        raise ValueError("admissible monomials are defined for k = 1")
    n = J.n
    if len(m) != n:
        raise ValueError(f"multidegree length {len(m)} != n={n}")
    L = J.ones_locus
    per_vertex = []
    for b, mb in enumerate(m):
        allowed = [i for i in range(1, n + 1) if (b + i - 1) % n in L]
        per_vertex.append(list(combinations_with_replacement(allowed, mb)))
    # The product of the lexicographic per-vertex lists is lexicographic.
    mons = (ColoredMonomial(n, pick) for pick in product(*per_vertex))
    return [mon for mon in mons if _find_violation(mon) is None]


def count_admissible(J: JugglingPattern, m: tuple[int, ...]) -> int:
    return len(enumerate_admissible(J, m))


def expected_count(J: JugglingPattern, m: tuple[int, ...]) -> int:
    """The closed-form count C(|m| + ell - 1, |m|)."""
    M = sum(m)
    return comb(M + J.ell - 1, M)


def sample_lambda(J: JugglingPattern, t: int) -> dict[int, Fraction]:
    """The t-th parameter vector: an integer in [1, 2^20] per element of
    the ones locus, in increasing order, drawn by `random.Random(t)`."""
    rng = random.Random(t)
    return {l: Fraction(rng.randint(1, 1 << 20))
            for l in sorted(J.ones_locus)}


def sample_points(J: JugglingPattern, count: int, eps=1) -> list[FiberPoint]:
    return [k1_point(J, sample_lambda(J, t), eps) for t in range(count)]


def verify_basis(J: JugglingPattern, m: tuple[int, ...],
                 epsilons) -> tuple[bool, dict]:
    """Check the basis property in multidegree m: the admissible count
    equals the binomial count and the graded component dimension at every
    epsilon, and the evaluation matrix on count + 3 sampled points at eps=1
    has full rank. Returns (passed, case), case being the `basis` report
    case: `admissible`, `count`, `binomial`, `dims` (keyed by `str` of each
    epsilon, in the order given) and `evaluation_rank`."""
    mons = enumerate_admissible(J, m)
    count = len(mons)
    binomial = expected_count(J, m)
    dims = {str(Fraction(eps)): hilbert.graded_component_dim(
        ideals.global_positroid_ideal(J, eps), m) for eps in epsilons}

    points = sample_points(J, count + 3, eps=1)
    matrix = [[mon.evaluate(pt) for mon in mons] for pt in points]
    rank = linalg.rank(matrix) if count else 0

    passed = (all(d == count for d in dims.values())
              and rank == count == binomial)
    case = {
        "admissible": [str(mon) for mon in mons],
        "count": count,
        "binomial": binomial,
        "dims": dims,
        "evaluation_rank": rank,
    }
    return passed, case
