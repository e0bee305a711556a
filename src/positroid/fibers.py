"""Exact linear-algebra model of the fibers: the cyclic quiver maps M(eps),
subrepresentation and Schubert membership tests, torus fixed points, and the
k=1 parametrized points.

A point of the fiber over eps is a subspace U_b of the n-space for each
vertex b in Z_n with M(eps) U_b <= U_{b+1}. It lies on the fiber of J when
each U_b is in the opposite Schubert variety of J_b. One echelon form per
subspace, kept on the `Subspace`, decides both conditions: its pivot columns
are the componentwise-least I with Delta_I(U_b) != 0
(`in_opposite_schubert`), and a row of M(eps) U_b lies in U_{b+1} exactly
when it reduces to zero against the kept echelon rows of U_{b+1}
(`is_subrepresentation`). The Pluecker coordinates themselves
(`plucker_vector`) serve only to evaluate ideal generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import linalg
from .patterns import (AnchorSet, JugglingPattern, KSubset,
                       pattern_from_anchor, rotate)
from .poly import EPSILON, Var, parse_rational


class FiberError(ValueError):
    pass


def _typed(x, kind):
    # x if it has exactly the type `kind`: iterating would read a string row
    # "10" as (1, 0).
    if type(x) is not kind:
        raise TypeError(f"expected a {kind.__name__}, got {x!r}")
    return x


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of the n-space, spanned by the rows of an
    exact full-rank k x n matrix. `echelon` holds the kept rows of its
    `linalg.echelon` form, keyed by their pivot, and `pivots` those (0-based)
    pivot columns in order, one per row."""

    n: int
    basis: tuple[tuple[Fraction, ...], ...]
    echelon: linalg.Echelon = field(init=False, compare=False, repr=False)
    pivots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in self.basis))
        if any(len(row) != self.n for row in self.basis):
            raise FiberError(f"rows must have length {self.n}")
        object.__setattr__(self, "echelon", linalg.echelon(self.basis))
        object.__setattr__(self, "pivots", tuple(sorted(self.echelon)))
        if len(self.pivots) != len(self.basis):
            raise FiberError("basis rows are not linearly independent")

    @property
    def k(self) -> int:
        return len(self.basis)

    @classmethod
    def span_of_coordinates(cls, n: int, indices: Iterable[int]) -> "Subspace":
        rows = []
        for i in sorted(indices):
            row = [Fraction(0)] * n
            row[i - 1] = Fraction(1)
            rows.append(tuple(row))
        return cls(n, tuple(rows))


@dataclass(frozen=True)
class FiberPoint:
    """A parameter value plus a point of Gr(k, n)^n: one k-dimensional
    subspace of the n-space per vertex b in Z_n."""

    epsilon: Fraction
    spaces: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        shapes = {(U.k, U.n) for U in self.spaces}
        if len(shapes) != 1 or shapes.pop()[1] != self.n:
            raise FiberError(
                "a point needs n subspaces of one dimension k in the "
                f"n-space, got (k, n) = {[(U.k, U.n) for U in self.spaces]}")

    @property
    def n(self) -> int:
        return len(self.spaces)

    @property
    def k(self) -> int:
        return self.spaces[0].k

    def to_json(self) -> dict:
        eps = self.epsilon
        return {
            "epsilon": f"{eps.numerator}/{eps.denominator}",
            "spaces": [[[f"{x.numerator}/{x.denominator}" for x in row]
                        for row in U.basis] for U in self.spaces],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FiberPoint":
        """Read the `to_json` form: every number a string, "p/q" or "p", in
        lists at every level. Any other blob raises FiberError. Each
        distinct entry string is parsed once per call."""
        # The lookup raises TypeError on an unhashable entry.
        parsed: dict[str, Fraction] = {}
        try:
            eps = parse_rational(data["epsilon"])
            spaces = [[[parsed[x] if x in parsed
                        else parsed.setdefault(x, parse_rational(x))
                        for x in _typed(row, list)]
                       for row in _typed(rows, list)]
                      for rows in _typed(data["spaces"], list)]
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise FiberError(
                f"not a point object ({type(exc).__name__}: {exc})") from exc
        return cls(eps, tuple(Subspace(len(spaces), rows) for rows in spaces))


def apply_quiver_map(vec: Sequence[Fraction], eps, a: int = 1
                     ) -> list[Fraction]:
    """M(eps)^a, where M(eps): w_i -> w_{i-1} for i > 1, w_1 -> eps * w_n.

    M(eps)^n = eps * identity, so for a = qn + r the image is eps^q times
    the vector shifted down r places, its first r entries wrapped round to
    the end with a factor eps."""
    q, r = divmod(a, len(vec))
    out = list(vec[r:]) + [eps * x for x in vec[:r]]
    return [eps ** q * x for x in out] if q else out


def map_subspace(U: Subspace, eps, a: int = 1) -> list[list[Fraction]]:
    """Row images under the a-fold quiver map; may be rank-deficient."""
    return [apply_quiver_map(row, eps, a) for row in U.basis]


def is_subrepresentation(point: FiberPoint) -> bool:
    """M(eps) U_b <= U_{b+1} for all b: each of the k rows of M(eps) U_b
    reduces to zero against the kept echelon rows of V = U_{b+1}."""
    spaces = point.spaces
    return all(linalg.in_span(V.echelon, row)
               for U, V in zip(spaces, spaces[1:] + spaces[:1])
               for row in map_subspace(U, point.epsilon))


def plucker_vector(U: Subspace) -> dict[KSubset, Fraction]:
    """All k x k minors, indexed by sorted column subsets."""
    out = {}
    for cols in combinations(range(U.n), U.k):
        sub = [[row[c] for c in cols] for row in U.basis]
        out[KSubset(U.n, tuple(c + 1 for c in cols))] = linalg.det(sub)
    return out


def plucker_assignment(point: FiberPoint) -> dict[Var, Fraction]:
    """Variable assignment (including epsilon) for evaluating ideal
    generators on a fiber point."""
    out: dict[Var, Fraction] = {EPSILON: point.epsilon}
    for a, U in enumerate(point.spaces):
        for I, val in plucker_vector(U).items():
            out[("D", a, I.elements)] = val
    return out


def in_opposite_schubert(U: Subspace, J_b: KSubset) -> bool:
    """Delta_I(U) = 0 for every I not componentwise >= J_b.

    The I with Delta_I(U) != 0 are the bases of the column matroid of U.
    Its greedy basis, the pivot columns P of an echelon form of U, is
    componentwise <= every other basis, and is a basis itself. So every
    such I is >= J_b exactly when P is, and one echelon form decides
    membership without any minor."""
    P = KSubset(U.n, tuple(c + 1 for c in U.pivots))
    return J_b.leq(P)


def in_classical_positroid(U: Subspace, J: JugglingPattern) -> bool:
    """phi^b(U) in X^-_(J_b) for all b, phi the eps=1 quiver map."""
    return all(in_opposite_schubert(Subspace(U.n, map_subspace(U, 1, b)), Jb)
               for b, Jb in enumerate(J.entries))


def in_positroid_fiber(point: FiberPoint, J: JugglingPattern) -> bool:
    """M(eps) U_b <= U_{b+1} and U_b in X^-_(J_b) for every vertex b. The
    Schubert test reads only pivots, so it goes first."""
    if (point.k, point.n) != (J.k, J.n):
        raise FiberError(
            f"a point of Gr({point.k},{point.n})^{point.n} is not on a fiber "
            f"of the ({J.k},{J.n}) pattern {J}")
    return (all(in_opposite_schubert(U, Jb)
                for U, Jb in zip(point.spaces, J.entries))
            and is_subrepresentation(point))


def torus_fixed_point(S: AnchorSet, eps) -> FiberPoint:
    """p(S): vertex b spans the coordinate vectors indexed by J(S)_b."""
    JS = pattern_from_anchor(S)
    spaces = tuple(Subspace.span_of_coordinates(S.n, Jb.elements)
                   for Jb in JS.entries)
    return FiberPoint(Fraction(eps), spaces)


# -- k=1 parametrization -----------------------------------------------------

def k1_point(J: JugglingPattern, lam: Mapping[int, Fraction],
             eps) -> FiberPoint:
    """Parametrized point of the k=1 fiber: v_0 = sum of lam_l w_{l+1} over
    the ones locus, and v_b = M(eps)^b v_0. The entries of v_0 that wrap
    pick up a factor eps; a vertex whose nonzero entries all wrap drops
    that common factor, so the eps=0 limit is taken per vertex."""
    if J.k != 1:
        raise FiberError("k1_point requires k = 1")
    L = J.ones_locus
    if not set(lam) <= set(L):
        raise FiberError(f"lambda must be supported on the ones locus {set(L)}")
    v0 = [Fraction(lam.get(l, 0)) for l in range(J.n)]
    if not any(v0):
        raise FiberError("lambda must not be identically zero")
    # M(eps)^b moves v0[b:] down without a factor and wraps v0[:b].
    spaces = tuple(
        Subspace(J.n, (apply_quiver_map(v0, eps if any(v0[b:]) else 1, b),))
        for b in range(J.n))
    return FiberPoint(eps, spaces)


def project_and_check(point: FiberPoint, J: JugglingPattern) -> list[bool]:
    """Per-vertex classical membership: U_b in the positroid of rot^b(J)."""
    return [in_classical_positroid(point.spaces[b], rotate(J, b))
            for b in range(J.n)]
