"""Exact linear-algebra model of the fibers: the cyclic quiver maps M(eps),
subrepresentation and Schubert membership tests, torus fixed points, and the
k=1 parametrized points."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import linalg
from .patterns import (AnchorSet, JugglingPattern, KSubset,
                       pattern_from_anchor, rotate)
from .poly import EPSILON, Var


class FiberError(ValueError):
    pass


def _frac_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of the n-space, spanned by the rows of an
    exact full-rank k x n matrix."""

    n: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", _frac_rows(self.basis))
        if any(len(row) != self.n for row in self.basis):
            raise FiberError("rows must have length n")
        if linalg.rank(self.basis) != len(self.basis):
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
    """A parameter value plus a tuple of subspaces, one per vertex."""

    epsilon: Fraction
    spaces: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))

    @property
    def n(self) -> int:
        return len(self.spaces)

    def to_json(self) -> dict:
        eps = self.epsilon
        return {
            "epsilon": f"{eps.numerator}/{eps.denominator}",
            "spaces": [[[f"{x.numerator}/{x.denominator}" for x in row]
                        for row in U.basis] for U in self.spaces],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FiberPoint":
        spaces = []
        for rows in data["spaces"]:
            rows = [tuple(Fraction(x) for x in row) for row in rows]
            spaces.append(Subspace(len(rows[0]), tuple(rows)))
        return cls(Fraction(data["epsilon"]), tuple(spaces))


def apply_quiver_map(vec: Sequence[Fraction], eps) -> list[Fraction]:
    """M(eps): w_i -> w_{i-1} for i > 1, w_1 -> eps * w_n."""
    eps = Fraction(eps)
    n = len(vec)
    out = [vec[i + 1] for i in range(n - 1)]
    out.append(eps * vec[0])
    return out


def quiver_map_power(vec: Sequence[Fraction], eps, a: int) -> list[Fraction]:
    out = list(vec)
    for _ in range(a):
        out = apply_quiver_map(out, eps)
    return out


def map_subspace(U: Subspace, eps, a: int = 1) -> list[list[Fraction]]:
    """Row images under the a-fold quiver map; may be rank-deficient."""
    return [quiver_map_power(row, eps, a) for row in U.basis]


def is_subrepresentation(point: FiberPoint) -> bool:
    """M(eps) U_b <= U_{b+1} for all b, by exact rank."""
    n = point.n
    for b in range(n):
        U, V = point.spaces[b], point.spaces[(b + 1) % n]
        stacked = list(V.basis) + map_subspace(U, point.epsilon)
        if linalg.rank(stacked) != V.k:
            return False
    return True


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
    """Delta_I(U) = 0 for every I not componentwise >= J_b."""
    pv = plucker_vector(U)
    return all(val == 0 for I, val in pv.items() if not J_b.leq(I))


def in_classical_positroid(U: Subspace, J: JugglingPattern) -> bool:
    """phi^b(U) in X^-_(J_b) for all b, phi the eps=1 quiver map."""
    rows = [list(row) for row in U.basis]
    for b in range(J.n):
        V = Subspace(U.n, _frac_rows(rows))
        if not in_opposite_schubert(V, J.entries[b]):
            return False
        rows = [apply_quiver_map(row, 1) for row in rows]
    return True


def in_positroid_fiber(point: FiberPoint, J: JugglingPattern) -> bool:
    if point.n != J.n:
        raise FiberError("vertex count mismatch")
    if not is_subrepresentation(point):
        return False
    return all(in_opposite_schubert(U, Jb)
               for U, Jb in zip(point.spaces, J.entries))


def torus_fixed_point(S: AnchorSet, eps) -> FiberPoint:
    """p(S): vertex b spans the coordinate vectors indexed by J(S)_b."""
    JS = pattern_from_anchor(S)
    spaces = tuple(Subspace.span_of_coordinates(S.n, Jb.elements)
                   for Jb in JS.entries)
    return FiberPoint(Fraction(eps), spaces)


# -- k=1 parametrization -----------------------------------------------------

def _poly_shift(vec: list[dict], n: int) -> list[dict]:
    # entries are eps-polynomials as {degree: coeff}; apply M(t) symbolically
    out = [dict(vec[i + 1]) for i in range(n - 1)]
    out.append({d + 1: c for d, c in vec[0].items()})
    return out


def k1_point(J: JugglingPattern, lam: Mapping[int, Fraction],
             eps) -> FiberPoint:
    """Parametrized point of the k=1 fiber: v_0 = sum of lam_l w_{l+1} over
    the ones locus, propagated by M(eps); each vertex vector is cleared of
    its epsilon content before specializing, so the eps=0 limit is taken
    per vertex."""
    if J.k != 1:
        raise FiberError("k1_point requires k = 1")
    L = J.ones_locus
    if not set(lam) <= set(L):
        raise FiberError(f"lambda must be supported on the ones locus {set(L)}")
    eps = Fraction(eps)
    n = J.n
    vec: list[dict] = [dict() for _ in range(n)]
    for l, c in lam.items():
        c = Fraction(c)
        if c:
            vec[(l + 1) - 1] = {0: c}
    if all(not e for e in vec):
        raise FiberError("lambda must not be identically zero")
    spaces = []
    for b in range(n):
        nonzero = [e for e in vec if e]
        shift = min(min(e) for e in nonzero)
        row = []
        for e in vec:
            val = Fraction(0)
            for d, c in e.items():
                val += c * eps ** (d - shift)
            row.append(val)
        if not any(row):
            raise FiberError(
                f"vertex {b} degenerates to zero for this lambda")
        spaces.append(Subspace(n, (tuple(row),)))
        vec = _poly_shift(vec, n)
    return FiberPoint(eps, tuple(spaces))


def project_and_check(point: FiberPoint, J: JugglingPattern) -> list[bool]:
    """Per-vertex classical membership: U_b in the positroid of rot^b(J)."""
    return [in_classical_positroid(point.spaces[b], rotate(J, b))
            for b in range(J.n)]
