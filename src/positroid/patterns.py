"""Juggling patterns: k-subsets of [n], cyclic decrement condition, rotations,
anchor-set patterns and component counting for the special fiber."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .poly import parse_natural


class PatternError(ValueError):
    """Raised for malformed subsets or juggling patterns."""


@dataclass(frozen=True, order=True)
class KSubset:
    """A strictly increasing k-tuple of integers in [n]."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if not 0 < len(self.elements) < self.n:
            raise PatternError(
                f"need 0 < k < n, got k={len(self.elements)}, n={self.n}")
        prev = 0
        for i in self.elements:
            if not isinstance(i, int) or not prev < i <= self.n:
                raise PatternError(
                    f"elements must be strictly increasing in [1, {self.n}], "
                    f"got {self.elements}")
            prev = i

    @property
    def k(self) -> int:
        return len(self.elements)

    def leq(self, other: "KSubset") -> bool:
        """Componentwise partial order: I <= J iff i_u <= j_u for all u."""
        if (self.n, self.k) != (other.n, other.k):
            raise PatternError("subsets must share the same k and n")
        return all(i <= j for i, j in zip(self.elements, other.elements))

    def shift(self, c: int) -> "KSubset":
        """The subset I - c: subtract the representative of c mod n,
        wrapping elements <= c back through n."""
        cb = c % self.n
        out = [i - cb if i > cb else i - cb + self.n for i in self.elements]
        return KSubset(self.n, tuple(sorted(out)))

    def d_shift(self, c: int) -> int:
        """The count d_c(I) of elements wrapped by the -c shift."""
        cb = c % self.n
        return sum(1 for i in self.elements if i <= cb)


def all_subsets(k: int, n: int) -> list[KSubset]:
    """All k-subsets of [n] in lexicographic order."""
    return [KSubset(n, c) for c in combinations(range(1, n + 1), k)]


@dataclass(frozen=True, order=True)
class JugglingPattern:
    """A cyclic n-tuple of k-subsets with j in J_b, j > 1 forcing
    j - 1 in J_{b+1}."""

    k: int
    n: int
    entries: tuple[KSubset, ...]

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise PatternError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if len(self.entries) != self.n:
            raise PatternError(
                f"expected {self.n} entries, got {len(self.entries)}")
        for b, J in enumerate(self.entries):
            if J.n != self.n or J.k != self.k:
                raise PatternError(
                    f"entry {b} has wrong shape: k={J.k}, n={J.n}")
        bad = first_violation(self.entries)
        if bad is not None:
            b, j = bad
            raise PatternError(
                f"decrement condition violated at (b={b}, j={j}): "
                f"{j - 1} not in J_{(b + 1) % self.n}")

    @property
    def ones_locus(self) -> frozenset[int]:
        """L(J) = {b : 1 in J_b}."""
        return frozenset(b for b, J in enumerate(self.entries)
                         if 1 in J.elements)

    @property
    def ell(self) -> int:
        return len(self.ones_locus)

    def leq(self, other: "JugglingPattern") -> bool:
        if (self.k, self.n) != (other.k, other.n):
            raise PatternError("patterns must share the same k and n")
        return all(I.leq(J) for I, J in zip(self.entries, other.entries))

    def __str__(self):
        if self.k == 1:
            return ",".join(str(J.elements[0]) for J in self.entries)
        return "|".join("".join(map(str, J.elements)) if self.n <= 9
                        else ",".join(map(str, J.elements))
                        for J in self.entries)


def first_violation(entries: Iterable[KSubset]) -> tuple[int, int] | None:
    """First (b, j) with j in J_b, j > 1 but j - 1 not in J_{b+1}, or None."""
    entries = tuple(entries)
    n = len(entries)
    for b, J in enumerate(entries):
        nxt = set(entries[(b + 1) % n].elements)
        for j in J.elements:
            if j > 1 and j - 1 not in nxt:
                return (b, j)
    return None


def rotate(J: JugglingPattern, steps: int = 1) -> JugglingPattern:
    """rot(J_0,...,J_{n-1}) = (J_1,...,J_{n-1},J_0), iterated `steps` times."""
    s = steps % J.n
    return JugglingPattern(J.k, J.n, J.entries[s:] + J.entries[:s])


@dataclass(frozen=True, order=True)
class AnchorSet:
    """A k-subset S of Z_n, stored with representatives 0..n-1."""

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if len(set(e % self.n for e in self.elements)) != len(self.elements):
            raise PatternError(f"anchor elements not distinct mod {self.n}")
        norm = tuple(sorted(e % self.n for e in self.elements))
        object.__setattr__(self, "elements", norm)
        if not 0 < len(norm) < self.n:
            raise PatternError("anchor set must have 0 < |S| < n")

    @property
    def k(self) -> int:
        return len(self.elements)


def pattern_from_anchor(S: AnchorSet) -> JugglingPattern:
    """The unique pattern J(S) with n in J_s exactly for s in S;
    entry b is {s - b mod n : s in S} with representatives in [n]."""
    n = S.n
    entries = tuple(
        KSubset(n, tuple(sorted(((s - b - 1) % n) + 1 for s in S.elements)))
        for b in range(n))
    return JugglingPattern(S.k, n, entries)


# The largest n whose patterns or anchor sets are enumerated.
ENUMERATION_BOUND = 8


def _check_enumeration_bound(n: int) -> None:
    if n > ENUMERATION_BOUND:
        raise PatternError(
            f"n={n} exceeds the enumeration bound {ENUMERATION_BOUND}")


def enumerate_patterns(k: int, n: int) -> list[JugglingPattern]:
    """All (k, n)-juggling patterns by backtracking, in lexicographic order
    on the flattened tuple of sorted subsets."""
    if not 0 < k < n:
        raise PatternError(f"need 0 < k < n, got k={k}, n={n}")
    _check_enumeration_bound(n)
    subsets = [c for c in combinations(range(1, n + 1), k)]

    def successors(prev: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        forced = set(j - 1 for j in prev if j > 1)
        for c in subsets:
            if forced <= set(c):
                yield c

    out: list[JugglingPattern] = []

    def extend(chosen: list[tuple[int, ...]]):
        if len(chosen) == n:
            forced = set(j - 1 for j in chosen[-1] if j > 1)
            if forced <= set(chosen[0]):
                out.append(JugglingPattern(
                    k, n, tuple(KSubset(n, c) for c in chosen)))
            return
        for c in successors(chosen[-1]):
            chosen.append(c)
            extend(chosen)
            chosen.pop()

    for c in subsets:
        extend([c])
    return out


def components_of_special_fiber(J: JugglingPattern) -> list[AnchorSet]:
    """Anchor sets S with J <= J(S); these label the irreducible components
    of the special fiber. PatternError for n over ENUMERATION_BOUND."""
    _check_enumeration_bound(J.n)
    found = []
    for c in combinations(range(J.n), J.k):
        S = AnchorSet(J.n, c)
        if J.leq(pattern_from_anchor(S)):
            found.append(S)
    return found


def parse_pattern(text: str) -> JugglingPattern:
    """Parse the CLI string form: "1,3,2" for k=1, or vertices separated by
    '|' with digit strings or comma lists, e.g. "13|23|12" or "1,3|2,3|1,2"."""
    text = text.strip()
    try:
        if "|" in text:
            parts = [p.strip() for p in text.split("|")]
            n = len(parts)
            entries = []
            for p in parts:
                if "," in p:
                    elems = tuple(parse_natural(x.strip())
                                  for x in p.split(","))
                else:
                    elems = tuple(map(parse_natural, p))
                entries.append(KSubset(n, tuple(sorted(elems))))
            k = entries[0].k
            return JugglingPattern(k, n, tuple(entries))
        parts = [p.strip() for p in text.split(",")]
        n = len(parts)
        entries = tuple(KSubset(n, (parse_natural(p),)) for p in parts)
        return JugglingPattern(1, n, entries)
    except ValueError as exc:
        raise PatternError(f"bad pattern {text!r}: {exc}") from exc
