"""Helpers shared by the tests: Pluecker variables, patterns and
multidegrees. Pytest puts this directory on `sys.path`, so a test module
reads them with `from support import ...`."""

from itertools import product

from positroid.patterns import JugglingPattern, KSubset
from positroid.poly import Polynomial


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
