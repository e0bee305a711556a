"""Graded components over the variables outside the vanishing set, checked
against the full-ring computation."""

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod

import pytest

from positroid import hilbert, ideals, linalg
from positroid.groebner import Ideal, ResourceCapExceeded, plucker_universe
from positroid.hilbert import graded_component_dim, monomials_of_multidegree
from positroid.ideals import (
    global_positroid_ideal,
    pattern_free_generators,
    schubert_vanishing_generators,
)
from positroid.patterns import enumerate_patterns, parse_pattern
from positroid.poly import Monomial, Polynomial, grlex_rank
from support import D, multidegrees, standard_monomial_count

EPSILONS = (Fraction(0), Fraction(1), Fraction(-2, 3))


def full_ring_dim(k, n, generators, m):
    """The component dimension of S/(generators) in the full ring: one
    dense row per generator and cofactor monomial, one column per
    monomial. It takes the generators as given, not the normal form of
    `Ideal`, so it checks that form rather than repeating it."""
    basis = monomials_of_multidegree(k, n, m)
    index = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for g in filter(None, generators):  # a zero generator spans no rows
        diff = tuple(mb - db for mb, db in zip(m, g.multidegree(n)))
        if any(x < 0 for x in diff):
            continue
        for mu in monomials_of_multidegree(k, n, diff):
            row = [0] * len(basis)
            for mono, c in g.terms.items():
                row[index[mono * mu]] = c
            rows.append(row)
    return len(basis) - linalg.rank(rows)


def raw_generators(J):
    """The generators of `global_positroid_ideal`, with no term of the
    pattern-free ones dropped."""
    return [*pattern_free_generators(J.k, J.n),
            *schubert_vanishing_generators(J)]


def assert_matches_full_ring(J, generators, ms):
    ideal = Ideal(J.k, J.n, tuple(generators))
    for eps in EPSILONS:
        spec = ideal.specialize(eps)
        raw = [g.substitute_epsilon(eps) for g in generators]
        for m in ms:
            assert graded_component_dim(spec, m) == \
                full_ring_dim(J.k, J.n, raw, m), (str(J), eps, m)


def generator_products(ideal, m):
    """Every (g, mu) of the m-th component: each generator g of a group
    with multidegree d <= m and each monomial mu of multidegree m - d
    outside the vanishing set."""
    return [(g, mu) for d, gens in ideal.by_multidegree
            if all(mb >= db for mb, db in zip(m, d))
            for g in gens
            for mu in monomials_of_multidegree(
                ideal.k, ideal.n, tuple(mb - db for mb, db in zip(m, d)),
                ideal.vanishing)]


@pytest.fixture
def rank_rows(monkeypatch):
    """The rows of every `linalg.rank` call, in call order."""
    rank, seen = linalg.rank, []

    def spy(rows):
        seen.append(list(rows))
        return rank(rows)
    monkeypatch.setattr(linalg, "rank", spy)
    return seen


class TestQuotientByVanishingVariables:
    @pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4)])
    def test_global_ideals_match_full_ring(self, k, n):
        for J in enumerate_patterns(k, n):
            assert_matches_full_ring(J, global_positroid_ideal(J).generators,
                                     multidegrees(n, 2))

    @pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4)])
    def test_terms_in_vanishing_variables_are_dropped(self, k, n):
        # The quadrics and relations still carry terms in the vanishing
        # variables here; the normal form of Ideal must drop them itself.
        carried = 0
        for J in enumerate_patterns(k, n):
            gens = raw_generators(J)
            zero = {v for g in gens if len(g.terms) == 1
                    for v in g.variables()}
            carried += any(v in zero for g in gens
                           if len(g.terms) > 1 for v in g.variables())
            assert_matches_full_ring(J, gens, multidegrees(n, 2))
        assert carried

    def test_only_single_variable_generators_vanish(self):
        # D0_1 - D0_2 is linear but no variable of it is zero in the
        # quotient; 3*D1_3 is, and it kills D0_1*D1_3 and one term of the
        # last generator.
        gens = (D(0, 1) - D(0, 2), D(1, 3).scale(3), D(0, 1) * D(1, 3),
                D(0, 2) * D(1, 3) - D(0, 3) * D(1, 1))
        ideal = Ideal(1, 3, gens, has_epsilon=False)
        assert ideal.vanishing == {("D", 1, (3,))}
        for m in multidegrees(3, 3):
            assert graded_component_dim(ideal, m) == \
                full_ring_dim(1, 3, gens, m)

    def test_a_drop_that_leaves_one_variable_makes_it_vanish(self):
        # Once D0_1 vanishes, D0_1 + D0_2 is D0_2: it vanishes too, and no
        # row of the quotient may be lost with it.
        gens = (D(0, 1), D(0, 1) + D(0, 2),
                D(0, 2) * D(1, 3) - D(0, 3) * D(1, 1))
        ideal = Ideal(1, 3, gens, has_epsilon=False)
        assert ideal.vanishing == {("D", 0, (1,)), ("D", 0, (2,))}
        for m in multidegrees(3, 3):
            assert graded_component_dim(ideal, m) == \
                full_ring_dim(1, 3, gens, m)


class TestRankAgainstGroebner:
    # The ideals are multihomogeneous, so the monomials of multidegree m
    # that no leading monomial of a Groebner basis divides are a basis of
    # the m-th component: the Groebner oracle against the rank one.

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4)])
    def test_dims_count_standard_monomials(self, k, n):
        for J in enumerate_patterns(k, n):
            for eps in (0, 1):
                spec = global_positroid_ideal(J).specialize(eps)
                leads = spec.groebner().leading_monomials()
                for m in multidegrees(n, 2):
                    assert graded_component_dim(spec, m) == \
                        standard_monomial_count(k, n, leads, m), \
                        (str(J), eps, m)

    @pytest.mark.parametrize("patterns", [
        [str(J) for J in enumerate_patterns(1, 3)],
        [str(J) for J in enumerate_patterns(1, 4)],
        ["12|12|12|12", "12|13|12|13", "13|24|13|12"],
    ], ids=["1-3", "1-4", "2-4"])
    def test_dims_count_standard_monomials_to_degree_4(self, patterns):
        # Up to |m| = 4, where the rank skips the rows whose cofactor an
        # earlier lead divides and the oracle skips none.
        for J in map(parse_pattern, patterns):
            for eps in (0, 1):
                spec = global_positroid_ideal(J, eps)
                leads = spec.groebner().leading_monomials()
                for m in multidegrees(J.n, 4):
                    assert graded_component_dim(spec, m) == \
                        standard_monomial_count(J.k, J.n, leads, m), \
                        (str(J), eps, m)


    @pytest.mark.parametrize("k", [1, 2])
    def test_dims_count_sympy_standard_monomials(self, k):
        # sympy's Groebner basis in grlex, with the variables in the order
        # of `plucker_universe`, as the oracle: every (k,3) pattern at
        # |m| <= 3.
        sympy = pytest.importorskip("sympy")
        universe = plucker_universe(k, 3)
        x = dict(zip(universe, sympy.symbols(f"x0:{len(universe)}")))
        for J in enumerate_patterns(k, 3):
            for eps in (0, 1):
                ideal = global_positroid_ideal(J, eps)
                basis = sympy.groebner(
                    [sum(sympy.Rational(c.numerator, c.denominator)
                         * prod(map(x.get, mono.factors))
                         for mono, c in g.terms.items())
                     for g in ideal.generators],
                    *x.values(), order="grlex")
                leads = [Monomial(v for v, e in zip(
                             universe, p.monoms(order="grlex")[0])
                                  for _ in range(e))
                         for p in basis.polys]
                for m in multidegrees(3, 3):
                    assert graded_component_dim(ideal, m) == \
                        standard_monomial_count(k, 3, leads, m), \
                        (str(J), eps, m)


class TestKoszulFilter:
    """Components where `graded_component_dim` skips the rows whose
    cofactor the lead of an earlier generator divides, against the dense
    full-ring rank, which skips none. A copy that also skips mu * g when
    g's own lead divides mu gives 18 for `1,1,1` at m = (0, 2, 2), not 15."""

    @pytest.mark.parametrize("patterns,ms", [
        ([str(J) for J in enumerate_patterns(1, 3)],
         [m for m in multidegrees(3, 6) if sum(m) >= 4]),
        (["12|12|12"], [(3, 3, 2)]),
        (["1,1,1,1", "1,2,1,2", "1,3,2,1"],
         [m for m in multidegrees(4, 4) if sum(m) == 4]),
        (["12|13|12|13", "13|24|13|12"],
         [(2, 1, 1, 0), (2, 2, 0, 0), (0, 1, 0, 3)]),
    ], ids=["1-3", "12|12|12", "1-4", "2-4"])
    def test_matches_full_ring(self, patterns, ms, rank_rows):
        products = 0
        for J in map(parse_pattern, patterns):
            assert_matches_full_ring(J, global_positroid_ideal(J).generators,
                                     ms)
            products += sum(
                len(generator_products(global_positroid_ideal(J, eps), m))
                for eps in EPSILONS for m in ms)
        # Each component took two ranks, the quotient's and the oracle's:
        # the quotient's left rows out.
        assert sum(map(len, rank_rows[::2])) < products


class TestNormalForm:
    @pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4)])
    def test_vanishing_set_and_term_drop(self, k, n):
        for J in enumerate_patterns(k, n):
            gens = raw_generators(J)
            ideal = Ideal(k, n, tuple(gens))
            linear = {v for g in gens if g.total_degree() == 1
                      for v in g.variables()}
            assert ideal.vanishing == linear, str(J)
            # Only the vanishing variables themselves still mention one.
            mentioning = {g for g in ideal.generators
                          if not linear.isdisjoint(g.variables())}
            assert mentioning == {Polynomial.variable(v) for v in linear}, \
                str(J)
            for eps in (0, 1):
                assert ideal.specialize(eps).vanishing == linear, (str(J), eps)

    @pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 4)])
    def test_groups_partition_the_generators(self, k, n):
        for J in enumerate_patterns(k, n):
            for eps in (0, 1):
                ideal = global_positroid_ideal(J).specialize(eps)
                grouped = []
                for d, gens in ideal.by_multidegree:
                    assert all(g.multidegree(n) == d for g in gens), str(J)
                    grouped += gens
                linear = [Polynomial.variable(v) for v in ideal.vanishing]
                assert Counter(grouped + linear) == \
                    Counter(ideal.generators), (str(J), eps)


class TestExcludedVariables:
    def test_exclusion_filters_the_full_list_in_order(self):
        for k, n, m in [(1, 3, (2, 0, 1)), (2, 4, (1, 1, 0, 0)),
                        (2, 4, (2, 0, 1, 0)), (1, 4, (1, 2, 0, 1))]:
            full = monomials_of_multidegree(k, n, m)
            variables = sorted({v for mono in full for v, _ in mono.exps})
            for excluded in (set(variables[::2]), set(variables[1::3]),
                             set(variables)):
                kept = [mono for mono in full
                        if not any(v in excluded for v, _ in mono.exps)]
                assert monomials_of_multidegree(k, n, m, excluded) == kept

    def test_cap_counts_the_full_ring(self, monkeypatch):
        # With every variable excluded nothing would be built, yet the
        # full-ring count C(25, 16) still exceeds the cap.
        everything = {v for b in range(5)
                      for mono in monomials_of_multidegree(
                          2, 5, tuple(int(c == b) for c in range(5)))
                      for v, _ in mono.exps}

        def refuse(*args):
            raise AssertionError("enumerated a component over the cap")
        monkeypatch.setattr(hilbert, "combinations_with_replacement", refuse)
        with pytest.raises(ResourceCapExceeded):
            monomials_of_multidegree(2, 5, (16, 0, 0, 0, 0), everything)


# The components of the hilbert-deep benchmark workload: pattern, then m,
# dimension and count of generator products, the same at eps 0 and 2.
DEEP_COMPONENTS = {"1,1,2": ((3, 3, 2), 9, 75),
                   "12|12|12": ((3, 3, 2), 45, 1728),
                   "12|13|23": ((3, 2, 2), 1, 0),
                   "1,2,1,2": ((1, 1, 1, 1), 5, 24)}
# The rows each keeps at eps 0 and 2, once the Koszul filter leaves out
# the products whose cofactor an earlier lead divides.
DEEP_ROWS = [("1,1,2", 0, 46), ("1,1,2", 2, 48),
             ("12|12|12", 0, 737), ("12|12|12", 2, 801),
             ("12|13|23", 0, 0), ("12|13|23", 2, 0),
             ("1,2,1,2", 0, 21), ("1,2,1,2", 2, 21)]


class TestSparseRows:
    @pytest.mark.parametrize("eps", (0, 1))
    def test_rows_are_sparse_generator_products(self, eps, rank_rows):
        # Each row is a generator g times a cofactor: a mapping with one
        # nonzero entry per term of g, never a dense list over the basis.
        # The products whose cofactor an earlier lead divides are left
        # out, so there are fewer rows than products here. A column is
        # found through the position map: the key of a product term lists
        # the positions of its factors among the surviving variables.
        ideal = global_positroid_ideal(parse_pattern("1,1,2")).specialize(eps)
        m = (2, 2, 1)
        graded_component_dim(ideal, m)
        [seen] = rank_rows
        column = hilbert.component_monomials(ideal.k, ideal.n, m,
                                             ideal.vanishing)
        _, position = hilbert.surviving_variables(ideal.k, ideal.n,
                                                  ideal.vanishing)
        products = [{column[tuple(position[v] for v in t.factors)]: c
                     for t, c in (g * Polynomial({mu: 1})).terms.items()}
                    for g, mu in generator_products(ideal, m)]
        assert seen and len(seen) < len(products)
        for row in seen:
            assert isinstance(row, Mapping)
            assert all(type(c) is int and c for c in row.values())
            assert row in products

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 4)])
    def test_generators_have_integer_coefficients(self, k, n):
        # Every generator of an Ideal is primitive, so a row may carry the
        # numerator of each coefficient alone.
        for J in enumerate_patterns(k, n):
            for eps in EPSILONS:
                for g in global_positroid_ideal(J, eps).generators:
                    assert all(c.denominator == 1
                               for c in g.terms.values()), (str(J), eps)

    @pytest.mark.parametrize(
        "pattern,eps,count", DEEP_ROWS,
        ids=[f"{eps}-{count}" for _, eps, count in DEEP_ROWS])
    def test_rows_left_out_of_a_deep_component(self, pattern, eps, count,
                                               rank_rows):
        # 12|12|12 at m = (3, 3, 2) has 1,728 generator products, of which
        # only 555 are independent.
        m, dim, products = DEEP_COMPONENTS[pattern]
        ideal = global_positroid_ideal(parse_pattern(pattern), eps)
        assert graded_component_dim(ideal, m) == dim
        assert len(generator_products(ideal, m)) == products
        assert [len(rows) for rows in rank_rows] == [count]

    def test_no_lead_below_twice_the_lowest_degree(self, monkeypatch):
        # Every generator here is at least quadric, so no component of
        # total degree 3 or less takes a grlex lead; a deep one does.
        calls = []

        def counted(mono):
            calls.append(mono)
            return grlex_rank(mono)
        monkeypatch.setattr(hilbert, "grlex_rank", counted)
        for k, n in ((1, 4), (2, 4)):
            for J in enumerate_patterns(k, n):
                for eps in (0, 1):
                    ideal = global_positroid_ideal(J, eps)
                    for m in multidegrees(n, 3):
                        graded_component_dim(ideal, m)
        assert calls == []
        ideal = global_positroid_ideal(parse_pattern("12|12|12"), 0)
        graded_component_dim(ideal, (3, 3, 2))
        assert calls

    @pytest.mark.parametrize("pattern,m,dim", [
        (pattern, m, dim) for pattern, (m, dim, _) in DEEP_COMPONENTS.items()])
    def test_large_components(self, pattern, m, dim):
        ideal = global_positroid_ideal(parse_pattern(pattern))
        for eps in (0, 2):
            assert graded_component_dim(ideal.specialize(eps), m) == dim


class TestInputRefusals:
    """Refused inputs: neither builds any key of a component."""

    @pytest.fixture
    def refuse_to_build(self, monkeypatch):
        hilbert.component_monomials.cache_clear()

        def refuse(*args):
            raise AssertionError("enumerated a component of refused input")
        monkeypatch.setattr(hilbert, "combinations_with_replacement", refuse)

    def test_ideal_with_epsilon(self, refuse_to_build):
        ideal = global_positroid_ideal(parse_pattern("1,1,2"))
        with pytest.raises(ValueError, match="specialize epsilon"):
            graded_component_dim(ideal, (1, 1, 0))

    @pytest.mark.parametrize("m", [(), (1, 1), (1, 1, 0, 0)])
    def test_multidegree_of_another_length(self, m, refuse_to_build):
        ideal = global_positroid_ideal(parse_pattern("1,1,2"), 1)
        with pytest.raises(ValueError, match="multidegree length"):
            graded_component_dim(ideal, m)


def listed_monomials(k, n, m, excluded):
    """The monomials outside `excluded` with m_b factors of color b, built
    from the variable lists of each color, in lexicographic order of their
    per-color k-subset lists: the order of the columns."""
    per_color = [list(combinations_with_replacement(
                     [v for I in combinations(range(1, n + 1), k)
                      if (v := ("D", b, I)) not in excluded], mb))
                 for b, mb in enumerate(m)]
    return [Monomial(sum(pick, ())) for pick in product(*per_color)]


class TestPositionKeys:
    """A monomial of a component is keyed by the positions of its factors
    among the surviving variables."""

    # (pattern, eps, m, colors): the components of the pattern's ideal up
    # to degree |m|, with every variable of `colors` excluded as well. In
    # 12|12|12|12 the color-0 Pluecker relations form a group of
    # multidegree 2e_0.
    CASES = [("1,1,2", 0, (2, 2, 1), ()),
             ("12|12|12", 1, (2, 1, 1), ()),
             ("12|12|12|12", 0, (2, 1, 1, 0), ()),
             ("12|13|23", 1, (1, 2, 1), ()),
             ("12|12|12|12", 0, (2, 0, 1, 1), (1,)),
             ("13|24|13|12", 1, (0, 1, 2, 1), (0,))]

    @staticmethod
    def excluded(ideal, colors):
        variables, _ = hilbert.surviving_variables(ideal.k, ideal.n,
                                                   ideal.vanishing)
        return ideal.vanishing | {v for v in variables if v[1] in colors}

    @pytest.mark.parametrize("pattern,eps,m,colors", CASES)
    def test_keys_decode_to_the_monomials_in_column_order(
            self, pattern, eps, m, colors):
        ideal = global_positroid_ideal(parse_pattern(pattern), eps)
        zero = self.excluded(ideal, colors)
        variables, _ = hilbert.surviving_variables(ideal.k, ideal.n, zero)
        assert not any(v[1] in colors for v in variables)
        for q in multidegrees(ideal.n, sum(m)):
            column = hilbert.component_monomials(ideal.k, ideal.n, q, zero)
            keys = sorted(column, key=column.get)
            assert [column[key] for key in keys] == list(range(len(keys)))
            assert all(list(key) == sorted(key) for key in keys)
            decoded = [Monomial(variables[p] for p in key) for key in keys]
            assert decoded == monomials_of_multidegree(
                ideal.k, ideal.n, q, zero) == \
                listed_monomials(ideal.k, ideal.n, q, zero), q
            if any(q[b] for b in colors):
                assert keys == []

    @pytest.mark.parametrize("pattern,eps,m,colors", CASES[:3])
    def test_sorted_concatenation_is_the_product_key(
            self, pattern, eps, m, colors):
        # For every generator term t and cofactor mu of the component,
        # tuple(sorted(t + mu)) is the key of the product monomial; in a
        # same-color group the concatenation is not sorted by itself.
        ideal = global_positroid_ideal(parse_pattern(pattern), eps)
        _, position = hilbert.surviving_variables(ideal.k, ideal.n,
                                                  ideal.vanishing)
        column = hilbert.component_monomials(ideal.k, ideal.n, m,
                                             ideal.vanishing)
        unsorted = 0
        for g, mu in generator_products(ideal, m):
            b = tuple(position[v] for v in mu.factors)
            for t in g.terms:
                a = tuple(position[v] for v in t.factors)
                assert tuple(sorted(a + b)) == \
                    tuple(position[v] for v in (t * mu).factors)
                assert tuple(sorted(a + b)) in column
                unsorted += list(a + b) != sorted(a + b)
        assert unsorted
        if pattern == "12|12|12|12":
            assert (2, 0, 0, 0) in dict(ideal.by_multidegree)


def _sweep_dims(epsilons, cold):
    """graded_component_dim of every (1,5) and (2,4) pattern at |m| <= 2,
    one pattern at a time with the given order of eps, as `flatness` asks
    for them; with `cold`, every shared cache is cleared before each ideal
    and each component."""
    dims = {}
    for k, n in ((1, 5), (2, 4)):
        mds = multidegrees(n, 2)
        for J in enumerate_patterns(k, n):
            specialized = {}
            for eps in epsilons:
                if cold:
                    ideals.schubert_vanishing_generators.cache_clear()
                specialized[eps] = global_positroid_ideal(J, eps)
            for m in mds:
                for eps, ideal in specialized.items():
                    if cold:
                        hilbert.component_monomials.cache_clear()
                    dims[str(J), m, eps] = graded_component_dim(ideal, m)
    return dims


class TestSharedMonomials:
    """A sweep shares the monomial lists of a component and the Schubert
    vanishing monomials of a pattern across eps; no result may show it."""

    def test_warm_cold_and_reversed_sweeps_agree(self):
        warm = _sweep_dims((0, 1, 2), cold=False)
        assert _sweep_dims((0, 1, 2), cold=True) == warm
        assert _sweep_dims((2, 1, 0), cold=False) == warm

    def test_returned_monomial_lists_are_fresh(self):
        m = (1, 1, 0)
        J = parse_pattern("12|13|23")
        ideal = global_positroid_ideal(J, 1)
        dim = graded_component_dim(ideal, m)
        first = monomials_of_multidegree(2, 3, m, ideal.vanishing)
        kept = list(first)
        first.reverse()
        first.pop()
        assert monomials_of_multidegree(2, 3, m, ideal.vanishing) == kept
        assert graded_component_dim(ideal, m) == dim

    def test_vanishing_generators_are_one_shared_tuple(self):
        # A tuple cannot be changed by a caller, so every call for a
        # pattern may return the one kept.
        first = schubert_vanishing_generators(parse_pattern("12|13|23"))
        assert isinstance(first, tuple) and first
        assert schubert_vanishing_generators(parse_pattern("12|13|23")) \
            is first
