"""Tests for ideal construction and multigraded component dimensions."""

import random
from fractions import Fraction
from math import comb

import pytest

from positroid import groebner, hilbert, ideals
from positroid.fibers import (FiberError, FiberPoint, Subspace, map_subspace,
                              plucker_assignment, plucker_vector)
from positroid.groebner import Ideal, ResourceCapExceeded, plucker_universe
from positroid.hilbert import graded_component_dim, monomials_of_multidegree
from positroid.ideals import (
    classical_plucker_generators,
    global_positroid_ideal,
    pattern_free_generators,
    schubert_vanishing_generators,
    transport,
)
from positroid.k1basis import is_admissible
from positroid.patterns import all_subsets, enumerate_patterns, rotate
from positroid.poly import EPSILON, Monomial, Polynomial, dedup, poly_to_text
from support import D, P, constant_pattern, multidegrees


def random_subspace(rng, k, n):
    """A k-dimensional subspace of the n-space spanned by small random
    integer rows."""
    while True:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(k))
        try:
            return Subspace(n, rows)
        except FiberError:
            pass


def classical_dim(J, d):
    """HF_Pi(d) for the classical positroid variety Pi of J, which the
    Pluecker quadrics and the vanishing Pluecker coordinates of color 0 cut
    out as a scheme (Knutson-Lam-Speyer, "Positroid varieties: juggling and
    geometry", section 5): one single-color graded component."""
    vanishing = [g for g in schubert_vanishing_generators(J)
                 if g.multidegree(J.n)[0]]
    ideal = Ideal(J.k, J.n, tuple(classical_plucker_generators(J.k, J.n, 0)
                                  + vanishing), has_epsilon=False)
    return graded_component_dim(ideal, (d,) + (0,) * (J.n - 1))


class TestClassicalGenerators:
    def test_gr24_single_quadric(self):
        gens = classical_plucker_generators(2, 4, 0)
        quad = D(0, 1, 2) * D(0, 3, 4) - D(0, 1, 3) * D(0, 2, 4) \
            + D(0, 1, 4) * D(0, 2, 3)
        assert any(g == quad or g == -quad for g in gens)

    def test_k1_has_no_quadrics(self):
        assert classical_plucker_generators(1, 4, 0) == []

    def test_generators_are_multihomogeneous(self):
        for g in classical_plucker_generators(2, 5, 1):
            assert g.multidegree(5) is not None
            assert sum(g.multidegree(5)) == 2


class TestSchubertGenerators:
    def test_constant_pattern_has_none(self):
        assert schubert_vanishing_generators(constant_pattern(2, 4)) == ()

    def test_k1_vanishing_variables(self):
        # Shift 0 gives D1_1, D1_2 and D2_1; the shifts 1 and 2 add D0_2,
        # D0_3 and D2_3, every D_(b,i) with b + i - 1 outside the ones
        # locus {0}.
        J = P(1, 3, (1,), (3,), (2,))
        gens = schubert_vanishing_generators(J)
        expected = {poly_to_text(D(b, i)) for b, i in
                    [(0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (2, 3)]}
        assert {poly_to_text(g) for g in gens} == expected

    @pytest.mark.parametrize("k, n", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                                      (2, 4), (2, 5), (3, 5)])
    def test_vanishing_is_closed_under_the_shifts(self, k, n):
        # One shift step closes the vanishing set: whenever
        # Delta^(a+c)_(I-c) vanishes, so does Delta^(a)_I.
        for J in enumerate_patterns(k, n):
            vanishing = {v[1:] for g in schubert_vanishing_generators(J)
                         for m in g.terms for v in m.factors}
            assert not [
                (a, I.elements, c)
                for a in range(n) for I in all_subsets(k, n)
                for c in range(n)
                if ((a + c) % n, I.shift(c).elements) in vanishing
                and (a, I.elements) not in vanishing], str(J)


class TestEpsilonRelations:
    # Gr(1, n) has no quadrics, so for k = 1 the pattern-free generators
    # are the shift relations alone.

    def test_k1_n3_matches_quadratic_table(self):
        # For k=1 the relations pair single indices:
        # D^(b)_i D^(b+s)_j = eps^? D^(b)_{j+s mod} D^(b+s)_{i-s mod}.
        gens = pattern_free_generators(1, 3)
        texts = {poly_to_text(g) for g in gens}
        assert len(gens) == 9
        # no wrap on either side: D^(0)_3 D^(1)_1 = D^(0)_2 D^(1)_2.
        assert "D0_2*D1_2 - D0_3*D1_1" in texts
        # a wrap on one side picks up a single epsilon:
        # eps D^(0)_1 D^(1)_1 = D^(0)_2 D^(1)_3.
        assert "D0_1*D1_1*e - D0_2*D1_3" in texts

    def test_epsilon_exponent_nonnegative(self):
        for g in pattern_free_generators(2, 4):
            for mono in g.terms:
                assert mono.epsilon_exponent() >= 0

    def test_relations_homogeneous_of_degree_one_per_color_pair(self):
        for g in pattern_free_generators(1, 4):
            md = g.multidegree(4)
            assert md is not None and sum(md) == 2


class TestTransport:
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 4), (3, 5)])
    def test_matches_the_quiver_map(self, k, n):
        # Delta^(a)_I = eps^(-d) t, with t = sign * Delta^(a+c)_(I-c): on
        # U_(a+c) = M(eps)^c U_a, the minor on the columns I - c is
        # sign * eps^d times the minor of U_a on the columns I, read off
        # `fibers` alone and not from any generator.
        rng = random.Random(f"transport {k} {n}")
        for eps in (Fraction(2), Fraction(-1, 3)):
            for _ in range(3):
                U, a = random_subspace(rng, k, n), rng.randrange(n)
                minors = plucker_vector(U)
                for c in range(n):
                    image = plucker_vector(
                        Subspace(n, map_subspace(U, eps, c)))
                    at = {("D", (a + c) % n, I.elements): x
                          for I, x in image.items()}
                    for I, x in minors.items():
                        d, t = transport(a, I, c)
                        assert t.evaluate(at) == eps ** d * x, (U, a, c, I)


class TestTransportedQuadrics:
    @pytest.mark.parametrize("k,n,count", [
        (1, 4, 36), (2, 3, 9), (2, 4, 102), (2, 5, 545), (3, 5, 545)])
    def test_count(self, k, n, count):
        # Every pattern-free generator: the classical quadrics (4, 25, 25
        # on (2,4), (2,5), (3,5)), the transported ones (8, 70, 70) and the
        # shift relations (90, 450, 450); Gr(1, n) and Gr(2, 3) have no
        # quadrics. The transported quadrics are n (n - 1) readings of each
        # quadric of Gr(k, n), 12, 100 and 100 when every term moves its
        # second factor; moving the factor of smaller d_c makes some of
        # them agree up to a factor.
        assert len(pattern_free_generators(k, n)) == count

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 5)])
    def test_vanish_on_random_constant_fiber_points(self, k, n):
        # Every point U_b = M(eps)^b U_0 with eps != 0 lies on the fiber of
        # the constant pattern, whose Schubert conditions are empty.
        rng = random.Random(f"transported {k} {n}")
        gens = pattern_free_generators(k, n)
        for eps in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3)):
            U0 = random_subspace(rng, k, n)
            point = FiberPoint(eps, tuple(
                Subspace(n, map_subspace(U0, eps, b)) for b in range(n)))
            asg = plucker_assignment(point)
            assert not [poly_to_text(g) for g in gens if g.evaluate(asg)]

    def test_eps_one_dims_are_the_classical_counts(self):
        # On the fiber at eps = 1, U_b = M(1)^b U_0, so a monomial of
        # multidegree m is a degree-|m| polynomial in the Pluecker
        # coordinates of U_0: dim (S/I_1)_m = HF_Pi(|m|).
        wrong = []
        for J in enumerate_patterns(2, 4):
            ideal = global_positroid_ideal(J).specialize(1)
            hf = [classical_dim(J, d) for d in range(3)]
            for m in multidegrees(4, 2):
                if graded_component_dim(ideal, m) != hf[sum(m)]:
                    wrong.append(f"{J} m={m}")
        assert not wrong, f"{len(wrong)} cases: {wrong[:5]}"

    def test_generator_budget_counts_every_reading(self, monkeypatch):
        # (2,4): 4^2 colors and shifts times 2 * 36 quadrics before dedup
        # and 36 commutators, 1728 readings. One over the budget stops
        # before any quadric is built.
        build = pattern_free_generators.__wrapped__
        monkeypatch.setattr(groebner, "MAX_GENERATOR_READINGS", 1728)
        assert build(2, 4) == pattern_free_generators(2, 4)
        monkeypatch.setattr(groebner, "MAX_GENERATOR_READINGS", 1727)

        def refuse(*args):
            raise AssertionError("built a generator over the budget")
        monkeypatch.setattr(ideals, "classical_plucker_generators", refuse)
        with pytest.raises(ResourceCapExceeded, match="1728"):
            build(2, 4)

    def test_generator_budget_admits_3_7_and_stops_4_8(self):
        readings = {(k, n): n * n * (k + 1) * comb(n, k) ** 2
                    for k, n in ((3, 6), (3, 7), (4, 8), (4, 9))}
        assert readings[3, 6] == 57600
        assert readings[3, 7] <= groebner.MAX_GENERATOR_READINGS
        assert readings[4, 8] > groebner.MAX_GENERATOR_READINGS
        with pytest.raises(ResourceCapExceeded):
            global_positroid_ideal(constant_pattern(4, 9), 1)

    def test_constant_3_6_antipodal_component_is_flat(self):
        # At m = e_0 + e_3 both fibers have 175 = HF_Gr(3,6)(2). Moving the
        # second factor of Delta_156 Delta_234 (d_3 = 2, against 0 for
        # Delta_156) would leave the quadric of Delta_123 Delta_456 with a
        # top eps power of 2, and the fiber at eps = 0 with 176.
        ideal = global_positroid_ideal(constant_pattern(3, 6))
        assert [graded_component_dim(ideal.specialize(e), (1, 0, 0, 1, 0, 0))
                for e in (0, 1)] == [175, 175]


class TestGlobalIdeal:
    def test_vanishes_on_torus_fixed_points(self):
        from positroid.fibers import plucker_assignment, torus_fixed_point
        from positroid.patterns import components_of_special_fiber
        J = P(1, 3, (1,), (1,), (2,))
        ideal = global_positroid_ideal(J)
        for S in components_of_special_fiber(J):
            for eps in (0, 1, Fraction(-2, 3)):
                pt = torus_fixed_point(S, eps)
                asg = plucker_assignment(pt)
                for g in ideal.generators:
                    assert g.evaluate(asg) == 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_k2_vanishes_on_torus_fixed_points(self, n):
        # For k >= 2 the shifted vanishing monomials rest on the shift
        # relations alone; each must vanish on every component.
        from positroid.fibers import plucker_assignment, torus_fixed_point
        from positroid.patterns import components_of_special_fiber
        for J in enumerate_patterns(2, n):
            ideal = global_positroid_ideal(J)
            for S in components_of_special_fiber(J):
                for eps in (0, 1, Fraction(-2, 3)):
                    asg = plucker_assignment(torus_fixed_point(S, eps))
                    for g in ideal.generators:
                        assert g.evaluate(asg) == 0, (str(J), str(S), eps)

    SIGN_WITNESS_EPSILONS = (1, 2, -1, Fraction(1, 3))

    @staticmethod
    def _constant_2_4_member(eps):
        # U_0 is not a coordinate subspace, so several Pluecker coordinates
        # of each vertex are nonzero, unlike at a torus fixed point.
        from positroid.fibers import FiberPoint, Subspace, map_subspace
        U0 = Subspace(4, ((-1, 0, -1, 0), (0, 0, 1, 1)))
        return FiberPoint(eps, tuple(Subspace(4, map_subspace(U0, eps, b))
                                     for b in range(4)))

    def test_constant_2_4_point_is_a_fiber_member(self):
        from positroid.fibers import in_positroid_fiber
        for eps in self.SIGN_WITNESS_EPSILONS:
            assert in_positroid_fiber(self._constant_2_4_member(eps),
                                      constant_pattern(2, 4)), eps

    def test_k2_generators_vanish_on_constant_fiber_member(self):
        from positroid.fibers import plucker_assignment
        ideal = global_positroid_ideal(constant_pattern(2, 4))
        nonzero = []
        for eps in self.SIGN_WITNESS_EPSILONS:
            asg = plucker_assignment(self._constant_2_4_member(eps))
            nonzero.extend((str(eps), poly_to_text(g))
                           for g in ideal.generators if g.evaluate(asg))
        assert not nonzero

    def test_contains_shifted_vanishing_variable(self):
        # D0_2*D1_j lies in the ideal of 1,2 for every j (shift relation
        # against the Schubert monomial D1_1), so D0_2 vanishes on the
        # fibers and must be a generator.
        ideal = global_positroid_ideal(P(1, 2, (1,), (2,)))
        assert D(0, 2) in ideal.generators

    def test_k1_linear_generators_are_the_ones_locus_condition(self):
        # The linear generators are the variables that are not admissible
        # monomials, on all 119 patterns of (1, n <= 6).
        for n in range(2, 7):
            for J in enumerate_patterns(1, n):
                linear = {g for g in global_positroid_ideal(J).generators
                          if g.total_degree() == 1}
                expected = {Polynomial.variable(v)
                            for v in plucker_universe(1, n)
                            if not is_admissible(Monomial([v]), J)}
                assert linear == expected, str(J)

    def test_specialize_at_zero_contains_pure_monomials(self):
        # Constant k=1, n=3 pattern: the wrapped relations degenerate at
        # eps=0 to pure monomials such as D0_2*D1_3 (the rank-one minors of
        # the arrow between the first two vertices).
        ideal = global_positroid_ideal(constant_pattern(1, 3))
        sp = ideal.specialize(0)
        for target in (D(0, 2) * D(1, 3), D(0, 3) * D(1, 3)):
            assert any(g == target or g == -target for g in sp.generators)

    def test_specialize_removes_epsilon(self):
        ideal = global_positroid_ideal(P(1, 2, (1,), (2,)))
        sp = ideal.specialize(2)
        assert not sp.has_epsilon
        assert all(EPSILON not in g.variables() for g in sp.generators)

    @pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
                                     (3, 5)])
    def test_direct_specialization_matches_specialize(self, k, n):
        # The same generators in the same order, so `ideal --epsilon` and
        # every graded dimension are unchanged, and the same vanishing set.
        for J in enumerate_patterns(k, n):
            ideal = global_positroid_ideal(J)
            for eps in (0, 1, 2, Fraction(-1, 2)):
                direct = global_positroid_ideal(J, eps)
                expected = ideal.specialize(eps)
                assert direct.generators == expected.generators, (str(J), eps)
                assert direct.vanishing == expected.vanishing, (str(J), eps)
                assert ([poly_to_text(g) for g in direct.generators]
                        == [poly_to_text(g) for g in expected.generators])
                assert not direct.has_epsilon
                # The same groups in the same order, each with the same
                # generators in the same order: the Koszul blocked set and
                # the rows of a graded component follow them.
                assert direct.by_multidegree == expected.by_multidegree, (
                    str(J), eps)

    def test_only_partly_vanishing_generators_are_rebuilt(self, monkeypatch):
        # With the family table warm, a generator that the vanishing set
        # misses is kept and one it meets in every term is dropped, both
        # by their masks: only one that keeps some but not all of its
        # terms goes through `Polynomial.without`.
        patterns = enumerate_patterns(2, 4)
        calls = []
        without = Polynomial.without
        monkeypatch.setattr(Polynomial, "without",
                            lambda g, zero: calls.append(g) or without(g, zero))
        for eps in (0, 1):
            global_positroid_ideal(patterns[0], eps)
            family = dedup(g.substitute_epsilon(eps)
                           for g in pattern_free_generators(2, 4))
            for J in patterns:
                calls.clear()
                zero = global_positroid_ideal(J, eps).vanishing
                partial = sum(
                    0 < sum(zero.isdisjoint(m.factors) for m in g.terms)
                    < len(g.terms) for g in family)
                assert len(calls) <= partial, (str(J), eps)


def _relabeled(g, n):
    # g with every color a relabeled a - 1, made primitive again: the
    # relabeling may change which term leads, and so the sign.
    def var(v):
        return v if v == EPSILON else (v[0], (v[1] - 1) % n, v[2])
    return Polynomial({Monomial(map(var, m.factors)): c
                       for m, c in g.terms.items()}).primitive()


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5)])
def test_generators_are_rotation_equivariant(k, n):
    # Rotating the quiver is an automorphism: the ideal of rotate(J), whose
    # color a is J_(a+1), is the ideal of J with every color a relabeled
    # a - 1, and so is its generator set.
    mismatched = [str(J) for J in enumerate_patterns(k, n)
                  if set(global_positroid_ideal(rotate(J)).generators)
                  != {_relabeled(g, n)
                      for g in global_positroid_ideal(J).generators}]
    assert not mismatched, mismatched[:5]


def _loop_weight(v, n):
    # w(D^(a)_I) = -#{i in I : i + a < n} and w(eps) = 1.
    if v == EPSILON:
        return 1
    _, a, elems = v
    return -sum(1 for i in elems if i + a < n)


@pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
                                 (3, 5)])
def test_generators_are_loop_rotation_homogeneous(k, n):
    # t acting by D -> t^w D and eps -> t eps maps the ideal to itself, so
    # every fiber at eps != 0 is isomorphic to the one at eps = 1.
    inhomogeneous = []
    for J in enumerate_patterns(k, n):
        for g in global_positroid_ideal(J).generators:
            weights = {sum(e * _loop_weight(v, n) for v, e in m.exps)
                       for m in g.terms}
            if len(weights) != 1:
                inhomogeneous.append(f"{J}: {poly_to_text(g)}")
    assert not inhomogeneous, "\n".join(inhomogeneous[:5])


class TestMonomialsOfMultidegree:
    def test_counts_are_products_of_multiset_binomials(self):
        for k, n, m in [(1, 3, (2, 0, 1)), (2, 4, (1, 1, 0, 0)),
                        (2, 4, (2, 0, 0, 0))]:
            N = comb(n, k)
            expected = 1
            for mb in m:
                expected *= comb(N + mb - 1, mb)
            assert len(monomials_of_multidegree(k, n, m)) == expected

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            monomials_of_multidegree(1, 3, (1, 0))

    def test_cap_is_decided_before_enumerating(self, monkeypatch):
        # C(25, 16) = 2042975 monomials of color 0 exceed the cap; the
        # closed-form count must say so before any of them is built.
        def refuse(*args):
            raise AssertionError("enumerated a component over the cap")
        monkeypatch.setattr(hilbert, "combinations_with_replacement", refuse)
        with pytest.raises(ResourceCapExceeded):
            monomials_of_multidegree(2, 5, (16, 0, 0, 0, 0))


class TestGradedComponentDim:
    def test_zero_ideal_gives_monomial_count(self):
        ideal = Ideal(2, 4, (), has_epsilon=False)
        for m in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)]:
            assert graded_component_dim(ideal, m) == \
                len(monomials_of_multidegree(2, 4, m))

    def test_requires_specialized_ideal(self):
        ideal = global_positroid_ideal(P(1, 2, (1,), (1,)))
        with pytest.raises(ValueError):
            graded_component_dim(ideal, (1, 0))

    def test_inhomogeneous_generator_raises(self):
        g = D(0, 1) * D(1, 2) + D(0, 3) * D(0, 3)
        ideal = Ideal(1, 3, (g,), has_epsilon=False)
        with pytest.raises(ValueError, match="not multihomogeneous"):
            graded_component_dim(ideal, (1, 1, 0))

    def test_k2_constant_linear_component(self):
        ideal = global_positroid_ideal(constant_pattern(2, 4)).specialize(1)
        assert graded_component_dim(ideal, (1, 0, 0, 0)) == 6

    def test_single_point_fiber_has_dim_one_in_positive_degrees(self):
        # J=(3,2,1) cuts a single point; in strictly positive multidegrees
        # the quotient is one-dimensional at every epsilon.
        ideal = global_positroid_ideal(P(1, 3, (3,), (2,), (1,)))
        for eps in (0, 1, 2):
            sp = ideal.specialize(eps)
            for m in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
                assert graded_component_dim(sp, m) == 1

    def test_k2_degree_three_component_is_flat(self):
        ideal = global_positroid_ideal(constant_pattern(2, 4))
        dims = [graded_component_dim(ideal.specialize(e), (0, 0, 1, 2))
                for e in (0, 1)]
        assert dims[0] == dims[1]

    def test_flatness_smoke_n3(self):
        for J in enumerate_patterns(1, 3):
            ideal = global_positroid_ideal(J)
            for m in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)]:
                dims = {graded_component_dim(ideal.specialize(e), m)
                        for e in (0, 1, 2, -1)}
                assert len(dims) == 1
