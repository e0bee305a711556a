"""Tests for admissible monomials, rewriting, and the basis verifier."""

from fractions import Fraction
from math import comb

import pytest

from positroid import groebner, hilbert, k1basis
from positroid.groebner import ResourceCapExceeded
from positroid.ideals import global_positroid_ideal
from positroid.k1basis import (
    ZeroInQuotient,
    count_admissible,
    enumerate_admissible,
    evaluate,
    expected_count,
    is_admissible,
    rewrite_to_normal_form,
    sample_lambda,
    sample_points,
    verify_basis,
)
from positroid.patterns import enumerate_patterns
from support import P, constant_pattern, multidegrees, parse_polynomial


def mono(text):
    """The monomial of `text`, a product of k = 1 variables such as
    "D0_2*D1_2"."""
    (mon,) = parse_polynomial(text).terms
    return mon


class TestK1Monomial:
    def test_text_multidegree_and_measure(self):
        mon = mono("D2_3*D0_2*D0_1")
        assert mon.multidegree(3) == (2, 0, 1)
        assert str(mon) == "D0_1*D0_2*D2_3"
        # Admissible already: the trace holds the one index product.
        assert rewrite_to_normal_form(mon, constant_pattern(1, 3))[1] == [6]


class TestAdmissibility:
    def test_constant_pattern_degree_11_monomials(self):
        # For the constant pattern on 3 vertices and m=(1,1,0) exactly six
        # monomials are admissible.
        mons = enumerate_admissible(constant_pattern(1, 3), (1, 1, 0))
        assert sorted(str(m) for m in mons) == [
            "D0_1*D1_1", "D0_1*D1_2", "D0_1*D1_3",
            "D0_2*D1_1", "D0_3*D1_1", "D0_3*D1_2"]

    def test_descending_pair_is_inadmissible(self):
        # D0_2*D1_2: i=2 at vertex 0 with s=1 and j=2 > i-s=1.
        assert not is_admissible(mono("D0_2*D1_2"), constant_pattern(1, 3))

    def test_ones_locus_condition(self):
        J = P(1, 3, (1,), (3,), (2,))  # ones locus {0}
        assert is_admissible(mono("D0_1"), J)
        assert not is_admissible(mono("D0_2"), J)

    def test_admissibility_requires_k_1(self):
        # On every call: the memo of the ones locus keeps no exception.
        J = P(2, 3, (1, 2), (1, 2), (1, 2))
        for _ in range(2):
            with pytest.raises(ValueError, match="k = 1"):
                is_admissible(mono("D0_1"), J)

    def test_off_ones_locus_is_one_set_per_pattern(self):
        # The component memo's key then holds one object per pattern.
        off = k1basis._off_ones_locus
        first = off(P(1, 4, (2,), (1,), (1,), (3,)))
        assert first and off(P(1, 4, (2,), (1,), (1,), (3,))) is first

    @pytest.mark.parametrize("cold", [False, True])
    def test_enumeration_is_its_definition(self, cold):
        # The admissible monomials of the full component, in its order,
        # whether or not the shared component is already kept.
        for n, bound in ((2, 3), (3, 3), (4, 3), (5, 2)):
            for J in enumerate_patterns(1, n):
                for m in multidegrees(n, bound):
                    if cold:
                        hilbert.component_monomials.cache_clear()
                    full = hilbert.monomials_of_multidegree(1, n, m)
                    assert enumerate_admissible(J, m) == [
                        mon for mon in full if is_admissible(mon, J)]

    def test_count_reads_the_component_of_the_ideal(self, monkeypatch):
        # For k = 1 the ideal's vanishing set is the set of variables off
        # the ones locus, so the count reuses the component just built:
        # it enumerates no monomial, which every component build does.
        J, m = P(1, 4, (2,), (1,), (1,), (3,)), (1, 0, 1, 1)
        hilbert.component_monomials.cache_clear()
        dim = hilbert.graded_component_dim(global_positroid_ideal(J, 1), m)
        calls = []
        enumerate_color = hilbert.combinations_with_replacement
        monkeypatch.setattr(hilbert, "combinations_with_replacement",
                            lambda *args: calls.append(args)
                            or enumerate_color(*args))
        assert count_admissible(J, m) == dim
        assert calls == []

    def test_counting_identity_small_sweep(self):
        for n in (2, 3, 4):
            for J in enumerate_patterns(1, n):
                for m in multidegrees(n, 3):
                    assert count_admissible(J, m) == expected_count(J, m)

    def test_enumeration_meets_the_component_cap(self, monkeypatch):
        # (1, 1, 1) has 27 monomials in the full ring, 10 of them
        # admissible; the cap is decided before any is built, and a
        # component kept from an earlier call is not rebuilt.
        hilbert.component_monomials.cache_clear()
        monkeypatch.setattr(groebner, "MAX_COMPONENT_MONOMIALS", 5)
        with pytest.raises(ResourceCapExceeded):
            count_admissible(constant_pattern(1, 3), (1, 1, 1))

    def test_expected_count_formula(self):
        J = constant_pattern(1, 3)
        assert expected_count(J, (1, 1, 0)) == comb(2 + 3 - 1, 2)


class TestRewriting:
    def test_known_rewrite_without_wrap(self):
        # D0_3*D1_3 -> D1_1*D1_3? no: (i=3)@0 with (j=3)@1, s=1, j<=n-s=2
        # fails, so the wrap rule fires: new_i = 3+1-3 = 1, e += 1.
        nf, _ = rewrite_to_normal_form(mono("D0_3*D1_3"),
                                       constant_pattern(1, 3))
        assert nf.epsilon_power == 1
        assert str(nf.monomial) == "D0_1*D1_2"

    def test_known_rewrite_with_plain_exchange(self):
        # D0_2*D1_2 with s=1: j=2 <= n-s=2, exchange to D0_3*D1_1, e=0.
        nf, _ = rewrite_to_normal_form(mono("D0_2*D1_2"),
                                       constant_pattern(1, 3))
        assert nf.epsilon_power == 0
        assert str(nf.monomial) == "D0_3*D1_1"

    def test_measure_strictly_decreases(self):
        for n in (3, 4):
            J = constant_pattern(1, n)
            for m in multidegrees(n, 3):
                for mon in hilbert.monomials_of_multidegree(1, n, m):
                    _, trace = rewrite_to_normal_form(mon, J)
                    assert all(a > b for a, b in zip(trace, trace[1:]))

    def test_normal_forms_are_admissible_for_constant_pattern(self):
        J = constant_pattern(1, 3)
        for m in multidegrees(3, 3):
            for mon in hilbert.monomials_of_multidegree(1, 3, m):
                nf, _ = rewrite_to_normal_form(mon, J)
                assert is_admissible(nf.monomial, J)
                assert nf.epsilon_power >= 0

    def test_zero_in_quotient_for_restrictive_pattern(self):
        J = P(1, 2, (1,), (2,))  # ones locus {0}
        with pytest.raises(ZeroInQuotient):
            rewrite_to_normal_form(mono("D0_2"), J)

    def test_evaluation_identity_on_sampled_points(self):
        # input = eps^e * output pointwise; at eps=1 the powers drop out.
        J = constant_pattern(1, 3)
        points = sample_points(J, 4)
        for m in multidegrees(3, 2):
            for mon in hilbert.monomials_of_multidegree(1, 3, m):
                nf, _ = rewrite_to_normal_form(mon, J)
                for pt in points:
                    assert evaluate(mon, pt) == evaluate(nf.monomial, pt)

    def test_evaluation_identity_at_generic_epsilon(self):
        from positroid.fibers import k1_point
        J = constant_pattern(1, 3)
        eps = Fraction(3, 2)
        pt = k1_point(J, {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)},
                      eps)
        mon = mono("D0_3*D1_3")
        nf, _ = rewrite_to_normal_form(mon, J)
        assert evaluate(mon, pt) == eps ** nf.epsilon_power * \
            evaluate(nf.monomial, pt)


class TestSampling:
    def test_sample_lambda_supported_on_ones_locus(self):
        J = P(1, 3, (1,), (1,), (2,))
        lam = sample_lambda(J, 0)
        assert set(lam) == set(J.ones_locus)
        assert all(v > 0 for v in lam.values())

    def test_samples_are_distinct(self):
        J = constant_pattern(1, 3)
        lams = [tuple(sorted(sample_lambda(J, t).items())) for t in range(5)]
        assert len(set(lams)) == 5


class TestVerifyBasis:
    def test_constant_pattern_passes(self):
        passed, case = verify_basis(constant_pattern(1, 3), (1, 1, 0),
                                    epsilons=(0, 1, 2, -1))
        assert passed
        assert case["count"] == 6
        assert case["binomial"] == 6
        assert set(case["dims"].values()) == {6}
        assert case["evaluation_rank"] == 6

    def test_generic_points_reach_full_rank(self):
        # Points on a few lines parallel to (1, ..., 1), which a table of
        # consecutive primes gives, span only 28 of these 35 dimensions.
        passed, case = verify_basis(constant_pattern(1, 5), (3, 0, 0, 0, 0),
                                    epsilons=(0, 1))
        assert passed
        assert case["evaluation_rank"] == case["count"] == 35

    def test_failure_reports_witness(self, monkeypatch):
        # The graded dimension equals the admissible count here, so a
        # dimension one too large stands in for a mismatch.
        dim = hilbert.graded_component_dim
        monkeypatch.setattr(hilbert, "graded_component_dim",
                            lambda ideal, m: dim(ideal, m) + 1)
        passed, case = verify_basis(P(1, 3, (3,), (2,), (1,)), (0, 0, 1),
                                    epsilons=(0, 1, 2, -1))
        # The failing case is the witness: it carries count and dims.
        assert not passed
        assert case["count"] == 1
        assert set(case["dims"].values()) == {2}
