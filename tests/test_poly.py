"""Tests for exact polynomials: arithmetic, sign canonicalization, formats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from positroid.groebner import plucker_universe
from positroid.poly import (
    EPSILON,
    Monomial,
    Polynomial,
    plucker_var,
    poly_to_json,
    poly_to_text,
    polys_to_text,
    sort_sign,
)
from support import D, parse_polynomial, parse_polynomials, poly_from_json


def _random_poly(data, vars_pool):
    terms = data.draw(st.integers(min_value=0, max_value=4))
    p = Polynomial()
    for _ in range(terms):
        coeff = Fraction(data.draw(st.integers(-9, 9)),
                         data.draw(st.integers(1, 9)))
        factors = []
        for v in vars_pool:
            factors += [v] * data.draw(st.integers(0, 2))
        p = p + Polynomial({Monomial(factors): coeff})
    return p


VARS = (plucker_var(0, (1, 2)), plucker_var(0, (1, 3)), EPSILON)


class TestSignCanonicalization:
    def test_sort_sign_even_and_odd(self):
        assert sort_sign((1, 2)) == (1, (1, 2))
        assert sort_sign((2, 1)) == (-1, (1, 2))
        assert sort_sign((3, 1, 2)) == (1, (1, 2, 3))

    def test_repeated_index_gives_zero(self):
        assert not Polynomial.plucker(0, (1, 1))

    def test_transposition_flips_sign(self):
        assert D(0, 2, 1) == -D(0, 1, 2)

    @given(st.permutations([1, 2, 3, 4]))
    def test_permutation_gives_signed_canonical_variable(self, perm):
        p = Polynomial.plucker(0, perm)
        sign, _ = sort_sign(tuple(perm))
        assert p == D(0, 1, 2, 3, 4).scale(sign)


class TestArithmetic:
    @given(st.data())
    def test_addition_commutes(self, data):
        p = _random_poly(data, VARS)
        q = _random_poly(data, VARS)
        assert p + q == q + p

    @given(st.data())
    def test_multiplication_commutes_and_associates(self, data):
        p = _random_poly(data, VARS)
        q = _random_poly(data, VARS)
        r = _random_poly(data, VARS)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    @given(st.data())
    def test_distributivity(self, data):
        p = _random_poly(data, VARS)
        q = _random_poly(data, VARS)
        r = _random_poly(data, VARS)
        assert p * (q + r) == p * q + p * r

    @given(st.data())
    def test_subtraction_inverts_addition(self, data):
        p = _random_poly(data, VARS)
        q = _random_poly(data, VARS)
        assert (p + q) - q == p

    def test_zero_and_one(self):
        p = D(0, 1, 2) + Polynomial.epsilon()
        assert p + Polynomial() == p
        assert p * Polynomial.constant(1) == p
        assert not p * Polynomial()
        assert not p.scale(0)


class TestEpsilonAndEvaluation:
    def test_substitute_epsilon(self):
        p = Polynomial.epsilon(2) * D(0, 1) + D(0, 2)
        assert p.substitute_epsilon(3) == D(0, 1).scale(9) + D(0, 2)
        assert p.substitute_epsilon(0) == D(0, 2)

    def test_evaluate_exact(self):
        p = D(0, 1) * D(1, 2) - Polynomial.epsilon()
        val = p.evaluate({plucker_var(0, (1,)): Fraction(2, 3),
                          plucker_var(1, (2,)): Fraction(3),
                          EPSILON: Fraction(1, 2)})
        assert val == Fraction(3, 2)

    def test_multidegree(self):
        p = D(0, 1, 2) * D(1, 1, 3) * Polynomial.epsilon()
        assert p.multidegree(4) == (1, 1, 0, 0)
        mixed = D(0, 1) + D(1, 1)
        assert mixed.multidegree(2) is None

    def test_primitive_clears_content(self):
        p = (D(0, 1).scale(Fraction(4, 6)) - D(0, 2).scale(Fraction(2, 3)))
        prim = p.primitive()
        coeffs = sorted(prim.terms.values())
        assert coeffs == [Fraction(-1), Fraction(1)]

    def test_normal_input_passes_through(self):
        # A primitive polynomial with a positive lead, the zero one, and
        # one that keeps every term, come back as the same object.
        p = D(0, 1) * D(1, 2) - D(0, 2) * D(1, 1)
        assert p.primitive() is p
        zero = Polynomial()
        assert zero.primitive() is zero
        assert p.without({plucker_var(0, (3,))}) is p
        assert p.without({plucker_var(0, (1,))}) == -(D(0, 2) * D(1, 1))
        assert p.scale(-2).primitive() == p
        assert (-p).primitive() == p
        assert p.scale(Fraction(1, 3)).primitive() == p

    @pytest.mark.parametrize("make", [
        lambda e: Polynomial.variable(plucker_var(0, (1,)), e),
        Polynomial.epsilon])
    def test_negative_exponent_raises(self, make):
        assert make(0) == Polynomial.constant(1)
        with pytest.raises(ValueError):
            make(-1)

    @pytest.mark.parametrize("elements", [(2, 1), (1, 1), (1, 3, 2)])
    def test_plucker_var_rejects_unsorted_or_repeated_indices(self,
                                                               elements):
        with pytest.raises(ValueError, match="strictly increasing"):
            plucker_var(0, elements)


class TestMonomialOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 3), (2, 4), (2, 5)]), st.data())
    def test_sorted_terms_descend_under_dense_grlex(self, kn, data):
        # The sparse order of sorted_terms and primitive is grlex as its
        # textbook definition reads on dense exponent vectors over the
        # variable universe, epsilon last: the Pluecker degree, then the
        # exponent vector lexicographically (more of an earlier variable is
        # larger), so that the epsilon exponent decides only between equal
        # Pluecker parts. A larger key is a larger monomial.
        universe = plucker_universe(*kn, with_epsilon=True)
        index = {v: i for i, v in enumerate(universe)}
        # Few Pluecker parts, each with several epsilon exponents, so that
        # both the degree-lex part and the epsilon tie-break decide.
        pluecker = st.lists(st.sampled_from([0, 0, 0, 1, 2]),
                            min_size=len(universe) - 1,
                            max_size=len(universe) - 1)
        parts = data.draw(st.lists(pluecker, min_size=1, max_size=3))
        terms = {}
        for _ in range(data.draw(st.integers(1, 6))):
            e = [*data.draw(st.sampled_from(parts)),
                 data.draw(st.integers(0, 2))]
            c = Fraction(data.draw(st.integers(-9, 9).filter(bool)),
                         data.draw(st.integers(1, 9)))
            terms[Monomial(universe[i] for i, x in enumerate(e)
                           for _ in range(x))] = c
        p = Polynomial(terms)

        def dense(m):
            e = [0] * len(universe)
            for v, x in m.exps:
                e[index[v]] = x
            return sum(e[:-1]), e

        keys = [dense(m) for m, _ in p.sorted_terms()]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        q = p.primitive()
        assert q.terms[max(q.terms, key=dense)] > 0


class TestTextFormat:
    def test_known_rendering(self):
        p = D(0, 1, 2) * D(0, 3, 4) - D(0, 1, 3) * D(0, 2, 4) \
            + D(0, 1, 4) * D(0, 2, 3)
        assert poly_to_text(p) == "D0_12*D0_34 - D0_13*D0_24 + D0_14*D0_23"

    def test_parse_known_text(self):
        p = parse_polynomial("D0_12*D0_34 - D0_13*D0_24 + D0_14*D0_23")
        q = D(0, 1, 2) * D(0, 3, 4) - D(0, 1, 3) * D(0, 2, 4) \
            + D(0, 1, 4) * D(0, 2, 3)
        assert p == q

    def test_rational_coefficients_and_powers(self):
        text = "2/3*D0_1^2*e - D1_2"
        p = parse_polynomial(text)
        assert poly_to_text(p) == text

    def test_dotted_indices_above_nine(self):
        p = Polynomial.plucker(0, (2, 10))
        assert poly_to_text(p) == "D0_2.10"
        assert parse_polynomial("D0_2.10") == p

    @given(st.data())
    def test_text_roundtrip(self, data):
        p = _random_poly(data, VARS)
        assert parse_polynomial(poly_to_text(p)) == p

    def test_multi_polynomial_text(self):
        polys = [D(0, 1), D(1, 2) - Polynomial.epsilon()]
        assert parse_polynomials(polys_to_text(polys)) == polys

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial("D0_12 +* D0_34")
        with pytest.raises(ValueError):
            parse_polynomial("x1*x2")

    @pytest.mark.parametrize("text", ["D0_\u0661\u0662", "2*D\u0661_12",
                                      "D0_12^\u0662"])
    def test_parse_rejects_non_ascii_digits(self, text):
        # int() would read these digits as 1 and 2.
        with pytest.raises(ValueError):
            parse_polynomial(text)


class TestJsonFormat:
    @given(st.data())
    def test_json_roundtrip(self, data):
        p = _random_poly(data, VARS)
        assert poly_from_json(poly_to_json(p)) == p

    def test_json_uses_fraction_strings(self):
        p = D(0, 1).scale(Fraction(1, 3))
        blob = poly_to_json(p)
        assert blob[0]["coeff"] == "1/3"

    @pytest.mark.parametrize("exponent", [True, 1.0, "1", 0, -1])
    def test_json_exponent_is_a_positive_int(self, exponent):
        blob = [{"coeff": "1/1", "exps": {"D0_12": exponent}}]
        with pytest.raises(ValueError):
            poly_from_json(blob)

    @pytest.mark.parametrize("blob", [
        [{"coeff": "1/1", "exps": [["D0_12", 1]]}],
        [{"coeff": 1, "exps": {"D0_12": 1}}],
        [{"coeff": "1/1"}],
        [{"exps": {"D0_12": 1}}],
        [{"coeff": "1/1", "exps": {"D0_12": 1}, "degree": 1}],
        [{"coeff": "1/1", "exps": {1: 1}}],
        [["1/1", {"D0_12": 1}]],
        {"coeff": "1/1", "exps": {"D0_12": 1}},
    ])
    def test_json_malformed_term_raises(self, blob):
        with pytest.raises(ValueError):
            poly_from_json(blob)
