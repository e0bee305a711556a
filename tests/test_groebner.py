"""Tests for Buchberger, normal forms, and Krull dimension."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from positroid import groebner
from positroid.groebner import (
    Ideal,
    ResourceCapExceeded,
    buchberger,
    plucker_universe,
)
from positroid.ideals import (classical_plucker_generators,
                              global_positroid_ideal)
from positroid.patterns import parse_pattern
from positroid.poly import EPSILON, Monomial, Polynomial, plucker_var
from support import D


def _color_0_vars(k, n):
    # The ring of one Grassmannian: the color-0 Pluecker variables.
    return tuple(v for v in plucker_universe(k, n) if v[1] == 0)


def _simple_vars(count):
    # Distinct single-index variables standing in for a generic ring.
    return tuple(plucker_var(0, (i,)) for i in range(1, count + 1))


class TestBuchberger:
    def test_zero_ideal(self):
        vars_ = _simple_vars(3)
        gb = buchberger([], vars_)
        assert gb.polynomials == []
        assert gb.krull_dimension() == 3

    def test_principal_monomial_ideal(self):
        x, y = _simple_vars(2)
        gb = buchberger([Polynomial.variable(x) * Polynomial.variable(y)],
                        _simple_vars(2))
        assert gb.krull_dimension() == 1

    def test_grassmannian_2_4_quadric(self):
        vars_ = _color_0_vars(2, 4)
        gens = classical_plucker_generators(2, 4, 0)
        gb = buchberger(gens, vars_)
        # Affine cone over the 4-dimensional Grassmannian.
        assert gb.krull_dimension() == 5

    def test_normal_form_of_plucker_product(self):
        vars_ = _color_0_vars(2, 4)
        gens = classical_plucker_generators(2, 4, 0)
        gb = buchberger(gens, vars_)
        nf = gb.normal_form(D(0, 1, 2) * D(0, 3, 4))
        expected = D(0, 1, 3) * D(0, 2, 4) - D(0, 1, 4) * D(0, 2, 3)
        assert nf == expected

    def test_variables_outside_the_universe_rejected(self):
        # A color-1 variable in the ring of color 0.
        vars_ = _color_0_vars(2, 4)
        with pytest.raises(ValueError, match="outside the universe"):
            buchberger([D(0, 1, 2), D(1, 1, 2)], vars_)
        gb = buchberger([D(0, 1, 2)], vars_)
        with pytest.raises(ValueError, match="outside the universe"):
            gb.normal_form(D(0, 1, 2) * D(1, 1, 2))

    def test_normal_form_idempotent_and_annihilates_generators(self):
        vars_ = _color_0_vars(2, 4)
        gens = classical_plucker_generators(2, 4, 0)
        gb = buchberger(gens, vars_)
        for g in gens:
            assert not gb.normal_form(g)
        p = D(0, 1, 2) * D(0, 3, 4) + D(0, 1, 3)
        assert gb.normal_form(gb.normal_form(p)) == gb.normal_form(p)

    def test_basis_is_deterministic(self):
        vars_ = _color_0_vars(2, 4)
        gens = classical_plucker_generators(2, 4, 0)
        a = [repr(p) for p in buchberger(gens, vars_).polynomials]
        b = [repr(p) for p in buchberger(list(reversed(gens)),
                                         vars_).polynomials]
        assert a == b


class TestResourceCaps:
    def test_term_cap_triggers(self, monkeypatch):
        x, y = _simple_vars(2)
        monkeypatch.setattr(groebner, "MAX_TERMS", 1)
        with pytest.raises(ResourceCapExceeded):
            buchberger([Polynomial.variable(x) + Polynomial.variable(y)],
                       _simple_vars(2))

    def test_term_cap_bounds_normal_forms(self, monkeypatch):
        # Modulo x - y - z, x^2 reduces to (y + z)^2, three terms, and x^3
        # to (y + z)^3, four.
        x, y, z = (Polynomial.variable(v) for v in _simple_vars(3))
        monkeypatch.setattr(groebner, "MAX_TERMS", 3)
        gb = buchberger([x - y - z], _simple_vars(3))
        assert gb.normal_form(x * x) == y * y + (y * z).scale(2) + z * z
        with pytest.raises(ResourceCapExceeded):
            gb.normal_form(x * x * x)

    def test_basis_size_cap_applies_to_generators(self, monkeypatch):
        # Coprime leads make no S-pair, so only the generators can meet it.
        x, y = (Polynomial.variable(v) for v in _simple_vars(2))
        monkeypatch.setattr(groebner, "MAX_BASIS_SIZE", 1)
        with pytest.raises(ResourceCapExceeded, match="basis size 2"):
            buchberger([x, y], _simple_vars(2))

    def test_degree_cap_covers_every_term_of_an_s_pair_remainder(
            self, monkeypatch):
        # S(g1, g2) = w g1 - y g2 = w z e^2 - y u v is reduced; its lead
        # y u v has degree 3 and its term w z e^2 degree 4.
        x, y, z, w, u, v = (Polynomial.variable(t) for t in _simple_vars(6))
        e = Polynomial.epsilon()
        monkeypatch.setattr(groebner, "MAX_TOTAL_DEGREE", 3)
        with pytest.raises(ResourceCapExceeded, match="degree 4"):
            buchberger([x * y + z * e * e, x * w + u * v],
                       _simple_vars(6) + (EPSILON,))

    def test_degree_cap_triggers(self, monkeypatch):
        vars_ = _color_0_vars(2, 4)
        gens = classical_plucker_generators(2, 4, 0)
        monkeypatch.setattr(groebner, "MAX_TOTAL_DEGREE", 1)
        with pytest.raises(ResourceCapExceeded):
            buchberger(gens, vars_)


class TestKrullDimension:
    def test_monotone_under_adding_generators(self):
        vars_ = _color_0_vars(2, 4)
        gens = classical_plucker_generators(2, 4, 0)
        dim = buchberger(gens, vars_).krull_dimension()
        more = gens + [D(0, 1, 2)]
        dim_more = buchberger(more, vars_).krull_dimension()
        assert dim_more <= dim

    def test_full_intersection_of_coordinates(self):
        vars_ = _simple_vars(4)
        gens = [Polynomial.variable(v) for v in vars_]
        assert buchberger(gens, vars_).krull_dimension() == 0

    def test_unit_ideal_has_dimension_minus_one(self):
        # V(1) is empty and S/(1) is the zero ring: dimension -1, one less
        # than the point that all the variables cut out. x and x - 1
        # generate 1 with no constant among them.
        vars_ = _simple_vars(2)
        x, one = Polynomial.variable(vars_[0]), Polynomial.constant(1)
        for gens in ([one.scale(3)], [x, x - one]):
            assert buchberger(gens, vars_).krull_dimension() == -1


class TestIdealWrapper:
    def test_specialize_drops_epsilon(self):
        gens = [Polynomial.epsilon() * D(0, 1) - D(0, 2)]
        ideal = Ideal(k=1, n=2, generators=gens, has_epsilon=True)
        sp = ideal.specialize(0)
        assert not sp.has_epsilon
        assert all(EPSILON not in p.variables() for p in sp.generators)

    def test_normal_generators_pass_through(self):
        # A primitive generator that no vanishing variable touches is kept
        # as the same object; other input is still normalized.
        g = D(1, 1) * D(2, 2) - D(1, 2) * D(2, 1)
        ideal = Ideal(1, 3, (D(0, 1), g), has_epsilon=False)
        assert ideal.generators[1] is g
        ideal = Ideal(1, 3, (D(0, 1), g.scale(-2)), has_epsilon=False)
        assert ideal.generators == (D(0, 1), g)
        # Once D0_1 vanishes, D0_1 + D0_2 is D0_2, which vanishes too.
        ideal = Ideal(1, 3, (D(0, 1), D(0, 1) + D(0, 2)), has_epsilon=False)
        assert ideal.vanishing == {plucker_var(0, (1,)), plucker_var(0, (2,))}
        assert ideal.generators == (D(0, 1), D(0, 2))


# -- properties of the division routine on small random ideals ---------------

def _small_ideals(nvars):
    """Lists of 1-3 polynomials with 1-3 terms, exponents <= 2 and small
    integer coefficients in the first `nvars` simple variables."""
    term_exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.integers(-3, 3).filter(bool)
    poly = st.dictionaries(term_exps, coeff, min_size=1, max_size=3)
    return st.lists(poly, min_size=1, max_size=3)


def _to_poly(terms, vars_):
    return Polynomial({Monomial(v for v, x in zip(vars_, e)
                                for _ in range(x)): c
                       for e, c in terms.items()})


def _as_dict(p, vars_):
    """A polynomial as {exponent tuple: coefficient} over `vars_`."""
    out = {}
    for m, c in p.terms.items():
        exps = dict(m.exps)
        out[tuple(exps.get(v, 0) for v in vars_)] = c
    return out


def _s_polynomial(f, lf, g, lg):
    """S(f, g) for monic f, g with leading monomials lf, lg."""
    lcm = dict(lf.exps)
    for v, e in lg.exps:
        lcm[v] = max(lcm.get(v, 0), e)

    def cofactor(lead):
        d = dict(lead.exps)
        return Polynomial({Monomial(v for v, e in lcm.items()
                                    for _ in range(e - d.get(v, 0))): 1})

    return cofactor(lf) * f - cofactor(lg) * g


ideal_and_vars = st.integers(3, 4).flatmap(
    lambda nv: st.tuples(_small_ideals(nv), st.just(_simple_vars(nv))))

# Generators whose coefficients, the leading one included, are no units
# (so most reduction steps scale), and a polynomial with rational
# coefficients to reduce, in three variables.
_exps = st.tuples(*[st.integers(0, 2)] * 3)
_non_unit_ideal = st.lists(
    st.dictionaries(_exps, st.sampled_from([-7, -5, -3, -2, 2, 3, 5, 7]),
                    min_size=1, max_size=3), min_size=1, max_size=3)
_rational_poly = st.dictionaries(
    _exps, st.builds(Fraction, st.integers(-9, 9).filter(bool),
                     st.integers(1, 9)), min_size=1, max_size=5)


class TestDivisionProperties:
    @settings(max_examples=40, deadline=None)
    @given(ideal_and_vars)
    def test_s_pairs_and_generators_reduce_to_zero(self, case):
        terms, vars_ = case
        gens = [_to_poly(t, vars_) for t in terms]
        gb = buchberger(gens, vars_)
        basis, leads = gb.polynomials, gb.leading_monomials()
        for i in range(len(basis)):
            for j in range(i):
                s = _s_polynomial(basis[i], leads[i], basis[j], leads[j])
                assert not gb.normal_form(s)
        for g in gens:
            assert not gb.normal_form(g)

    @settings(max_examples=60, deadline=None)
    @given(_non_unit_ideal, _rational_poly)
    @example([{(1, 0, 0): 2, (0, 1, 0): -3}, {(0, 2, 0): 3, (1, 0, 1): -5}],
             {(0, 0, 3): Fraction(1, 2), (1, 1, 0): Fraction(-2, 3)})
    def test_normal_form_matches_sympy_reduced(self, terms, p):
        # The normal form modulo a Groebner basis is unique, so it equals
        # the remainder of sympy's division by its own grlex basis.
        sympy = pytest.importorskip("sympy")
        vars_ = _simple_vars(3)
        gb = buchberger([_to_poly(t, vars_) for t in terms], vars_)
        xs = sympy.symbols("x1:4")
        reference = sympy.groebner([_to_expr(t, xs) for t in terms], *xs,
                                   order="grlex", domain="QQ")
        _, r = sympy.reduced(_to_expr(p, xs), reference.exprs, *xs,
                             order="grlex", domain="QQ")
        expected = {m: Fraction(int(c.p), int(c.q)) for m, c in
                    sympy.Poly(r, *xs, domain="QQ").terms() if c}
        assert _as_dict(gb.normal_form(_to_poly(p, vars_)), vars_) == expected

    @settings(max_examples=40, deadline=None)
    @given(ideal_and_vars, st.randoms(use_true_random=False))
    def test_basis_independent_of_generator_order(self, case, rnd):
        terms, vars_ = case
        gens = [_to_poly(t, vars_) for t in terms]
        shuffled = list(gens)
        rnd.shuffle(shuffled)
        assert (buchberger(gens, vars_).polynomials ==
                buchberger(shuffled, vars_).polynomials)

    @settings(max_examples=40, deadline=None)
    @given(ideal_and_vars)
    def test_matches_sympy_grlex(self, case):
        terms, vars_ = case
        gb = buchberger([_to_poly(t, vars_) for t in terms], vars_)
        ours = {frozenset(_as_dict(g, vars_).items()) for g in gb.polynomials}
        assert ours == _sympy_grlex_basis(terms, len(vars_))

    @settings(max_examples=40, deadline=None)
    @given(ideal_and_vars)
    def test_matches_sympy_with_epsilon_last(self, case):
        # The last variable is epsilon, so the epsilon exponent decides
        # only between equal parts in the others.
        terms, vars_ = case
        vars_ = vars_[:-1] + (EPSILON,)
        gb = buchberger([_to_poly(t, vars_) for t in terms], vars_)
        ours = {frozenset(_as_dict(g, vars_).items()) for g in gb.polynomials}
        assert ours == _sympy_grlex_basis(terms, len(vars_),
                                          _epsilon_last_order())


def _epsilon_last_order():
    """grlex over S[epsilon] as a sympy order on exponent tuples with
    epsilon last: grlex in the Pluecker exponents first, and the epsilon
    exponent only between equal Pluecker parts."""
    orderings = pytest.importorskip("sympy").polys.orderings
    return orderings.ProductOrder((orderings.grlex, lambda e: e[:-1]),
                                  (orderings.lex, lambda e: e[-1:]))


def _to_expr(terms, xs):
    """{exponent tuple: coefficient} as a sympy expression in `xs`."""
    sympy = pytest.importorskip("sympy")
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod(x ** e for x, e in zip(xs, exp))
               for exp, c in terms.items())


def _sympy_grlex_basis(terms, nvars, order="grlex"):
    """sympy's reduced basis, in grlex or the given sympy monomial order,
    of the polynomials given as {exponent tuple: coefficient} over `nvars`
    variables, each element as the frozenset of its (exponent tuple,
    Fraction) terms."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{nvars + 1}")
    reference = sympy.groebner([_to_expr(t, xs) for t in terms], *xs,
                               order=order, domain="QQ")
    return {frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in p.terms())
            for p in reference.polys}


# -- the stored form of a basis ---------------------------------------------

def _assert_integer_basis(gb):
    """Every stored element has int coefficients, content 1 and a positive
    leading coefficient; `polynomials` is the monic form, in Fractions."""
    for g, lead in zip(gb._basis, gb._leads):
        assert all(type(c) is int for c in g.values())
        assert gcd(*g.values()) == 1 and g[lead] > 0
    for p, lead in zip(gb.polynomials, gb.leading_monomials()):
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p.terms[lead] == 1


class TestIntegerBasis:
    def test_non_unit_leads(self):
        # 2x - 3y and 3y^2 - 5xz: the reduced basis is 2x - 3y and
        # 2y^2 - 5yz, stored with their non-unit leads.
        vars_ = _simple_vars(3)
        x, y, z = (Polynomial.variable(v) for v in vars_)
        gb = buchberger([x.scale(2) - y.scale(3),
                         (y * y).scale(3) - (x * z).scale(5)], vars_)
        _assert_integer_basis(gb)
        assert [g[lead] for g, lead in zip(gb._basis, gb._leads)] == [2, 2]

    def test_positroid_basis_at_rational_epsilon(self):
        ideal = global_positroid_ideal(parse_pattern("12|12|12|12"),
                                       Fraction(-2, 3))
        _assert_integer_basis(ideal.groebner())


# -- bases of specialized global positroid ideals ---------------------------

class TestPositroidBases:
    """Bases large enough that the S-pair queue order and the support-mask
    prefilter matter: 54 to 111 elements in 24 or 25 variables."""

    @pytest.mark.parametrize("pattern, eps, dim", [
        ("12|12|12|12", 0, 8),
        ("13|12|13|12", 0, 6),
        ("1,1,1,1,1", 1, 9),
    ])
    def test_krull_dimension_of_hard_basis(self, pattern, eps, dim):
        ideal = global_positroid_ideal(parse_pattern(pattern)).specialize(eps)
        assert ideal.groebner().krull_dimension() == dim

    def test_basis_certificate(self):
        ideal = global_positroid_ideal(
            parse_pattern("13|12|13|12")).specialize(0)
        gb = ideal.groebner()
        basis, leads = gb.polynomials, gb.leading_monomials()
        assert (len(basis), len(gb.variables)) == (54, 24)
        for i in range(len(basis)):
            for j in range(i):
                s = _s_polynomial(basis[i], leads[i], basis[j], leads[j])
                assert not gb.normal_form(s)
        for g in ideal.generators:
            assert not gb.normal_form(g)
        # reduced: monic leads, none dividing another
        assert all(p.terms[m] == 1 for p, m in zip(basis, leads))
        for i, a in enumerate(leads):
            for j, b in enumerate(leads):
                exps = dict(b.exps)
                assert i == j or not all(e <= exps.get(v, 0)
                                         for v, e in a.exps)

    def test_basis_certificate_matches_sympy(self):
        # The same reduced basis from sympy's grlex Groebner basis, in the
        # same variable order.
        ideal = global_positroid_ideal(
            parse_pattern("13|12|13|12")).specialize(0)
        gb = ideal.groebner()
        vars_ = gb.variables
        ours = {frozenset(_as_dict(g, vars_).items()) for g in gb.polynomials}
        gens = [_as_dict(g, vars_) for g in ideal.generators]
        assert ours == _sympy_grlex_basis(gens, len(vars_))

    @pytest.mark.parametrize("pattern", ["1,1,1", "1,1,1,1", "12|12|12"])
    def test_epsilon_basis_matches_sympy(self, pattern):
        ideal = global_positroid_ideal(parse_pattern(pattern))
        gb = ideal.groebner()
        vars_ = gb.variables
        assert vars_[-1] == EPSILON
        ours = {frozenset(_as_dict(g, vars_).items()) for g in gb.polynomials}
        gens = [_as_dict(g, vars_) for g in ideal.generators]
        assert ours == _sympy_grlex_basis(gens, len(vars_),
                                          _epsilon_last_order())
