"""Tests for juggling patterns, shifts, anchors, and component enumeration."""

import pytest
from hypothesis import given, strategies as st

from positroid.patterns import (
    AnchorSet,
    JugglingPattern,
    KSubset,
    PatternError,
    all_subsets,
    components_of_special_fiber,
    enumerate_patterns,
    first_violation,
    parse_pattern,
    pattern_from_anchor,
    rotate,
)
from support import P


class TestKSubset:
    def test_shift_example(self):
        # {1,3} in [4] shifted by 1: 3 -> 2 and 1 wraps to 4.
        I = KSubset(4, (1, 3))
        assert I.shift(1) == KSubset(4, (2, 4))
        assert I.d_shift(1) == 1

    def test_shift_by_zero_is_identity(self):
        I = KSubset(5, (2, 3, 5))
        assert I.shift(0) == I
        assert I.d_shift(0) == 0

    def test_negative_shift_inverts_shift(self):
        for n in (2, 3, 4, 5):
            for I in all_subsets(2, n) if n > 2 else all_subsets(1, n):
                for c in range(n):
                    assert I.shift(c).shift(-c) == I
                    assert I.shift(-c).shift(c) == I

    @given(st.data())
    def test_shift_roundtrip_property(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        elems = data.draw(
            st.lists(st.integers(min_value=1, max_value=n),
                     min_size=k, max_size=k, unique=True))
        c = data.draw(st.integers(min_value=-3, max_value=10))
        I = KSubset(n, tuple(sorted(elems)))
        assert I.shift(c).shift(-c) == I

    def test_d_shift_counts_wrapped_indices(self):
        I = KSubset(4, (1, 2, 4))
        # Elements <= 2 wrap under a shift by 2.
        assert I.d_shift(2) == 2

    def test_leq_is_componentwise(self):
        assert KSubset(4, (1, 2)).leq(KSubset(4, (2, 3)))
        assert not KSubset(4, (1, 4)).leq(KSubset(4, (2, 3)))
        for other in (KSubset(4, (2,)), KSubset(5, (2, 3))):
            with pytest.raises(PatternError, match="same k and n"):
                KSubset(4, (1, 2)).leq(other)

    def test_invalid_subset_rejected(self):
        with pytest.raises(PatternError):
            KSubset(3, (0, 1))
        with pytest.raises(PatternError):
            KSubset(3, (1, 1))
        with pytest.raises(PatternError):
            KSubset(3, (2, 4))
        for elements in ((), (1, 2, 3)):
            with pytest.raises(PatternError, match="need 0 < k < n"):
                KSubset(3, elements)


class TestJugglingPattern:
    def test_decrement_condition_enforced(self):
        with pytest.raises(PatternError):
            P(1, 3, (3,), (1,), (1,))  # 3 at vertex 0 needs 2 at vertex 1

    def test_first_violation_reports_vertex_and_entry(self):
        entries = (KSubset(3, (3,)), KSubset(3, (1,)), KSubset(3, (1,)))
        assert first_violation(entries) == (0, 3)
        with pytest.raises(PatternError, match=r"b=0, j=3"):
            JugglingPattern(1, 3, tuple(entries))

    def test_valid_patterns_have_no_violation(self):
        assert first_violation(P(1, 3, (2,), (1,), (3,)).entries) is None

    def test_ones_locus_and_ell(self):
        J = P(1, 3, (1,), (3,), (2,))
        assert J.ones_locus == frozenset({0})
        assert J.ell == 1
        const = P(1, 3, (1,), (1,), (1,))
        assert const.ones_locus == frozenset({0, 1, 2})
        assert const.ell == 3

    def test_leq_componentwise(self):
        assert P(1, 3, (1,), (1,), (1,)).leq(P(1, 3, (2,), (1,), (3,)))
        assert not P(1, 3, (2,), (1,), (3,)).leq(P(1, 3, (1,), (1,), (1,)))
        # Without its own check, the entries' check would raise instead.
        with pytest.raises(PatternError, match="patterns must share"):
            P(1, 3, (1,), (1,), (1,)).leq(P(1, 4, (1,), (1,), (1,), (1,)))

    @pytest.mark.parametrize("k, n, entries, message", [
        (0, 0, (), "need 0 < k < n"),
        (2, 0, (), "need 0 < k < n"),
        (1, 3, ((3, (1,)), (3, (1,))), "expected 3 entries"),
        (1, 3, ((3, (1,)), (3, (1,)), (3, (1, 2))), "entry 2 has wrong shape"),
        (1, 3, ((3, (1,)), (3, (1,)), (4, (1,))), "entry 2 has wrong shape"),
    ])
    def test_malformed_pattern_rejected(self, k, n, entries, message):
        # Each input passes every other check of the constructor.
        with pytest.raises(PatternError, match=message):
            JugglingPattern(k, n, tuple(KSubset(*e) for e in entries))

    def test_rotate_shifts_vertices(self):
        J = P(1, 3, (2,), (1,), (3,))
        assert rotate(J, 1).entries == (KSubset(3, (1,)), KSubset(3, (3,)),
                                        KSubset(3, (2,)))
        assert rotate(J, 3) == J

    def test_str_forms(self):
        assert str(P(1, 3, (1,), (3,), (2,))) == "1,3,2"
        assert str(P(2, 4, (1, 2), (1, 3), (2, 3), (1, 2))) == "12|13|23|12"


class TestParsePattern:
    def test_single_digit_form(self):
        assert parse_pattern("1,3,2") == P(1, 3, (1,), (3,), (2,))

    def test_bar_form(self):
        assert parse_pattern("12|13|23|12") == P(2, 4, (1, 2), (1, 3),
                                                 (2, 3), (1, 2))

    def test_roundtrip_via_str(self):
        for J in enumerate_patterns(2, 4):
            assert parse_pattern(str(J)) == J

    def test_invalid_pattern_rejected(self):
        with pytest.raises(PatternError):
            parse_pattern("3,1,1")
        with pytest.raises(PatternError):
            parse_pattern("")

    @pytest.mark.parametrize("text", ["\u0661,1,2", "1,\uff11,2",
                                      "1\u0662|12|12|12", "1,\u0662|1,2|1,2",
                                      "+1,1,2"])
    def test_digits_are_ascii(self, text):
        # int() reads each of these as a valid pattern: it takes any Unicode
        # decimal digit, and a sign.
        with pytest.raises(PatternError):
            parse_pattern(text)


class TestAnchors:
    def test_anchor_pattern_k1(self):
        # S={0}, n=3: the pattern whose b-th entry is ((0-b-1) mod 3)+1.
        S = AnchorSet(3, (0,))
        assert pattern_from_anchor(S) == P(1, 3, (3,), (2,), (1,))

    def test_anchor_pattern_k2(self):
        S = AnchorSet(4, (0, 2))
        J = pattern_from_anchor(S)
        assert J.entries[0] == KSubset(4, (2, 4))
        assert J.entries[1] == KSubset(4, (1, 3))

    def test_anchor_normalized_mod_n(self):
        assert AnchorSet(3, (3,)) == AnchorSet(3, (0,))

    def test_invalid_anchor_rejected(self):
        with pytest.raises(PatternError, match="not distinct mod 3"):
            AnchorSet(3, (0, 3))
        with pytest.raises(PatternError, match=r"0 < \|S\| < n"):
            AnchorSet(3, ())

    def test_anchor_patterns_are_valid(self):
        for n in range(2, 6):
            for k in range(1, n):
                for S in map(lambda e: AnchorSet(n, e),
                             [tuple(c) for c in __import__("itertools")
                              .combinations(range(n), k)]):
                    J = pattern_from_anchor(S)
                    assert first_violation(J.entries) is None


class TestEnumeration:
    def test_k1_counts(self):
        # Number of k=1 patterns on n vertices is 2^n - 1.
        for n in range(2, 7):
            assert len(enumerate_patterns(1, n)) == 2 ** n - 1

    def test_k2_n4_count(self):
        assert len(enumerate_patterns(2, 4)) == 33

    def test_enumeration_sorted_and_unique(self):
        pats = enumerate_patterns(2, 4)
        keys = [tuple(e.elements for e in J.entries) for J in pats]
        assert keys == sorted(set(keys))

    def test_all_entries_valid(self):
        for J in enumerate_patterns(2, 4):
            assert first_violation(J.entries) is None

    def test_bound_guard(self):
        with pytest.raises(PatternError):
            enumerate_patterns(1, 40)


class TestComponents:
    def test_components_are_anchors_above_pattern(self):
        # J=(1,1,2): the anchors whose pattern dominates J are {1} and {2}
        # (J({0}) = (3,2,1) fails at vertex 2).
        J = P(1, 3, (1,), (1,), (2,))
        comps = components_of_special_fiber(J)
        assert [c.elements for c in comps] == [(1,), (2,)]

    def test_component_count_is_ones_locus_size(self):
        for n in range(2, 6):
            for J in enumerate_patterns(1, n):
                assert len(components_of_special_fiber(J)) == J.ell

    def test_constant_pattern_has_binomial_many_components(self):
        from math import comb
        for k, n in [(1, 4), (2, 4), (2, 5), (3, 5)]:
            const = JugglingPattern(
                k, n, tuple(KSubset(n, tuple(range(1, k + 1)))
                            for _ in range(n)))
            assert len(components_of_special_fiber(const)) == comb(n, k)

    def test_components_satisfy_leq(self):
        for J in enumerate_patterns(2, 4):
            for S in components_of_special_fiber(J):
                assert J.leq(pattern_from_anchor(S))
