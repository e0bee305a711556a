"""Tests for fiber points: quiver maps, membership, and parametrization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from positroid import linalg
from positroid.fibers import (
    FiberError,
    FiberPoint,
    Subspace,
    apply_quiver_map,
    in_classical_positroid,
    in_opposite_schubert,
    in_positroid_fiber,
    is_subrepresentation,
    k1_point,
    map_subspace,
    plucker_assignment,
    plucker_vector,
    project_and_check,
    torus_fixed_point,
)
from positroid.patterns import (
    AnchorSet,
    KSubset,
    all_subsets,
    components_of_special_fiber,
    enumerate_patterns,
    pattern_from_anchor,
)
from positroid.poly import EPSILON, parse_rational, plucker_var
from support import P


F = Fraction


class TestQuiverMap:
    def test_shifts_basis_vectors(self):
        # w_2 -> w_1 and w_1 -> eps * w_3.
        assert apply_quiver_map([F(0), F(1), F(0)], 5) == [F(1), F(0), F(0)]
        assert apply_quiver_map([F(1), F(0), F(0)], 5) == [F(0), F(0), F(5)]

    def test_nth_power_is_epsilon_times_identity(self):
        for n in (2, 3, 4, 5):
            for eps in (0, 1, F(-2, 7)):
                for i in range(n):
                    v = [F(0)] * n
                    v[i] = F(1)
                    assert apply_quiver_map(v, eps, n) == [x * eps for x in v]
                # The closed form of every power up to 2n against repeated
                # single steps w_i -> w_{i-1}, w_1 -> eps * w_n, on a vector
                # with no zero entry.
                v = [F(3 + i, 2) for i in range(n)]
                stepped = list(v)
                for a in range(2 * n + 1):
                    assert apply_quiver_map(v, eps, a) == stepped, (n, eps, a)
                    stepped = stepped[1:] + [eps * stepped[0]]


class TestSubspace:
    def test_rejects_dependent_rows(self):
        with pytest.raises(FiberError):
            Subspace(3, ((F(1), F(2), F(0)), (F(2), F(4), F(0))))

    def test_span_of_coordinates(self):
        U = Subspace.span_of_coordinates(4, (2, 4))
        assert plucker_vector(U)[KSubset(4, (2, 4))] != 0

    def test_plucker_vector_of_generic_plane(self):
        U = Subspace(4, ((F(1), F(0), F(1), F(0)),
                         (F(0), F(1), F(0), F(1))))
        pv = plucker_vector(U)
        assert pv[KSubset(4, (1, 2))] == 1
        assert pv[KSubset(4, (1, 4))] == 1
        assert pv[KSubset(4, (2, 3))] == -1
        assert pv[KSubset(4, (1, 3))] == 0


def _integer_matrices(shape):
    n, k = shape
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=k, max_size=k)


# Full-rank integer k x n matrices with 0 < k < n <= 6; small entries make
# many minors vanish without making the span a coordinate subspace.
full_rank_subspaces = (
    st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n),
                                                  st.integers(1, n - 1)))
    .flatmap(_integer_matrices)
    .filter(lambda rows: linalg.rank(rows) == len(rows))
    .map(lambda rows: Subspace(len(rows[0]), rows)))


class TestMembership:
    @settings(max_examples=200, deadline=None)
    @given(full_rank_subspaces)
    def test_opposite_schubert_matches_minors(self, U):
        # The pivot rule against its definition: Delta_I(U) = 0 for every
        # I not componentwise >= J_b.
        pv = plucker_vector(U)
        for Jb in all_subsets(U.k, U.n):
            expected = all(v == 0 for I, v in pv.items() if not Jb.leq(I))
            assert in_opposite_schubert(U, Jb) == expected, Jb


    def test_opposite_schubert_characterization(self):
        U = Subspace.span_of_coordinates(3, (2,))
        assert in_opposite_schubert(U, KSubset(3, (1,)))
        assert in_opposite_schubert(U, KSubset(3, (2,)))
        assert not in_opposite_schubert(U, KSubset(3, (3,)))

    def test_classical_positroid_uses_rotated_shifts(self):
        J = P(1, 3, (2,), (1,), (3,))
        assert in_classical_positroid(
            Subspace.span_of_coordinates(3, (2,)), J)
        assert not in_classical_positroid(
            Subspace.span_of_coordinates(3, (1,)), J)

    def test_fixed_points_lie_in_every_fiber(self):
        for n in (3, 4):
            for k in (1, 2):
                for S in [AnchorSet(n, c) for c in
                          __import__("itertools").combinations(range(n), k)]:
                    J = pattern_from_anchor(S)
                    for eps in (0, 1, -1, F(3, 2)):
                        pt = torus_fixed_point(S, eps)
                        assert is_subrepresentation(pt)
                        assert in_positroid_fiber(pt, J)

    def test_membership_fails_below_pattern(self):
        S = AnchorSet(3, (0,))
        pt = torus_fixed_point(S, 1)  # spans (w3, w2, w1)
        too_big = P(1, 3, (3,), (2,), (1,))
        assert in_positroid_fiber(pt, too_big)
        other = torus_fixed_point(AnchorSet(3, (1,)), 1)
        assert not in_positroid_fiber(other, too_big)


# Points of Gr(k, n)^n with 0 < k < n <= 4 at eps in {0, 1, 2, -1/2}.
# Vertex b spans M(eps)^b U_0 or a drawn subspace, so most points are not
# subrepresentations, some are, and the failing vertex varies.
@st.composite
def random_points(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    eps = draw(st.sampled_from((F(0), F(1), F(2), F(-1, 2))))
    rows = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    full_rank = st.lists(rows, min_size=k, max_size=k).filter(
        lambda m: linalg.rank(m) == k)
    U0 = Subspace(n, draw(full_rank))
    spaces = [U0]
    for b in range(1, n):
        image = map_subspace(U0, eps, b)
        spaces.append(Subspace(n, image)
                      if linalg.rank(image) == k and draw(st.booleans())
                      else Subspace(n, draw(full_rank)))
    return FiberPoint(eps, tuple(spaces))


def _stacked_subrepresentation(point):
    # The rank test the span test replaced: V + M(eps) U has V's dimension.
    spaces = point.spaces
    return all(linalg.rank(list(V.basis) + map_subspace(U, point.epsilon))
               == V.k for U, V in zip(spaces, spaces[1:] + spaces[:1]))


def _check_membership(point, J):
    # in_positroid_fiber is the conjunction of its two conditions.
    expected = is_subrepresentation(point) and all(
        in_opposite_schubert(U, Jb) for U, Jb in zip(point.spaces, J.entries))
    assert in_positroid_fiber(point, J) == expected, (point, J)
    return expected


# The k1_point lambdas of the fiber-points benchmark.
K1_LAMBDAS = (-9, -7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9)


class TestSpanOracle:
    @settings(max_examples=200, deadline=None)
    @given(random_points())
    def test_span_test_matches_stacked_rank(self, point):
        assert is_subrepresentation(point) == \
            _stacked_subrepresentation(point)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_membership_is_both_conditions(self, n):
        # Every torus fixed point and k1_point against every pattern of its
        # shape; the k1_point lambdas are drawn from the benchmark's values.
        rng = random.Random(n)
        seen = set()
        for k in range(1, n):
            patterns = enumerate_patterns(k, n)
            for S in itertools.combinations(range(n), k):
                for eps in (0, 1, -1, F(1, 2)):
                    point = torus_fixed_point(AnchorSet(n, S), eps)
                    seen.update(_check_membership(point, J)
                                for J in patterns)
        patterns = enumerate_patterns(1, n)
        for J in patterns:
            for eps in (0, 2, F(-1, 2)):
                lam = {l: F(rng.choice(K1_LAMBDAS)) for l in J.ones_locus}
                point = k1_point(J, lam, eps)
                seen.update(_check_membership(point, J2) for J2 in patterns)
        assert seen == {True, False}

    @settings(max_examples=100, deadline=None)
    @given(random_points(), st.data())
    def test_membership_is_both_conditions_on_random_points(self, point,
                                                            data):
        patterns = enumerate_patterns(point.k, point.n)
        _check_membership(point, data.draw(st.sampled_from(patterns)))

    def test_membership_fails_both_conditions(self):
        # U_0 = <w_1> maps onto <w_3>, not into U_1 = <w_2>, and {1} is not
        # componentwise >= J_0 = {2}.
        pt = FiberPoint(1, tuple(Subspace.span_of_coordinates(3, (i,))
                                 for i in (1, 2, 3)))
        J = P(1, 3, (2,), (1,), (1,))
        assert not is_subrepresentation(pt)
        assert not in_opposite_schubert(pt.spaces[0], J.entries[0])
        assert not in_positroid_fiber(pt, J)


class TestTorusFixedPoint:
    def test_coordinates_follow_anchor_pattern(self):
        pt = torus_fixed_point(AnchorSet(3, (0,)), 2)
        expected = [(3,), (2,), (1,)]
        for U, idx in zip(pt.spaces, expected):
            assert U.basis == Subspace.span_of_coordinates(3, idx).basis

    def test_plucker_assignment_includes_epsilon(self):
        pt = torus_fixed_point(AnchorSet(3, (0,)), F(1, 2))
        asg = plucker_assignment(pt)
        assert asg[EPSILON] == F(1, 2)
        assert asg[plucker_var(0, (3,))] == 1
        assert asg[plucker_var(0, (1,))] == 0


class TestK1Point:
    def test_requires_support_on_ones_locus(self):
        J = P(1, 3, (1,), (3,), (2,))  # ones locus {0}
        with pytest.raises(FiberError):
            k1_point(J, {1: F(1)}, 1)
        with pytest.raises(FiberError):
            k1_point(J, {}, 1)

    def test_requires_k_1(self):
        J = P(2, 3, (1, 2), (1, 2), (1, 2))
        with pytest.raises(FiberError, match="requires k = 1"):
            k1_point(J, {0: F(1)}, 1)

    def test_point_lies_in_fiber_at_generic_epsilon(self):
        J = P(1, 3, (1,), (1,), (2,))
        for eps in (1, 2, F(-1, 3)):
            pt = k1_point(J, {0: F(2), 1: F(3)}, eps)
            assert is_subrepresentation(pt)
            assert in_positroid_fiber(pt, J)

    def test_epsilon_zero_limit_is_defined_and_in_fiber(self):
        J = P(1, 3, (1,), (1,), (2,))
        pt = k1_point(J, {0: F(2), 1: F(3)}, 0)
        assert in_positroid_fiber(pt, J)

    def test_single_anchor_recovers_fixed_point(self):
        J = P(1, 3, (3,), (2,), (1,))  # J(S) for S={0}, ones locus {2}
        pt = k1_point(J, {2: F(1)}, 0)
        fixed = torus_fixed_point(AnchorSet(3, (0,)), 0)
        for U, V in zip(pt.spaces, fixed.spaces):
            assert plucker_vector(U) == plucker_vector(V)

    def test_generators_vanish_on_k1_points(self):
        from positroid.ideals import global_positroid_ideal
        for J in enumerate_patterns(1, 3):
            ideal = global_positroid_ideal(J)
            lam = {l: F(2 + i) for i, l in enumerate(sorted(J.ones_locus))}
            for eps in (0, 1, F(5, 3)):
                asg = plucker_assignment(k1_point(J, lam, eps))
                for g in ideal.generators:
                    assert g.evaluate(asg) == 0


class TestProjectAndCheck:
    def test_fixed_points_project_into_rotated_positroids(self):
        for J in enumerate_patterns(1, 4):
            for S in components_of_special_fiber(J):
                assert all(project_and_check(torus_fixed_point(S, 0), J))

    def test_k1_sampled_points_project(self):
        J = P(1, 4, (1,), (1,), (2,), (1,))
        lam = {l: F(3 + l) for l in sorted(J.ones_locus)}
        assert all(project_and_check(k1_point(J, lam, 0), J))


class TestJsonRoundtrip:
    def test_fiber_point_roundtrip(self):
        pt = torus_fixed_point(AnchorSet(4, (0, 2)), F(2, 3))
        again = FiberPoint.from_json(pt.to_json())
        assert again.epsilon == pt.epsilon
        assert all(a.basis == b.basis
                   for a, b in zip(again.spaces, pt.spaces))

    def test_entries_parse_as_parse_rational_reads_them(self):
        # Repeated and distinct entries, some equal as numbers but not as
        # strings.
        blob = {"epsilon": "-1/2",
                "spaces": [[["1", "2/4", "0"]], [["1/2", "1", "-3"]],
                           [["0", "0/7", "1/2"]]]}
        pt = FiberPoint.from_json(blob)
        assert pt.epsilon == parse_rational(blob["epsilon"])
        assert [U.basis for U in pt.spaces] == [
            tuple(tuple(parse_rational(x) for x in row) for row in rows)
            for rows in blob["spaces"]]

    def test_json_uses_fraction_strings(self):
        pt = torus_fixed_point(AnchorSet(3, (1,)), F(1, 2))
        blob = pt.to_json()
        assert blob["epsilon"] == "1/2"
        assert all(isinstance(x, str)
                   for rows in blob["spaces"] for row in rows for x in row)
