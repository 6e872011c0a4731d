import itertools
import pickle
import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

import oracles
from crspec import (
    EmptySetError,
    FiniteMetricSpace,
    Interval,
    IntervalSpace,
    IntervalUnion,
    PointSet,
    normalize,
    rat,
    validate_metric,
)
from crspec.sets import common_grid

F = Fraction
UNIT = IntervalSpace(0, 1)


def iu(*pairs):
    return normalize([Interval(F(a), F(b)) for a, b in pairs])


fractions_01 = st.integers(1, 8).flatmap(
    lambda d: st.integers(0, d).map(lambda n: F(n, d))
)
intervals_01 = st.tuples(fractions_01, fractions_01).map(
    lambda t: Interval(min(t), max(t))
)
unions_01 = st.lists(intervals_01, min_size=1, max_size=4).map(normalize)


class TestNormalize:
    def test_touching_parts_merge(self):
        assert iu((0, "1/2"), ("1/2", 1)) == iu((0, 1))

    def test_degenerate_point_is_preserved(self):
        assert iu((0, 0)).parts == (Interval(F(0), F(0)),)

    def test_overlap_merges(self):
        assert iu(("1/4", "3/4"), (0, "1/2")) == iu((0, "3/4"))

    def test_empty_input_is_the_empty_union(self):
        assert normalize([]).is_empty

    @given(st.lists(intervals_01, max_size=5), st.randoms())
    def test_idempotent_and_order_insensitive(self, parts, rng):
        once = normalize(parts)
        assert normalize(once.parts) == once
        shuffled = list(parts)
        rng.shuffle(shuffled)
        assert normalize(shuffled) == once

    @given(st.lists(intervals_01, max_size=4), fractions_01)
    def test_same_point_set(self, parts, x):
        member_before = any(p.contains(x) for p in parts)
        assert normalize(parts).contains(x) == member_before

    def test_non_canonical_construction_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion((Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1))))


class TestSetDistance:
    def test_two_singletons(self):
        assert UNIT.set_distance(iu((0, 0)), iu(("3/4", "3/4"))) == F(3, 4)

    def test_self_distance_zero(self):
        a = iu((0, "1/2"), ("3/4", 1))
        assert UNIT.set_distance(a, a) == 0

    def test_point_inside_interval(self):
        assert UNIT.set_distance(iu((0, 0)), iu((0, 1))) == 0

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            UNIT.set_distance(IntervalUnion.empty(), iu((0, 1)))

    @given(unions_01, unions_01)
    def test_matches_enumeration(self, a, b):
        assert UNIT.set_distance(a, b) == oracles.set_distance(a, b)

    @given(unions_01, unions_01)
    def test_zero_iff_sets_meet(self, a, b):
        meets = not a.intersect(b).is_empty
        assert (UNIT.set_distance(a, b) == 0) == meets


class TestHausdorff:
    def test_point_zero_against_unit(self):
        assert UNIT.hausdorff(iu((0, 0)), iu((0, 1))) == 1

    def test_half_interval_with_far_point(self):
        assert UNIT.hausdorff(iu((0, "1/2"), (1, 1)), iu((0, 0))) == 1

    def test_half_interval_alone(self):
        assert UNIT.hausdorff(iu((0, "1/2")), iu((0, 0))) == F(1, 2)

    def test_gap_midpoint_matters(self):
        # sup d(., B) over A is attained strictly inside A, at B's gap middle
        a = iu((0, 1))
        b = iu((0, "1/4"), ("3/4", 1))
        assert UNIT.hausdorff(a, b) == F(1, 4)

    @given(unions_01, unions_01)
    def test_matches_enumeration(self, a, b):
        assert UNIT.hausdorff(a, b) == oracles.hausdorff(a, b)

    @given(unions_01, unions_01)
    def test_dominates_set_distance(self, a, b):
        assert UNIT.set_distance(a, b) <= UNIT.hausdorff(a, b)

    @given(unions_01, unions_01)
    def test_symmetry_and_identity(self, a, b):
        assert UNIT.hausdorff(a, b) == UNIT.hausdorff(b, a)
        assert (UNIT.hausdorff(a, b) == 0) == (a == b)

    @given(unions_01, unions_01, unions_01)
    def test_triangle(self, a, b, c):
        assert UNIT.hausdorff(a, c) <= UNIT.hausdorff(a, b) + UNIT.hausdorff(b, c)

    @given(unions_01, unions_01, st.integers(1, 8))
    def test_neighborhood_characterization(self, a, b, den):
        eps = F(1, den)
        within = UNIT.hausdorff(a, b) <= eps
        contained = a.subset_of(UNIT.neighborhood(eps, b)) and b.subset_of(
            UNIT.neighborhood(eps, a)
        )
        assert within == contained


class TestNeighborhood:
    def test_ball_around_endpoint(self):
        assert UNIT.neighborhood(F(1, 4), iu((0, 0))) == iu((0, "1/4"))

    def test_eps_exceeding_diameter(self):
        assert UNIT.neighborhood(2, iu(("1/3", "1/3"))) == iu((0, 1))

    def test_interior_ball(self):
        assert UNIT.neighborhood(F(1, 4), iu(("1/2", "1/2"))) == iu(("1/4", "3/4"))

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            UNIT.neighborhood(0, iu((0, 1)))


class TestRat:
    def test_parses_fraction_strings(self):
        assert rat("3/4") == F(3, 4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)


class TestFiniteMetricSpace:
    def test_discrete_metric_validates(self):
        assert validate_metric(FiniteMetricSpace.discrete(3)).ok

    def test_symmetry_violation_named(self):
        space = FiniteMetricSpace(((F(0), F(1)), (F(2), F(0))))
        check = validate_metric(space)
        assert not check.ok
        assert check.axiom == "symmetry"
        assert check.witness == (0, 1)

    def test_triangle_violation_named(self):
        space = FiniteMetricSpace(
            (
                (F(0), F(1), F(3)),
                (F(1), F(0), F(1)),
                (F(3), F(1), F(0)),
            )
        )
        check = validate_metric(space)
        assert not check.ok
        assert check.axiom == "triangle"
        assert check.witness == (0, 1, 2)

    def test_point_set_distances(self):
        space = FiniteMetricSpace.discrete(4)
        a = PointSet.of([0, 1])
        b = PointSet.of([1, 2])
        assert space.set_distance(a, b) == 0
        assert space.hausdorff(a, b) == 1
        assert space.hausdorff(a, a) == 0

    def test_neighborhood_collects_close_points(self):
        space = FiniteMetricSpace(
            (
                (F(0), F(1, 4), F(1)),
                (F(1, 4), F(0), F(1)),
                (F(1), F(1), F(0)),
            )
        )
        assert space.neighborhood(F(1, 4), PointSet.point(0)) == PointSet.of([0, 1])

    def test_empty_rejected(self):
        space = FiniteMetricSpace.discrete(2)
        with pytest.raises(EmptySetError):
            space.hausdorff(PointSet.empty(), space.full())

    def test_members_outside_the_space_refused(self):
        space = FiniteMetricSpace.discrete(3)
        inside, outside = PointSet.of([0, 2]), PointSet.of([0, 3])
        with pytest.raises(ValueError, match="non-negative"):
            PointSet.of([-1])
        calls = (
            lambda: space.set_distance(outside, inside),
            lambda: space.set_distance(inside, outside),
            lambda: space.hausdorff(outside, inside),
            lambda: space.hausdorff(inside, outside),
            lambda: space.neighborhood(1, outside),
        )
        for call in calls:
            with pytest.raises(ValueError, match="not a set of points 0..2"):
                call()

    def test_a_distance_between_points_outside_the_space_refused(self):
        space = FiniteMetricSpace.discrete(3)
        assert space.d(0, 2) == 1 and space.d(1, 1) == 0
        for i, j in ((-1, 0), (0, -1), (3, 0), (0, 3)):
            with pytest.raises(ValueError, match=re.escape(f"({i}, {j}) is not a pair of points 0..2")):
                space.d(i, j)

    def test_entries_are_frozen_as_fractions_and_checked(self):
        space = FiniteMetricSpace([[0, "1/2"], [F(1, 2), 0]])
        assert space.dist == ((F(0), F(1, 2)), (F(1, 2), F(0)))
        assert {type(v) for row in space.dist for v in row} == {Fraction}
        with pytest.raises(TypeError, match="floats"):
            FiniteMetricSpace(((F(0), 0.5), (F(1, 2), F(0))))
        for bad in ((), ((F(0), F(1)),), ((F(0), F(1)), (F(1),))):
            with pytest.raises(ValueError, match="square"):
                FiniteMetricSpace(bad)


def counted_reads(space):
    """Replace the space's grid rows and columns by tuples that record each read."""
    reads = []

    class Counted(tuple):
        def __getitem__(self, k):
            reads.append(k)
            return tuple.__getitem__(self, k)

    den, rows, cols, entry, skip_shared = space.grid
    space.__dict__["grid"] = (den, Counted(rows), Counted(cols), entry, skip_shared)
    return reads


class TestSharedMembers:
    """On a metric matrix a point of both sets is at distance 0 from the other set."""

    def test_shared_points_read_no_row(self):
        n = 120
        space = FiniteMetricSpace(tuple(tuple(F(abs(i - j), 7) for j in range(n)) for i in range(n)))
        reads = counted_reads(space)
        x = PointSet.of(range(0, n, 3))
        assert space.hausdorff(x, x) == 0
        assert space.set_distance(x, PointSet.of(range(1, n, 2))) == 0
        assert reads == []
        a = PointSet.of([*range(10, 60), 100])
        b = PointSet.of([5, *range(10, 60)])
        # d(100, B) = 41/7 and d(5, A) = 5/7: one row and one column
        assert space.hausdorff(a, b) == F(41, 7)
        assert sorted(reads) == [5, 100]
        reads.clear()
        assert space.set_distance(PointSet.of([0, 1]), PointSet.of([9])) == F(8, 7)
        assert sorted(reads) == [0, 1]

    @pytest.mark.parametrize("i, j, value", [(1, 1, F(5, 2)), (0, 2, F(-1, 3)), (3, 3, F(1, 9))])
    def test_a_matrix_that_is_not_a_metric_is_read_in_full(self, i, j, value):
        n = 4
        dist = [[F(abs(p - q), 2) for q in range(n)] for p in range(n)]
        dist[i][j] = value
        space = FiniteMetricSpace(tuple(map(tuple, dist)))
        subsets = [
            PointSet.of(c) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)
        ]
        for a, b in itertools.product(subsets, repeat=2):
            am, bm = a.members, b.members
            assert space.set_distance(a, b) == min(dist[p][q] for p in am for q in bm)
            assert space.hausdorff(a, b) == max(
                max(min(dist[p][q] for q in bm) for p in am),
                max(min(dist[p][q] for p in am) for q in bm),
            )


@st.composite
def union_pairs(draw):
    """Two unions of 1-4 parts in [-1, 2], endpoints k/d for one d <= 64.

    Endpoints reduce to different denominators, so the two unions usually
    sit on different integer grids; one d keeps the oracle's grid small.
    """
    d = draw(st.integers(1, 64))

    def union():
        ends = draw(
            st.lists(st.tuples(st.integers(-d, 2 * d), st.integers(-d, 2 * d)), min_size=1, max_size=4)
        )
        return normalize([Interval(F(min(p, q), d), F(max(p, q), d)) for p, q in ends])

    return union(), union()


WIDE = IntervalSpace(-1, 2)


class TestIntegerKernel:
    """The integer kernel against definitions that do not call it."""

    @given(union_pairs())
    def test_interval_distances_match_the_grid_oracle(self, pair):
        a, b = pair
        for mine, expected in (
            (WIDE.set_distance(a, b), oracles.set_distance(a, b)),
            (WIDE.hausdorff(a, b), oracles.hausdorff(a, b)),
        ):
            assert type(mine) is Fraction
            assert mine == expected

    @given(union_pairs())
    def test_union_operations_match_fraction_definitions(self, pair):
        a, b = pair
        pa, pb = [(p.lo, p.hi) for p in a.parts], [(p.lo, p.hi) for p in b.parts]
        both = [(max(p, r), min(q, s)) for p, q in pa for r, s in pb if max(p, r) <= min(q, s)]
        assert [(p.lo, p.hi) for p in a.intersect(b).parts] == both
        assert a.union(b) == normalize(a.parts + b.parts)
        assert a.subset_of(b) == all(any(r <= p and q <= s for r, s in pb) for p, q in pa)
        assert a.first_common_point(b) == oracles.least_common_point(a, b)
        d = lcm(a.den, b.den)
        for x in {F(k, 2 * d) for k in range(-2 * d - 1, 4 * d + 2)}:
            assert a.contains(x) == any(p <= x <= q for p, q in pa)

    @given(
        union_pairs(),
        st.lists(
            st.sampled_from([3, 5, 7, 11, 13]).flatmap(
                lambda q: st.integers(-2 * q, 3 * q).map(lambda k: F(k, q))
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_contains_off_the_grid(self, pair, points):
        """Points over the primes 3 to 13 mostly fall between a union's grid points."""
        for a in pair:
            for x in points:
                assert a.contains(x) == any(p.lo <= x <= p.hi for p in a.parts)

    @staticmethod
    def kernel_pairs():
        """Seeded pairs of unions in [-1, 2], drawn to reach every branch of the walks.

        One union of a pair is often a point, or a union with an end, at a
        gap midpoint of the other: a gap of odd length on the common grid
        puts that midpoint halfway between two grid points.
        """
        rng = random.Random(28)

        def drawn():
            # 1-4 parts at distinct ends k/den, so none merge; about a third of them points
            den = rng.choice((1, 2, 3, 4, 6, 8, 12))
            ends = sorted(rng.sample(range(-den, 2 * den + 1), 2 * min(rng.randint(1, 4), den + 1)))
            parts = [(lo, lo if rng.random() < 0.3 else hi) for lo, hi in zip(ends[::2], ends[1::2])]
            return normalize([Interval(F(lo, den), F(hi, den)) for lo, hi in parts])

        for _ in range(800):
            a, b = drawn(), drawn()
            gaps = [(p.hi + q.lo) / 2 for p, q in zip(b.parts, b.parts[1:])]
            recipe = rng.randrange(3)
            if recipe == 1 and gaps:
                a = IntervalUnion.point(rng.choice(gaps))
            elif recipe == 2 and gaps:
                m = rng.choice(gaps)
                a = a.union(IntervalUnion.closed(m, m + F(rng.randint(0, 4), a.den)))
            yield (a, b) if rng.getrandbits(1) else (b, a)

    def test_interval_kernel_branches_match_the_grid_oracle(self):
        seen = {"odd gap": 0, "midpoint on an end": 0, "point against union": 0, "multi against multi": 0, "two dens": 0}
        for a, b in self.kernel_pairs():
            assert WIDE.hausdorff(a, b) == oracles.hausdorff(a, b)
            assert WIDE.set_distance(a, b) == oracles.set_distance(a, b)
            assert a.first_common_point(b) == oracles.least_common_point(a, b)
            d = lcm(a.den, b.den)
            ends = {e for u in (a, b) for p in u.parts for e in (p.lo, p.hi)}
            for u, v in ((a, b), (b, a)):
                gaps = [(p.hi, q.lo) for p, q in zip(u.parts, u.parts[1:])]
                for lo, hi in gaps:
                    assert v.contains((lo + hi) / 2) == any(p.lo <= (lo + hi) / 2 <= p.hi for p in v.parts)
                seen["odd gap"] += any((hi - lo) * d % 2 for lo, hi in gaps)
                seen["midpoint on an end"] += any((lo + hi) / 2 in ends for lo, hi in gaps)
                seen["point against union"] += len(u.parts) == 1 and u.parts[0].is_point and not (
                    len(v.parts) == 1 and v.parts[0].is_point
                )
            seen["multi against multi"] += len(a.parts) > 1 and len(b.parts) > 1
            seen["two dens"] += a.den != b.den
        assert min(seen.values()) >= 100, seen

    @given(union_pairs(), st.integers(1, 6))
    def test_grid_is_canonical_and_any_multiple_reduces_to_it(self, pair, k):
        a, _ = pair
        parts = a.parts
        assert a.den == lcm(*[x.denominator for p in parts for x in (p.lo, p.hi)])
        assert a.ends == tuple(x * a.den for p in parts for x in (p.lo, p.hi))
        again = IntervalUnion.on_grid(k * a.den, [k * e for e in a.ends])
        twins = (again, IntervalUnion(parts), normalize(reversed(parts)), pickle.loads(pickle.dumps(a)))
        for twin in twins:
            assert twin == a and hash(twin) == hash(a) and str(twin) == str(a)
            assert (twin.den, twin.ends, twin.parts) == (a.den, a.ends, parts)
        with pytest.raises(FrozenInstanceError):
            a.den = 1

    @pytest.mark.parametrize(
        "den, ends",
        [
            (4, (0, 1, 1, 2)),  # touching parts
            (4, (0, 2, 1, 3)),  # overlapping parts
            (4, (2, 3, 0, 1)),  # out of order
            (4, (1, 0)),  # a part with lo > hi
            (4, (0, 1, 2)),  # an end without its pair
            (0, (0, 1)),
            (-4, (0, 1)),
        ],
    )
    def test_non_canonical_grids_rejected(self, den, ends):
        with pytest.raises(ValueError):
            IntervalUnion.on_grid(den, ends)

    @staticmethod
    def matrices():
        """Seeded square matrices: metrics, and matrices that break each axiom."""
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 6)
            dist = [[F(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.7:
                for i in range(n):
                    dist[i][i] = F(0)
            if rng.random() < 0.7:
                for i in range(n):
                    for j in range(i):
                        dist[i][j] = dist[j][i]
            yield rng, FiniteMetricSpace(tuple(map(tuple, dist)))

    @staticmethod
    def reference_check(d):
        n = len(d)
        for i in range(n):
            if d[i][i] != 0:
                return (False, "identity", (i,))
        for i in range(n):
            for j in range(n):
                if i != j and d[i][j] <= 0:
                    return (False, "positivity", (i, j))
                if d[i][j] != d[j][i]:
                    return (False, "symmetry", (i, j))
        for i, j, k in itertools.product(range(n), repeat=3):
            if d[i][k] > d[i][j] + d[j][k]:
                return (False, "triangle", (i, j, k))
        return (True, None, None)

    def test_finite_metric_kernel_matches_the_definitions(self):
        axioms = set()
        for rng, space in self.matrices():
            d, n = space.dist, space.n
            check = validate_metric(space)
            assert (check.ok, check.axiom, check.witness) == self.reference_check(d)
            axioms.add(check.axiom)
            assert space.diameter() == max(v for row in d for v in row)
            for _ in range(4):
                a = PointSet.of(rng.sample(range(n), rng.randint(1, n)))
                b = PointSet.of(rng.sample(range(n), rng.randint(1, n)))
                expected_sd = min(d[i][j] for i in a.members for j in b.members)
                expected_hd = max(
                    max(min(d[i][j] for j in b.members) for i in a.members),
                    max(min(d[i][j] for i in a.members) for j in b.members),
                )
                for mine, expected in ((space.set_distance(a, b), expected_sd), (space.hausdorff(a, b), expected_hd)):
                    assert type(mine) is Fraction
                    assert mine == expected
                # eps on an entry tests the closed boundary; the others fall between entries
                eps = rng.choice([v for row in d for v in row if v > 0] or [F(1)])
                for e in (eps, eps + F(1, 97), eps * F(96, 97)):
                    expected = tuple(i for i in range(n) if min(d[i][j] for j in a.members) <= e)
                    assert space.neighborhood(e, a).members == expected
        assert axioms == {None, "identity", "positivity", "symmetry", "triangle"}


# large numerators and denominators, both signs and zero
any_fraction = st.one_of(
    st.fractions(),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


class TestCommonGrid:
    """``common_grid`` reads each Fraction's slots; the oracle reads ``as_integer_ratio``."""

    def test_fraction_keeps_the_slots_the_grid_reads(self):
        # a release of Python without them would break every grid, so say so first
        assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)

    @given(st.lists(any_fraction, max_size=30))
    def test_matches_the_ratio_oracle(self, values):
        den, ints = common_grid(values)
        assert (den, ints) == oracles.common_grid(values)
        assert all(type(k) is int for k in [den, *ints])
        assert [F(k, den) for k in ints] == values

    def test_empty_list_and_zero(self):
        assert common_grid([]) == (1, [])
        assert common_grid([F(0), F(-3, 4), F(5, 6)]) == (12, [0, -9, 10])


class TestFirstCommonPoint:
    @given(unions_01, unions_01)
    def test_interval_unions_match_the_grid_oracle(self, a, b):
        assert a.first_common_point(b) == oracles.least_common_point(a, b)
        assert b.first_common_point(a) == a.first_common_point(b)

    def test_interval_unions_on_different_grids(self):
        a = iu((0, F(1, 3)), (F(1, 2), F(5, 7)))
        b = iu((F(2, 5), F(11, 21)), (F(5, 7), 1))
        assert a.first_common_point(b) == F(1, 2)
        assert b.first_common_point(a) == F(1, 2)
        assert iu((0, F(1, 3))).first_common_point(iu((F(1, 2), 1))) is None
        assert IntervalUnion.empty().first_common_point(a) is None

    def test_point_sets_match_the_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            a = PointSet.of(rng.sample(range(8), rng.randint(0, 5)))
            b = PointSet.of(rng.sample(range(8), rng.randint(0, 5)))
            assert a.first_common_point(b) == oracles.least_common_point(a, b)
