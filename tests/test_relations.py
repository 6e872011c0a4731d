import random
from fractions import Fraction

import pytest

import oracles
from crspec import (
    BadRangeError,
    BoxRelation,
    EmptyImageError,
    FiniteMetricSpace,
    FiniteRelation,
    Interval,
    IntervalSpace,
    IntervalUnion,
    PointSet,
    cell_decomposition,
    cell_image,
    cell_of,
    check_surjectivity,
    iterate_automaton,
    normalize,
)
from crspec.randgen import random_box_relation, random_interval_union
from conftest import box

F = Fraction


def iu(*pairs):
    return normalize([Interval(F(a), F(b)) for a, b in pairs])


class TestImage:
    def test_fan_out_point(self, monica):
        assert monica.image(iu((1, 1))) == iu((0, 1))

    def test_fixed_point_zero(self, monica):
        assert monica.image(iu((0, 0))) == iu((0, 0))

    def test_full_relation_sends_everything_to_x(self, full_box):
        assert full_box.image(iu(("1/3", "1/3"))) == iu((0, 1))

    def test_image_may_be_empty(self, unit):
        half = BoxRelation(unit, (box(0, "1/2", 0, 1),))
        assert half.image(iu(("3/4", 1))).is_empty

    def test_monotone_and_additive(self, monica):
        rng = random.Random(7)
        for _ in range(50):
            s = random_interval_union(rng, monica.space)
            t = random_interval_union(rng, monica.space)
            union_image = monica.image(s.union(t))
            assert monica.image(s).union(monica.image(t)) == union_image
            if s.subset_of(t):
                assert monica.image(s).subset_of(monica.image(t))

    def test_membership_matches_definition(self, monica, fan):
        rng = random.Random(3)
        for relation in (monica, fan):
            for _ in range(25):
                s = random_interval_union(rng, relation.space)
                img = relation.image(s)
                for k in range(0, 17):
                    y = F(k, 16)
                    assert img.contains(y) == oracles.image_contains(relation, s, y)


class TestIterate:
    def test_fourth_iterate_is_everything(self, fan):
        for x in (F(0), F(1, 3), F(1, 2), F(2, 3), F(1)):
            assert fan.iterate(x, 4) == iu((0, 1))

    def test_zeroth_iterate_is_the_point(self, monica):
        assert monica.iterate(F(1, 3), 0) == iu(("1/3", "1/3"))

    def test_constant_relation_pins_to_one(self, constant):
        assert constant.iterate(F(1, 3), 2) == iu((1, 1))

    def test_semigroup_law(self, monica, fan):
        rng = random.Random(11)
        for relation in (monica, fan):
            for _ in range(20):
                x = F(rng.randint(0, 8), 8)
                a, b = rng.randint(0, 6), rng.randint(0, 6)
                whole = relation.iterate(x, a + b)
                stepped = relation.iterate(x, a)
                for _ in range(b):
                    stepped = relation.image(stepped)
                assert whole == stepped

    def test_positive_iterates_are_unions_of_image_boxes(self):
        rng = random.Random(29)
        for _ in range(30):
            relation = random_box_relation(rng, cover_domain=True)
            x = F(rng.randint(0, 8), 8)
            for j in range(1, 5):
                result = relation.iterate(x, j)
                covered = normalize(
                    [b for _, b in relation.boxes if IntervalUnion((b,)).subset_of(result)]
                )
                assert covered == result

    def test_dead_orbit_names_the_step(self, unit):
        half = BoxRelation(unit, (box(0, "1/2", "3/4", 1),))
        with pytest.raises(EmptyImageError) as err:
            half.iterate(F(0), 2)
        assert err.value.step == 2


class TestOrbitSegment:
    def test_zero_fixed_prefix(self, monica):
        seg = monica.orbit_segment(F(0), 0, 1)
        assert seg.sets == (iu((0, 0)), iu((0, 0)))

    def test_fixed_point_segment(self, unit):
        diag = BoxRelation(unit, (box("1/2", "1/2", "1/2", "1/2"),))
        seg = diag.orbit_segment(F(1, 2), 0, 3)
        assert all(s == iu(("1/2", "1/2")) for s in seg.sets)

    def test_later_window(self, monica):
        seg = monica.orbit_segment(F(1), 2, 3)
        assert seg.sets == (iu((0, 1)), iu((0, 1)))
        assert seg.set_at(2) == iu((0, 1))

    def test_bad_range(self, monica):
        with pytest.raises(BadRangeError):
            monica.orbit_segment(F(0), 3, 2)
        with pytest.raises(BadRangeError):
            monica.orbit_segment(F(0), -1, 2)


class TestProjectInverse:
    def test_monica_projections(self, monica):
        assert monica.project(1) == iu((0, 1))
        assert monica.project(2) == iu((0, 1))

    def test_constant_projections(self, constant):
        assert constant.project(1) == iu((0, 1))
        assert constant.project(2) == iu((1, 1))

    def test_inverse_swaps_boxes(self, constant):
        inv = constant.inverse()
        assert inv.boxes == (box(1, 1, 0, 1),)

    def test_inverse_involution_and_projection_swap(self):
        rng = random.Random(5)
        for _ in range(30):
            relation = random_box_relation(rng, cover_domain=False)
            inv = relation.inverse()
            assert inv.inverse() == relation
            assert inv.project(1) == relation.project(2)
            assert inv.project(2) == relation.project(1)

    def test_surjectivity_probe(self, monica, constant, full_box):
        assert check_surjectivity(monica) == (True, True)
        assert check_surjectivity(constant) == (True, False)
        assert check_surjectivity(full_box) == (True, True)


class TestIsFunction:
    def test_constant_is_a_function(self, constant):
        assert constant.is_function()

    def test_monica_is_not(self, monica):
        assert not monica.is_function()

    def test_finite_identity_is(self, two_points):
        ident = FiniteRelation.from_pairs(two_points, [(0, 0), (1, 1)])
        assert ident.is_function()

    def test_partial_domain_is_not(self, unit):
        half = BoxRelation(unit, (box(0, "1/2", 0, 0),))
        assert not half.is_function()


class TestCells:
    def test_monica_cells(self, monica):
        assert [str(c) for c in cell_decomposition(monica).cells] == [
            "[0, 1/2)",
            "{1/2}",
            "(1/2, 1)",
            "{1}",
        ]

    def test_fan_cells(self, fan):
        assert [str(c) for c in cell_decomposition(fan).cells] == [
            "{0}",
            "(0, 1/2)",
            "{1/2}",
            "(1/2, 1)",
            "{1}",
        ]

    def test_single_box_gives_one_cell(self, constant):
        cells = cell_decomposition(constant).cells
        assert len(cells) == 1
        assert str(cells[0]) == "[0, 1]"

    def test_cells_cover_and_patterns_hold(self):
        rng = random.Random(13)
        for _ in range(25):
            relation = random_box_relation(rng, cover_domain=False)
            cells = cell_decomposition(relation).cells
            for k in range(0, 33):
                x = F(k, 32)
                home = [c for c in cells if c.contains(x)]
                assert len(home) == 1
                expected = frozenset(
                    i for i, (a, _) in enumerate(relation.boxes) if a.contains(x)
                )
                assert home[0].pattern == expected

    def test_cell_of_agrees_with_a_scan(self):
        relation = random_box_relation(random.Random(0), max_boxes=18, max_den=32)
        decomposition = cell_decomposition(relation)
        cells = decomposition.cells
        assert len(cells) == 23
        # a cell that starts where its neighbour ends, open at that end
        assert any(a.hi == b.lo and not b.lo_closed for a, b in zip(cells, cells[1:]))
        points = [c.representative() for c in cells] + list(decomposition.breakpoints)
        for x in points:
            assert cell_of(relation, x) == next(c for c in cells if c.contains(x))
        for x in (F(-1, 64), F(65, 64)):
            with pytest.raises(ValueError):
                cell_of(relation, x)

    def test_cell_of_and_image(self, monica):
        cell = cell_of(monica, F(3, 4))
        assert str(cell) == "(1/2, 1)"
        assert cell_image(monica, cell) == iu((1, 1))


class TestIterateAutomaton:
    def test_constant_relation(self, constant):
        auto = iterate_automaton(constant)
        orbit = auto.orbits[0]
        assert orbit.preperiod == ()
        assert orbit.cycle == (iu((1, 1)),)

    def test_monica_low_cell_cycles_at_zero(self, monica):
        auto = iterate_automaton(monica)
        orbit = auto.orbit_for(cell_of(monica, F(1, 4)))
        assert orbit.preperiod == ()
        assert orbit.cycle == (iu((0, 0)),)

    def test_monica_upper_cell_has_transient(self, monica):
        auto = iterate_automaton(monica)
        orbit = auto.orbit_for(cell_of(monica, F(3, 4)))
        assert orbit.preperiod == (iu((1, 1)),)
        assert orbit.cycle == (iu((0, 1)),)

    def test_matches_pointwise_iteration(self, monica, fan, constant):
        for relation in (monica, fan, constant):
            auto = iterate_automaton(relation)
            for cell in auto.decomposition.cells:
                orbit = auto.orbit_for(cell)
                stepped = relation.point_set(cell.representative())
                horizon = orbit.transient + 2 * orbit.period
                for j in range(1, horizon + 1):
                    stepped = relation.image(stepped)
                    assert stepped == orbit.value_at(j)

    def test_transient_plus_period_bounded_by_subset_count(self):
        rng = random.Random(17)
        for _ in range(40):
            relation = random_box_relation(rng, max_boxes=5, cover_domain=True)
            bound = 2 ** len(relation.boxes)
            for orbit in iterate_automaton(relation).orbits:
                assert orbit.transient + orbit.period <= bound

    def test_dying_cell_raises(self, unit):
        half = BoxRelation(unit, (box(0, "1/2", "3/4", 1),))
        with pytest.raises(EmptyImageError):
            iterate_automaton(half)


class TestFiniteRelation:
    def test_image_matches_the_adjacency_scan(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 6)
            pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4]
            relation = FiniteRelation.from_pairs(FiniteMetricSpace.discrete(n), pairs)
            adj = relation.adjacency
            for bits in range(2**n):
                members = [i for i in range(n) if bits >> i & 1]
                want = PointSet.of(j for i in members for j in range(n) if adj[i][j])
                assert relation.image(PointSet.of(members)) == want

    def test_image_and_iterate(self, golden_mean):
        assert golden_mean.image(PointSet.point(0)) == PointSet.of([0, 1])
        assert golden_mean.iterate(1, 2) == PointSet.of([0, 1])

    def test_point_orbit_matches_iterates(self, golden_mean):
        for x in range(2):
            orbit = golden_mean.orbit(x)
            stepped = golden_mean.point_set(x)
            for j in range(1, orbit.transient + 2 * orbit.period + 1):
                stepped = golden_mean.image(stepped)
                assert stepped == orbit.value_at(j)

    def test_projections(self, golden_mean):
        assert golden_mean.project(1) == PointSet.of([0, 1])
        assert golden_mean.project(2) == PointSet.of([0, 1])

    def test_inverse_transposes(self, golden_mean):
        assert golden_mean.inverse().pairs() == [(0, 0), (0, 1), (1, 0)]
        sink = FiniteRelation.from_pairs(FiniteMetricSpace.discrete(2), [(0, 1), (1, 1)])
        assert sink.inverse().pairs() == [(1, 0), (1, 1)]

    def test_dead_row_raises_on_iterate(self, two_points):
        partial = FiniteRelation.from_pairs(two_points, [(0, 1)])
        with pytest.raises(EmptyImageError):
            partial.iterate(0, 2)
