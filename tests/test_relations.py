import gc
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from crspec import (
    BadRangeError,
    BoxRelation,
    Cell,
    EmptyImageError,
    FiniteMetricSpace,
    FiniteRelation,
    Interval,
    IntervalSpace,
    IntervalUnion,
    PointSet,
    SpacedTemplate,
    Specification,
    cell_decomposition,
    cell_of,
    certify_common_image,
    certify_eventual_hausdorff,
    certify_full_image,
    certify_trivial_fiber,
    check_trace,
    find_tracer,
    implication_suite,
    normalize,
    refute_property,
)
from crspec import relations
from crspec.randgen import (
    random_box_relation,
    random_finite_relation,
    random_finite_space,
    random_function_relation,
    random_interval_union,
    random_partition_relation,
)
from crspec.scenario import parse_scenario
from conftest import box

F = Fraction

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_finite_reads_match_the_adjacency(self):
        # projections and inverse read the successor lists; the references
        # read the matrix by rows and by columns, empty ones included
        rng = random.Random(61)
        seen = {"empty row": 0, "empty column": 0}
        for _ in range(200):
            space = random_finite_space(rng, rng.randint(1, 6))
            relation = random_finite_relation(rng, space, density=0.3, p1_full=False)
            adj, n = relation.adjacency, space.n
            rows = [i for i in range(n) if any(adj[i])]
            columns = [j for j in range(n) if any(adj[i][j] for i in range(n))]
            seen["empty row"] += len(rows) < n
            seen["empty column"] += len(columns) < n
            assert relation.project(1) == PointSet.of(rows)
            assert relation.project(2) == PointSet.of(columns)
            inv = relation.inverse()
            assert inv.adjacency == tuple(tuple(adj[j][i] for j in range(n)) for i in range(n))
            assert inv.successors == tuple(
                tuple(j for j in range(n) if adj[j][i]) for i in range(n)
            )
        assert min(seen.values()) >= 50, seen

    def test_surjectivity_probe(self, monica, constant, full_box):
        def check_surjectivity(relation):
            full = relation.space.full()
            return relation.project(1) == full, relation.project(2) == full

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

    def test_an_interval_image_is_not(self, full_box):
        assert not full_box.is_function()


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

    @staticmethod
    def reference_decomposition(relation):
        """Tag each piece by scanning the boxes at a point of it, then merge."""
        amb = relation.space
        breaks = sorted({amb.lo, amb.hi} | {x for a, _ in relation.boxes for x in (a.lo, a.hi)})

        def pattern(x):
            return frozenset(i for i, (a, _) in enumerate(relation.boxes) if a.lo <= x <= a.hi)

        pieces = []
        for b, nxt in zip(breaks, breaks[1:] + [None]):
            pieces.append([b, b, True, True, pattern(b)])
            if nxt is not None:
                pieces.append([b, nxt, False, False, pattern((b + nxt) / 2)])
        merged = []
        for piece in pieces:
            if merged and merged[-1][4] == piece[4]:
                merged[-1][1], merged[-1][3] = piece[1], piece[3]
            else:
                merged.append(piece)
        return tuple(breaks), tuple(Cell(*m) for m in merged)

    def test_decomposition_matches_a_scan_of_the_boxes(self):
        rng = random.Random(21)
        ambients = (IntervalSpace(0, 1), IntervalSpace(F(-1, 2), F(3, 2)))
        for _ in range(300):
            amb = ambients[rng.randint(0, 1)]
            # few denominators, so boxes share endpoints; some boxes are points
            width = amb.hi - amb.lo
            ends = sorted({amb.hi} | {amb.lo + width * F(k, d) for d in (2, 3, 4, 6) for k in range(d)})
            boxes = []
            for _ in range(rng.randint(1, 7)):
                lo = rng.choice(ends)
                hi = lo if rng.random() < 0.3 else rng.choice([x for x in ends if x >= lo])
                target = rng.choice(ends)
                boxes.append((Interval(lo, hi), Interval(target, target)))
            relation = BoxRelation(amb, tuple(boxes))
            decomposition = cell_decomposition(relation)
            breaks, cells = self.reference_decomposition(relation)
            assert decomposition.breakpoints == breaks
            assert decomposition.cells == cells
            assert all(type(x) is Fraction for c in cells for x in (c.lo, c.hi))

    def test_cell_of_and_image(self, monica):
        cell = cell_of(monica, F(3, 4))
        assert str(cell) == "(1/2, 1)"
        assert monica.first_image(cell) == iu((1, 1))


class TestGridCells:
    """Cells are built and decided on the relation's integer grid, and read as their
    Fraction twins: the same representative, hash, equality and first image."""

    @staticmethod
    def relations():
        """(origin, relation): seeded random relations, on [0, 1] and on a wider
        ambient, then the relation of every bundled interval scenario."""
        rng = random.Random(71)
        wide = IntervalSpace(F(-1, 2), F(3, 2))
        for k in range(120):
            space = wide if k % 3 == 0 else IntervalSpace(0, 1)
            relation = random_box_relation(rng, space, max_boxes=8, max_den=12, cover_domain=k % 2 == 0)
            yield "wide" if space is wide else "unit", relation
        for path in sorted(SCENARIOS.glob("*.scn")):
            relation = parse_scenario(path.read_text(encoding="utf-8")).relation
            if isinstance(relation, BoxRelation):
                yield "bundled", relation

    def test_each_cell_is_its_fraction_twin(self):
        seen = {"point": 0, "interval": 0, "unit": 0, "wide": 0, "bundled": 0}
        for origin, relation in self.relations():
            for cell in cell_decomposition(relation).cells:
                lo, hi = cell.lo, cell.hi
                expected = lo if lo == hi else (lo + hi) / 2
                rep = cell.representative()
                assert type(rep) is Fraction and rep == expected and str(rep) == str(expected)
                assert cell.is_point == (lo == hi)
                fresh = (Fraction(str(lo)), Fraction(2 * hi.numerator, 2 * hi.denominator))
                twin = Cell(*fresh, cell.lo_closed, cell.hi_closed, frozenset(cell.pattern))
                assert twin == cell and hash(twin) == hash(cell) and repr(twin) == repr(cell)
                assert twin.representative() == rep and str(twin) == str(cell)
                # one dict update fills the fields and what is derived from them
                ends = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                mask = sum(1 << i for i in cell.pattern)
                assert (cell._ends, cell.mask) == (ends, mask)
                assert hash(cell) == hash((ends, cell.lo_closed, cell.hi_closed, mask))
                names = ("lo", "hi", "lo_closed", "hi_closed", "pattern")
                assert repr(cell) == "Cell(" + ", ".join(f"{n}={getattr(cell, n)!r}" for n in names) + ")"
                assert relation.first_image(twin) == relation.first_image(cell)
                seen["point" if cell.is_point else "interval"] += 1
            seen[origin] += 1
        assert min(seen.values()) >= 5, seen

    def test_point_set_checks_the_ambient_ends_on_the_grid(self):
        tiny = F(1, 10**12)
        for _, relation in self.relations():
            amb = relation.space
            for x in (amb.lo, amb.hi, amb.lo + tiny, amb.hi - tiny, str(amb.hi)):
                assert relation.point_set(x) == IntervalUnion.point(x)
            for x in (amb.lo - tiny, amb.hi + tiny, amb.lo - 1, amb.hi + F(1, 97)):
                with pytest.raises(ValueError) as got:
                    relation.point_set(x)
                with pytest.raises(ValueError) as want:
                    amb.point(x)
                assert str(got.value) == str(want.value)

    def test_listing_regions_adds_and_divides_no_fraction(self, monkeypatch):
        # A fresh relation's cells and representatives come off the grid ints:
        # no Fraction sum or quotient.  Counts, unlike wall times, hold on any machine.
        counts = {"add": 0, "truediv": 0}
        add, truediv = Fraction.__add__, Fraction.__truediv__

        def counted_add(self, other):
            counts["add"] += 1
            return add(self, other)

        def counted_truediv(self, other):
            counts["truediv"] += 1
            return truediv(self, other)

        listed = 0
        for _, relation in self.relations():
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__add__", counted_add)
                patch.setattr(Fraction, "__truediv__", counted_truediv)
                listed += len(list(relation.regions()))
        assert listed > 500
        assert counts == {"add": 0, "truediv": 0}


class TestIterateAutomaton:
    """The per-cell eventually periodic description, read off each cell's closed orbit."""

    def test_constant_relation(self, constant):
        orbit = constant.orbit(cell_decomposition(constant).cells[0]).close()
        assert orbit.preperiod == ()
        assert orbit.cycle == (iu((1, 1)),)

    def test_monica_low_cell_cycles_at_zero(self, monica):
        orbit = monica.orbit(cell_of(monica, F(1, 4))).close()
        assert orbit.preperiod == ()
        assert orbit.cycle == (iu((0, 0)),)

    def test_monica_upper_cell_has_transient(self, monica):
        orbit = monica.orbit(cell_of(monica, F(3, 4))).close()
        assert orbit.preperiod == (iu((1, 1)),)
        assert orbit.cycle == (iu((0, 1)),)

    def test_matches_pointwise_iteration(self, monica, fan, constant):
        for relation in (monica, fan, constant):
            for cell in cell_decomposition(relation).cells:
                orbit = relation.orbit(cell).close()
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
            for cell in cell_decomposition(relation).cells:
                orbit = relation.orbit(cell).close()
                assert orbit.transient + orbit.period <= bound

    def test_dying_cell_raises(self, unit):
        half = BoxRelation(unit, (box(0, "1/2", "3/4", 1),))
        with pytest.raises(EmptyImageError):
            for cell in cell_decomposition(half).cells:
                half.orbit(cell).close()


class TestSweptWindow:
    def test_reads_without_sweeping(self, unit):
        monica = BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))
        orbit = monica.orbit(F(3, 4))
        assert orbit.swept_window is None
        orbit.value_at(2)
        assert orbit.swept_window is None
        assert orbit._sets == [iu((1, 1)), iu((0, 1))]
        orbit.value_at(3)
        assert orbit.swept_window == (1, 1) == (orbit.transient, orbit.period)

    def test_matches_transient_and_period_once_closed(self):
        rng = random.Random(29)
        for _ in range(30):
            relation = random_box_relation(rng, max_boxes=5)
            for cell, _ in relation.regions():
                orbit = relation.orbit(cell)
                assert orbit.swept_window is None or orbit.swept_window == (
                    orbit.transient,
                    orbit.period,
                )
                orbit.close()
                assert orbit.swept_window == (orbit.transient, orbit.period)

    def test_a_dying_orbit_has_none(self, unit):
        half = BoxRelation(unit, (box(0, "1/2", "3/4", 1),))
        orbit = half.orbit(F(1, 4))
        with pytest.raises(EmptyImageError):
            orbit.close()
        assert orbit.swept_window is None


class TestRegions:
    """The region interface both relation kinds answer: regions, first images, is_function."""

    def test_box_regions_are_the_cells_in_order(self):
        rng = random.Random(61)
        for _ in range(100):
            relation = random_box_relation(rng, cover_domain=rng.random() < 0.5)
            regions = list(relation.regions())
            assert [cell for cell, _ in regions] == list(cell_decomposition(relation).cells)
            assert all(rep == cell.representative() for cell, rep in regions)

    def test_finite_regions_are_the_points_in_order(self):
        rng = random.Random(62)
        for _ in range(50):
            space = random_finite_space(rng, rng.randint(1, 6))
            relation = random_finite_relation(rng, space, p1_full=False)
            assert [x for x, _ in relation.regions()] == list(range(space.n))
            assert all(rep == x for x, rep in relation.regions())

    def test_first_image_is_the_image_of_the_representative(self):
        rng = random.Random(63)
        checked = 0
        for _ in range(100):
            space = random_finite_space(rng, rng.randint(1, 6))
            relations = (
                random_box_relation(rng, cover_domain=False),
                random_finite_relation(rng, space, p1_full=False),
            )
            for relation in relations:
                for label, rep in relation.regions():
                    assert relation.first_image(label) == relation.image(relation.point_set(rep))
                    checked += 1
        assert checked > 500

    def test_finite_is_function_against_the_row_sums(self):
        def one_successor_each(relation):
            return all(sum(row) == 1 for row in relation.adjacency)

        rng = random.Random(64)
        for _ in range(60):
            space = random_finite_space(rng, rng.randint(1, 6))
            function = random_function_relation(rng, space)
            assert one_successor_each(function) and function.is_function()
            pairs = function.pairs()
            i = rng.randrange(space.n)
            empty_row = FiniteRelation.from_pairs(space, [(a, b) for a, b in pairs if a != i])
            assert not one_successor_each(empty_row) and not empty_row.is_function()
            if space.n > 1:
                j = rng.choice([b for b in range(space.n) if (i, b) not in pairs])
                forked = FiniteRelation.from_pairs(space, pairs + [(i, j)])
                assert not one_successor_each(forked) and not forked.is_function()
            drawn = random_finite_relation(rng, space, p1_full=rng.random() < 0.5)
            assert drawn.is_function() == one_successor_each(drawn)


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

    @pytest.mark.parametrize("pair", [(-1, 0), (3, 0), (0, -1), (0, 3)])
    def test_from_pairs_refuses_a_pair_outside_the_space(self, pair):
        space = FiniteMetricSpace.discrete(3)
        with pytest.raises(ValueError, match=re.escape(str(pair))):
            FiniteRelation.from_pairs(space, [(0, 1), pair])

    def test_image_refuses_a_point_outside_the_space(self):
        cycle = FiniteRelation.from_pairs(FiniteMetricSpace.discrete(3), [(2, 0), (0, 1), (1, 2)])
        assert cycle.image(PointSet.of([0, 2])) == PointSet.of([0, 1])
        assert cycle.image(PointSet.empty()) == PointSet.empty()
        for outside in (PointSet.of([-1]), PointSet.of([5]), PointSet.of([0, 3])):
            with pytest.raises(ValueError, match=re.escape(f"{outside} is not a set of points 0..2")):
                cycle.image(outside)

    def test_adjacency_is_frozen_to_bools_and_checked(self):
        space = FiniteMetricSpace.discrete(2)
        relation = FiniteRelation(space, [[1, 0], [0, 1]])
        assert relation.adjacency == ((True, False), (False, True))
        assert {type(v) for row in relation.adjacency for v in row} == {bool}
        assert FiniteRelation(space, relation.adjacency).adjacency == relation.adjacency
        for bad in ([[True, False]], [[True], [False, True]], [[True, False], [True, False, True]]):
            with pytest.raises(ValueError, match="space size"):
                FiniteRelation(space, bad)


def _seeded_box_relation(rng):
    """Boxes on an ambient of [0, 1] or [-1/2, 3/2] with endpoints at k/d for a few
    d <= 48, so that boxes share and touch endpoints; some sides are points."""
    amb = rng.choice((IntervalSpace(0, 1), IntervalSpace(F(-1, 2), F(3, 2))))
    dens = rng.sample((2, 3, 4, 6, 7, 12, 16, 48), 2)
    ends = sorted({amb.lo + (amb.hi - amb.lo) * F(k, d) for d in dens for k in range(d + 1)})

    def side():
        lo = rng.choice(ends)
        hi = lo if rng.random() < 0.3 else rng.choice([x for x in ends if x >= lo])
        return Interval(lo, hi)

    return BoxRelation(amb, tuple((side(), side()) for _ in range(rng.randint(1, 8))))


def _reference_merge(parts):
    """Sorted (lo, hi) pairs of the union of closed intervals, by Fraction comparisons."""
    merged = []
    for lo, hi in sorted(parts):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(m) for m in merged]


def _reference_image(relation, s):
    """The union of the B sides whose A side meets a part of s, scanned box by box."""
    hit = [
        (b.lo, b.hi)
        for a, b in relation.boxes
        if any(a.lo <= p.hi and p.lo <= a.hi for p in s.parts)
    ]
    return _reference_merge(hit)


class TestBoxKernel:
    """The integer grid of a box relation against definitions that do not call it."""

    def test_image_matches_a_scan_of_the_boxes(self):
        rng = random.Random(48)
        checked = 0
        for _ in range(300):
            relation = _seeded_box_relation(rng)
            amb = relation.space
            produced = []
            for cell in cell_decomposition(relation).cells:
                produced.append(relation.first_image(cell))
                try:
                    orbit = relation.orbit(cell).close()
                except EmptyImageError:
                    continue
                produced += orbit.preperiod + orbit.cycle
            drawn = []
            for _ in range(6):
                d = rng.randint(3, 48)
                ks = sorted(rng.sample(range(-d, 2 * d + 1), 2 * rng.randint(1, 4)))
                parts = [(F(lo, d), F(hi, d)) for lo, hi in zip(ks[::2], ks[1::2])]
                parts = [(max(lo, amb.lo), min(hi, amb.hi)) for lo, hi in parts]
                parts = [p for p in parts if p[0] <= p[1]] or [(amb.lo, amb.lo)]
                drawn.append(normalize([Interval(lo, hi) for lo, hi in parts]))
                x = amb.lo + (amb.hi - amb.lo) * F(rng.randint(0, 97), 97)
                drawn.append(IntervalUnion.point(x))
            for s in produced + drawn:
                if s.is_empty:
                    continue
                image = relation.image(s)
                assert [(p.lo, p.hi) for p in image.parts] == _reference_image(relation, s)
                assert all(type(x) is Fraction for p in image.parts for x in (p.lo, p.hi))
                checked += 1
        assert checked > 3000

    def test_cell_image_matches_a_scan_of_the_pattern(self):
        rng = random.Random(49)
        for _ in range(200):
            relation = _seeded_box_relation(rng)
            for cell in cell_decomposition(relation).cells:
                image = relation.first_image(cell)
                expected = _reference_merge(
                    [(relation.boxes[i][1].lo, relation.boxes[i][1].hi) for i in cell.pattern]
                )
                assert [(p.lo, p.hi) for p in image.parts] == expected
                assert all(type(x) is Fraction for p in image.parts for x in (p.lo, p.hi))

    def test_cell_of_matches_a_scan_of_the_cells(self):
        rng = random.Random(50)
        for _ in range(300):
            relation = _seeded_box_relation(rng)
            decomposition = cell_decomposition(relation)
            cells, breaks = decomposition.cells, decomposition.breakpoints
            points = list(breaks)
            points += [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
            # just off each breakpoint, between two points of the relation's grid
            points += [x + F(sign, 7 * 48 * 48) for x in breaks for sign in (-1, 1)]
            for x in points:
                home = [c for c in cells if c.contains(x)]
                if not home:
                    with pytest.raises(ValueError):
                        cell_of(relation, x)
                    continue
                assert len(home) == 1
                assert cell_of(relation, x) is home[0]
            amb = relation.space
            for x in (amb.lo - 1, amb.lo - F(1, 97), amb.hi + F(1, 97), amb.hi + 2):
                with pytest.raises(ValueError):
                    cell_of(relation, x)

    def test_cells_hash_like_their_values(self):
        rng = random.Random(51)
        for _ in range(50):
            relation = _seeded_box_relation(rng)
            for cell in cell_decomposition(relation).cells:
                twin = Cell(F(cell.lo), F(cell.hi), cell.lo_closed, cell.hi_closed, frozenset(cell.pattern))
                assert twin == cell and hash(twin) == hash(cell)
                assert relation.orbit(twin) is relation.orbit(cell)

    def test_orbit_steps_use_neither_normalize_nor_intersects(self, monkeypatch):
        import crspec.relations
        import crspec.sets

        def forbidden(*args):
            raise AssertionError("an orbit step went back to Fraction merging")

        monkeypatch.setattr(crspec.sets, "normalize", forbidden)
        monkeypatch.setattr(crspec.relations, "normalize", forbidden)
        # Interval.intersects is gone; this keeps a revived one out of the orbit steps
        monkeypatch.setattr(Interval, "intersects", forbidden, raising=False)
        rng = random.Random(52)
        for _ in range(100):
            relation = _seeded_box_relation(rng)
            for cell in cell_decomposition(relation).cells:
                try:
                    orbit = relation.orbit(cell).close()
                except EmptyImageError:
                    continue
                for j in range(1, orbit.transient + 2 * orbit.period + 1):
                    relation.iterate(cell.representative(), j)

    @staticmethod
    def thirds_and_quarters(rng):
        """Domain sides tiling [0, 1] and B sides at multiples of 1/3 and 1/4 (lcm 12):
        point sides, and B sides that touch one another end to end."""
        ends = sorted({F(k, 3) for k in range(4)} | {F(k, 4) for k in range(5)})
        cuts = sorted(rng.sample(ends[1:-1], rng.randint(1, 4)))
        edges = [F(0), *cuts, F(1)]
        sides = []
        for _ in range(len(edges) - 1):
            kind = rng.randrange(3)
            lo = rng.choice(ends)
            if kind == 0:
                sides.append(Interval(lo, lo))
            elif kind == 1 and sides:
                # starts where the last side ends
                sides.append(Interval(sides[-1].hi, max(sides[-1].hi, lo)))
            else:
                sides.append(Interval(lo, rng.choice([x for x in ends if x >= lo])))
        boxes = tuple((Interval(a, b), s) for a, b, s in zip(edges, edges[1:], sides))
        return BoxRelation(IntervalSpace(0, 1), boxes)

    def test_every_built_union_is_its_fraction_twin(self):
        # Unions a box relation builds on its grid -- masks, first images, image
        # steps and point sets -- against normalize of the same Fraction parts
        # and a Fraction-only merge, and measured against the oracles.
        rng = random.Random(53)
        makers = (
            lambda: random_box_relation(rng, max_den=4),
            lambda: random_partition_relation(rng, max_den=4),
            lambda: self.thirds_and_quarters(rng),
        )
        seen = {"point part": 0, "touching sides": 0, "twelfths": 0, "measured": 0}
        for n in range(300):
            relation = makers[n % 3]()
            sides = [b for _, b in relation.boxes]
            built = []  # (union, its Fraction parts by definition)
            count = len(sides)
            for mask in range(1 << count) if count <= 4 else (rng.getrandbits(count) for _ in range(16)):
                chosen = [sides[k] for k in range(len(sides)) if mask >> k & 1]
                union = relations._union_of(relation._den, relation._ranges, relation._unions, mask)
                built.append((union, chosen))
            cells = cell_decomposition(relation).cells
            for cell in cells:
                built.append((relation.first_image(cell), [sides[i] for i in cell.pattern]))
                for x in {cell.lo, cell.hi, cell.representative()}:
                    built.append((relation.point_set(x), [Interval(x, x)]))
            for s, _ in list(built):
                if not s.is_empty:
                    held = s.parts
                    hit = [
                        b for a, b in relation.boxes if any(a.lo <= p.hi and p.lo <= a.hi for p in held)
                    ]
                    built.append((relation.image(s), hit))
            for union, parts in built:
                twin = normalize(parts)
                assert union == twin and hash(union) == hash(twin) and str(union) == str(twin)
                expected = _reference_merge([(p.lo, p.hi) for p in parts])
                assert [(p.lo, p.hi) for p in union.parts] == expected
                assert union.parts == twin.parts
                if parts:
                    assert union.min_point() == min(p.lo for p in parts) == twin.min_point()
                    assert union.max_point() == max(p.hi for p in parts) == twin.max_point()
                seen["point part"] += any(p.is_point for p in union.parts)
                seen["touching sides"] += any(p.hi == q.lo for p in parts for q in parts)
                seen["twelfths"] += union.den == 12
            unions = [u for u, _ in built if not u.is_empty]
            for a, b in zip(unions, rng.sample(unions, min(4, len(unions)))):
                space = relation.space
                assert space.set_distance(a, b) == oracles.set_distance(a, b)
                assert space.hausdorff(a, b) == oracles.hausdorff(a, b)
                assert a.first_common_point(b) == oracles.least_common_point(a, b)
                for x in (b.min_point(), b.max_point(), (b.min_point() + a.max_point()) / 2):
                    assert a.contains(x) == (oracles.set_distance(a, IntervalUnion.point(x)) == 0)
                seen["measured"] += 1
        assert min(seen.values()) > 100, seen


def _monica_twin():
    """A fresh monica: left half to 0, right half to 1, the point 1 fans out."""
    return BoxRelation(IntervalSpace(0, 1), (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))


def _golden_twin():
    """A fresh golden mean on three points of a line: 0 -> 0, 1, 2 and 1, 2 -> 0."""
    space = FiniteMetricSpace(tuple(tuple(F(abs(i - j), 2) for j in range(3)) for i in range(3)))
    return FiniteRelation.from_pairs(space, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)])


class TestFreedByReferenceCounting:
    """Nothing a relation holds refers back to it, so dropping it frees it, its
    memos, orbits and sets at once, with the cycle collector off; an orbit or a
    segment taken from it keeps sweeping on its own."""

    @staticmethod
    def exercise(relation, base, y):
        spec = Specification.build(relation, [(base, 2, 3), (base, 9, 10)])
        for mode in ("plain", "hausdorff"):
            find_tracer(relation, spec, F(1, 4), mode)
            check_trace(relation, spec, y, F(1, 4), mode)
        certify_common_image(relation, 8)
        certify_full_image(relation, 8)
        certify_eventual_hausdorff(relation, F(1, 4), 8)
        certify_trivial_fiber(relation)
        refuted = refute_property(relation, "HSP", F(1, 8), SpacedTemplate((base, 0, 1), ((base, 1),)), range(1, 9))
        list(getattr(refuted, "instantiations", ()))

    def test_a_dropped_relation_leaves_no_garbage(self):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for make, base, y in ((_monica_twin, F(0), F(1, 3)), (_golden_twin, 1, 2)):
                relation = make()
                self.exercise(relation, base, y)
                ref = weakref.ref(relation)
                del relation
                assert ref() is None
            implication_suite(17, 5)
            kept = len(gc.garbage)
            gc.collect()
            garbage = [type(o) for o in gc.garbage[kept:]]
            del gc.garbage[kept:]
        finally:
            gc.set_debug(0)
            gc.enable()
        assert not [t for t in garbage if t.__module__.startswith("crspec")]

    def test_an_orbit_outlives_its_relation(self):
        for make, x in ((_monica_twin, F(1, 4)), (_monica_twin, F(1)), (_golden_twin, 1)):
            kept = make()
            expected = (kept.orbit(x).value_at(10**6), kept.orbit(x).close().swept_window)
            orbit = make().orbit(x)
            segment = make().orbit_segment(x, 0, 2)
            assert orbit.value_at(10**6) == expected[0]
            assert orbit.close().swept_window == expected[1]
            assert segment.orbit.value_at(10**6) == expected[0]
            assert segment.orbit.close().swept_window == expected[1]
            assert segment.sets == kept.orbit_segment(x, 0, 2).sets


class TestPresortedPointSets:
    def test_internal_point_sets_equal_their_checked_twins(self):
        # images, successor sets and points skip the ordering check; each must
        # equal PointSet.of over the adjacency matrix, hash included
        rng = random.Random(29)
        for _ in range(200):
            space = random_finite_space(rng, rng.randrange(1, 7))
            relation = random_finite_relation(rng, space, p1_full=rng.random() < 0.5)
            n = space.n
            for x in range(n):
                twin = PointSet.of(j for j in range(n) if relation.adjacency[x][j])
                assert relation.first_image(x) == twin and hash(relation.first_image(x)) == hash(twin)
                point = space.point(x)
                assert point == PointSet((x,)) and hash(point) == hash(PointSet((x,)))
            for _ in range(4):
                s = PointSet.of(rng.sample(range(n), rng.randrange(n + 1)))
                twin = PointSet.of(j for i in s.members for j in range(n) if relation.adjacency[i][j])
                image = relation.image(s)
                assert image == twin and hash(image) == hash(twin)
                assert PointSet(image.members) == image
        with pytest.raises(ValueError):
            _golden_twin().first_image(3)
