import gc
import random
import weakref
from fractions import Fraction

import pytest

import oracles
import crspec.relations
import crspec.specifications
from crspec.relations import MODES
from crspec import (
    BoxRelation,
    Cell,
    FiniteMetricSpace,
    FiniteRelation,
    InitialSpecification,
    IntervalSpace,
    NonPositiveGapError,
    NoPreimageError,
    NoTracer,
    Refutation,
    Specification,
    SizeMismatchError,
    SpacedTemplate,
    TraceReport,
    TracerWitness,
    cell_decomposition,
    check_initial_trace,
    check_trace,
    conjugacy_transport,
    derive_initial,
    find_initial_tracer,
    find_tracer,
    lift_tracer,
    refute_property,
)
from conftest import box
from crspec.randgen import (
    random_box_relation,
    random_finite_relation,
    random_finite_space,
    random_fraction,
    random_partition_relation,
    random_point,
    random_spaced_triples,
)

F = Fraction


class TestCheckTrace:
    def test_low_tracer_fails_hausdorff(self, monica):
        spec = Specification.build(monica, [(F(0), 2, 3), (F(1), 9, 10)])
        report = check_trace(monica, spec, F(1, 4), F(1, 4), "hausdorff")
        assert not report.passed
        assert report.worst.distance == 1
        assert report.worst.segment == 2

    def test_base_point_traces_plainly(self, monica):
        spec = Specification.build(monica, [(F(0), 2, 3), (F(1), 9, 10)])
        report = check_trace(monica, spec, F(0), F(1, 4), "plain")
        assert report.passed
        assert all(e.distance == 0 for e in report.entries)

    def test_identity_tracer(self, monica):
        spec = Specification.build(monica, [(F(3, 4), 1, 3)])
        for mode in ("plain", "hausdorff"):
            report = check_trace(monica, spec, F(3, 4), 0, mode)
            assert report.passed
            assert all(e.distance == 0 for e in report.entries)

    def test_entry_index_set(self, monica):
        spec = Specification.build(monica, [(F(0), 2, 3), (F(1), 9, 10)])
        report = check_trace(monica, spec, F(0), 0, "plain")
        assert [(e.segment, e.step, e.tracer_power) for e in report.entries] == [
            (1, 2, 2),
            (1, 3, 3),
            (2, 9, 9),
            (2, 10, 10),
        ]


class TestCheckInitialTrace:
    def test_constant_relation_refusal(self, constant):
        spec = InitialSpecification.build(constant, [(F(1), 1), (F(0), 1)], (1,))
        report = check_initial_trace(constant, spec, F(1, 2), F(1, 4), "plain")
        assert not report.passed
        assert report.entry(2, 0).distance == 1

    def test_shifted_powers(self, constant):
        spec = InitialSpecification.build(constant, [(F(1), 1), (F(0), 1)], (3,))
        report = check_initial_trace(constant, spec, F(0), 1, "plain")
        assert [(e.segment, e.step, e.tracer_power) for e in report.entries] == [
            (1, 0, 0),
            (1, 1, 1),
            (2, 0, 4),
            (2, 1, 5),
        ]

    def test_fan_midpoint_distances(self, fan):
        # For every gap the tracer power of entry (2, 0) lands on a full
        # image [0,1], so its distance to {3/4} is 3/4; entries (1, 1) and
        # (2, 1) compare against singletons at distance 1.
        for m in (1, 2, 4):
            spec = InitialSpecification.build(fan, [(F(1, 4), 1), (F(3, 4), 1)], (m,))
            report = check_initial_trace(fan, spec, F(1, 2), F(1, 4), "hausdorff")
            assert not report.passed
            assert report.entry(2, 0).distance == F(3, 4)
            assert report.entry(2, 1).distance == 1
            assert report.worst.distance == 1

    def test_single_segment_identity(self, fan):
        spec = InitialSpecification.build(fan, [(F(1, 4), 2)], ())
        report = check_initial_trace(fan, spec, F(1, 4), 0, "hausdorff")
        assert report.passed
        assert all(e.distance == 0 for e in report.entries)


class TestRequirementTable:
    def test_spaced_and_initial_tables(self, monica):
        spaced = Specification.build(monica, [(F(0), 1, 2), (F(1), 4, 4)])
        assert spaced.requirements == ((1, 1, 1), (1, 2, 2), (2, 4, 4))
        initial = InitialSpecification.build(monica, [(F(0), 1), (F(1), 2)], (3,))
        assert initial.requirements == ((1, 0, 0), (1, 1, 1), (2, 0, 4), (2, 1, 5), (2, 2, 6))
        assert initial.requirements is initial.requirements

    def test_one_checker_and_one_search_for_both_kinds(self, fan):
        for m in (1, 2, 4):
            spec = InitialSpecification.build(fan, [(F(1, 4), 1), (F(3, 4), 1)], (m,))
            for mode in MODES:
                report = check_trace(fan, spec, F(1, 2), F(1, 4), mode)
                assert report == check_initial_trace(fan, spec, F(1, 2), F(1, 4), mode)
                assert [e.tracer_power for e in report.entries] == [0, 1, 1 + m, 2 + m]
                assert find_tracer(fan, spec, F(1, 4), mode) == find_initial_tracer(
                    fan, spec, F(1, 4), mode
                )


class TestFindTracer:
    def test_hausdorff_refuted_on_every_cell(self, monica):
        spec = Specification.build(monica, [(F(0), 2, 3), (F(1), 9, 10)])
        result = find_tracer(monica, spec, F(1, 4), "hausdorff")
        assert isinstance(result, NoTracer)
        assert len(result.failures) == 4
        assert result.worst_by_region() == (1, 1, 1, 1)

    def test_plain_witness_with_zero_distances(self, monica):
        spec = Specification.build(monica, [(F(0), 2, 3), (F(1), 9, 10)])
        result = find_tracer(monica, spec, 0, "plain")
        assert isinstance(result, TracerWitness)
        assert all(e.distance == 0 for e in result.report.entries)

    def test_grid_oracle_agrees(self, monica):
        cases = [
            ([(F(0), 2, 3), (F(1), 9, 10)], F(1, 4)),
            # a segment after the first starts at exponent 0: its window
            # |y - 3/4| <= 1/8 binds, and y = 5/8 traces in plain mode
            ([(F(0), 2, 3), (F(3, 4), 0, 1)], F(1, 8)),
            # two exponent-0 windows, [0, 1/2] and [3/4, 5/4], that do not meet
            ([(F(1, 4), 0, 1), (F(1), 0, 1)], F(1, 4)),
        ]
        step = F(1, 32)
        for triples, eps in cases:
            spec = Specification.build(monica, triples)
            for mode in ("plain", "hausdorff"):
                result = find_tracer(monica, spec, eps, mode)
                sampled = [
                    y
                    for y in oracles.grid_tracer_candidates(monica.space, step)
                    if check_trace(monica, spec, y, eps, mode).passed
                ]
                if isinstance(result, NoTracer):
                    assert sampled == []
                    assert not any(f.report.passed for f in result.failures)
                else:
                    assert sampled
                    assert result.report.passed

    def test_finite_identity_traces_itself(self, two_points):
        ident = FiniteRelation.from_pairs(two_points, [(0, 0), (1, 1)])
        spec = Specification.build(ident, [(1, 0, 2)])
        result = find_tracer(ident, spec, 0, "plain")
        assert isinstance(result, TracerWitness)
        assert result.y == 1

    def test_zero_power_constraint_pins_witness(self, full_box):
        # All positive iterates are the whole space; only |y - x1| <= eps binds.
        spec = Specification.build(full_box, [(F(1, 2), 0, 1), (F(0), 4, 5)])
        result = find_tracer(full_box, spec, F(1, 8), "hausdorff")
        assert isinstance(result, TracerWitness)
        assert abs(result.y - F(1, 2)) <= F(1, 8)

    def test_witness_preferred_at_base(self, full_box):
        spec = Specification.build(full_box, [(F(1, 2), 0, 1)])
        result = find_tracer(full_box, spec, F(1, 8), "plain")
        assert result.y == F(1, 2)


class TestFindInitialTracer:
    def test_constant_relation_has_no_initial_tracer(self, constant):
        for m in range(1, 6):
            spec = InitialSpecification.build(constant, [(F(1), 1), (F(0), 1)], (m,))
            result = find_initial_tracer(constant, spec, F(1, 4), "plain")
            assert isinstance(result, NoTracer)
            for failure in result.failures:
                assert failure.report.entry(2, 0).distance == 1

    def test_fan_stated_gap_worsts(self, fan):
        spec = InitialSpecification.build(fan, [(F(1, 4), 1), (F(3, 4), 1)], (4,))
        result = find_initial_tracer(fan, spec, F(1, 4), "hausdorff")
        assert isinstance(result, NoTracer)
        assert result.worst_by_region() == (1, 1, 1, 1, 1)

    def test_fan_short_gap_matches_per_case_table(self, fan):
        # With the second segment rebased at 0 and a unit gap, the five
        # region worsts are the hand-computed H(F^2(y), {0}) values.
        spec = InitialSpecification.build(fan, [(F(1, 4), 1), (F(0), 1)], (1,))
        result = find_initial_tracer(fan, spec, F(1, 4), "hausdorff")
        assert isinstance(result, NoTracer)
        assert result.worst_by_region() == (1, F(1, 2), 1, 1, 1)
        assert [f.report.entry(2, 0).distance for f in result.failures] == [
            1,
            F(1, 2),
            1,
            1,
            1,
        ]

    def test_full_relation_admits_initial_tracer(self, full_box):
        spec = InitialSpecification.build(full_box, [(F(1, 2), 1), (F(0), 1)], (2,))
        result = find_initial_tracer(full_box, spec, F(1, 4), "plain")
        assert isinstance(result, TracerWitness)
        assert abs(result.y - F(1, 2)) <= F(1, 4)
        assert all(e.distance == 0 for e in result.report.entries if e.tracer_power >= 1)


class TestDeriveInitial:
    def test_gap_arithmetic(self, full_box):
        spec = Specification.build(full_box, [(F(0), 2, 3), (F(1), 9, 10)])
        initial, bases = derive_initial(full_box, spec)
        assert [seg.last for seg in initial.segments] == [1, 1]
        assert initial.gaps == (6,)
        assert len(bases) == 2

    def test_already_initial_keeps_bases(self, monica):
        spec = Specification.build(monica, [(F(1, 4), 0, 1), (F(3, 4), 3, 4)])
        initial, bases = derive_initial(monica, spec)
        assert bases[0] == F(1, 4)
        assert initial.segments[0].base == F(1, 4)

    def test_min_element_chosen(self, monica):
        spec = Specification.build(monica, [(F(1), 1, 2)])
        initial, bases = derive_initial(monica, spec)
        assert bases == (F(0),)
        assert initial.segments[0].last == 1

    def test_touching_segments_rejected(self, full_box):
        spec = Specification.build(full_box, [(F(0), 0, 3), (F(1), 3, 4)])
        with pytest.raises(NonPositiveGapError):
            derive_initial(full_box, spec)


class TestLiftTracer:
    def test_zero_power_returns_the_point(self, monica):
        spec = Specification.build(monica, [(F(1, 4), 0, 1)])
        region = lift_tracer(monica, spec, F(1, 4))
        assert len(region) == 1
        assert region[0].lo == region[0].hi == F(1, 4)

    def test_constant_relation_everything_reaches_one(self, constant):
        spec = Specification.build(constant, [(F(0), 1, 2)])
        region = lift_tracer(constant, spec, F(1))
        assert [str(c) for c in region] == ["[0, 1]"]

    def test_monica_preimage_of_zero(self, monica):
        # 0 lies in F(y) for y in [0,1/2] and also for y = 1 (whose image
        # is all of [0,1]).
        spec = Specification.build(monica, [(F(0), 1, 2)])
        region = lift_tracer(monica, spec, F(0))
        assert [str(c) for c in region] == ["[0, 1/2)", "{1/2}", "{1}"]

    def test_unreachable_target_raises(self, constant):
        spec = Specification.build(constant, [(F(0), 1, 2)])
        with pytest.raises(NoPreimageError):
            lift_tracer(constant, spec, F(1, 2))

    def test_finite_preimages(self, golden_mean):
        spec = Specification.build(golden_mean, [(0, 1, 1)])
        assert lift_tracer(golden_mean, spec, 1).members == (0,)
        assert lift_tracer(golden_mean, spec, 0).members == (0, 1)

    def test_finite_zero_power_returns_the_point(self, golden_mean):
        spec = Specification.build(golden_mean, [(0, 0, 1)])
        assert lift_tracer(golden_mean, spec, 1).members == (1,)

    def test_a_point_outside_the_space_is_refused(self, golden_mean, monica):
        for first in (0, 1):
            spec = Specification.build(golden_mean, [(0, first, 1)])
            for z in (7, -1, 2):
                with pytest.raises(ValueError, match="out of range"):
                    lift_tracer(golden_mean, spec, z)
            spec = Specification.build(monica, [(F(0), first, 1)])
            for z in (F(2), F(-1, 3)):
                with pytest.raises(ValueError, match="outside"):
                    lift_tracer(monica, spec, z)


class TestRoundTrip:
    def test_lifted_points_trace_on_finite_systems(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(60):
            space = random_finite_space(rng, rng.randint(2, 5))
            relation = random_finite_relation(rng, space, p1_full=True, p2_full=True)
            triples = random_spaced_triples(rng, relation, 2, rng.randint(1, 2))
            spec = Specification.build(relation, triples)
            eps = space.diameter() / 2
            initial, _ = derive_initial(relation, spec)
            found = find_initial_tracer(relation, initial, eps, "plain")
            if not isinstance(found, TracerWitness):
                continue
            hits += 1
            for y in lift_tracer(relation, spec, found.y).members:
                assert check_trace(relation, spec, y, eps, "plain").passed
        assert hits >= 10


class TestHausdorffImpliesPlain:
    def test_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(120):
            relation = random_box_relation(rng)
            triples = random_spaced_triples(rng, relation, rng.randint(1, 3), rng.randint(1, 3))
            spec = Specification.build(relation, triples)
            y = random_point(rng, relation)
            eps = F(rng.randint(0, 8), 8)
            hd = check_trace(relation, spec, y, eps, "hausdorff")
            plain = check_trace(relation, spec, y, eps, "plain")
            for p, h in zip(plain.entries, hd.entries):
                assert p.distance <= h.distance
            if hd.passed:
                assert plain.passed


class TestConjugacyTransport:
    def test_identity(self, golden_mean):
        spec = Specification.build(golden_mean, [(0, 0, 1)])
        moved = conjugacy_transport((0, 1), spec, golden_mean)
        assert moved == spec

    def test_swap(self, two_points):
        full = FiniteRelation.from_pairs(two_points, [(0, 0), (0, 1), (1, 0), (1, 1)])
        spec = Specification.build(full, [(0, 0, 1)])
        moved = conjugacy_transport((1, 0), spec, full)
        assert moved.segments[0].base == 1

    def test_three_cycle(self):
        space = FiniteMetricSpace.discrete(3)
        full = FiniteRelation.from_pairs(
            space, [(i, j) for i in range(3) for j in range(3)]
        )
        spec = Specification.build(full, [(0, 0, 1), (1, 3, 4)])
        phi = (1, 2, 0)
        moved = conjugacy_transport(phi, spec, full)
        assert [seg.base for seg in moved.segments] == [2, 0]

    def test_initial_specs_keep_gaps(self, two_points):
        full = FiniteRelation.from_pairs(two_points, [(0, 0), (0, 1), (1, 0), (1, 1)])
        spec = InitialSpecification.build(full, [(0, 1), (1, 1)], (4,))
        moved = conjugacy_transport((1, 0), spec, full)
        assert moved.gaps == (4,)
        assert [seg.base for seg in moved.segments] == [1, 0]

    def test_size_mismatch(self, golden_mean):
        spec = Specification.build(golden_mean, [(0, 0, 1)])
        with pytest.raises(SizeMismatchError):
            conjugacy_transport((0, 1, 2), spec, golden_mean)


def _fresh_monica(unit):
    return BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))


def _count_box_images(monkeypatch) -> list:
    """Record the set of every box image computed by relations built from here on:
    the sweep's step and ``BoxRelation.image`` both call ``relations._box_image``."""
    calls = []
    image = crspec.relations._box_image

    def counted(*data_and_set):
        calls.append(data_and_set[-1])
        return image(*data_and_set)

    monkeypatch.setattr(crspec.relations, "_box_image", counted)
    return calls


class TestOrbitSweep:
    def test_image_calls_do_not_grow_with_the_exponents(self, unit, monkeypatch):
        calls = _count_box_images(monkeypatch)
        counts = []
        for n in (10**2, 10**6):
            calls.clear()
            relation = _fresh_monica(unit)
            spec = Specification.build(relation, [(F(0), 2, 3), (F(1), n, n + 1)])
            assert isinstance(find_tracer(relation, spec, F(1, 4), "hausdorff"), NoTracer)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert counts[0] > 0

    def test_distance_calls_do_not_grow_with_the_refuted_range(self, unit, monkeypatch):
        calls = []
        hausdorff = IntervalSpace.hausdorff

        def counted(self, a, b):
            calls.append((a, b))
            return hausdorff(self, a, b)

        monkeypatch.setattr(IntervalSpace, "hausdorff", counted)
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        counts = []
        for n in (20, 200):
            calls.clear()
            relation = _fresh_monica(unit)
            result = refute_property(relation, "HSP", F(1, 4), template, range(1, n + 1))
            assert isinstance(result, Refutation)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert counts[0] > 0

    def test_each_swept_set_is_imaged_once(self, unit, monkeypatch):
        calls = _count_box_images(monkeypatch)
        # monica's four cells sweep six sets, of which four are distinct:
        # {1/2} and (1/2, 1) both reach [0, 1], the orbit of the cell {1}
        relation = _fresh_monica(unit)
        orbits = [relation.orbit(cell).close() for cell, _ in relation.regions()]
        swept = {s for orbit in orbits for s in orbit.preperiod + orbit.cycle}
        assert sum(len(orbit.preperiod + orbit.cycle) for orbit in orbits) > len(swept)
        assert len(calls) == len(swept)
        assert set(calls) == swept

    def test_relation_is_freed_once_dropped(self, unit):
        def analyse():
            relation = _fresh_monica(unit)
            for cell, _ in relation.regions():
                relation.orbit(cell).close()
            spec = Specification.build(relation, [(F(0), 2, 3), (F(1), 9, 10)])
            find_tracer(relation, spec, F(1, 4), "hausdorff")
            return weakref.ref(relation)

        ref = analyse()
        gc.collect()
        assert ref() is None

    def test_finite_search_stops_at_the_first_witness(self, two_points, monkeypatch):
        # each report the search builds, by the point it is built at
        checked = []
        report = crspec.specifications._report

        def counted(relation, spec, y, *rest):
            checked.append(y)
            return report(relation, spec, y, *rest)

        monkeypatch.setattr(crspec.specifications, "_report", counted)
        full = FiniteRelation.from_pairs(two_points, [(0, 0), (0, 1), (1, 0), (1, 1)])
        spec = Specification.build(full, [(0, 0, 1)])
        result = find_tracer(full, spec, F(0), "plain")
        assert isinstance(result, TracerWitness) and result.y == 0
        assert checked == [0]

    def test_searches_map_no_point_to_its_cell(self, unit, monkeypatch):
        # A search reads each region's orbit by the region it holds, so no
        # report maps its point back to a cell: only building a segment does,
        # once per base.  Counts, unlike wall times, hold on any machine.
        rng = random.Random(20)
        cuts = [F(0), *sorted(F(k, 24) for k in rng.sample(range(1, 24), 11)), F(1)]
        images = [F(rng.randint(0, 24), 24) for _ in range(12)]
        relation = BoxRelation(unit, tuple(box(lo, hi, y, y) for lo, hi, y in zip(cuts, cuts[1:], images)))
        assert len(cell_decomposition(relation).cells) == 23
        # two power-0 requirements a unit apart fail in every cell, so each search reads all 23
        spec = Specification.build(relation, [(F(0), 0, 3), (F(1), 0, 3)])
        template = SpacedTemplate((F(1, 3), 2, 3), ((F(2, 3), 1),))
        calls = []
        cell_of = crspec.relations.cell_of

        def counted(relation, x):
            calls.append(x)
            return cell_of(relation, x)

        monkeypatch.setattr(crspec.relations, "cell_of", counted)
        for mode in MODES:
            result = find_tracer(relation, spec, F(1, 24), mode)
            assert isinstance(result, NoTracer) and len(result.failures) == 23
        assert calls == []
        result = refute_property(relation, "HSP", F(1, 24), template, (1, 2))
        assert isinstance(result, Refutation)
        assert [len(i.outcome.failures) for i in result.instantiations] == [23, 23]
        assert calls == [F(1, 3), F(2, 3)]

    def test_searches_hash_no_fraction_and_build_no_grid(self, unit, monkeypatch):
        # Once the relation and its cells exist, a search builds, keys and
        # measures every union on ints: no Fraction is hashed and no endpoint
        # list is put on a fresh grid.  Counts, unlike wall times, hold on any machine.
        import crspec.relations
        import crspec.sets

        counts = {"hash": 0, "grid": 0}
        fraction_hash, grid = Fraction.__hash__, crspec.sets.common_grid

        def counted_hash(self):
            counts["hash"] += 1
            return fraction_hash(self)

        def counted_grid(values):
            counts["grid"] += 1
            return grid(values)

        def search(relation, build):
            cell_decomposition(relation)
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__hash__", counted_hash)
                for module in (crspec.sets, crspec.relations):
                    patch.setattr(module, "common_grid", counted_grid)
                return build(relation)

        fan = BoxRelation(
            unit,
            (box(0, F(1, 2), 0, 0), box(0, 0, 0, F(1, 2)), box(F(1, 2), 1, 1, 1), box(1, 1, F(1, 2), 1)),
        )
        # the monica and fan initial searches of the box-deep benchmark workload
        questions = [
            (_fresh_monica(unit), [(F(0), 1), (F(3, 4), 1)], F(1, 8), "plain"),
            (fan, [(F(1, 4), 1), (F(3, 4), 1)], F(1, 4), "hausdorff"),
        ]
        results = [
            search(
                relation,
                lambda r: find_initial_tracer(r, InitialSpecification.build(r, pairs, (150,)), eps, mode),
            )
            for relation, pairs, eps, mode in questions
        ]
        assert isinstance(results[1], NoTracer) and max(results[1].worst_by_region()) == 1
        rng = random.Random(12)
        tiled = random_partition_relation(rng, max_boxes=12, max_den=24)
        while len(tiled.boxes) < 12:
            tiled = random_partition_relation(rng, max_boxes=12, max_den=24)
        for mode in MODES:
            triples = [(F(5, 24), 100, 101), (F(17, 24), 150, 151)]
            search(tiled, lambda r: find_tracer(r, Specification.build(r, triples), F(1, 8), mode))
        assert counts == {"hash": 0, "grid": 0}


class TestVerdictsOnSlotInts:
    """``TraceReport.passed`` and ``_cell_witness`` compare each distance with eps
    by cross-multiplying slot ints; both must give ``Fraction``'s verdict."""

    @staticmethod
    def reports(rng):
        for k in range(160):
            if k % 2:
                relation = random_box_relation(rng)
            else:
                relation = random_finite_relation(rng, random_finite_space(rng, rng.randrange(2, 7)))
            triples = random_spaced_triples(rng, relation, rng.randrange(1, 4), rng.randrange(1, 3))
            spec = Specification.build(relation, triples)
            for mode in MODES:
                yield check_trace(relation, spec, random_point(rng, relation), 0, mode)

    def test_verdicts_equal_the_fraction_comparison(self):
        rng = random.Random(31)
        seen = {"pass": 0, "fail": 0, "at a distance": 0}
        for report in self.reports(rng):
            distances = sorted({e.distance for e in report.entries})
            for eps in {F(0), F(-1, 3), *distances, *(d - F(1, 97) for d in distances), distances[-1] + 1}:
                at = type(report)(report.mode, eps, report.entries)
                expected = all(e.distance <= eps for e in report.entries)
                assert at.passed == expected
                seen["pass" if expected else "fail"] += 1
                seen["at a distance"] += eps in distances
                # with no power-0 base the cell is never read: rep, or None
                positive = all(e.distance <= eps for e in report.entries if e.tracer_power >= 1)
                witness = crspec.specifications._cell_witness(None, "rep", at, [], eps)
                assert witness == ("rep" if positive else None)
        assert min(seen.values()) > 300, seen


def _witness_through_a_cell(cell, zero_bases, eps):
    """The witness as first written: the window built as a ``Cell``, then a point picked in it."""
    new_lo = max(cell.lo, max(zero_bases) - eps)
    new_hi = min(cell.hi, min(zero_bases) + eps)
    if new_lo > new_hi:
        return None
    lo_closed = cell.lo_closed if new_lo == cell.lo else True
    hi_closed = cell.hi_closed if new_hi == cell.hi else True
    if new_lo == new_hi and not (lo_closed and hi_closed):
        return None
    window = Cell(new_lo, new_hi, lo_closed, hi_closed, cell.pattern)
    prefer = zero_bases[0]
    return prefer if window.contains(prefer) else window.representative()


class TestCellWitness:
    def test_the_window_picks_what_a_window_cell_picked(self):
        # an empty report, so only the power-0 window decides
        rng = random.Random(67)
        seen = {"point cell": 0, "on an open end": 0, "empty": 0, "base": 0, "midpoint": 0}
        cases = 0
        while cases < 2000:
            cells = cell_decomposition(random_box_relation(rng)).cells
            picks = [x for c in cells for x in (c.lo, c.hi, c.representative())]
            for cell in cells:
                for _ in range(4):
                    zero_bases = [
                        rng.choice(picks) if rng.random() < 0.6 else random_fraction(rng)
                        for _ in range(rng.randint(1, 3))
                    ]
                    eps = rng.choice((F(0), F(1, 8), F(1, 4), F(1, 2)))
                    report = TraceReport("plain", eps, ())
                    rep = cell.representative()
                    got = crspec.specifications._cell_witness(cell, rep, report, zero_bases, eps)
                    want = _witness_through_a_cell(cell, zero_bases, eps)
                    assert got == want, (cell, zero_bases, eps)
                    cases += 1
                    ends = (max(zero_bases) - eps, min(zero_bases) + eps)
                    seen["point cell"] += cell.is_point
                    seen["on an open end"] += (cell.lo in ends and not cell.lo_closed) or (
                        cell.hi in ends and not cell.hi_closed
                    )
                    seen["empty"] += want is None
                    seen["base"] += want is not None and want == zero_bases[0]
                    seen["midpoint"] += want is not None and want != zero_bases[0]
        assert min(seen.values()) >= 50, seen
