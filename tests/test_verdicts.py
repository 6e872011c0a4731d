import itertools
import math
import random
from fractions import Fraction

import pytest

import crspec.sets
import crspec.verdicts
import oracles
from crspec import (
    BadRangeError,
    Certificate,
    CRSpecError,
    EmptyImageError,
    FiniteMetricSpace,
    FiniteRelation,
    Inconclusive,
    InitialTemplate,
    NoTracer,
    Orbit,
    Refutation,
    SpacedTemplate,
    Specification,
    TracerWitness,
    certify_common_image,
    certify_eventual_hausdorff,
    certify_full_image,
    certify_trivial_fiber,
    check_trace,
    check_initial_trace,
    cell_decomposition,
    find_initial_tracer,
    find_tracer,
    implication_suite,
    recheck,
    refute_property,
)
from crspec.randgen import (
    random_box_relation,
    random_finite_relation,
    random_finite_space,
    random_fraction,
    random_spaced_triples,
)
from conftest import box
from crspec import BoxRelation, InitialSpecification
from crspec.verdicts import PROPERTIES, Instantiation

F = Fraction
INITIAL_PROPERTIES = ("ISP", "HISP")


class TestCommonImage:
    def test_monica_meets_at_two(self, monica):
        cert = certify_common_image(monica, 6)
        assert cert is not None
        assert cert.n0 == 2
        assert recheck(monica, cert)

    def test_fan_within_four(self, fan):
        cert = certify_common_image(fan, 6)
        assert cert is not None
        assert cert.n0 <= 4

    def test_disconnected_loops_never_meet(self):
        space = FiniteMetricSpace.discrete(2)
        loops = FiniteRelation.from_pairs(space, [(0, 0), (1, 1)])
        assert certify_common_image(loops, 12) is None

    def test_soundness_spaced_specs_trace_at_zero(self, monica):
        # Any n0-spaced specification is plainly traced by its first base
        # with every distance exactly 0.
        cert = certify_common_image(monica, 6)
        rng = random.Random(101)
        for _ in range(60):
            triples = random_spaced_triples(
                rng, monica, rng.randint(1, 3), cert.n0, max_len=2, max_first=2
            )
            spec = Specification.build(monica, triples)
            report = check_trace(monica, spec, triples[0][0], 0, "plain")
            assert report.passed
            assert all(e.distance == 0 for e in report.entries)


def fresh(relation):
    """The same relation built anew, sharing none of its memos."""
    if isinstance(relation, BoxRelation):
        return BoxRelation(relation.space, relation.boxes)
    return FiniteRelation(relation.space, relation.adjacency)


class TestCommonImageEvidence:
    def relations(self):
        rng = random.Random(73)
        for k in range(60):
            if k % 2:
                space = random_finite_space(rng, rng.randint(2, 6))
                yield random_finite_relation(rng, space, density=0.5, p1_full=True)
            else:
                yield random_box_relation(rng, max_boxes=6, max_den=12)

    def test_evidence_is_each_pairs_least_common_point(self):
        found = 0
        for relation in self.relations():
            cert = certify_common_image(relation, 12)
            if cert is None:
                continue
            found += 1
            labels = [label for label, _ in relation.regions()]
            sets = {label: relation.orbit(label).value_at(cert.n0) for label in labels}
            expected = [
                ((la, lb), oracles.least_common_point(sets[la], sets[lb]))
                for la, lb in itertools.combinations(labels, 2)
            ]
            assert list(cert.evidence) == expected
            assert None not in [point for _, point in expected]
            # no smaller n0 has a common point for every pair
            for n0 in range(1, cert.n0):
                level = [relation.orbit(label).value_at(n0) for label in labels]
                assert any(
                    oracles.least_common_point(a, b) is None
                    for a, b in itertools.combinations(level, 2)
                )
        assert found > 10

    def test_no_set_is_normalized(self, monica, fan, monkeypatch):
        relations = [fresh(monica), fresh(fan), *map(fresh, self.relations())]

        def refuse(parts):
            raise AssertionError("normalize called")

        monkeypatch.setattr(crspec.sets, "normalize", refuse)
        certs = [certify_common_image(relation, 12) for relation in relations]
        assert certs[0].n0 == 2


class TestFullImage:
    def test_fan_reaches_everything_at_four(self, fan):
        cert = certify_full_image(fan, 6)
        assert cert is not None and cert.n0 == 4
        assert recheck(fan, cert)

    def test_constant_never_fills(self, constant):
        assert certify_full_image(constant, 8) is None

    def test_full_relation_immediately(self, full_box):
        assert certify_full_image(full_box, 3).n0 == 1

    def test_soundness_initial_specs_trace_at_zero(self, fan):
        cert = certify_full_image(fan, 6)
        rng = random.Random(55)
        for _ in range(40):
            pairs = [
                (random_fraction(rng), rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            gaps = tuple(cert.n0 + rng.randint(0, 2) for _ in range(len(pairs) - 1))
            spec = InitialSpecification.build(fan, pairs, gaps)
            report = check_initial_trace(fan, spec, pairs[0][0], 0, "plain")
            assert report.passed
            assert all(e.distance == 0 for e in report.entries)


class TestEventualHausdorff:
    def test_constant_equalizes_immediately(self, constant):
        cert = certify_eventual_hausdorff(constant, F(1, 4), 4)
        assert cert.kind == "eventual-equal"
        assert cert.n0 == 1
        assert recheck(constant, cert)

    def test_monica_never_settles(self, monica):
        assert certify_eventual_hausdorff(monica, F(1, 4), 8) is None

    def test_fan_tight_eps_hits_before_equality(self, fan):
        # at exponent 3 all pairwise Hausdorff distances are already <= 1/4
        # even though the images differ; equality only holds from 4 on
        cert = certify_eventual_hausdorff(fan, F(1, 4), 6)
        assert cert.kind == "eventual-hausdorff"
        assert cert.n0 == 3
        assert recheck(fan, cert)

    def test_fan_small_eps_needs_equality(self, fan):
        cert = certify_eventual_hausdorff(fan, F(1, 8), 6)
        assert cert.kind == "eventual-equal"
        assert cert.n0 == 4
        assert recheck(fan, cert)

    @pytest.mark.parametrize("name, eps, n0max", [("monica", F(1, 4), 8), ("fan", F(1, 8), 6)])
    def test_each_n0_stops_at_its_first_failing_pair(self, name, eps, n0max, request, monkeypatch):
        relation = request.getfixturevalue(name)
        measured = {}
        worst_of = crspec.verdicts._eventual_worst

        def counted(relation, oa, ob, n0):
            worst = worst_of(relation, oa, ob, n0)
            measured.setdefault(n0, []).append(worst)
            return worst

        monkeypatch.setattr(crspec.verdicts, "_eventual_worst", counted)
        cert = certify_eventual_hausdorff(relation, eps, n0max)
        pairs = math.comb(len(list(relation.regions())), 2)
        assert list(measured) == list(range(1, len(measured) + 1))
        for n0, worsts in measured.items():
            if cert is not None and n0 == cert.n0:
                assert worsts == [worst for _, worst in cert.evidence] and len(worsts) == pairs
            else:
                # the first pair past eps is the last one measured at this n0
                assert [w > eps for w in worsts] == [False] * (len(worsts) - 1) + [True]
        assert (cert is None) == (name == "monica")
        assert any(len(worsts) < pairs for worsts in measured.values())

    def test_soundness_hausdorff_tracing_from_the_first_base(self, fan):
        cert = certify_eventual_hausdorff(fan, F(1, 4), 6)
        rng = random.Random(77)
        for _ in range(40):
            triples = random_spaced_triples(
                rng, fan, rng.randint(1, 3), cert.n0, max_len=2, max_first=2
            )
            spec = Specification.build(fan, triples)
            report = check_trace(fan, spec, triples[0][0], F(1, 4), "hausdorff")
            assert report.passed


class TestTrivialFiber:
    def test_constant_relation_carries_its_fiber(self, constant):
        cert = certify_trivial_fiber(constant)
        assert cert.evidence[0] == 1
        assert recheck(constant, cert)

    def test_monica_has_none(self, monica):
        assert certify_trivial_fiber(monica) is None

    def test_extra_boxes_keep_the_fiber(self, unit):
        relation = BoxRelation(
            unit, (box(0, 1, "1/2", "1/2"), box(0, "1/4", "3/4", 1))
        )
        cert = certify_trivial_fiber(relation)
        assert cert.evidence[0] == F(1, 2)

    def test_multi_box_cover_found(self, unit):
        # no single box spans the domain, but together they pin 0 everywhere
        relation = BoxRelation(unit, (box(0, "1/2", 0, 0), box("1/2", 1, 0, 0)))
        cert = certify_trivial_fiber(relation)
        assert cert is not None
        assert cert.evidence[0] == 0

    def test_finite_column(self, two_points):
        sink = FiniteRelation.from_pairs(two_points, [(0, 1), (1, 1), (1, 0)])
        cert = certify_trivial_fiber(sink)
        assert cert.evidence[0] == 1

    def test_tampered_certificate_fails_recheck(self, constant):
        cert = certify_trivial_fiber(constant)
        forged = Certificate(cert.kind, cert.n0, cert.eps, (F(1, 2), cert.evidence[1]))
        assert not recheck(constant, forged)


class TestRefutations:
    def test_monica_hsp(self, monica):
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        result = refute_property(monica, "HSP", F(1, 4), template, range(1, 11))
        assert isinstance(result, Refutation)
        assert len(result.instantiations) == 10
        for inst in result.instantiations:
            assert inst.outcome.worst_by_region() == (1, 1, 1, 1)

    def test_constant_isp(self, constant):
        template = InitialTemplate(((F(1), 1), (F(0), 1)))
        result = refute_property(constant, "ISP", F(1, 4), template, range(1, 11))
        assert isinstance(result, Refutation)
        for inst in result.instantiations:
            for failure in inst.outcome.failures:
                assert failure.report.entry(2, 0).distance == 1

    def test_monica_isp_at_an_eighth(self, monica):
        template = InitialTemplate(((F(0), 1), (F(3, 4), 1)))
        result = refute_property(monica, "ISP", F(1, 8), template, range(1, 11))
        assert isinstance(result, Refutation)
        first = result.instantiations[0].outcome
        low = first.failures[0]
        assert str(low.region) == "[0, 1/2)"
        assert low.report.entry(2, 0).distance == F(3, 4)
        for failure in first.failures[1:]:
            assert failure.report.entry(1, 0).distance >= F(1, 2)

    def test_fan_hisp_stated_range(self, fan):
        template = InitialTemplate(((F(1, 4), 1), (F(3, 4), 1)))
        result = refute_property(fan, "HISP", F(1, 4), template, range(4, 9))
        assert isinstance(result, Refutation)
        for inst in result.instantiations:
            assert inst.outcome.worst_by_region() == (1, 1, 1, 1, 1)

    def test_fan_hisp_unit_gap_reproduces_case_table(self, fan):
        template = InitialTemplate(((F(1, 4), 1), (F(0), 1)))
        result = refute_property(fan, "HISP", F(1, 4), template, (1,))
        assert isinstance(result, Refutation)
        assert result.instantiations[0].outcome.worst_by_region() == (
            1,
            F(1, 2),
            1,
            1,
            1,
        )

    def test_tracable_template_is_inconclusive(self, constant):
        template = SpacedTemplate((F(1, 2), 0, 1), ((F(1, 3), 1),))
        result = refute_property(constant, "SP", F(1, 4), template, range(1, 6))
        assert isinstance(result, Inconclusive)
        assert result.witness.report.passed

    def test_template_kind_checked(self, constant):
        initial = InitialTemplate(((F(1), 1), (F(0), 1)))
        with pytest.raises(ValueError, match="^SP needs a spaced template$"):
            refute_property(constant, "SP", F(1, 4), initial, range(1, 3))
        spaced = SpacedTemplate((F(0), 0, 1), ((F(1), 1),))
        with pytest.raises(ValueError, match="^HISP needs an initial template$"):
            refute_property(constant, "HISP", F(1, 4), spaced, range(1, 3))

    def test_refutations_never_contradict_the_grid_oracle(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 12:
            relation = random_box_relation(rng, max_boxes=3)
            base1 = random_fraction(rng)
            base2 = random_fraction(rng)
            template = InitialTemplate(((base1, 1), (base2, 1)))
            eps = F(rng.randint(1, 3), 8)
            result = refute_property(relation, "ISP", eps, template, range(1, 4))
            if not isinstance(result, Refutation):
                continue
            checked += 1
            for inst in result.instantiations:
                spec = template.instantiate(relation, inst.value)
                for y in oracles.grid_tracer_candidates(relation.space, F(1, 32)):
                    assert not check_initial_trace(relation, spec, y, eps, "plain").passed

    def test_refuted_distances_replay_exactly(self, monica):
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        result = refute_property(monica, "HSP", F(1, 4), template, range(1, 4))
        for inst in result.instantiations:
            spec = template.instantiate(monica, inst.value)
            for failure in inst.outcome.failures:
                replay = check_trace(
                    monica, spec, failure.representative, F(1, 4), "hausdorff"
                )
                assert [e.distance for e in replay.entries] == [
                    e.distance for e in failure.report.entries
                ]

    def test_a_one_shot_iterable_is_read_once(self, monica):
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        result = refute_property(monica, "HSP", F(1, 4), template, (v for v in range(1, 4)))
        assert result.values == (1, 2, 3)
        assert [inst.value for inst in result.instantiations] == [1, 2, 3]

    def test_no_values_is_refused(self, monica):
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        for values in ((), range(5, 5), iter([])):
            with pytest.raises(ValueError):
                refute_property(monica, "HSP", F(1, 4), template, values)


def per_value(relation, prop, eps, template, values):
    """What refute_property must return: each value searched alone on a fresh relation.

    An error is returned as its type and message.
    """
    mode = "hausdorff" if prop in ("HSP", "HISP") else "plain"
    outcomes = []
    for value in values:
        rel = fresh(relation)
        try:
            spec = template.instantiate(rel, value)
            if prop in INITIAL_PROPERTIES:
                found = find_initial_tracer(rel, spec, eps, mode)
            else:
                found = find_tracer(rel, spec, eps, mode)
        except CRSpecError as exc:
            return type(exc), str(exc)
        if isinstance(found, TracerWitness):
            return Inconclusive(prop, eps, value, found)
        outcomes.append(Instantiation(value, found))
    return Refutation(prop, eps, template, tuple(values), tuple(outcomes))


class TestPhaseWindow:
    """Values past the orbits' transient are decided by one search per phase class;
    the tables of the others in it are built when read."""

    @staticmethod
    def counting(monkeypatch):
        """A list that grows by one for every tracer search refute_property runs."""
        calls = []
        search = crspec.verdicts.find_tracer

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(crspec.verdicts, "find_tracer", counted)
        return calls

    def test_matches_a_search_per_value(self, monkeypatch):
        calls = self.counting(monkeypatch)
        rng = random.Random(20261018)
        seen = {"box": 0, "finite": 0, "spaced": 0, "initial": 0, "two tails": 0, "period > 1": 0}
        dying = 0
        for k in range(300):
            covered = rng.random() < 0.8
            if k % 2:
                space = random_finite_space(rng, rng.randint(1, 6))
                relation = random_finite_relation(rng, space, p1_full=covered)
                kind = "finite"

                def point():
                    return rng.randrange(space.n)

            else:
                relation = random_box_relation(rng, max_boxes=4, cover_domain=covered)
                kind = "box"

                def point():
                    return random_fraction(rng)

            prop = rng.choice(tuple(PROPERTIES))
            eps = rng.choice([F(0), F(1, 16), F(1, 8), random_fraction(rng, F(0), F(1, 2))])
            if prop in INITIAL_PROPERTIES:
                segments = tuple((point(), rng.randint(0, 2)) for _ in range(rng.randint(1, 3)))
                template = InitialTemplate(segments)
                moving = len(segments) - 1
            else:
                first = rng.randint(0, 3)
                head = (point(), first, first + rng.randint(0, 3))
                tail = tuple((point(), rng.randint(0, 2)) for _ in range(rng.randint(1, 2)))
                template = SpacedTemplate(head, tail)
                moving = len(tail)
            lo = rng.choice([1, 1, 5, 30])
            values = list(range(lo, lo + rng.randint(1, 14)))
            values += rng.choices(values, k=rng.randint(0, 4))
            rng.shuffle(values)

            expected = per_value(relation, prop, F(eps), template, values)
            calls.clear()
            try:
                got = refute_property(fresh(relation), prop, eps, template, values)
            except CRSpecError as exc:
                got = type(exc), str(exc)
            assert got == expected, (k, prop, template, values)
            if isinstance(expected, tuple) and expected[0] is EmptyImageError:
                dying += 1
            if isinstance(expected, Refutation) and len(calls) < len(values):
                orbits = [relation.orbit(r).close() for r, _ in relation.regions()]
                seen[kind] += 1
                seen["initial" if prop in INITIAL_PROPERTIES else "spaced"] += 1
                seen["two tails"] += moving == 2
                seen["period > 1"] += math.lcm(*(o.period for o in orbits)) > 1
        assert min(seen.values()) > 0, seen
        assert dying > 0

    def test_searches_do_not_grow_with_the_range(self, unit, monkeypatch):
        calls = self.counting(monkeypatch)
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        counts = []
        for n in (20, 2000):
            calls.clear()
            monica = BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))
            result = refute_property(monica, "HSP", F(1, 4), template, range(1, n + 1))
            assert isinstance(result, Refutation) and len(result.instantiations) == n
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1

    @staticmethod
    def reporting(monkeypatch):
        """A list that grows by one for every report specifications._report builds."""
        calls = []
        report = crspec.specifications._report

        def counted(*args):
            calls.append(args)
            return report(*args)

        monkeypatch.setattr(crspec.specifications, "_report", counted)
        return calls

    def test_reports_do_not_grow_with_the_range(self, unit, monkeypatch):
        calls = self.reporting(monkeypatch)
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        counts = []
        for n in (20, 10000):
            calls.clear()
            monica = BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))
            result = refute_property(monica, "HSP", F(1, 4), template, range(1, n + 1))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        calls.clear()
        last = result.instantiations[-1]  # spacing 10000, in the phase class of spacing 1
        regions = list(monica.regions())
        assert len(calls) == len(regions) == len(last.outcome.failures)
        assert [args[2] for args in calls] == [rep for _, rep in regions]
        assert last.outcome.worst_by_region() == (1, 1, 1, 1)

    def test_the_tables_read_as_the_tuple_they_were(self, unit):
        monica = BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))
        template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
        result = refute_property(monica, "HSP", F(1, 4), template, range(1, 8))
        tables = result.instantiations
        expected = per_value(monica, "HSP", F(1, 4), template, range(1, 8)).instantiations
        assert isinstance(expected, tuple)
        assert len(tables) == 7
        assert tuple(tables) == tuple(iter(tables)) == expected
        assert tables[0] == expected[0] and tables[-1] == expected[-1]
        for part in (slice(2, 5), slice(None, None, -2), slice(5, 100), slice(4, 2)):
            assert isinstance(tables[part], tuple) and tables[part] == expected[part]
        assert tables == expected and expected == tables and not tables != expected
        assert tables == tables and tables != list(expected) and tables != expected[:-1]
        with pytest.raises(IndexError):
            tables[7]
        assert result == per_value(monica, "HSP", F(1, 4), template, range(1, 8))

    def test_values_below_one_are_searched(self, unit):
        """Past monica's transient (T = 1) still, but gap 0 and spacing -6 are no instances."""
        monica = BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1), box(1, 1, 0, 1)))
        initial = InitialTemplate(((F(0), 2), (F(3, 4), 1)))
        with pytest.raises(ValueError, match="gaps must be positive"):
            refute_property(monica, "ISP", F(1, 8), initial, [2, 3, 0])
        spaced = SpacedTemplate((F(0), 2, 8), ((F(1), 1), (F(1), 1)))
        with pytest.raises(BadRangeError):
            refute_property(monica, "HSP", F(1, 4), spaced, [1, 2, -6])

    @staticmethod
    def chain():
        """0 -> 1 -> 2 -> 3 -> 3: region 0 has transient 2 and closes at F^4; period 1."""
        space = FiniteMetricSpace.discrete(4)
        return FiniteRelation.from_pairs(space, [(0, 1), (1, 2), (2, 3), (3, 3)])

    def test_values_before_the_transient_are_searched(self, monkeypatch):
        calls = self.counting(monkeypatch)
        template = InitialTemplate(((0, 0), (0, 0)))  # gap m puts segment 2 at F^m
        values = [4, 1, 2, 3, 5, 1]
        result = refute_property(self.chain(), "ISP", F(0), template, values)
        assert isinstance(result, Refutation)
        # m = 4 closes every orbit; F^1 and F^2 lie in the transient, F^3 on does not
        assert [args[1].gaps for args in calls] == [(4,), (1,), (2,), (1,)]
        assert result == per_value(self.chain(), "ISP", F(0), template, values)

    def test_an_orbit_still_open_is_not_read(self, monkeypatch):
        calls = self.counting(monkeypatch)
        template = InitialTemplate(((0, 0), (0, 0)))
        values = [1, 2, 2, 3, 4, 5, 3]
        result = refute_property(self.chain(), "ISP", F(0), template, values)
        # m = 3 is past the transient, but region 0's orbit stays open until m = 4
        assert [args[1].gaps for args in calls] == [(1,), (2,), (2,), (3,), (4,)]
        assert result == per_value(self.chain(), "ISP", F(0), template, values)


class TestImplicationSuite:
    def test_all_implications_hold(self):
        verdicts = implication_suite(20260809, 40)
        assert [v.name for v in verdicts] == [
            "hausdorff-pass-implies-plain-pass",
            "initial-to-spaced-round-trip",
            "isometric-conjugacy-invariance",
            "function-relation-agreement",
        ]
        for verdict in verdicts:
            assert verdict.ok, verdict.failures

    def test_deterministic_given_seed(self):
        first = implication_suite(7, 15)
        second = implication_suite(7, 15)
        assert first == second


class TestCertificateWindow:
    """A certificate search stops at the orbits' periodic window, whatever its n0max."""

    @staticmethod
    def window(relation, period):
        """T + L (image conditions) or T + 1 (eventual ones), read off closed orbits."""
        if isinstance(relation, BoxRelation):
            regions = cell_decomposition(relation).cells
        else:
            regions = range(relation.space.n)
        orbits = [relation.orbit(r).close() for r in regions]
        last = max(o.transient for o in orbits)
        return last + (math.lcm(*(o.period for o in orbits)) if period else 1)

    @staticmethod
    def first_n0(relation, kind, eps, last):
        """The smallest n0 <= last that meets the condition, tested n0 by n0 with no window."""
        if isinstance(relation, BoxRelation):
            regions = cell_decomposition(relation).cells
        else:
            regions = range(relation.space.n)
        orbits = [relation.orbit(r).close() for r in regions]
        # from n0 on, one transient plus one full joint period covers every j
        span = max(o.transient for o in orbits) + math.lcm(*(o.period for o in orbits))
        full = relation.space.full()
        for n0 in range(1, last + 1):
            sets = [o.value_at(n0) for o in orbits]
            if kind == "common":
                ok = all(not a.intersect(b).is_empty for a, b in itertools.combinations(sets, 2))
            elif kind == "full":
                ok = all(s == full for s in sets)
            else:
                ok = all(
                    relation.space.hausdorff(oa.value_at(j), ob.value_at(j)) <= eps
                    for oa, ob in itertools.combinations(orbits, 2)
                    for j in range(n0, n0 + span + 1)
                )
            if ok:
                return n0
        return None

    def counted(self, monkeypatch, certify, relation, *args, limit=10**6):
        """The certificate and the number of Orbit.value_at calls; past limit calls it fails."""
        calls = []
        original = Orbit.value_at

        def counting(orbit, j):
            calls.append(j)
            assert len(calls) <= limit, "the search went on past its window"
            return original(orbit, j)

        monkeypatch.setattr(Orbit, "value_at", counting)
        try:
            return certify(fresh(relation), *args), len(calls)
        finally:
            monkeypatch.setattr(Orbit, "value_at", original)

    def relations(self, monica, fan):
        rng = random.Random(60)
        yield monica
        yield fan
        for _ in range(25):
            yield random_box_relation(rng, max_boxes=6, max_den=12)
        for _ in range(25):
            space = random_finite_space(rng, rng.randint(2, 6))
            yield random_finite_relation(rng, space, p1_full=True)

    def test_huge_n0max_matches_the_window(self, monica, fan, monkeypatch):
        found = 0
        for relation in self.relations(monica, fan):
            image_window = self.window(relation, period=True)
            eventual_window = self.window(relation, period=False)
            diameter = relation.space.diameter()
            cases = [
                (certify_common_image, "common", (), image_window),
                (certify_full_image, "full", (), image_window),
                (certify_eventual_hausdorff, "eventual", (diameter / 4,), eventual_window),
                (certify_eventual_hausdorff, "eventual", (Fraction(0),), eventual_window),
            ]
            for certify, kind, eps, window in cases:
                at_window = self.counted(monkeypatch, certify, relation, *eps, window)
                assert self.counted(monkeypatch, certify, relation, *eps, 10**9) == at_window
                cert = at_window[0]
                bound = eps[0] if eps else None
                expected = self.first_n0(fresh(relation), kind, bound, 2 * window + 2)
                assert (None if cert is None else cert.n0) == expected
                if cert is not None:
                    found += 1
                    assert cert.n0 <= window and recheck(fresh(relation), cert)
                # any smaller n0max finds the same certificate, or none when its n0 is beyond
                for n0_max in range(1, window + 1):
                    smaller = certify(fresh(relation), *eps, n0_max)
                    assert smaller == (cert if cert is not None and cert.n0 <= n0_max else None)
        assert found > 20

    def test_two_loops_never_meet_at_any_n0max(self, unit, monkeypatch):
        relation = BoxRelation(unit, (box(0, F(1, 2), 0, 0), box(F(1, 2), 1, 1, 1)))
        for certify, eps in (
            (certify_common_image, ()),
            (certify_full_image, ()),
            (certify_eventual_hausdorff, (F(1, 2),)),
        ):
            cert, _ = self.counted(monkeypatch, certify, relation, *eps, 10**9, limit=20)
            assert cert is None
