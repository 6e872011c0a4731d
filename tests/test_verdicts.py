import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from crspec import (
    Certificate,
    FiniteMetricSpace,
    FiniteRelation,
    Inconclusive,
    InitialTemplate,
    NoTracer,
    Orbit,
    Refutation,
    SpacedTemplate,
    Specification,
    certify_common_image,
    certify_eventual_hausdorff,
    certify_full_image,
    certify_trivial_fiber,
    check_trace,
    check_initial_trace,
    cell_decomposition,
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

F = Fraction


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
        template = InitialTemplate(((F(1), 1), (F(0), 1)))
        with pytest.raises(ValueError):
            refute_property(constant, "SP", F(1, 4), template, range(1, 3))

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
    def fresh(relation):
        if isinstance(relation, BoxRelation):
            return BoxRelation(relation.space, relation.boxes)
        return FiniteRelation(relation.space, relation.adjacency)

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
            return certify(self.fresh(relation), *args), len(calls)
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
                expected = self.first_n0(self.fresh(relation), kind, bound, 2 * window + 2)
                assert (None if cert is None else cert.n0) == expected
                if cert is not None:
                    found += 1
                    assert cert.n0 <= window and recheck(self.fresh(relation), cert)
                # any smaller n0max finds the same certificate, or none when its n0 is beyond
                for n0_max in range(1, window + 1):
                    smaller = certify(self.fresh(relation), *eps, n0_max)
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
