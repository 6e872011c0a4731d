"""Acceptance suite: every criterion at its stated tolerance, exact values.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion clause.  All comparisons are exact rational equalities; no
tolerance is approximate.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from crspec import (
    InitialTemplate,
    IntervalUnion,
    NoTracer,
    Refutation,
    SpacedTemplate,
    Specification,
    TracerWitness,
    certify_common_image,
    certify_eventual_hausdorff,
    certify_full_image,
    certify_trivial_fiber,
    check_trace,
    find_tracer,
    mixing_index,
    refute_property,
)
from crspec.cli import main
from crspec.randgen import random_fraction, random_interval_union, random_partition_relation
from crspec.verdicts import (
    _suite_conjugacy_invariance,
    _suite_function_agreement,
    _suite_hausdorff_implies_plain,
    _suite_initial_round_trip,
)

F = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEED = 20260809


def note(criterion: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    return ok


# -- criterion 1: the monica relation ---------------------------------------


def test_criterion_1a_hsp_refutation_all_cells_at_one(monica):
    template = SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
    result = refute_property(monica, "HSP", F(1, 4), template, range(1, 11))
    ok = isinstance(result, Refutation) and all(
        inst.outcome.worst_by_region() == (1, 1, 1, 1)
        for inst in result.instantiations
    )
    assert note("1a monica HSP refuted, every cell worst exactly 1", ok)


def test_criterion_1b_plain_tracers_with_zero_distances(monica):
    rng = random.Random(SEED)
    bases = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    ok = True
    for _ in range(100):
        triples = []
        first = rng.randint(0, 2)
        for _ in range(rng.randint(1, 3)):
            last = first + rng.randint(0, 2)
            triples.append((rng.choice(bases), first, last))
            first = last + 5 + rng.randint(0, 1)
        spec = Specification.build(monica, triples)
        result = find_tracer(monica, spec, 0, "plain")
        if not isinstance(result, TracerWitness) or any(
            e.distance != 0 for e in result.report.entries
        ):
            ok = False
            break
    assert note("1b monica: 100 five-spaced specs traced plainly at distance 0", ok)


# -- criterion 2: the constant relation [0,1] x {1} --------------------------


def test_criterion_2_constant_relation(constant):
    fiber = certify_trivial_fiber(constant)
    ok = fiber is not None and fiber.evidence[0] == 1

    eventual = certify_eventual_hausdorff(constant, F(1, 4), 4)
    ok = ok and eventual is not None and eventual.kind == "eventual-equal" and eventual.n0 == 1

    template = InitialTemplate(((F(1), 1), (F(0), 1)))
    result = refute_property(constant, "ISP", F(1, 4), template, range(1, 11))
    ok = ok and isinstance(result, Refutation)
    if ok:
        for inst in result.instantiations:
            for failure in inst.outcome.failures:
                entry = failure.report.entry(2, 0)
                if entry.distance != 1 or entry.distance <= F(1, 4):
                    ok = False
    assert note("2 constant relation: fiber x0=1, eventual-equal n0=1, ISP refuted at (2,0)=1", ok)


# -- criterion 3: initial refutation with bases 0 and 3/4 --------------------


def test_criterion_3_isp_refutation_with_quarter_base(monica):
    template = InitialTemplate(((F(0), 1), (F(3, 4), 1)))
    result = refute_property(monica, "ISP", F(1, 8), template, range(1, 11))
    ok = isinstance(result, Refutation)
    if ok:
        for inst in result.instantiations:
            failures = inst.outcome.failures
            low = failures[0]
            if str(low.region) != "[0, 1/2)" or low.report.entry(2, 0).distance != F(3, 4):
                ok = False
            for failure in failures[1:]:
                entry = failure.report.entry(1, 0)
                if entry.distance < F(1, 2) or entry.distance <= F(1, 8):
                    ok = False
    assert note("3 ISP refuted: low cell 3/4 at (2,0), upper cells >= 1/2 at (1,0)", ok)


# -- criterion 4: the four-box relation with full fourth images --------------


def test_criterion_4_full_image_certificate(fan):
    cert = certify_full_image(fan, 6)
    ok = cert is not None and cert.n0 == 4
    assert note("4 fan relation: full-image certificate with n0 = 4", ok)


def test_criterion_4_hisp_refutation_returned(fan):
    template = InitialTemplate(((F(1, 4), 1), (F(3, 4), 1)))
    result = refute_property(fan, "HISP", F(1, 4), template, range(4, 9))
    ok = isinstance(result, Refutation) and all(
        isinstance(inst.outcome, NoTracer) and len(inst.outcome.failures) == 5
        for inst in result.instantiations
    )
    assert note("4 fan relation: HISP refuted over gaps 4..8 on all five cells", ok)


def test_criterion_4_percell_worst_values_as_stated(fan):
    # Template ((1/4; 1), (3/4; 1)) over gaps m in 4..8: segment 2 is traced
    # at tracer powers l_1 + m + j = m + 1 + j >= 5, and F^t(y) = [0, 1] for
    # every y once t >= 4 (the full-image certificate, n0 = 4).  So on each
    # of the five cells {0}, (0,1/2), {1/2}, (1/2,1), {1} entry (2, 0) is
    # H([0,1], {3/4}) = 3/4 and entry (2, 1) is H([0,1], {1}) = 1, and every
    # per-cell worst is exactly 1.
    template = InitialTemplate(((F(1, 4), 1), (F(3, 4), 1)))
    result = refute_property(fan, "HISP", F(1, 4), template, range(4, 9))
    full = IntervalUnion.closed(0, 1)
    targets = {(2, 0): IntervalUnion.point(F(3, 4)), (2, 1): IntervalUnion.point(1)}
    ok = (
        oracles.hausdorff(full, targets[2, 0]) == F(3, 4)
        and oracles.hausdorff(full, targets[2, 1]) == F(1)
        and isinstance(result, Refutation)
        and result.values == tuple(range(4, 9))
    )
    if ok:
        for inst in result.instantiations:
            ok = ok and inst.outcome.worst_by_region() == (F(1),) * 5
            for failure in inst.outcome.failures:
                for key, target in targets.items():
                    entry = failure.report.entry(*key)
                    ok = ok and entry.tracer_set == full and entry.target_set == target
                    ok = ok and entry.distance == oracles.hausdorff(full, target)
                if inst.value == 4:
                    ok = ok and all(
                        e.distance == oracles.hausdorff(e.tracer_set, e.target_set)
                        for e in failure.report.entries
                    )

    # The table (1, 1/2, 1, 1, 1) belongs to the neighbouring instance with
    # second base 0 and gap 1, whose segment 2 is traced at powers 2 and 3;
    # also pinned in
    # tests/test_verdicts.py::TestRefutations::test_fan_hisp_unit_gap_reproduces_case_table.
    unit_gap = InitialTemplate(((F(1, 4), 1), (F(0), 1)))
    neighbour = refute_property(fan, "HISP", F(1, 4), unit_gap, (1,))
    ok = ok and isinstance(neighbour, Refutation) and (
        neighbour.instantiations[0].outcome.worst_by_region() == (F(1), F(1, 2), F(1), F(1), F(1))
    )
    assert note(
        "4 fan relation: per-cell worsts exactly (1, 1, 1, 1, 1) for bases (1/4, 3/4), "
        "gaps 4..8; exactly (1, 1/2, 1, 1, 1) for bases (1/4, 0), gap 1",
        ok,
    )


# -- criterion 5: common-image certificate and its tracing consequence -------


def test_criterion_5_common_image_and_zero_tracing(monica):
    cert = certify_common_image(monica, 6)
    ok = cert is not None and cert.n0 == 2

    rng = random.Random(SEED + 5)
    for _ in range(100):
        triples = []
        first = rng.randint(0, 2)
        for _ in range(rng.randint(1, 3)):
            last = first + rng.randint(0, 2)
            triples.append((random_fraction(rng), first, last))
            first = last + 2 + rng.randint(0, 1)
        spec = Specification.build(monica, triples)
        report = check_trace(monica, spec, triples[0][0], 0, "plain")
        if not report.passed or any(e.distance != 0 for e in report.entries):
            ok = False
            break
    assert note("5 monica: common-image n0=2; 100 two-spaced specs trace at 0", ok)


# -- criterion 6: property suites, zero failures required --------------------


def test_criterion_6a_min_distance_below_hausdorff(unit):
    rng = random.Random(SEED + 6)
    ok = True
    for _ in range(1000):
        a = random_interval_union(rng, unit)
        b = random_interval_union(rng, unit)
        if unit.set_distance(a, b) > unit.hausdorff(a, b):
            ok = False
            break
    assert note("6 min distance <= Hausdorff on 1000 random set pairs", ok)


def test_criterion_6b_hausdorff_pass_implies_plain_pass():
    verdict = _suite_hausdorff_implies_plain(SEED + 7, 500)
    assert note("6 hausdorff-pass implies plain-pass on 500 instances", verdict.ok)


def test_criterion_6c_initial_round_trip():
    verdict = _suite_initial_round_trip(SEED + 8, 100)
    assert note("6 initial-to-spaced round trip on 100 finite systems", verdict.ok)


def test_criterion_6d_isometric_conjugacy_invariance():
    verdict = _suite_conjugacy_invariance(SEED + 9, 100)
    assert note("6 isometric conjugacy invariance on 100 permuted systems", verdict.ok)


def test_criterion_6e_automaton_periodicity_bound():
    rng = random.Random(SEED + 10)
    ok = True
    for _ in range(200):
        relation = random_partition_relation(rng, max_boxes=5)
        bound = 2 ** len(relation.boxes)
        for cell, _ in relation.regions():
            orbit = relation.orbit(cell).close()
            if orbit.transient + orbit.period > bound:
                ok = False
    assert note("6 iterate automaton settles within 2^r on 200 box relations", ok)


def test_criterion_6_companion_function_agreement():
    # not named by the acceptance list but part of the implication suite
    verdict = _suite_function_agreement(SEED + 11, 100)
    assert note("6+ function relations agree with classical tracing", verdict.ok)


# -- criterion 7: shift spaces of finite relations ---------------------------


def test_criterion_7a_word_counts_follow_matrix_powers(golden_space):
    expected = oracles.path_counts(golden_space.relation.adjacency, 10)
    got = [len(golden_space.admissible_words(k)) for k in range(1, 11)]
    assert note("7 golden-mean word counts match matrix powers up to 10", got == expected)


def test_criterion_7b_mixing_index(golden_space):
    index = mixing_index(golden_space.relation, 5)
    ok = (
        index == 2
        and not oracles.matrix_power_positive(golden_space.relation.adjacency, 1)
        and oracles.matrix_power_positive(golden_space.relation.adjacency, 2)
    )
    assert note("7 golden-mean transition matrix primitive with index 2", ok)


def test_criterion_7c_spliced_tracers_and_exhaustive_oracle(full_space):
    rng = random.Random(SEED + 12)
    eps = F(1, 4)
    ok = True
    for _ in range(50):
        bases = []
        for _ in range(2):
            pre = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
            cyc = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
            bases.append(full_space.sequence(pre, cyc))
        k1 = rng.randint(0, 1)
        l1 = k1 + rng.randint(0, 1)
        k2 = l1 + 3 + rng.randint(0, 1)
        l2 = k2 + rng.randint(0, 1)
        spec = ((bases[0], k1, l1), (bases[1], k2, l2))
        spliced = full_space.splice_tracer(spec, eps)
        if not full_space.trace_check(spec, spliced, eps).passed:
            ok = False
            break
        found = oracles.find_ep_tracer(full_space, spec, eps, 12, 4)
        if found is None:
            ok = False
            break
        pre, cyc = found
        if not full_space.trace_check(spec, full_space.sequence(pre, cyc), eps).passed:
            ok = False
            break
    assert note("7 full 2-shift: 50 spliced tracers verified and confirmed by enumeration", ok)


# -- criterion 8: CLI determinism and bundled expectations --------------------


@pytest.mark.parametrize("name", [p.name for p in sorted(SCENARIOS.glob("*.scn"))])
def test_criterion_8_scenarios_deterministic_and_green(name, capsys, tmp_path):
    outs, docs = [], []
    for attempt in range(2):
        emit = tmp_path / f"{attempt}.json"
        started = time.monotonic()
        code = main(
            ["--scenario", str(SCENARIOS / name), "--seed", "5", "--emit", str(emit)]
        )
        elapsed = time.monotonic() - started
        outs.append(capsys.readouterr().out.encode())
        docs.append(emit.read_bytes())
        assert code == 0
        assert elapsed < 10
    ok = outs[0] == outs[1] and docs[0] == docs[1]
    assert json.loads(docs[0])["ok"] is True
    with capsys.disabled():
        note(f"8 scenario {name}: expectations met, byte-identical reruns", ok)
    assert ok
