"""Each independent check accepts crspec's real answer and rejects a corrupted copy.

Run from the root of the repository:  python3 -m pytest bench/test_checks.py
The corruptions are made on result objects and reports, never on the library.
"""

import dataclasses
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import crspec  # noqa: E402
import crspec.cli  # noqa: E402,F401
import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

MONICA_SPEC = [(F(0), 2, 3), (F(1), 9, 10)]


def monica():
    return workloads._box_relation(crspec, workloads.MONICA), workloads._box_system(workloads.MONICA)


def shifted(report, by):
    first = dataclasses.replace(report.entries[0], distance=report.entries[0].distance + by)
    return dataclasses.replace(report, entries=(first,) + report.entries[1:])


def test_failure_table_with_a_region_dropped_is_rejected():
    rel, system = monica()
    reqs = checks.spaced_requirements(MONICA_SPEC)
    result = crspec.find_tracer(rel, crspec.Specification.build(rel, MONICA_SPEC), F(1, 4), "hausdorff")
    assert checks.check_search(system, reqs, "hausdorff", F(1, 4), result, worst=F(1)) == "notracer"
    for k in range(len(result.failures)):
        dropped = dataclasses.replace(result, failures=result.failures[:k] + result.failures[k + 1 :])
        with pytest.raises(CheckFailed):
            checks.check_search(system, reqs, "hausdorff", F(1, 4), dropped)


def test_finite_failure_table_with_a_point_dropped_is_rejected():
    import random

    dist, adj = workloads.random_finite(random.Random(4))
    rel = crspec.FiniteRelation(crspec.FiniteMetricSpace(dist), adj)
    system = checks.FiniteSystem(dist, adj)
    triples = [(0, 1, 2), (1, 4, 5)]
    reqs = checks.spaced_requirements(triples)
    result = crspec.find_tracer(rel, crspec.Specification.build(rel, triples), F(0), "hausdorff")
    assert checks.check_search(system, reqs, "hausdorff", F(0), result) == "notracer"
    with pytest.raises(CheckFailed):
        checks.check_search(system, reqs, "hausdorff", F(0), dataclasses.replace(result, failures=result.failures[1:]))


@pytest.mark.parametrize("by", [F(1, 64), F(-1, 64)])
def test_distance_shifted_by_one_64th_is_rejected(by):
    rel, system = monica()
    reqs = checks.spaced_requirements(MONICA_SPEC)
    spec = crspec.Specification.build(rel, MONICA_SPEC)
    witness = crspec.find_tracer(rel, spec, F(1, 2), "plain")
    assert checks.check_search(system, reqs, "plain", F(1, 2), witness) == "witness"
    with pytest.raises(CheckFailed):
        checks.check_search(system, reqs, "plain", F(1, 2), dataclasses.replace(witness, report=shifted(witness.report, by)))

    table = crspec.find_tracer(rel, spec, F(1, 4), "hausdorff")
    bad = dataclasses.replace(table.failures[0], report=shifted(table.failures[0].report, by))
    with pytest.raises(CheckFailed):
        checks.check_search(system, reqs, "hausdorff", F(1, 4), dataclasses.replace(table, failures=(bad,) + table.failures[1:]))


def test_word_count_off_by_one_is_rejected():
    import random

    dist, adj = workloads.random_finite(random.Random(5))
    space = crspec.ShiftSpace.of(crspec.FiniteRelation(crspec.FiniteMetricSpace(dist), adj))
    count = len(space.admissible_words(5))
    checks.check_word_count(adj, 5, count)
    for wrong in (count - 1, count + 1):
        with pytest.raises(CheckFailed):
            checks.check_word_count(adj, 5, wrong)


def test_mixing_index_off_by_one_is_rejected():
    import random

    dist, adj = workloads.random_finite(random.Random(6))
    index = crspec.mixing_index(crspec.TransitionMatrix.of(crspec.FiniteRelation(crspec.FiniteMetricSpace(dist), adj)), 10)
    checks.check_mixing_index(adj, 10, index)
    with pytest.raises(CheckFailed):
        checks.check_mixing_index(adj, 10, index + 1)


def test_certificate_point_moved_out_of_an_image_is_rejected(tmp_path):
    emit = tmp_path / "monica.json"
    assert crspec.cli.main(["--scenario", str(ROOT / "scenarios" / "monica.scn"), "--quiet", "--emit", str(emit)]) == 0
    report = json.loads(emit.read_text())
    cert = next(
        c["data"]["certificate"] for c in report["commands"] if c["outcome"] == "certificate" and c["data"]["certificate"]["kind"] == "common-image"
    )
    _, system = monica()
    full = ((F(0), F(1)),)
    checks.check_certificate(system, cert, full)
    n0 = cert["n0"]
    item = cert["evidence"][0]
    image = system.iterate(system.point(checks.region_point(checks.parse_region(item["pair"][0]))), n0)
    outside = next(F(k, 8) for k in range(9) if not any(lo <= F(k, 8) <= hi for lo, hi in image))
    moved = dict(cert, evidence=[dict(item, common_point=str(outside))] + cert["evidence"][1:])
    with pytest.raises(CheckFailed):
        checks.check_certificate(system, moved, full)


def test_spliced_tracer_with_a_symbol_changed_is_rejected():
    import random

    rng = random.Random(7)
    dist, adj = workloads.random_finite(rng)
    space = crspec.ShiftSpace.of(crspec.FiniteRelation(crspec.FiniteMetricSpace(dist), adj))
    raw = [(workloads.random_sequence(rng, adj), a, b) for a, b in workloads.SHIFT_SEGMENTS]
    spec = [(space.sequence(*b), a, c) for b, a, c in raw]
    tracer = space.splice_tracer(spec, workloads.SHIFT_EPS)
    seq = (tracer.preperiod, tracer.cycle)
    entries = [(e.segment, e.step, e.distance) for e in space.trace_check(spec, tracer, workloads.SHIFT_EPS).entries]
    checks.check_admissible(adj, seq)
    checks.check_shift_trace(dist, raw, seq, workloads.SHIFT_EPS, entries, must_pass=True)
    entries[0] = entries[0][:2] + (entries[0][2] + F(1, 64),)
    with pytest.raises(CheckFailed):
        checks.check_shift_trace(dist, raw, seq, workloads.SHIFT_EPS, entries, must_pass=True)
