"""The benchmark's workloads: seeded inputs, the operations on them, and their checks.

A workload is a list of rounds.  Round ``r`` of a workload run with seed
``s`` draws its inputs from ``random.Random(f"{workload}:{s}:{r}")`` with
this module's own generators, never with ``crspec.randgen``, so that the
inputs stay the same when the program changes.  Every round holds the same
operations at the same sizes; only the drawn values differ.

An operation is one question a user puts to crspec.  It builds the
relation and the specification from raw data, asks the question and
returns the verdict; its check then verifies the verdict with
``checks.py``, outside the timed region.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

import checks
from checks import BoxSystem, FiniteSystem, require

# -- box-deep -------------------------------------------------------------------

MONICA = ((0, F(1, 2), 0, 0), (F(1, 2), 1, 1, 1), (1, 1, 0, 1))
FAN = ((0, F(1, 2), 0, 0), (0, 0, 0, F(1, 2)), (F(1, 2), 1, 1, 1), (1, 1, F(1, 2), 1))
SPACING = 150  # the spacing N and the gap m of the monica and fan questions
REFUTE_VALUES = 5  # spacings in each refutation: N..N+4, then N+5..N+9
BOX_TILES = 6  # random box relations: domain sides tile [0, 1] in this many boxes
BOX_DEN = 16  # every endpoint and base is a multiple of 1/BOX_DEN
BOX_POWERS = ((100, 101), (150, 151))  # segment exponents of the random questions
BOX_EPS = F(1, 8)

# -- finite-shift -----------------------------------------------------------------

POINTS = 20  # points of each finite space
DENSITY = 0.2  # share of the n^2 adjacency entries that are edges
POS_DEN = 8  # points sit at distinct multiples of 1/POS_DEN in [0, 4)
MIX_MAX = 10  # relations are drawn until primitive within this many steps
WORD_LEN = 6  # length of the enumerated admissible words
SHIFT_SEGMENTS = ((0, 1), (14, 15), (28, 29))  # (first, last) of the shift-space segments
SHIFT_EPS = F(1, 4)

# -- cli-scenarios -----------------------------------------------------------------

BUNDLED = ("constant.scn", "ex3.scn", "exi.scn", "goldenmean.scn", "monica.scn", "suite.scn")
CLI_TILES = 12  # boxes of each generated interval scenario
CLI_DEN = 24
CLI_INTERVAL = 14  # generated interval scenarios per round
CLI_FINITE = 2  # generated finite scenarios per round
CLI_SUITES = 5  # generated implication-suite scenarios per round: the slowest tenth
CLI_SUITE_COUNT = 40  # instances per implication in each of them
CLI_POINTS = 7
CLI_WORD_LEN = 6
CLI_EPS = F(1, 8)
DANGLING = {
    "dangling-trace-eps.scn": "spec S\n  segment 0 k 2 l 3\n  segment 1 k 9 l 10\nend\n"
    "trace S eps mode plain\n",
    "dangling-suite-count.scn": "suite count\n",
    "dangling-certify-eps.scn": "certify eventual-hausdorff eps n0max 3\n",
}
MONICA_TEXT = "ambient interval 0 1\nbox 0 1/2 0 0\nbox 1/2 1 1 1\nbox 1 1 0 1\n"


class Op:
    """One timed question: ``run()`` returns the verdict, ``check(verdict)`` verifies it."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def fmt(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _box_relation(C, raw):
    return C.BoxRelation(
        C.IntervalSpace(0, 1),
        tuple((C.Interval(F(a0), F(a1)), C.Interval(F(b0), F(b1))) for a0, a1, b0, b1 in raw),
    )


def _box_system(raw) -> BoxSystem:
    return BoxSystem(0, 1, [((F(a0), F(a1)), (F(b0), F(b1))) for a0, a1, b0, b1 in raw])


def random_interval(rng, den):
    """A point or a proper interval, each with probability 1/2, at denominator den."""
    if rng.random() < 0.5:
        k = rng.randrange(den + 1)
        return F(k, den), F(k, den)
    a, b = sorted(rng.sample(range(den + 1), 2))
    return F(a, den), F(b, den)


def random_tiled_boxes(rng, tiles, den):
    """Domain sides tile [0, 1] at distinct cuts, so p1(F) = X with 2*tiles - 1 cells."""
    edges = [0, *sorted(rng.sample(range(1, den), tiles - 1)), den]
    return tuple((F(a, den), F(b, den), *random_interval(rng, den)) for a, b in zip(edges, edges[1:]))


def _search_op(C, name, raw, triples=None, pairs=None, gaps=None, eps=F(0), mode="plain", worst=None):
    """find_tracer on spaced triples, or find_initial_tracer on (base, last) pairs."""
    system = _box_system(raw)
    if triples is not None:
        reqs = checks.spaced_requirements(triples)

        def run():
            rel = _box_relation(C, raw)
            return C.find_tracer(rel, C.Specification.build(rel, triples), eps, mode)

    else:
        reqs = checks.initial_requirements(pairs, gaps)

        def run():
            rel = _box_relation(C, raw)
            return C.find_initial_tracer(rel, C.InitialSpecification.build(rel, pairs, gaps), eps, mode)

    return Op(name, run, lambda result: checks.check_search(system, reqs, mode, eps, result, worst))


def _refute_op(C, name, raw, head, tail_base, values, eps):
    """refute_property HSP over spacings; every instantiation must refute with worst 1."""
    system = _box_system(raw)

    def run():
        rel = _box_relation(C, raw)
        template = C.SpacedTemplate(head, ((tail_base, 1),))
        return C.refute_property(rel, "HSP", eps, template, values)

    def check(result):
        require(hasattr(result, "instantiations"), "the refutation came back inconclusive")
        require([i.value for i in result.instantiations] == list(values), "instantiations miss a value")
        for inst in result.instantiations:
            start = head[2] + inst.value
            reqs = checks.spaced_requirements([head, (tail_base, start, start + 1)])
            checks.check_search(system, reqs, "hausdorff", eps, inst.outcome, worst=F(1))

    return Op(name, run, check)


def box_deep_round(w, rng):
    C = w.crspec
    n = SPACING
    monica_spec = [(F(0), 2, 3), (F(1), 3 + n, 4 + n)]
    ops = [
        # The paper's example (acceptance criterion 1a): worst exactly 1 on every cell.
        _search_op(C, "monica-hsp", MONICA, triples=monica_spec, eps=F(1, 4), mode="hausdorff", worst=F(1)),
        _search_op(C, "monica-sp", MONICA, triples=monica_spec, eps=F(0), mode="plain"),
        _search_op(C, "monica-isp", MONICA, pairs=[(F(0), 1), (F(3, 4), 1)], gaps=(n,), eps=F(1, 8)),
        _search_op(
            C, "fan-hisp", FAN, pairs=[(F(1, 4), 1), (F(3, 4), 1)], gaps=(n,),
            eps=F(1, 4), mode="hausdorff", worst=F(1),
        ),
        _search_op(C, "fan-hsp", FAN, triples=[(F(1, 4), 2, 3), (F(3, 4), 3 + n, 4 + n)], eps=F(1, 4), mode="hausdorff"),
    ]
    # Two refutations per round: the slowest tenth of the operations then lies
    # inside their cluster, so op_p90_ms does not sit between two clusters.
    for k in range(2):
        lo = n + k * REFUTE_VALUES
        ops.append(_refute_op(C, f"monica-hsp-refute-{k}", MONICA, (F(0), 2, 3), F(1), range(lo, lo + REFUTE_VALUES), F(1, 4)))
    for mode in ("hausdorff", "plain", "hausdorff", "plain"):
        raw = random_tiled_boxes(rng, BOX_TILES, BOX_DEN)
        triples = [(F(rng.randrange(BOX_DEN + 1), BOX_DEN), a, b) for a, b in BOX_POWERS]
        ops.append(_search_op(C, f"random-{mode}", raw, triples=triples, eps=BOX_EPS, mode=mode))
    return ops


# -- finite-shift ------------------------------------------------------------------


def _bool_power_positive(succ, t):
    """Whether every point reaches every point in exactly t steps (own closure)."""
    n = len(succ)
    for a in range(n):
        reach = {a}
        for _ in range(t):
            reach = set().union(*(succ[i] for i in reach))
        if len(reach) < n:
            return False
    return True


def random_finite(rng, n=POINTS, density=DENSITY, mix_max=MIX_MAX):
    """A line metric and round(density * n^2) edges, drawn until both projections
    are full and the relation is primitive within mix_max steps."""
    positions = sorted(rng.sample(range(4 * POS_DEN), n))
    dist = tuple(tuple(F(abs(a - b), POS_DEN) for b in positions) for a in positions)
    while True:
        edges = set(rng.sample(range(n * n), round(density * n * n)))
        adj = tuple(tuple(i * n + j in edges for j in range(n)) for i in range(n))
        succ = [{j for j in range(n) if adj[i][j]} for i in range(n)]
        full = all(succ) and all(any(row[j] for row in adj) for j in range(n))
        if full and _bool_power_positive(succ, mix_max):
            return dist, adj


def random_sequence(rng, adjacency):
    """An admissible eventually periodic (preperiod, cycle): walk until a point repeats."""
    n = len(adjacency)
    path = [rng.randrange(n)]
    while True:
        nxt = rng.choice([j for j in range(n) if adjacency[path[-1]][j]])
        if nxt in path:
            k = path.index(nxt)
            return tuple(path[:k]), tuple(path[k:])
        path.append(nxt)


def _finite_relation(C, dist, adjacency):
    return C.FiniteRelation(C.FiniteMetricSpace(dist), adjacency)


def finite_shift_round(w, rng):
    C = w.crspec
    dist, adj = random_finite(rng)
    system = FiniteSystem(dist, adj)
    diam = max(max(row) for row in dist)
    triples = [(rng.randrange(POINTS), 1, 2), (rng.randrange(POINTS), 4, 5)]
    reqs = checks.spaced_requirements(triples)
    ops = []
    for mode, eps in (("plain", diam / 8), ("hausdorff", diam / 4)):
        def run(mode=mode, eps=eps):
            rel = _finite_relation(C, dist, adj)
            return C.find_tracer(rel, C.Specification.build(rel, triples), eps, mode)

        ops.append(Op(f"search-{mode}", run, lambda r, mode=mode, eps=eps: checks.check_search(system, reqs, mode, eps, r)))

    trip_eps = diam / 2

    def round_trip():
        rel = _finite_relation(C, dist, adj)
        spec = C.Specification.build(rel, triples)
        initial, bases = C.derive_initial(rel, spec)
        found = C.find_initial_tracer(rel, initial, trip_eps, "plain")
        lifted = C.lift_tracer(rel, spec, found.y) if hasattr(found, "y") else None
        return initial, bases, found, lifted

    def check_round_trip(result):
        initial, bases, found, lifted = result
        want_bases = tuple(
            b if first == 0 else min(system.iterate(system.point(b), first)) for b, first, _ in triples
        )
        require(tuple(bases) == want_bases, f"derived bases {bases}, expected {want_bases}")
        gaps = tuple(nxt[1] - cur[2] for cur, nxt in zip(triples, triples[1:]))
        require(tuple(initial.gaps) == gaps, "derived gaps differ")
        pairs = [(z, last - first) for z, (_, first, last) in zip(want_bases, triples)]
        require([(s.base, s.last) for s in initial.segments] == pairs, "derived segments differ")
        init_reqs = checks.initial_requirements(pairs, gaps)
        kind = checks.check_search(system, init_reqs, "plain", trip_eps, found)
        if kind == "witness":
            k1 = triples[0][1]
            want = [y for y in range(POINTS) if found.y in system.iterate(system.point(y), k1)]
            require(list(lifted.members) == want, f"lifted set {lifted.members}, expected {want}")
            for y in want:
                worst = max(d for *_, d in checks.expected_entries(system, reqs, "plain", y))
                require(worst <= trip_eps, f"lifted tracer {y} fails the spaced trace")

    ops.append(Op("round-trip", round_trip, check_round_trip))

    def mixing():
        rel = _finite_relation(C, dist, adj)
        return C.mixing_index(C.TransitionMatrix.of(rel), MIX_MAX)

    ops.append(Op("mixing", mixing, lambda index: checks.check_mixing_index(adj, MIX_MAX, index)))

    bases = [random_sequence(rng, adj) for _ in SHIFT_SEGMENTS]
    mspec_raw = [(b, first, last) for b, (first, last) in zip(bases, SHIFT_SEGMENTS)]
    candidate = random_sequence(rng, adj)

    def shift_spec(space):
        return [(space.sequence(*b), first, last) for b, first, last in mspec_raw]

    def trace():
        space = C.ShiftSpace.of(_finite_relation(C, dist, adj))
        return space.trace_check(shift_spec(space), space.sequence(*candidate), SHIFT_EPS)

    def check_trace(report):
        entries = [(e.segment, e.step, e.distance) for e in report.entries]
        checks.check_shift_trace(dist, mspec_raw, candidate, SHIFT_EPS, entries, must_pass=False)

    ops.append(Op("shift-trace", trace, check_trace))

    def splice():
        space = C.ShiftSpace.of(_finite_relation(C, dist, adj))
        spec = shift_spec(space)
        tracer = space.splice_tracer(spec, SHIFT_EPS)
        return tracer, space.trace_check(spec, tracer, SHIFT_EPS)

    def check_splice(result):
        tracer, report = result
        seq = (tuple(tracer.preperiod), tuple(tracer.cycle))
        checks.check_admissible(adj, seq)
        entries = [(e.segment, e.step, e.distance) for e in report.entries]
        checks.check_shift_trace(dist, mspec_raw, seq, SHIFT_EPS, entries, must_pass=True)

    ops.append(Op("splice", splice, check_splice))

    def words():
        space = C.ShiftSpace.of(_finite_relation(C, dist, adj))
        return len(space.admissible_words(WORD_LEN))

    ops.append(Op("words", words, lambda count: checks.check_word_count(adj, WORD_LEN, count)))
    return ops


# -- cli-scenarios ------------------------------------------------------------------


def _cli_op(C, name, scenario: Path, emit: Path, check_report):
    """One scenario file through crspec.cli.main, as a user runs it; returns the exit code."""
    argv = ["--scenario", str(scenario), "--quiet", "--emit", str(emit)]

    def run():
        return C.cli.main(argv)

    def check(code):
        require(code in (0, 1), f"exit code {code}")
        report = json.loads(emit.read_text(encoding="utf-8"))
        check_report(code, report)

    return Op(name, run, check)


def _command_checks(report, checkers):
    commands = report["commands"]
    require(len(commands) == len(checkers), "the report holds another number of commands")
    for command, checker in zip(commands, checkers):
        require(command["outcome"] != "error", f"line {command['line']}: {command.get('error')}")
        checker(command["outcome"], command["data"])


def _check_trace_search(system, reqs, mode, eps):
    def check(outcome, data):
        if outcome == "witness":
            y = data["y"]
            y = int(y) if isinstance(system, FiniteSystem) else F(y)
            checks.check_witness(system, reqs, mode, eps, y, checks.json_entries(data["report"]))
        else:
            require(outcome == "notracer", f"trace search outcome {outcome}")
            checks.check_no_tracer(system, reqs, mode, eps, checks.json_failures(data["regions"]))

    return check


def _check_certify(system, full):
    def check(outcome, data):
        if outcome == "certificate":
            checks.check_certificate(system, data["certificate"], full)
        else:
            require(outcome == "notfound", f"certify outcome {outcome}")

    return check


def interval_scenario(rng):
    """Scenario text and its command checks: many boxes, shallow exponents."""
    raw = random_tiled_boxes(rng, CLI_TILES, CLI_DEN)
    system = _box_system(raw)
    full = ((F(0), F(1)),)

    def pt():
        return F(rng.randrange(CLI_DEN + 1), CLI_DEN)

    spaced = [(pt(), 1, 2), (pt(), 3, 3)]
    pairs, gaps = [(pt(), 1), (pt(), 1)], (1,)
    head, tail = (pt(), 0, 1), pt()
    lines = ["ambient interval 0 1"]
    lines += [f"box {' '.join(fmt(v) for v in box)}" for box in raw]
    lines += ["spec S"] + [f"  segment {fmt(b)} k {k} l {l}" for b, k, l in spaced] + ["end"]
    lines += [f"ispec T gaps {gaps[0]}"] + [f"  segment {fmt(b)} l {l}" for b, l in pairs] + ["end"]
    eps = fmt(CLI_EPS)
    lines += [
        "certify common-image n0max 3",
        "certify full-image n0max 3",
        f"certify eventual-hausdorff eps {eps} n0max 3",
        "certify trivial-fiber",
        f"trace S eps {eps} mode plain",
        f"trace S eps {eps} mode hausdorff",
        f"trace T eps {eps} mode plain",
        f"trace T eps {eps} mode hausdorff",
        f"refute HSP eps {eps} n 1 2",
        f"  segment {fmt(head[0])} k {head[1]} l {head[2]}",
        f"  segment {fmt(tail)} len 0",
        "end",
    ]
    spaced_reqs = checks.spaced_requirements(spaced)
    initial_reqs = checks.initial_requirements(pairs, gaps)

    def check_refute(outcome, data):
        if outcome == "refutation":
            require([i["value"] for i in data["instantiations"]] == [1, 2], "instantiations miss a value")
            for inst in data["instantiations"]:
                start = head[2] + inst["value"]
                reqs = checks.spaced_requirements([head, (tail, start, start)])
                checks.check_no_tracer(system, reqs, "hausdorff", CLI_EPS, checks.json_failures(inst["regions"]))
        else:
            require(outcome == "inconclusive", f"refute outcome {outcome}")
            start = head[2] + data["value"]
            reqs = checks.spaced_requirements([head, (tail, start, start)])
            w = data["witness"]
            checks.check_witness(system, reqs, "hausdorff", CLI_EPS, F(w["y"]), checks.json_entries(w["report"]))

    checkers = [_check_certify(system, full)] * 4 + [
        _check_trace_search(system, spaced_reqs, "plain", CLI_EPS),
        _check_trace_search(system, spaced_reqs, "hausdorff", CLI_EPS),
        _check_trace_search(system, initial_reqs, "plain", CLI_EPS),
        _check_trace_search(system, initial_reqs, "hausdorff", CLI_EPS),
        check_refute,
    ]
    return "\n".join(lines) + "\n", checkers


def finite_scenario(rng):
    """Scenario text and its command checks: a finite ambient with mahavier commands."""
    dist, adj = random_finite(rng, n=CLI_POINTS, density=0.4)
    system = FiniteSystem(dist, adj)
    n = CLI_POINTS
    diam = max(max(row) for row in dist)
    eps = diam / 4
    spaced = [(rng.randrange(n), 1, 2), (rng.randrange(n), 4, 5)]
    seqs = {name: random_sequence(rng, adj) for name in ("A", "B", "Y")}
    mspec = [(seqs["A"], 0, 1), (seqs["B"], 6, 7)]
    lines = [f"ambient finite {n}", "matrix metric"]
    lines += ["  " + " ".join(fmt(v) for v in row) for row in dist] + ["end", "matrix adjacency"]
    lines += ["  " + " ".join("1" if v else "0" for v in row) for row in adj] + ["end"]
    lines += ["spec S"] + [f"  segment {b} k {k} l {l}" for b, k, l in spaced] + ["end"]
    for name, (pre, cyc) in seqs.items():
        pre_text = f"pre {' '.join(map(str, pre))} " if pre else ""
        lines.append(f"seq {name} {pre_text}cycle {' '.join(map(str, cyc))}")
    lines += ["mspec M", "  segment A k 0 l 1", "  segment B k 6 l 7", "end"]
    lines += [
        f"trace S eps {fmt(eps)} mode plain",
        f"trace S eps {fmt(eps)} mode hausdorff",
        "certify common-image n0max 4",
        "certify trivial-fiber",
        f"mahavier words maxlen {CLI_WORD_LEN}",
        f"mahavier mixing tmax {MIX_MAX}",
        "mahavier surjectivity",
        f"mahavier trace M y Y eps {fmt(SHIFT_EPS)}",
    ]
    reqs = checks.spaced_requirements(spaced)

    def check_words(outcome, data):
        want = checks.oracles.path_counts(adj, CLI_WORD_LEN)
        require(data["counts"] == want, f"word counts {data['counts']}, expected {want}")
        require(data["matrix_counts"] == want, "matrix-power counts differ")

    def check_mixing(outcome, data):
        checks.check_mixing_index(adj, MIX_MAX, data["index"])

    def check_surjectivity(outcome, data):
        p1 = all(any(row) for row in adj)
        p2 = all(any(row[j] for row in adj) for j in range(n))
        require((data["p1_full"], data["p2_full"]) == (p1, p2), "projections misreported")

    def check_shift(outcome, data):
        entries = [(e["segment"], e["step"], F(e["distance"])) for e in data["entries"]]
        checks.check_shift_trace(dist, mspec, seqs["Y"], SHIFT_EPS, entries, must_pass=False)

    checkers = [
        _check_trace_search(system, reqs, "plain", eps),
        _check_trace_search(system, reqs, "hausdorff", eps),
        _check_certify(system, frozenset(range(n))),
        _check_certify(system, frozenset(range(n))),
        check_words,
        check_mixing,
        check_surjectivity,
        check_shift,
    ]
    return "\n".join(lines) + "\n", checkers


def _check_bundled(code, report):
    require(code == 0 and report["ok"], "a bundled scenario misses an expect clause")


def _check_suite(code, report):
    (command,) = report["commands"]
    data = command["data"]
    require(command["outcome"] == "pass" and code == 0, "an implication failed")
    require(all(r["instances"] == CLI_SUITE_COUNT and not r["failures"] for r in data["results"]), "suite results")


def cli_round(w, rng):
    C, out = w.crspec, w.out_dir
    ops = []
    for name in BUNDLED:
        ops.append(_cli_op(C, name, w.root / "scenarios" / name, out / f"{name}.json", _check_bundled))
    generated = [(f"interval-{k}", interval_scenario) for k in range(CLI_INTERVAL)]
    generated += [(f"finite-{k}", finite_scenario) for k in range(CLI_FINITE)]
    for name, make_scenario in generated:
        text, checkers = make_scenario(rng)
        path = out / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        ops.append(
            _cli_op(C, name, path, out / f"{name}.json", lambda code, report, c=checkers: _command_checks(report, c))
        )
    # Each suite averages over 4 * CLI_SUITE_COUNT random instances, so these
    # files form a tight cluster above the interval scenarios, and op_p90_ms
    # falls inside it rather than in the tail of the interval scenarios.
    for k in range(CLI_SUITES):
        path = out / f"suite-{k}.scn"
        path.write_text(
            f"ambient interval 0 1\nbox 0 1 0 1\nsuite count {CLI_SUITE_COUNT} seed {rng.randrange(10**6)}\n",
            encoding="utf-8",
        )
        ops.append(_cli_op(C, f"suite-{k}", path, out / f"suite-{k}.json", _check_suite))
    for name, body in DANGLING.items():
        head = "ambient interval 0 1\nbox 0 1 0 1\n" if "suite" in name else MONICA_TEXT
        (out / name).write_text(head + body, encoding="utf-8")
        argv = ["--scenario", str(out / name), "--quiet", "--emit", str(out / f"{name}.json")]

        def check_exit_two(code):
            require(code == 2, f"exit code {code}, expected 2 with a line number")

        ops.append(Op(name, lambda argv=argv: C.cli.main(argv), check_exit_two))
    return ops


# -- the workloads -----------------------------------------------------------------


ROUNDS = {"box-deep": box_deep_round, "finite-shift": finite_shift_round, "cli-scenarios": cli_round}


class Workload:
    """Rounds of one workload: round 0 is built with it, later rounds when asked for."""

    def __init__(self, name, crspec, seed, out_dir):
        self.name, self.crspec, self.seed, self.out_dir = name, crspec, seed, out_dir
        self.root = Path(__file__).resolve().parent.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        self._first = self._build(0)

    def _build(self, index):
        return ROUNDS[self.name](self, rng_for(self.name, self.seed, index))

    def round(self, index):
        if index == 0 and self._first is not None:
            first, self._first = self._first, None
            return first
        return self._build(index)
