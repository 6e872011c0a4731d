"""Independent checks of crspec's answers.

Nothing here calls crspec.  Iterated sets come from the raw box or
adjacency data through this module's own image functions, interval
distances from ``tests/oracles.py``, and finite and shift-space distances
from the raw metric matrix.  Every check raises :class:`CheckFailed` with a
reason, or returns None.

Sets are kept in raw form: an interval union is a sorted tuple of
``(lo, hi)`` Fraction pairs, a finite set a frozenset of point indices.
Results are passed in a neutral form, so that the library's objects and the
CLI's JSON reports go through the same checks:

* a witness is ``(y, entries)``,
* a failure table is a list of ``(region, representative, entries)``,

where ``entries`` is a list of ``(segment, step, power, distance)`` and a
region is ``(lo, hi, lo_closed, hi_closed)`` on an interval, or a point
index on a finite space.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

import oracles  # tests/oracles.py


class CheckFailed(AssertionError):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


_Part = namedtuple("_Part", "lo hi")
_Union = namedtuple("_Union", "parts")


def _as_union(parts):
    return _Union(tuple(_Part(lo, hi) for lo, hi in parts))


def union(parts) -> tuple:
    """Canonical form of a list of closed intervals: sorted, merged."""
    out = []
    for lo, hi in sorted(parts):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


class BoxSystem:
    """A box relation as raw data, with memoized images of interval unions."""

    def __init__(self, lo, hi, boxes):
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        self.boxes = tuple(boxes)  # ((a_lo, a_hi), (b_lo, b_hi)) pairs
        self._image, self._distance = {}, {}

    def image(self, s: tuple) -> tuple:
        out = self._image.get(s)
        if out is None:
            out = union(
                b for a, b in self.boxes if any(a[0] <= hi and lo <= a[1] for lo, hi in s)
            )
            self._image[s] = out
        return out

    def point(self, y) -> tuple:
        return ((Fraction(y), Fraction(y)),)

    def iterate(self, s: tuple, power: int) -> tuple:
        for _ in range(power):
            s = self.image(s)
            require(s, "an iterate is empty")
        return s

    def distance(self, mode: str, a: tuple, b: tuple) -> Fraction:
        key = (mode, a, b)
        out = self._distance.get(key)
        if out is None:
            fn = oracles.set_distance if mode == "plain" else oracles.hausdorff
            out = self._distance[key] = fn(_as_union(a), _as_union(b))
        return out

    def other_point(self, region) -> Fraction:
        """A member of a non-point region other than its midpoint."""
        lo, hi, _, _ = region
        return lo + (hi - lo) / 4

    def check_partition(self, regions):
        """The regions tile [lo, hi]: every point lies in exactly one of them."""
        require(regions, "no regions")
        cursor, covered = self.lo, False  # leftmost point not yet passed, and whether it is covered
        for lo, hi, lo_closed, hi_closed in sorted(regions, key=lambda r: (r[0], not r[2])):
            require(lo < hi or (lo == hi and lo_closed and hi_closed), "a malformed region")
            require(lo == cursor, f"regions leave a hole or overlap at {cursor}")
            require(lo_closed != covered, f"regions overlap or leave out the point {lo}")
            cursor, covered = hi, hi_closed
        require(cursor == self.hi and covered, "regions do not reach the right end")


class FiniteSystem:
    """A finite relation as raw data: metric matrix and adjacency rows."""

    def __init__(self, dist, adjacency):
        self.dist = dist
        self.adjacency = adjacency
        self.n = len(dist)
        self._succ = [frozenset(j for j, v in enumerate(row) if v) for row in adjacency]
        self._image = {}

    def image(self, s: frozenset) -> frozenset:
        out = self._image.get(s)
        if out is None:
            out = frozenset().union(*(self._succ[i] for i in s))
            self._image[s] = out
        return out

    def point(self, y) -> frozenset:
        return frozenset((int(y),))

    def iterate(self, s, power: int):
        for _ in range(power):
            s = self.image(s)
            require(s, "an iterate is empty")
        return s

    def distance(self, mode: str, a, b) -> Fraction:
        d = self.dist
        if mode == "plain":
            return min(d[i][j] for i in a for j in b)
        return max(
            max(min(d[i][j] for j in b) for i in a),
            max(min(d[i][j] for i in a) for j in b),
        )

    def check_partition(self, regions):
        require(sorted(regions) == list(range(self.n)), "regions are not the points 0..n-1")


def spaced_requirements(segments):
    """(segment, step, power, base) for spaced tracing of (base, first, last) triples."""
    return [
        (i, j, j, base)
        for i, (base, first, last) in enumerate(segments, start=1)
        for j in range(first, last + 1)
    ]


def initial_requirements(pairs, gaps):
    """(segment, step, power, base) for initial tracing of (base, last) pairs."""
    reqs, offset = [], 0
    for i, (base, last) in enumerate(pairs, start=1):
        reqs.extend((i, j, offset + j, base) for j in range(last + 1))
        if i <= len(gaps):
            offset += last + gaps[i - 1]
    return reqs


def expected_entries(system, reqs, mode, y):
    """Recomputed (segment, step, power, distance) for tracer y."""
    start = system.point(y)
    tracer, done, out = start, 0, []
    for i, j, power, base in sorted(reqs, key=lambda r: r[2]):
        tracer = system.iterate(tracer, power - done)
        done = power
        target = system.iterate(system.point(base), j)
        out.append((i, j, power, system.distance(mode, tracer, target)))
    return sorted(out)


def check_entries(system, reqs, mode, y, entries):
    """Reported entries are exactly the required ones, at the recomputed distances."""
    want = expected_entries(system, reqs, mode, y)
    got = sorted((int(i), int(j), int(p), Fraction(d)) for i, j, p, d in entries)
    require(
        [w[:3] for w in want] == [g[:3] for g in got],
        f"tracer {y}: reported entries do not cover the required (segment, step) pairs",
    )
    for w, g in zip(want, got):
        require(w[3] == g[3], f"tracer {y}: distance at {w[:2]} is {g[3]}, recomputed {w[3]}")
    return want


def check_witness(system, reqs, mode, eps, y, entries):
    for i, j, _, d in check_entries(system, reqs, mode, y, entries):
        require(d <= eps, f"witness {y}: distance {d} at ({i}, {j}) exceeds eps {eps}")


def check_no_tracer(system, reqs, mode, eps, failures, worst=None):
    """Regions tile X, and every region fails at its representative and elsewhere.

    ``worst``, when given, is the exact worst every region must report.
    """
    system.check_partition([region for region, _, _ in failures])
    for region, rep, entries in failures:
        if isinstance(system, BoxSystem):
            lo, hi, lo_closed, hi_closed = region
            inside = (lo < rep < hi) or (rep == lo and lo_closed) or (rep == hi and hi_closed)
            require(inside, f"representative {rep} lies outside its region")
        else:
            require(rep == region, "a finite region is its own representative")
        recomputed = check_entries(system, reqs, mode, rep, entries)
        top = max(d for _, _, _, d in recomputed)
        require(top > eps, f"region with representative {rep} does not fail: worst {top}")
        if worst is not None:
            require(top == worst, f"region with representative {rep}: worst {top}, expected {worst}")
        if isinstance(system, BoxSystem) and region[0] != region[1]:
            other = system.other_point(region)
            again = max(d for _, _, _, d in expected_entries(system, reqs, mode, other))
            require(again > eps, f"point {other} of a refuted region traces within eps")


# -- neutral forms of library results ---------------------------------------


def entries_of(report):
    return [(e.segment, e.step, e.tracer_power, e.distance) for e in report.entries]


def region_of(region):
    if isinstance(region, int):
        return region
    return (region.lo, region.hi, region.lo_closed, region.hi_closed)


def check_search(system, reqs, mode, eps, result, worst=None):
    """A library TracerWitness or NoTracer, checked independently."""
    if hasattr(result, "failures"):
        failures = [(region_of(f.region), f.representative, entries_of(f.report)) for f in result.failures]
        check_no_tracer(system, reqs, mode, eps, failures, worst)
        return "notracer"
    require(worst is None, "a refutation was expected, a witness came back")
    check_witness(system, reqs, mode, eps, result.y, entries_of(result.report))
    return "witness"


# -- neutral forms of JSON report fields -------------------------------------

_CELL = re.compile(r"^([\[(])(-?\d+(?:/\d+)?), (-?\d+(?:/\d+)?)([\])])$")
_POINT = re.compile(r"^\{(-?\d+(?:/\d+)?)\}$")


def parse_region(text: str):
    """A region label as the CLI prints it: '{x}', '[a, b)', ... or a point index."""
    m = _POINT.match(text)
    if m:
        x = Fraction(m.group(1))
        return (x, x, True, True)
    m = _CELL.match(text)
    if m:
        return (Fraction(m.group(2)), Fraction(m.group(3)), m.group(1) == "[", m.group(4) == "]")
    require(re.match(r"^\d+$", text), f"unparsable region {text!r}")
    return int(text)


def json_entries(report: dict):
    return [(e["segment"], e["step"], e["power"], Fraction(e["distance"])) for e in report["entries"]]


def json_failures(regions: list):
    out = []
    for r in regions:
        region = parse_region(r["region"])
        rep = int(r["representative"]) if isinstance(region, int) else Fraction(r["representative"])
        out.append((region, rep, json_entries(r["report"])))
    return out


def region_point(region):
    """A member of a region, for quantities that are constant on it."""
    if isinstance(region, int):
        return region
    lo, hi, _, _ = region
    return (lo + hi) / 2


# -- certificates -------------------------------------------------------------


def eventual_orbit(system, y):
    """(sets F^1.., transient, period) from own iteration until the first repeat."""
    seen, seq, s = {}, [], system.image(system.point(y))
    while s not in seen:
        require(s, "an orbit dies")
        seen[s] = len(seq)
        seq.append(s)
        s = system.image(s)
    return seq, seen[s], len(seq) - seen[s]


def _value_at(orbit, j):
    seq, transient, period = orbit
    idx = j - 1
    return seq[idx] if idx < len(seq) else seq[transient + (idx - transient) % period]


def check_certificate(system, cert: dict, full: tuple | frozenset):
    """A CLI certificate payload against own iteration from region points."""
    kind, n0 = cert["kind"], cert.get("n0")
    ev = cert["evidence"]
    if kind == "common-image":
        labels = {parse_region(t) for item in ev for t in item["pair"]}
        for item in ev:
            pt = Fraction(item["common_point"]) if isinstance(system, BoxSystem) else int(item["common_point"])
            for label in item["pair"]:
                s = system.iterate(system.point(region_point(parse_region(label))), n0)
                inside = any(lo <= pt <= hi for lo, hi in s) if isinstance(system, BoxSystem) else pt in s
                require(inside, f"common point {pt} is not in F^{n0} of region {label}")
        require(len(ev) == len(labels) * (len(labels) - 1) // 2, "common-image evidence misses a pair")
    elif kind == "full-image":
        for item in ev:
            s = system.iterate(system.point(region_point(parse_region(item["region"]))), n0)
            require(s == full, f"F^{n0} of region {item['region']} is not the whole space")
        if isinstance(system, BoxSystem):
            system.check_partition([parse_region(item["region"]) for item in ev])
    elif kind in ("eventual-hausdorff", "eventual-equal"):
        eps = Fraction(cert["eps"])
        orbits = {}
        for item in ev:
            for label in item["pair"]:
                if label not in orbits:
                    orbits[label] = eventual_orbit(system, region_point(parse_region(label)))
            oa, ob = orbits[item["pair"][0]], orbits[item["pair"][1]]
            end = max(n0, max(oa[1], ob[1]) + 1) + math.lcm(oa[2], ob[2]) - 1
            worst = max(
                system.distance("hausdorff", _value_at(oa, j), _value_at(ob, j))
                for j in range(n0, end + 1)
            )
            require(worst == Fraction(item["worst"]), f"eventual worst {item['worst']}, recomputed {worst}")
            require(worst <= eps, "eventual worst exceeds eps")
            if kind == "eventual-equal":
                require(worst == 0, "eventual-equal with a positive spread")
    elif kind == "trivial-fiber":
        x0 = Fraction(ev["x0"]) if isinstance(system, BoxSystem) else int(ev["x0"])
        check_trivial_fiber(system, x0)
    else:
        raise CheckFailed(f"unknown certificate kind {kind!r}")


def check_trivial_fiber(system, x0):
    """x0 lies in F(x) for every x of the space."""
    if isinstance(system, FiniteSystem):
        for x in range(system.n):
            require(x0 in system.image(system.point(x)), f"x0 {x0} is not in F({x})")
        return
    cuts = sorted({system.lo, system.hi} | {e for a, _ in system.boxes for e in a})
    probes = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    for x in probes:
        require(
            any(lo <= x0 <= hi for lo, hi in system.image(system.point(x))),
            f"x0 {x0} is not in F({x})",
        )


# -- shift spaces ---------------------------------------------------------------


def symbol(seq, m: int) -> int:
    """The m-th symbol (1-based) of a (preperiod, cycle) pair."""
    pre, cyc = seq
    idx = m - 1
    return pre[idx] if idx < len(pre) else cyc[(idx - len(pre)) % len(cyc)]


def check_admissible(adjacency, seq):
    pre, cyc = seq
    horizon = len(pre) + len(cyc)
    for m in range(1, horizon + 1):
        a, b = symbol(seq, m), symbol(seq, m + 1)
        require(adjacency[a][b], f"sequence steps {a} -> {b} outside the relation")


def sup_metric(dist, seq_a, seq_b, shift: int) -> Fraction:
    """max over m >= 1 of d(a_{shift+m}, b_{shift+m}) / (diam * 2^m), exact.

    After both preperiods the symbol pairs repeat with the lcm of the cycle
    lengths while the weights keep halving, so the maximum is attained
    within that window.
    """
    diam = max(v for row in dist for v in row) or Fraction(1)
    horizon = max(len(seq_a[0]), len(seq_b[0])) + math.lcm(len(seq_a[1]), len(seq_b[1]))
    return max(
        Fraction(dist[symbol(seq_a, shift + m)][symbol(seq_b, shift + m)]) / (diam * 2**m)
        for m in range(1, horizon + 1)
    )


def check_shift_trace(dist, spec, y, eps, entries, must_pass: bool):
    """Shift-space trace entries (segment, step, distance) against own sup metric."""
    want = [
        (i, j, sup_metric(dist, y, base, j))
        for i, (base, first, last) in enumerate(spec, start=1)
        for j in range(first, last + 1)
    ]
    got = [(int(i), int(j), Fraction(d)) for i, j, d in entries]
    require(want == got, f"shift trace entries {got} differ from recomputed {want}")
    if must_pass:
        require(all(d <= eps for _, _, d in want), "the tracer does not pass")


def check_word_count(adjacency, length: int, count: int):
    want = oracles.path_counts(adjacency, length)[length - 1]
    require(count == want, f"{count} admissible words of length {length}, expected {want}")


def check_mixing_index(adjacency, t_max: int, index):
    first = next(
        (t for t in range(1, t_max + 1) if oracles.matrix_power_positive(adjacency, t)), None
    )
    require(index == first, f"mixing index {index}, expected {first}")
