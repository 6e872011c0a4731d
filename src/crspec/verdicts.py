"""Certificates, bounded refutations, and randomized implication suites.

None of the four global properties (plain/Hausdorff, spaced/initial) is
decidable from finitely many evaluations in general, so this module never
claims to decide them.  It produces three kinds of evidence instead:

* a :class:`Certificate` that a sufficient condition holds -- a common
  image, a full image, an eventually small Hausdorff spread, eventually
  equal images, or a full-width fiber ``X x {x0}`` inside the relation.
  Certificates carry enough per-region data to be re-checked independently
  (:func:`recheck`).
* a :class:`Refutation`: for one fixed eps and one specification template,
  every tested spacing (or gap) admits no tracer, witnessed by an exhaustive
  per-cell failure table for each instantiation.  Because tracer search is
  exact on cells, a refutation is a proof for the tested range, not a
  sampling result.  Each phase class of values past the orbits' transient
  is searched once; a later value's table is the search's own, run only
  when the table is read (see below).
* an :class:`Inconclusive` outcome carrying the tracer that defeated the
  attempted refutation.

The four properties are one table, ``PROPERTIES``: property -> (distance
mode, template kind).  SP and HSP are refuted on spaced templates, ISP and
HISP on initial ones; either instantiates to a specification that the one
tracer search reads through its requirement table.

The "for all j" in the eventual conditions is made finite through the
eventual periodicity of per-cell iterates: checking one preperiod-plus-cycle
window per cell pair covers every exponent.  The same periodicity bounds the
search over n0: past the largest transient plus the lcm of the periods (plus
one, for the eventual conditions) no new n0 can succeed, so a certificate
search stops there whatever n0_max it was given.

The same periodicity decides a refutation from one window of values.  Let
T be the largest transient and P the lcm of the periods of the region
orbits, so that F^{j+P} = F^j for every j > T on every region orbit.  Every
set a search compares is F^j of some region orbit: the tracer's iterates
are its region's orbit, and every base's orbit is its region's orbit.  A
value v moves the exponents of segment i >= 2 by (i - 1) v: the tracer
powers, and for a spaced template the steps too; segment 1, the target
sets of an initial template and the power-0 requirements do not move.
Once the smallest moving exponent (the first tail step ``head.last + N``,
or the second segment's first tracer power ``last_1 + m``) exceeds T,
every moving exponent does, so two such values v = v0 (mod P) compare the
same pairs of sets and have the same table, entry for entry, up to the
shift (i - 1)(v - v0) of the exponents.  :func:`refute_property` searches
the first value of each phase class past T; a later one's table is the
search's own, run when read.
It reads (T, P) only from orbits that some search has already swept to
their first repeat; while one is open, or has died, every value is
searched in full.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Union

from . import randgen
from .relations import MODES, FiniteRelation, Orbit, OrbitSegment, Relation
from .sets import rat
from .specifications import (
    InitialSpecification,
    NoTracer,
    Specification,
    TracerWitness,
    check_trace,
    conjugacy_transport,
    derive_initial,
    find_tracer,
    lift_tracer,
)


def _eventual_orbits(relation: Relation) -> list[tuple[object, Orbit]]:
    """(region label, closed orbit of F^1, F^2, ...) for each cell or point.

    Requires p1(F) = X; a region whose orbit dies raises EmptyImageError
    naming the failing exponent.
    """
    return [(region, relation.orbit(region).close()) for region, _ in relation.regions()]


def _phase_window(relation: Relation) -> tuple[int, int] | None:
    """(T, P), the largest transient and the lcm of the periods of the region orbits.

    None while some region orbit is still open or has died; nothing is swept.
    """
    windows = [relation.orbit(region).swept_window for region, _ in relation.regions()]
    if None in windows:
        return None
    return max(t for t, _ in windows), math.lcm(*(p for _, p in windows))


def _last_n0(relation: Relation, n0_max: int, image: bool) -> int:
    """The largest n0 a certificate search needs to try, at most n0_max.

    With (T, L) the :func:`_phase_window`, read once :func:`_eventual_orbits`
    has closed every region orbit, the tuple of every region's F^{n0}
    repeats with period L from n0 = T + 1 on, so an image condition that
    holds for no n0 <= T + L holds for none.  The eventual worst of a pair
    does not grow with n0 and is constant from T + 1 on, so an eventual
    condition needs no n0 beyond T + 1.
    """
    transient, period = _phase_window(relation)
    return min(n0_max, transient + (period if image else 1))


def _eventual_worst(relation: Relation, oa: Orbit, ob: Orbit, n0: int) -> Fraction:
    """max over j >= n0 of H_d(F^j(x), F^j(y)) for closed orbits of x and y.

    From max(n0, T + 1) on, with T the larger transient, the pair of sets
    repeats with the lcm of the periods, so one such window covers every j.
    Each distance comes from the relation's memo, so the windows of
    successive n0 measure each pair of sets once.
    """
    transient = max(oa.transient, ob.transient)
    end = max(n0, transient + 1) + math.lcm(oa.period, ob.period) - 1
    return max(
        relation.distance("hausdorff", oa.value_at(j), ob.value_at(j)) for j in range(n0, end + 1)
    )


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence that a sufficient condition holds."""

    kind: str
    n0: int | None
    eps: Fraction | None
    evidence: tuple

    def __str__(self):
        head = f"certificate[{self.kind}]"
        if self.n0 is not None:
            head += f" n0={self.n0}"
        if self.eps is not None:
            head += f" eps={self.eps}"
        return head


def certify_common_image(relation: Relation, n0_max: int) -> Certificate | None:
    """Smallest n0 <= n0_max with F^{n0}(x) and F^{n0}(y) meeting for all x, y.

    Evidence lists one common point per region pair, the least one.  Each
    distinct pair of n0-th sets is met once per call, by one merge of their
    sorted parts, and its answer is kept under both orders, so the evidence
    of a region pair is read off that memo.  Requires p1(F) = X; a dying
    orbit raises EmptyImageError.
    """
    orbits = _eventual_orbits(relation)
    commons: dict = {}  # (set, set), both orders -> their least common point, or None
    for n0 in range(1, _last_n0(relation, n0_max, image=True) + 1):
        sets = [orbit.value_at(n0) for _, orbit in orbits]
        for a, b in combinations_with_replacement(dict.fromkeys(sets), 2):
            if (a, b) not in commons:
                commons[a, b] = commons[b, a] = a.first_common_point(b)
            if commons[a, b] is None:
                break
        else:
            pairs = combinations(zip((label for label, _ in orbits), sets), 2)
            evidence = tuple(((la, lb), commons[a, b]) for (la, a), (lb, b) in pairs)
            return Certificate("common-image", n0, None, evidence)
    return None


def certify_full_image(relation: Relation, n0_max: int) -> Certificate | None:
    """Smallest n0 <= n0_max with F^{n0}(y) = X for every y."""
    full = relation.space.full()
    orbits = _eventual_orbits(relation)
    for n0 in range(1, _last_n0(relation, n0_max, image=True) + 1):
        values = [(label, orbit.value_at(n0)) for label, orbit in orbits]
        if all(v == full for _, v in values):
            return Certificate("full-image", n0, None, tuple(values))
    return None


def certify_eventual_hausdorff(relation: Relation, eps, n0_max: int) -> Certificate | None:
    """Smallest n0 <= n0_max with H_d(F^{n0+j}(x), F^{n0+j}(y)) <= eps for ALL j >= 0.

    Eventual periodicity reduces "for all j" to one preperiod-plus-cycle
    window per region pair.  When all images coincide exactly from n0 on,
    the certificate is tagged eventual-equal (the stronger condition).
    """
    eps = rat(eps)
    orbits = _eventual_orbits(relation)
    for n0 in range(1, _last_n0(relation, n0_max, image=False) + 1):
        evidence = []
        for (la, oa), (lb, ob) in combinations(orbits, 2):
            worst = _eventual_worst(relation, oa, ob, n0)
            if worst > eps:
                break
            evidence.append(((la, lb), worst))
        else:
            kind = "eventual-hausdorff" if any(w > 0 for _, w in evidence) else "eventual-equal"
            return Certificate(kind, n0, eps, tuple(evidence))
    return None


def _fiber(relation: Relation):
    """The intersection of F(y) over one y in each cell or point: every x0 with
    X x {x0} inside F.  Unlike an orbit's sets, it may be empty."""
    images = (relation.first_image(region) for region, _ in relation.regions())
    return reduce(lambda common, image: common.intersect(image), images)


def certify_trivial_fiber(relation: Relation) -> Certificate | None:
    """A point x0 with the full-width fiber X x {x0} contained in F.

    Such an x0 belongs to F(x) for every x, i.e. to the intersection of the
    per-region first images; the minimum of that intersection is reported.
    """
    common = _fiber(relation)
    if common.is_empty:
        return None
    return Certificate("trivial-fiber", None, None, (common.min_point(), common))


def recheck(relation: Relation, certificate: Certificate) -> bool:
    """Re-evaluate a certificate's evidence against the relation.

    Each kind reads only what its evidence needs: a trivial fiber reads the
    first images and no orbit, and must store their intersection and its
    least point, as the certifier does; a common or full image reads each
    region's orbit at n0, swept only that far; only the eventual kinds close
    orbits.
    The evidence must name exactly what the certifiers write, else the
    recheck fails: every region, in ``regions()`` order, for a full image,
    and every unordered region pair, in ``itertools.combinations`` order,
    for the pair kinds.  Orbits and distances come from the relation's
    memos, so a recheck that shares nothing with the certifier needs a
    freshly built relation.
    """
    kind, n0, evidence = certificate.kind, certificate.n0, certificate.evidence
    if kind == "trivial-fiber":
        fiber = _fiber(relation)
        return not fiber.is_empty and tuple(evidence) == (fiber.min_point(), fiber)
    if kind not in ("common-image", "full-image", "eventual-hausdorff", "eventual-equal"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    labels = [region for region, _ in relation.regions()]
    keys = labels if kind == "full-image" else list(combinations(labels, 2))
    if [key for key, _ in evidence] != keys:
        return False
    if kind == "full-image":
        full = relation.space.full()
        return all(relation.orbit(x).value_at(n0) == full == stored for x, stored in evidence)
    if kind == "common-image":
        level = {label: relation.orbit(label).value_at(n0) for label in labels}
        return all(level[la].contains(pt) and level[lb].contains(pt) for (la, lb), pt in evidence)
    orbits = dict(_eventual_orbits(relation))  # closed: a dying orbit raises, as in the certifier
    for (la, lb), stored in evidence:
        worst = _eventual_worst(relation, orbits[la], orbits[lb], n0)
        if worst != stored or worst > certificate.eps or (kind == "eventual-equal" and worst != 0):
            return False
    return True


@dataclass(frozen=True)
class SpacedTemplate:
    """A spacing-parameterized specification scheme.

    The head segment is fixed at (base, first, last); each tail segment
    (base, length) starts exactly N steps after the previous one ends, the
    tightest N-spacing and therefore the hardest case for a refutation.
    """

    head: tuple
    tail: tuple[tuple, ...]

    def instantiate(self, relation: Relation, n: int) -> Specification:
        triples = [self.head, *((b, 0, 0) for b, _ in self.tail)]
        return self.respaced(Specification.build(relation, triples), n)

    def respaced(self, spec: Specification, n: int) -> Specification:
        """The instance at spacing n, from spec, a specification of the same bases.

        Each tail segment keeps its base's point set and orbit and takes the
        exponents of spacing n, sweeping its orbit; the head is spec's own.
        """
        segments = [spec.segments[0]]
        for seg, (_, length) in zip(spec.segments[1:], self.tail):
            start = segments[-1].last + n
            segments.append(OrbitSegment(seg.base, start, start + length, seg.origin, seg.orbit))
        return Specification(tuple(segments))

    def first_moving(self, n: int) -> int:
        """The smallest exponent that moves with the spacing: the first tail step."""
        return self.head[2] + n


@dataclass(frozen=True)
class InitialTemplate:
    """An initial-specification scheme with every gap set to the parameter m."""

    segments: tuple[tuple, ...]

    def instantiate(self, relation: Relation, m: int) -> InitialSpecification:
        return InitialSpecification.build(
            relation, self.segments, (m,) * (len(self.segments) - 1)
        )

    def respaced(self, spec: InitialSpecification, m: int) -> InitialSpecification:
        """The instance at gap m, from spec, the instance at another gap: its segments."""
        return InitialSpecification(spec.segments, (m,) * len(spec.gaps))

    def first_moving(self, m: int) -> int:
        """The smallest tracer power that moves with the gap: the second segment's first."""
        return self.segments[0][1] + m


Template = Union[SpacedTemplate, InitialTemplate]

# property -> (distance mode, template kind)
PROPERTIES = {
    "SP": ("plain", SpacedTemplate),
    "HSP": ("hausdorff", SpacedTemplate),
    "ISP": ("plain", InitialTemplate),
    "HISP": ("hausdorff", InitialTemplate),
}


@dataclass(frozen=True)
class Instantiation:
    """One tested spacing/gap value and its exhaustive failure table."""

    value: int
    outcome: NoTracer


@dataclass(frozen=True, eq=False, repr=False)
class _Instantiations(Sequence):
    """The tables of a refutation's values; slices are tuples.

    A searched value reads its own table.  Any other value's phase class was
    refuted, so its table is the search's own, run when read on the template
    respaced from ``spec`` (a witness there is a fault): no base is looked up again.
    """

    relation: Relation
    template: Template
    spec: Specification
    eps: Fraction
    mode: str
    values: tuple[int, ...]
    searched: dict[int, NoTracer]

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        value = self.values[index]
        if value in self.searched:
            return Instantiation(value, self.searched[value])
        spec = self.template.respaced(self.spec, value)
        result = find_tracer(self.relation, spec, self.eps, self.mode)
        if isinstance(result, TracerWitness):
            raise AssertionError(f"value {value} has a tracer, but its phase class was refuted")
        return Instantiation(value, result)

    def __eq__(self, other):
        if isinstance(other, (tuple, _Instantiations)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class Refutation:
    """No tracer for any tested instantiation of the template at this eps."""

    property: str
    eps: Fraction
    template: Template
    values: tuple[int, ...]
    instantiations: Sequence[Instantiation]


@dataclass(frozen=True)
class Inconclusive:
    """The refutation attempt failed: some instantiation admits a tracer."""

    property: str
    eps: Fraction
    value: int
    witness: TracerWitness


def refute_property(
    relation: Relation, prop: str, eps, template: Template, values: Iterable[int]
) -> Refutation | Inconclusive:
    """Try to refute a specification-type property on a template of instances.

    The values are read once, in order, and must not be empty.  Each value
    is decided by the exact tracer search in the property's mode, unless the
    region orbits' window (T, P) is known, the value is past T and its phase
    class was already searched (see the module docstring).  The result is a
    Refutation only if every instantiation yields NoTracer, and an
    Inconclusive at the first value that admits a tracer.  A searched value
    keeps its table; any other value's table is the search's own, run when
    read, so every recorded distance is measured and replays exactly.
    The template is instantiated once, at the first value, and respaced for
    every value, so each base's point set and orbit are found once.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"property must be one of {tuple(PROPERTIES)}")
    eps = rat(eps)
    mode, kind = PROPERTIES[prop]
    if not isinstance(template, kind):
        raise ValueError(f"{prop} needs {'a spaced' if kind is SpacedTemplate else 'an initial'} template")
    values = tuple(values)
    if not values:
        raise ValueError("a refutation needs at least one value")
    spec = template.instantiate(relation, values[0])
    window = None
    decided: set[int] = set()  # the phases with a value searched past T
    searched: dict[int, NoTracer] = {}

    def phase(value: int) -> int | None:
        if window is None or value < 1 or template.first_moving(value) <= window[0]:
            return None
        return value % window[1]

    for value in values:
        if phase(value) in decided:
            continue
        result = find_tracer(relation, template.respaced(spec, value), eps, mode)
        if isinstance(result, TracerWitness):
            return Inconclusive(prop, eps, value, result)
        searched[value] = result
        if window is None:
            window = _phase_window(relation)
            fresh = searched if window is not None else ()  # every value so far was searched
        else:
            fresh = (value,)
        decided.update(key for key in map(phase, fresh) if key is not None)

    tables = _Instantiations(relation, template, spec, eps, mode, values, searched)
    return Refutation(prop, eps, template, values, tables)


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one randomized implication: instance count and failures."""

    name: str
    instances: int
    failures: tuple[str, ...]
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_hausdorff_implies_plain(seed: int, count: int) -> PropertyVerdict:
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        relation = randgen.random_box_relation(rng)
        triples = randgen.random_spaced_triples(rng, relation, rng.randrange(1, 4), rng.randrange(1, 4))
        spec = Specification.build(relation, triples)
        y = randgen.random_point(rng, relation)
        eps = randgen.random_fraction(rng)
        hd = check_trace(relation, spec, y, eps, "hausdorff")
        plain = check_trace(relation, spec, y, eps, "plain")
        if hd.passed and not plain.passed:
            failures.append(f"instance {idx}: hausdorff passed but plain failed")
        if any(p.distance > h.distance for p, h in zip(plain.entries, hd.entries)):
            failures.append(f"instance {idx}: min distance exceeded hausdorff distance")
    return PropertyVerdict("hausdorff-pass-implies-plain-pass", count, tuple(failures), seed)


def _suite_initial_round_trip(seed: int, count: int) -> PropertyVerdict:
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        space = randgen.random_finite_space(rng, rng.randrange(2, 7))
        relation = randgen.random_finite_relation(rng, space, p1_full=True, p2_full=True)
        triples = randgen.random_spaced_triples(
            rng, relation, rng.randrange(2, 4), rng.randrange(1, 4), max_len=2, max_first=2
        )
        spec = Specification.build(relation, triples)
        eps = space.diameter() / 2
        initial, _bases = derive_initial(relation, spec)
        found = find_tracer(relation, initial, eps, "plain")
        if not isinstance(found, TracerWitness):
            continue
        lifted = lift_tracer(relation, spec, found.y)
        for y in lifted.members:
            if not check_trace(relation, spec, y, eps, "plain").passed:
                failures.append(f"instance {idx}: lifted tracer {y} fails the spaced trace")
    return PropertyVerdict("initial-to-spaced-round-trip", count, tuple(failures), seed)


def _suite_conjugacy_invariance(seed: int, count: int) -> PropertyVerdict:
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        n = rng.randrange(2, 7)
        space, perm = randgen.random_isometric_space(rng, n)
        source = randgen.random_finite_relation(rng, space, p1_full=True)
        target = FiniteRelation.from_pairs(
            space, [(perm[a], perm[b]) for a, b in source.pairs()]
        )
        triples = randgen.random_spaced_triples(rng, target, rng.randrange(1, 3), rng.randrange(1, 3))
        spec_target = Specification.build(target, triples)
        spec_source = conjugacy_transport(perm, spec_target, source)
        eps = randgen.random_fraction(rng, Fraction(0), space.diameter())
        mode = rng.choice(MODES)
        for x in range(n):
            rs = check_trace(source, spec_source, x, eps, mode)
            rt = check_trace(target, spec_target, perm[x], eps, mode)
            if [e.distance for e in rs.entries] != [e.distance for e in rt.entries]:
                failures.append(f"instance {idx}: distances differ at point {x}")
                break
        found_source = find_tracer(source, spec_source, eps, mode)
        found_target = find_tracer(target, spec_target, eps, mode)
        if isinstance(found_source, TracerWitness) != isinstance(found_target, TracerWitness):
            failures.append(f"instance {idx}: verdicts differ under conjugacy")
    return PropertyVerdict("isometric-conjugacy-invariance", count, tuple(failures), seed)


def _suite_function_agreement(seed: int, count: int) -> PropertyVerdict:
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        space = randgen.random_finite_space(rng, rng.randrange(2, 7))
        relation = randgen.random_function_relation(rng, space)
        fmap = [row.index(True) for row in relation.adjacency]
        triples = randgen.random_spaced_triples(rng, relation, rng.randrange(1, 4), rng.randrange(1, 4))
        spec = Specification.build(relation, triples)
        y = rng.randrange(space.n)
        eps = randgen.random_fraction(rng, Fraction(0), space.diameter())
        plain = check_trace(relation, spec, y, eps, "plain")
        haus = check_trace(relation, spec, y, eps, "hausdorff")
        for pe, he in zip(plain.entries, haus.entries):
            fy, fx = y, spec.segments[pe.segment - 1].base
            for _ in range(pe.step):
                fy, fx = fmap[fy], fmap[fx]
            classical = space.d(fy, fx)
            if pe.distance != classical or he.distance != classical:
                failures.append(f"instance {idx}: relation trace deviates from the function trace")
                break
    return PropertyVerdict("function-relation-agreement", count, tuple(failures), seed)


def implication_suite(seed: int, count: int) -> list[PropertyVerdict]:
    """Run the four per-instance implications on seeded random systems.

    Every failure message carries enough to reproduce: the suite seed is
    echoed in each verdict and instances are generated deterministically.
    """
    return [
        _suite_hausdorff_implies_plain(seed, count),
        _suite_initial_round_trip(seed + 1, count),
        _suite_conjugacy_invariance(seed + 2, count),
        _suite_function_agreement(seed + 3, count),
    ]
