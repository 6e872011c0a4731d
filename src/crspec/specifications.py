"""Orbit-segment specifications and exact eps-tracing.

A *specification* is a finite tuple of orbit segments; an *initial*
specification starts every segment at exponent 0 and carries a vector of
positive gaps.  Either kind is its *requirement table*: the triples
``(segment i, step j, tracer power)``, built once per specification.  A
candidate tracer ``y`` passes when, for every requirement, the distance
between the tracer's iterate at that power and the segment's iterate at
step j stays within ``eps``:

* plain mode compares with the min set distance,
* hausdorff mode compares with the Hausdorff distance.

The two kinds differ only in the powers: a spaced requirement reads power
j, and an initial one shifts it by the accumulated segment lengths and
gaps.  So one checker (:func:`check_trace`) and one search
(:func:`find_tracer`) serve both; ``check_initial_trace`` and
``find_initial_tracer`` keep the initial names over the same bodies.

Tracer search is an exact decision, not a sampling heuristic.  It runs one
loop over the relation's regions (see :mod:`crspec.relations`): the cells of
a box relation or the points of a finite one.  Every distance with tracer
exponent >= 1 depends only on the region of ``y``.  A point region is
decided by the report at the point.  In a cell, each exponent-0 requirement
(one per segment that starts at 0) constrains ``y`` to the closed interval
``|y - x_i| <= eps``, and together they pin ``y`` to one closed window, which
narrows the cell.  The search therefore either produces a witness or an
exhaustive per-region failure table that covers all of X, and it returns the
first witness it finds.

Every iterate is read off the relation's memoized per-region orbit, and
every distance through the relation's distance memo.  A search builds one
report per failing region, at its representative, and reads the region's
verdict from the report's region-constant entries.  So the orbit sweeps and
distance evaluations behind a check or a search grow with the transients
and periods of the orbits it touches, not with the exponents written in the
specification; each distinct pair of sets is measured once per relation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    EmptyImageError,
    NonPositiveGapError,
    NoPreimageError,
    SizeMismatchError,
)
from .relations import (
    Cell,
    FiniteRelation,
    OrbitSegment,
    Relation,
    cell_of,
    rat,
)
from .sets import PointSet, memo_property


@dataclass(frozen=True)
class Specification:
    """A tuple of orbit segments, in tracing order; power j is traced at step j."""

    segments: tuple[OrbitSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a specification needs at least one segment")

    @classmethod
    def build(cls, relation: Relation, triples: Sequence[tuple]) -> "Specification":
        """Build segments from (base, first, last) triples."""
        return cls(tuple(relation.orbit_segment(b, k, l) for b, k, l in triples))

    @memo_property
    def requirements(self) -> tuple[tuple[int, int, int], ...]:
        """(segment i, step j, tracer power) triples; power equals j."""
        return tuple(
            (i, j, j)
            for i, seg in enumerate(self.segments, start=1)
            for j in range(seg.first, seg.last + 1)
        )

    @memo_property
    def targets(self) -> tuple:
        """The target set F^j(x_i) of each requirement (i, j, power), in the same order."""
        segments = self.segments
        return tuple(segments[i - 1].set_at(j) for i, j, _ in self.requirements)


@dataclass(frozen=True)
class InitialSpecification(Specification):
    """A specification whose segments all start at exponent 0, plus n-1 positive gap lengths."""

    gaps: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        if any(seg.first != 0 for seg in self.segments):
            raise ValueError("initial segments must start at exponent 0")
        if len(self.gaps) != len(self.segments) - 1:
            raise ValueError("need exactly n-1 gaps")
        if any(m < 1 for m in self.gaps):
            raise ValueError("gaps must be positive")

    @classmethod
    def build(cls, relation: Relation, pairs: Sequence[tuple], gaps: Sequence[int]) -> "InitialSpecification":
        """Build segments from (base, last) pairs and a gap vector."""
        return cls(
            tuple(relation.orbit_segment(b, 0, l) for b, l in pairs), tuple(gaps)
        )

    @memo_property
    def requirements(self) -> tuple[tuple[int, int, int], ...]:
        """Segment i's tracer powers are shifted by the lengths and gaps before it."""
        reqs = []
        offset = 0
        for i, (seg, gap) in enumerate(zip(self.segments, self.gaps + (0,)), start=1):
            reqs += [(i, j, offset + j) for j in range(seg.last + 1)]
            offset += seg.last + gap
        return tuple(reqs)


@dataclass(frozen=True, init=False)
class TraceEntry:
    """One compared pair: segment i at step j, against the tracer's power.

    A report builds one per requirement.  A frozen dataclass's own
    ``__init__`` sets each field through ``object.__setattr__``; this one
    fills the instance dict in one update, in a third of the time.
    """

    segment: int
    step: int
    tracer_power: int
    distance: Fraction
    tracer_set: object
    target_set: object

    def __init__(self, segment, step, tracer_power, distance, tracer_set, target_set):
        self.__dict__.update(
            segment=segment,
            step=step,
            tracer_power=tracer_power,
            distance=distance,
            tracer_set=tracer_set,
            target_set=target_set,
        )


@dataclass(frozen=True)
class TraceReport:
    """All compared distances for one candidate tracer, with the verdict."""

    mode: str
    eps: Fraction
    entries: tuple[TraceEntry, ...]

    @property
    def passed(self) -> bool:
        return _within(self.entries, self.eps)

    @property
    def worst(self) -> TraceEntry:
        """The first entry of greatest distance, the one ``max`` by distance returns.

        One pass over the entries compares slot ints as :func:`_within` does:
        d > w exactly when d.num * w.den > w.num * d.den.
        """
        best = self.entries[0]
        num, den = best.distance._numerator, best.distance._denominator
        for e in self.entries:
            d = e.distance
            if d._numerator * den > num * d._denominator:
                best, num, den = e, d._numerator, d._denominator
        return best

    def entry(self, segment: int, step: int) -> TraceEntry:
        for e in self.entries:
            if e.segment == segment and e.step == step:
                return e
        raise KeyError((segment, step))


def _within(entries, eps: Fraction) -> bool:
    """Whether every entry's distance is at most eps.

    Each test cross-multiplies the reduced numerators and denominators, read
    from their slots as :func:`~crspec.sets.common_grid` reads them: d <= eps
    exactly when d.num * eps.den <= eps.num * d.den, as denominators are
    positive.  No ``Fraction.__le__`` runs.
    """
    num, den = eps._numerator, eps._denominator
    return all(e.distance._numerator * den <= num * e.distance._denominator for e in entries)


@dataclass(frozen=True)
class TracerWitness:
    """A point whose report passes, with the region the search drew it from."""

    y: object
    region: object
    report: TraceReport


@dataclass(frozen=True)
class RegionFailure:
    """One region of the exhaustive search, refuted at its representative."""

    region: object
    representative: object
    report: TraceReport


@dataclass(frozen=True)
class NoTracer:
    """Proof that no tracer exists: a failing report for every region of X."""

    failures: tuple[RegionFailure, ...]

    def worst_by_region(self) -> tuple[Fraction, ...]:
        return tuple(f.report.worst.distance for f in self.failures)


SearchResult = Union[TracerWitness, NoTracer]


def _report(relation, spec, y, eps, mode) -> TraceReport:
    """The report at y; {y} is built only when a power-0 requirement reads it."""
    orbit = relation.orbit(y)
    origin = None
    entries = []
    for (i, j, power), target in zip(spec.requirements, spec.targets):
        if power:
            tracer = orbit.value_at(power)
        elif origin is None:
            tracer = origin = relation.point_set(y)
        else:
            tracer = origin
        distance = relation.distance(mode, tracer, target)
        entries.append(TraceEntry(i, j, power, distance, tracer, target))
    return TraceReport(mode, rat(eps), tuple(entries))


def check_trace(relation: Relation, spec: Specification, y, eps, mode: str) -> TraceReport:
    """Exact distances for every (i, j) the spec requires, spaced or initial."""
    return _report(relation, spec, y, eps, mode)


def check_initial_trace(
    relation: Relation, spec: InitialSpecification, y, eps, mode: str
) -> TraceReport:
    """The initial name of :func:`check_trace`, over the same body."""
    return _report(relation, spec, y, eps, mode)


def _cell_witness(cell, rep, report, zero_bases, eps):
    """The point of the cell to offer as a witness, or None when no point of it passes.

    Entries with power >= 1 are constant on the cell, so the report at rep
    reads them.  Each power-0 requirement (i, 0) asks |y - x_i| <= eps, so
    together they pin y to the closed window [max x_i - eps, min x_i + eps].
    Its meet with the cell keeps the cell's closedness at a shared end; the
    witness is x_1 when the meet holds it, else the meet's midpoint.
    """
    if not _within((e for e in report.entries if e.tracer_power >= 1), eps):
        return None
    if not zero_bases:
        return rep
    lo, hi = max(cell.lo, max(zero_bases) - eps), min(cell.hi, min(zero_bases) + eps)
    lo_closed, hi_closed = lo != cell.lo or cell.lo_closed, hi != cell.hi or cell.hi_closed
    if lo > hi or lo == hi and not (lo_closed and hi_closed):
        return None
    x = zero_bases[0]
    if lo <= x <= hi and (x != lo or lo_closed) and (x != hi or hi_closed):
        return x
    return (lo + hi) / 2


def _search(relation, spec, eps, mode) -> SearchResult:
    """Decide each region exactly from the report at its representative.

    A point region is yielded as its own representative, so its report
    decides it; a cell is decided by :func:`_cell_witness`.
    """
    eps = rat(eps)
    zero_bases = [spec.segments[i - 1].base for i, _, power in spec.requirements if power == 0]
    failures = []
    for region, rep in relation.regions():
        report = check_trace(relation, spec, rep, eps, mode)
        if region is rep:
            if report.passed:
                return TracerWitness(rep, region, report)
        else:
            y = _cell_witness(region, rep, report, zero_bases, eps)
            if y is not None:
                if y != rep:
                    report = check_trace(relation, spec, y, eps, mode)
                if not report.passed:
                    raise AssertionError("cell-level pass must yield a passing witness")
                return TracerWitness(y, region, report)
        failures.append(RegionFailure(region, rep, report))
    return NoTracer(tuple(failures))


def find_tracer(relation: Relation, spec: Specification, eps, mode: str) -> SearchResult:
    """Decide whether some y in X traces the spaced or initial spec; exact either way."""
    return _search(relation, spec, eps, mode)


def find_initial_tracer(
    relation: Relation, spec: InitialSpecification, eps, mode: str
) -> SearchResult:
    """The initial name of :func:`find_tracer`, over the same body."""
    return _search(relation, spec, eps, mode)


def derive_initial(relation: Relation, spec: Specification) -> tuple[InitialSpecification, tuple]:
    """Rebase an N-spaced specification at exponent 0.

    Each new base is the minimum element of F^{first_i}(x_i), the gap vector
    is first_{i+1} - last_i, and the new segment lengths are last_i - first_i.
    The chosen bases are returned alongside as provenance.
    """
    gaps = []
    for cur, nxt in zip(spec.segments, spec.segments[1:]):
        gap = nxt.first - cur.last
        if gap < 1:
            raise NonPositiveGapError(
                f"segments at exponents {cur.last} and {nxt.first} leave no positive gap"
            )
        gaps.append(gap)
    bases = tuple(seg.set_at(seg.first).min_point() for seg in spec.segments)
    segments = tuple(
        relation.orbit_segment(z, 0, seg.last - seg.first)
        for z, seg in zip(bases, spec.segments)
    )
    return InitialSpecification(segments, tuple(gaps)), bases


def lift_tracer(relation: Relation, spec: Specification, z):
    """The full preimage set {y : z in F^{first_1}(y)}.

    Returns a PointSet on finite spaces and a tuple of cells on box
    relations (the set need not be closed: it is a union of cells).
    Raises ValueError when z lies outside the space, and NoPreimageError
    when no such y exists.
    """
    k1 = spec.segments[0].first
    origin = relation.point_set(z)
    z = origin.min_point()
    finite = isinstance(relation, FiniteRelation)
    if k1 == 0:
        return origin if finite else (Cell(z, z, True, True, cell_of(relation, z).pattern),)
    hits = []
    for region, _ in relation.regions():
        try:
            if relation.orbit(region).value_at(k1).contains(z):
                hits.append(region)
        except EmptyImageError:
            continue
    if not hits:
        raise NoPreimageError(f"no point reaches {z} in {k1} steps")
    return PointSet.of(hits) if finite else tuple(hits)


def conjugacy_transport(phi: Sequence[int], spec: Specification, relation: FiniteRelation) -> Specification:
    """Pull a specification back through a conjugating bijection.

    ``phi`` maps indices of the target system's space onto indices of the
    source system's space (phi: X -> Y); bases are mapped through its
    inverse and segments are rebuilt in ``relation`` (the X side).
    Indices (first/last, gaps) are untouched.
    """
    n = relation.space.n
    if len(phi) != n or sorted(phi) != list(range(n)):
        raise SizeMismatchError("phi must be a bijection on the space's indices")
    inverse = {phi[x]: x for x in range(n)}
    return replace(
        spec,
        segments=tuple(
            relation.orbit_segment(inverse[seg.base], seg.first, seg.last) for seg in spec.segments
        ),
    )
