"""Exact closed-set arithmetic on the two ambient space kinds.

Sets on an interval ambient are canonical finite unions of closed rational
intervals (:class:`IntervalUnion`); sets on a finite metric space are sorted
index tuples (:class:`PointSet`).  All endpoints and distances are
:class:`fractions.Fraction`, so every comparison in the library is exact:
equalities like ``hausdorff == 1`` are meaningful, not approximate.

Distance semantics:

* ``set_distance(A, B)`` is the infimum of pairwise distances; it is zero
  exactly when the closed sets intersect.
* ``hausdorff(A, B)`` is the classical Hausdorff metric.  For interval
  unions the supremum of ``d(a, B)`` over ``a`` is attained at a part
  endpoint of ``A`` or at a gap midpoint of ``B``, so it is computed from
  those finitely many candidates.
* ``neighborhood(eps, A)`` returns the *closed* eps-neighborhood clipped to
  the ambient space, which keeps every set type closed under all operations;
  with closed neighborhoods, ``hausdorff(A, B) <= eps`` holds iff each set
  is contained in the eps-neighborhood of the other, boundary cases included.

Everything here is immutable and safe to share between threads.  An
:class:`IntervalUnion` computes its hash once, when it is built, since
unions are the keys of the per-relation memos in :mod:`crspec.relations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import EmptySetError

RationalLike = Union[int, str, Fraction]


def rat(value: RationalLike) -> Fraction:
    """Coerce to an exact rational; floats are refused, never rounded.

    A Fraction comes back as it is, since every endpoint and metric entry passes here.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, a 'p/q' string or a Fraction")
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Interval:
    """A closed rational interval [lo, hi]; lo == hi encodes a point."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def point_distance(self, x: Fraction) -> Fraction:
        """Distance from the point x to this closed interval."""
        if x < self.lo:
            return self.lo - x
        if x > self.hi:
            return x - self.hi
        return Fraction(0)

    def __str__(self):
        if self.is_point:
            return f"{{{self.lo}}}"
        return f"[{self.lo}, {self.hi}]"


def normalize(parts: Iterable[Interval]) -> "IntervalUnion":
    """Canonicalize a list of closed intervals into an IntervalUnion.

    Sorting by left endpoint and merging any pair that overlaps or touches
    yields the unique shortest representation of the same point set.  The
    empty input produces the (representable) empty union.
    """
    ordered = sorted(parts)
    merged: list[Interval] = []
    for part in ordered:
        if merged and part.lo <= merged[-1].hi:
            if part.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, part.hi)
        else:
            merged.append(part)
    return IntervalUnion(tuple(merged))


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of closed rational intervals.

    Parts are sorted, pairwise disjoint and non-touching.  Construct through
    :func:`normalize` or the classmethods; the constructor only verifies
    canonicity, it does not repair it.
    """

    parts: tuple[Interval, ...]

    def __post_init__(self):
        for a, b in zip(self.parts, self.parts[1:]):
            if b.lo <= a.hi:
                raise ValueError("parts must be sorted, disjoint and non-touching; use normalize()")
        # hashing a Fraction takes a modular inverse, and unions key every memo
        object.__setattr__(self, "_hash", hash(self.parts))

    def __hash__(self):
        return self._hash

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def point(cls, x: RationalLike) -> "IntervalUnion":
        x = rat(x)
        return cls((Interval(x, x),))

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        return cls((Interval(rat(lo), rat(hi)),))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: Fraction) -> bool:
        return any(p.contains(x) for p in self.parts)

    def min_point(self) -> Fraction:
        if self.is_empty:
            raise EmptySetError("empty set has no minimum")
        return self.parts[0].lo

    def max_point(self) -> Fraction:
        if self.is_empty:
            raise EmptySetError("empty set has no maximum")
        return self.parts[-1].hi

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return normalize(self.parts + other.parts)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for p in self.parts:
            for q in other.parts:
                lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)
                if lo <= hi:
                    out.append(Interval(lo, hi))
        return normalize(out)

    def subset_of(self, other: "IntervalUnion") -> bool:
        return all(
            any(q.lo <= p.lo and p.hi <= q.hi for q in other.parts) for p in self.parts
        )

    def point_distance(self, x: Fraction) -> Fraction:
        """Distance from the point x to this non-empty closed set."""
        if self.is_empty:
            raise EmptySetError("distance to the empty set is undefined")
        return min(p.point_distance(x) for p in self.parts)

    def __str__(self):
        if self.is_empty:
            return "{}"
        return " u ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class IntervalSpace:
    """An ambient interval [lo, hi] with the absolute-value metric."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo >= self.hi:
            raise ValueError("ambient interval must have positive length")

    def full(self) -> IntervalUnion:
        return IntervalUnion.closed(self.lo, self.hi)

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def point(self, x: RationalLike) -> IntervalUnion:
        x = rat(x)
        if not self.contains(x):
            raise ValueError(f"point {x} outside ambient [{self.lo}, {self.hi}]")
        return IntervalUnion.point(x)

    def diameter(self) -> Fraction:
        return self.hi - self.lo

    def set_distance(self, a: IntervalUnion, b: IntervalUnion) -> Fraction:
        """inf of pairwise distances between two non-empty closed sets."""
        if a.is_empty or b.is_empty:
            raise EmptySetError("set_distance needs non-empty sets")
        best = None
        for p in a.parts:
            for q in b.parts:
                gap = max(Fraction(0), q.lo - p.hi, p.lo - q.hi)
                if best is None or gap < best:
                    best = gap
                if best == 0:
                    return best
        return best

    def _directed_hausdorff(self, a: IntervalUnion, b: IntervalUnion) -> Fraction:
        # sup over a in A of d(a, B): d(., B) is piecewise linear with local
        # maxima only at gap midpoints of B, so endpoints of A's parts plus
        # those midpoints that fall inside A are the only candidates.
        candidates = []
        for p in a.parts:
            candidates.append(p.lo)
            candidates.append(p.hi)
        for q1, q2 in zip(b.parts, b.parts[1:]):
            mid = (q1.hi + q2.lo) / 2
            if a.contains(mid):
                candidates.append(mid)
        return max(b.point_distance(c) for c in candidates)

    def hausdorff(self, a: IntervalUnion, b: IntervalUnion) -> Fraction:
        """Hausdorff distance between two non-empty closed sets, exact."""
        if a.is_empty or b.is_empty:
            raise EmptySetError("hausdorff needs non-empty sets")
        return max(self._directed_hausdorff(a, b), self._directed_hausdorff(b, a))

    def neighborhood(self, eps: RationalLike, a: IntervalUnion) -> IntervalUnion:
        """Closed eps-neighborhood of a non-empty set, clipped to the ambient."""
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if a.is_empty:
            raise EmptySetError("neighborhood of the empty set is undefined")
        grown = [
            Interval(max(self.lo, p.lo - eps), min(self.hi, p.hi + eps)) for p in a.parts
        ]
        return normalize(grown)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class PointSet:
    """A set of point indices into a finite metric space, sorted and unique."""

    members: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.members, self.members[1:])):
            raise ValueError("members must be strictly increasing; use PointSet.of()")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "PointSet":
        return cls(tuple(sorted(set(indices))))

    @classmethod
    def empty(cls) -> "PointSet":
        return cls(())

    @classmethod
    def point(cls, i: int) -> "PointSet":
        return cls((i,))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def contains(self, i: int) -> bool:
        return i in self.members

    def min_point(self) -> int:
        if self.is_empty:
            raise EmptySetError("empty set has no minimum")
        return self.members[0]

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet.of(self.members + other.members)

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet.of(set(self.members) & set(other.members))

    def subset_of(self, other: "PointSet") -> bool:
        return set(self.members) <= set(other.members)

    def __str__(self):
        return "{" + ", ".join(str(m) for m in self.members) + "}"


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of validate_metric: ok, or the axiom and witness that failed."""

    ok: bool
    axiom: str | None = None
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by its full rational distance matrix."""

    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        frozen = tuple(tuple(rat(v) for v in row) for row in self.dist)
        object.__setattr__(self, "dist", frozen)
        n = len(frozen)
        if n == 0 or any(len(row) != n for row in frozen):
            raise ValueError("distance matrix must be square and non-empty")

    @classmethod
    def discrete(cls, n: int) -> "FiniteMetricSpace":
        """The discrete metric: every pair of distinct points at distance 1."""
        return cls(
            tuple(
                tuple(Fraction(0) if i == j else Fraction(1) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def n(self) -> int:
        return len(self.dist)

    def full(self) -> PointSet:
        return PointSet.of(range(self.n))

    def point(self, i: int) -> PointSet:
        if not 0 <= i < self.n:
            raise ValueError(f"point index {i} out of range 0..{self.n - 1}")
        return PointSet.point(i)

    def diameter(self) -> Fraction:
        return max(v for row in self.dist for v in row)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def set_distance(self, a: PointSet, b: PointSet) -> Fraction:
        if a.is_empty or b.is_empty:
            raise EmptySetError("set_distance needs non-empty sets")
        return min(self.dist[i][j] for i in a.members for j in b.members)

    def hausdorff(self, a: PointSet, b: PointSet) -> Fraction:
        if a.is_empty or b.is_empty:
            raise EmptySetError("hausdorff needs non-empty sets")
        ab = max(min(self.dist[i][j] for j in b.members) for i in a.members)
        ba = max(min(self.dist[i][j] for i in a.members) for j in b.members)
        return max(ab, ba)

    def neighborhood(self, eps: RationalLike, a: PointSet) -> PointSet:
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if a.is_empty:
            raise EmptySetError("neighborhood of the empty set is undefined")
        return PointSet.of(
            i for i in range(self.n) if min(self.dist[i][j] for j in a.members) <= eps
        )

    def rescale(self, factor: Fraction) -> "FiniteMetricSpace":
        """Divide every distance by a positive factor."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return FiniteMetricSpace(
            tuple(tuple(v / factor for v in row) for row in self.dist)
        )


def validate_metric(space: FiniteMetricSpace) -> MetricCheck:
    """Check symmetry, identity of indiscernibles and the triangle inequality.

    The first violated axiom is reported together with the offending indices.
    """
    d = space.dist
    n = space.n
    for i in range(n):
        if d[i][i] != 0:
            return MetricCheck(False, "identity", (i,))
    for i in range(n):
        for j in range(n):
            if i != j and d[i][j] <= 0:
                return MetricCheck(False, "positivity", (i, j))
            if d[i][j] != d[j][i]:
                return MetricCheck(False, "symmetry", (i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return MetricCheck(False, "triangle", (i, j, k))
    return MetricCheck(True)
