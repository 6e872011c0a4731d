"""Exact closed-set arithmetic on the two ambient space kinds.

Sets on an interval ambient are canonical finite unions of closed rational
intervals (:class:`IntervalUnion`); a set on a finite metric space is an int
mask, bit i for point i (:class:`PointSet`).  All endpoints and distances
are exact rationals, so every comparison in the library is exact:
equalities like ``hausdorff == 1`` are meaningful, not approximate.

An interval union *is* its integer grid: ``den``, the lcm of its endpoints'
reduced denominators, and ``ends``, the endpoints lo_0, hi_0, lo_1, hi_1, ...
as ints over ``den``.  For one point set that pair is unique, so unions are
built, hashed and compared on it, and every operation on unions (images,
distances, membership, intersection) works on ints.  ``Fraction`` values are
made only where a caller reads them: ``parts``, ``min_point``,
``max_point``, the text, and a returned distance or common point.

Two unions are read on the lcm of their denominators, and a union already
on it keeps its own ends, so each operation reads each union's ends once.
:meth:`IntervalUnion.intersect` and the least common point walk one merge of
the sorted parts, the latter only to the first overlap; membership of a point
is one bisection.  ``set_distance`` and ``hausdorff`` keep walks of their
own, over the gaps and gap midpoints that an intersection drops; a directed
Hausdorff term is kept doubled, so that every gap midpoint is an int.

A finite metric space checks and freezes its matrix in C-level passes,
reading the lcm of its entries' denominators on the way, and converts only
entries that are not yet ``Fraction`` values.  On first use it puts the
entries on that grid (see :func:`common_grid`), by row and by column, and a
distance returns the original matrix entry.
The grid also records whether the diagonal is zero and no entry negative,
which every matrix that passes :func:`validate_metric` satisfies.  Then a
point of both sets is at distance 0 from the other set: ``set_distance`` is
0 as soon as the sets meet, and each directed Hausdorff term runs over the
points of its set that the other lacks, so a distance reads |A - B|*|B| +
|B - A|*|A| entries, not |A|*|B|.  For any other matrix nothing is skipped.

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
:class:`IntervalUnion` computes its hash once, when it is built, from its
grid, and a :class:`PointSet` hashes as its mask, since sets are the keys of
the per-relation memos in :mod:`crspec.relations`.  A value worked out on
first use, such as a metric's grid, is kept by :class:`memo_property` in the
instance's own dict, with no lock.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import lshift, or_
from typing import Iterable, Sequence, Union

from .errors import EmptySetError

RationalLike = Union[int, str, Fraction]


class memo_property:
    """A property computed on first read and kept in the instance's dict.

    It is a non-data descriptor, so every later read is a plain instance-dict
    hit.  Unlike ``functools.cached_property`` before Python 3.12, the first
    read takes no class-wide lock: two threads that race both compute, and
    each stores an equal value.  It writes the dict directly, so it works on
    frozen dataclasses.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def rat(value: RationalLike) -> Fraction:
    """Coerce to an exact rational; floats are refused, never rounded.

    A Fraction comes back as it is, since every endpoint and metric entry passes here.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, a 'p/q' string or a Fraction")
    return Fraction(value)


def common_grid(values: Sequence[Fraction], den: int | None = None) -> tuple[int, list[int]]:
    """(den, ints): the rationals as ints over den, the lcm of their denominators.

    Every value is a ``Fraction``, and its reduced numerator and denominator
    are read from its slots: ``numerator``, ``denominator`` and
    ``as_integer_ratio`` are Python-level calls, which cost more than the
    arithmetic on the 400 entries of a 20-point metric.  This is the one
    routine that turns ``Fraction`` values into grid ints; a caller that
    already knows the lcm passes it as ``den``.
    """
    if den is None:
        den = lcm(*{v._denominator for v in values})
    return den, [v._numerator * (den // v._denominator) for v in values]


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

    def __str__(self):
        if self.is_point:
            return f"{{{self.lo}}}"
        return f"[{self.lo}, {self.hi}]"


def merged_ends(pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The ends lo_0, hi_0, lo_1, hi_1, ... of the union of closed int intervals.

    ``pairs`` must come sorted by their lower end; any two that overlap or
    touch are merged, which leaves the unique shortest list of parts.
    """
    ends: list[int] = []
    for lo, hi in pairs:
        if ends and lo <= ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            ends += (lo, hi)
    return ends


def _pairs(ends: Sequence[int]) -> list[tuple[int, int]]:
    """The (lo, hi) pairs of a flat list of ends."""
    return list(zip(ends[::2], ends[1::2]))


def normalize(parts: Iterable[Interval]) -> "IntervalUnion":
    """Canonicalize a list of closed intervals into an IntervalUnion.

    Sorting by left endpoint and merging any pair that overlaps or touches
    yields the unique shortest representation of the same point set.  The
    empty input produces the (representable) empty union.
    """
    den, ints = common_grid([x for p in parts for x in (p.lo, p.hi)])
    return IntervalUnion.on_grid(den, merged_ends(sorted(_pairs(ints))))


class _Frozen:
    """Refuses assignment and deletion; subclasses fill their slots through ``__set__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class IntervalUnion(_Frozen):
    """Canonical finite union of closed rational intervals, held on its integer grid.

    Its grid ``(den, ends)`` is the module docstring's; parts are sorted,
    pairwise disjoint and non-touching.  Construct through
    :func:`normalize`, :meth:`on_grid` or the other classmethods;
    ``IntervalUnion(parts)`` and :meth:`on_grid` only verify canonicity,
    they do not repair it.
    """

    __slots__ = ("den", "ends", "_hash")

    def __init__(self, parts: Iterable[Interval]):
        den, ends = common_grid([x for p in parts for x in (p.lo, p.hi)])
        _fill(self, den, tuple(ends))

    @classmethod
    def on_grid(cls, den: int, ends: Sequence[int]) -> "IntervalUnion":
        """The union of the parts [ends[0] / den, ends[1] / den], ... .

        ``den`` may be any positive multiple of the canonical one: one gcd
        reduces it and the ends.
        """
        if den < 1 or len(ends) % 2:
            raise ValueError("a grid needs a positive den and an even number of ends")
        g = gcd(den, *ends)
        if g == 1:
            return _fill(cls.__new__(cls), den, tuple(ends))
        return _fill(cls.__new__(cls), den // g, tuple(e // g for e in ends))

    def __eq__(self, other):
        if other.__class__ is not IntervalUnion:
            return NotImplemented
        return self.den == other.den and self.ends == other.ends

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return IntervalUnion.on_grid, (self.den, self.ends)

    @property
    def parts(self) -> tuple[Interval, ...]:
        """The parts as closed intervals with ``Fraction`` endpoints, in order."""
        den, ends = self.den, self.ends
        return tuple(Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in _pairs(ends))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls.on_grid(1, ())

    @classmethod
    def point(cls, x: RationalLike) -> "IntervalUnion":
        x = rat(x)
        return cls.on_grid(x.denominator, (x.numerator, x.numerator))

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        return cls((Interval(rat(lo), rat(hi)),))

    @property
    def is_empty(self) -> bool:
        return not self.ends

    def contains(self, x: RationalLike) -> bool:
        x = rat(x)
        return _holds(self.ends, x._numerator * self.den, x._denominator)

    def min_point(self) -> Fraction:
        if self.is_empty:
            raise EmptySetError("empty set has no minimum")
        return Fraction(self.ends[0], self.den)

    def max_point(self) -> Fraction:
        if self.is_empty:
            raise EmptySetError("empty set has no maximum")
        return Fraction(self.ends[-1], self.den)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return normalize(self.parts + other.parts)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """The overlaps of the two unions' parts are the parts."""
        den, ea, eb = _shared_grid(self, other)
        return IntervalUnion.on_grid(den, [end for part in _overlaps(ea, eb) for end in part])

    def first_common_point(self, other: "IntervalUnion") -> Fraction | None:
        """The least point of both unions, or None when they do not meet: the
        lower end of the first overlap, with the merge stopped there."""
        den, ea, eb = _shared_grid(self, other)
        for lo, _ in _overlaps(ea, eb):
            return Fraction(lo, den)
        return None

    def subset_of(self, other: "IntervalUnion") -> bool:
        return self.intersect(other) == self

    def __str__(self):
        if self.is_empty:
            return "{}"
        return " u ".join(str(p) for p in self.parts)

    def __repr__(self):
        return f"IntervalUnion(parts={self.parts!r})"


_set_den, _set_ends, _set_hash = (
    IntervalUnion.den.__set__, IntervalUnion.ends.__set__, IntervalUnion._hash.__set__
)


def _fill(union: IntervalUnion, den: int, ends: tuple[int, ...]) -> IntervalUnion:
    """Set a new union's grid once its ends pass the canonicity check:
    lo_k <= hi_k < lo_(k+1) for every part k."""
    it = iter(ends)
    top = None
    for lo in it:
        hi = next(it)
        if hi < lo or (top is not None and lo <= top):
            raise ValueError("parts must be sorted, disjoint and non-touching; use normalize()")
        top = hi
    _set_den(union, den)
    _set_ends(union, ends)
    # unions key every memo; a tuple of ints hashes without a modular inverse
    _set_hash(union, hash((den, ends)))
    return union


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
        den, ea, eb = _shared_grid(a, b)
        # walk both sorted part lists; the nearest pair of parts is adjacent in the merge
        best, i, j = None, 0, 0
        while i < len(ea) and j < len(eb):
            if ea[i + 1] < eb[j]:
                gap = eb[j] - ea[i + 1]
                i += 2
            elif eb[j + 1] < ea[i]:
                gap = ea[i] - eb[j + 1]
                j += 2
            else:
                return Fraction(0)
            if best is None or gap < best:
                best = gap
        return Fraction(best, den)

    def hausdorff(self, a: IntervalUnion, b: IntervalUnion) -> Fraction:
        """Hausdorff distance between two non-empty closed sets, exact."""
        if a.is_empty or b.is_empty:
            raise EmptySetError("hausdorff needs non-empty sets")
        den, ea, eb = _shared_grid(a, b)
        return Fraction(max(_directed_hausdorff(ea, eb), _directed_hausdorff(eb, ea)), 2 * den)

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


def _shared_grid(a: IntervalUnion, b: IntervalUnion) -> tuple:
    """(den, ends of a, ends of b): both unions' endpoints as ints over the lcm
    of their denominators; a union already on that den keeps its own ends."""
    da, ea = a.den, a.ends
    db, eb = b.den, b.ends
    if da == db:
        return da, ea, eb
    den = lcm(da, db)
    if den != da:
        fa = den // da
        ea = [v * fa for v in ea]
    if den != db:
        fb = den // db
        eb = [v * fb for v in eb]
    return den, ea, eb


def _overlaps(ea: Sequence[int], eb: Sequence[int]):
    """(lo, hi) of each overlap of two unions' parts, in order, their ends on
    one grid: one merge of the two sorted part lists, run as far as it is read."""
    i = j = 0
    while i < len(ea) and j < len(eb):
        lo, hi = max(ea[i], eb[j]), min(ea[i + 1], eb[j + 1])
        if lo <= hi:
            yield lo, hi
        if ea[i + 1] < eb[j + 1]:
            i += 2
        else:
            j += 2


def _holds(ends: Sequence[int], num: int, den: int) -> bool:
    """Whether the union with these grid ends holds the value num / den (den > 0).

    With c the ceiling of num / den, the value lies in (c - 1, c].  One
    bisection finds the first end at or above c: an odd index is a part's
    upper end whose part holds (c - 1, c], and an even one a lower end,
    which holds the value only when equal to it.
    """
    i = bisect_left(ends, -(-num // den))
    return i & 1 == 1 or (i < len(ends) and ends[i] * den == num)


def _directed_hausdorff(ea: Sequence[int], eb: Sequence[int]) -> int:
    """Twice sup over a in A of d(a, B), both unions' ends on one integer grid.

    d(., B) is piecewise linear with local maxima only at gap midpoints of
    B, so endpoints of A's parts plus those midpoints that fall inside A are
    the only candidates.  A midpoint lies half its gap away from B: in
    doubled units the gap itself, and twice the midpoint is eb[k] + eb[k + 1].
    """
    last = len(eb)
    far = 0
    for x in ea:
        i = bisect_left(eb, x)
        if i & 1:
            continue
        if i == 0:
            d = eb[0] - x
        elif i == last:
            d = x - eb[-1]
        else:
            d = eb[i] - x
            if x - eb[i - 1] < d:
                d = x - eb[i - 1]
        if d > far:
            far = d
    far *= 2
    for k in range(1, last - 1, 2):
        lo, hi = eb[k], eb[k + 1]
        if hi - lo > far and _holds(ea, lo + hi, 2):
            far = hi - lo
    return far


class PointSet(_Frozen):
    """A set of point indices into a finite metric space, held as one int mask.

    Bit i of ``mask`` stands for point i, so the mask alone is the set: it
    is hashed and compared on it, and union, intersection, inclusion,
    membership and the least (common) point are single int operations.
    ``members``, the indices in ascending order, is read off the mask once,
    on first use, by printing and by the distance kernels.  ``PointSet(members)``
    and :meth:`of` take the indices in any order, repeats included; no mask
    holds a negative index, so one is refused when the set is built.  Two
    slots and no instance dict: an orbit can keep 10^5 sets and more.
    """

    __slots__ = ("mask", "_members")

    def __init__(self, members: Iterable[int]):
        try:
            _set_mask(self, reduce(or_, map(lshift, repeat(1), members), 0))
        except ValueError:
            raise ValueError("point indices must be non-negative") from None

    @classmethod
    def _of_mask(cls, mask: int) -> "PointSet":
        """The set whose mask is the non-negative int mask."""
        s = object.__new__(cls)
        _set_mask(s, mask)
        return s

    @classmethod
    def of(cls, indices: Iterable[int]) -> "PointSet":
        return cls(indices)

    @classmethod
    def empty(cls) -> "PointSet":
        return cls._of_mask(0)

    @classmethod
    def point(cls, i: int) -> "PointSet":
        return cls._of_mask(1 << i)

    def __eq__(self, other):
        if other.__class__ is not PointSet:
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self):
        # an int too wide for a hash is hashed again by the interpreter
        return self.mask

    def __reduce__(self):
        return PointSet._of_mask, (self.mask,)

    @property
    def members(self) -> tuple[int, ...]:
        """The indices of the set bits, ascending."""
        try:
            return self._members
        except AttributeError:
            _set_members(self, bit_indices(self.mask))
            return self._members

    @property
    def is_empty(self) -> bool:
        return not self.mask

    def contains(self, i: int) -> bool:
        return i >= 0 and self.mask >> i & 1 == 1

    def min_point(self) -> int:
        mask = self.mask
        if not mask:
            raise EmptySetError("empty set has no minimum")
        return (mask & -mask).bit_length() - 1

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet._of_mask(self.mask | other.mask)

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet._of_mask(self.mask & other.mask)

    def first_common_point(self, other: "PointSet") -> int | None:
        """The least member of both sets, or None when they do not meet."""
        common = self.mask & other.mask
        return (common & -common).bit_length() - 1 if common else None

    def subset_of(self, other: "PointSet") -> bool:
        return not self.mask & ~other.mask

    def __str__(self):
        return "{" + ", ".join(str(m) for m in self.members) + "}"

    def __repr__(self):
        return f"PointSet(members={self.members!r})"


_set_mask, _set_members = PointSet.mask.__set__, PointSet._members.__set__


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_indices(mask: int) -> tuple[int, ...]:
    """The indices of a non-negative int's set bits, ascending: its binary
    digits, lowest first, as bytes 0 and 1 select from ``count()``."""
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_FLAGS)))


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of validate_metric: ok, or the axiom and witness that failed."""

    ok: bool
    axiom: str | None = None
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by its full rational distance matrix.

    The matrix is checked and frozen in C-level passes: its shape by the
    lengths of its rows, and its entries in the one pass that reads their
    reduced denominators, whose lcm the integer grid keeps.  A ``Fraction``,
    or an instance of a subclass of it, is kept as given; a matrix holding
    anything else is converted through :func:`rat`, which refuses floats.
    The integer grid is built on first use.
    """

    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.dist))
        try:
            dens = {v._denominator for row in rows for v in row}
        except AttributeError:
            rows = tuple(tuple(map(rat, row)) for row in rows)
            dens = {v._denominator for row in rows for v in row}
        n = len(rows)
        if n == 0 or set(map(len, rows)) != {n}:
            raise ValueError("distance matrix must be square and non-empty")
        self.__dict__.update(dist=rows, _den=lcm(*dens))

    @classmethod
    def discrete(cls, n: int) -> "FiniteMetricSpace":
        """The discrete metric: every pair of distinct points at distance 1."""
        return cls(tuple(tuple(Fraction(int(i != j)) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.dist)

    def full(self) -> PointSet:
        return PointSet._of_mask((1 << self.n) - 1)

    def point(self, i: int) -> PointSet:
        if not 0 <= i < self.n:
            raise ValueError(f"point index {i} out of range 0..{self.n - 1}")
        return PointSet.point(i)

    @memo_property
    def grid(self) -> tuple:
        """(D, rows, columns, entry, skip_shared): D*d(i, j) as ints by row and by
        column, D the lcm of the entries' denominators, each int's original entry,
        and whether the diagonal is zero and no entry negative.

        When ``skip_shared`` holds, a point of both sets is at distance 0 from
        the other set, so the distances below skip it.
        """
        flat = list(chain.from_iterable(self.dist))
        den, ints = common_grid(flat, self._den)
        rows = tuple(zip(*[iter(ints)] * self.n))
        skip_shared = not any(ints[:: self.n + 1]) and min(ints) >= 0
        return den, rows, tuple(zip(*rows)), dict(zip(ints, flat)), skip_shared

    def diameter(self) -> Fraction:
        _, rows, _, entry, _ = self.grid
        return entry[max(map(max, rows))]

    def d(self, i: int, j: int) -> Fraction:
        n = len(self.dist)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"({i}, {j}) is not a pair of points 0..{n - 1}")
        return self.dist[i][j]

    def points_of(self, s: PointSet, what: str) -> tuple[int, ...]:
        """The members of a non-empty set of this space's points, in order.

        The set is a point set of this space when its mask has no bit from n up.
        """
        mask = s.mask
        if not mask:
            raise EmptySetError(f"{what} needs non-empty sets")
        if mask >> len(self.dist):
            raise ValueError(f"{what}: {s} is not a set of points 0..{len(self.dist) - 1}")
        return s.members

    def set_distance(self, a: PointSet, b: PointSet) -> Fraction:
        am, bm = self.points_of(a, "set_distance"), self.points_of(b, "set_distance")
        _, rows, _, entry, skip_shared = self.grid
        if skip_shared and a.mask & b.mask:
            return entry[0]
        return entry[min(min(map(rows[i].__getitem__, bm)) for i in am)]

    def hausdorff(self, a: PointSet, b: PointSet) -> Fraction:
        """max(sup_a d(a, B), sup_b d(b, A)), each sup over the points not skipped.

        With ``skip_shared`` the points of both sets are skipped, and a term
        with nothing left is 0, so a distance reads |A - B| rows and |B - A|
        columns; otherwise every point is read.
        """
        am, bm = self.points_of(a, "hausdorff"), self.points_of(b, "hausdorff")
        _, rows, cols, entry, skip_shared = self.grid
        only_a, only_b = am, bm
        if skip_shared:
            only_a, only_b = bit_indices(a.mask & ~b.mask), bit_indices(b.mask & ~a.mask)
        ab = max((min(map(rows[i].__getitem__, bm)) for i in only_a), default=0)
        ba = max((min(map(cols[j].__getitem__, am)) for j in only_b), default=0)
        return entry[max(ab, ba)]

    def neighborhood(self, eps: RationalLike, a: PointSet) -> PointSet:
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        am = self.points_of(a, "neighborhood")
        den, rows, _, _, _ = self.grid
        # an int m is at most eps * den exactly when it is at most its floor
        bound = eps.numerator * den // eps.denominator
        return PointSet(i for i, row in enumerate(rows) if min(map(row.__getitem__, am)) <= bound)


def validate_metric(space: FiniteMetricSpace) -> MetricCheck:
    """Check symmetry, identity of indiscernibles and the triangle inequality.

    The first violated axiom is reported together with the offending indices.
    """
    _, d, _, _, _ = space.grid
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
