"""Closed relations as data, with images, orbits and exact per-cell analysis.

Two concrete relation kinds cover every construction in this library:

* :class:`BoxRelation` -- a finite union of closed boxes ``A_i x B_i`` inside
  an ambient interval squared.  The image of a set S is the exact union of
  the ``B_i`` whose domain side meets S, so every iterate of a point is a
  finite interval union and can be computed without approximation.
* :class:`FiniteRelation` -- an adjacency matrix over a finite metric space.

For box relations the ambient interval splits into finitely many *cells*
(maximal subintervals, possibly half-open, plus isolated points) on which the
membership pattern ``{i : y in A_i}`` is constant.  All iterates ``F^j(y)``
with ``j >= 1`` depend only on the cell of ``y``, which is what makes tracer
search and "for all y" refutations exact rather than sampled.  Iterates of a
cell range over unions of the ``B_i``, a finite lattice, so the sequence
``j -> F^j(y)`` is eventually periodic; :func:`iterate_automaton` returns its
preperiod and cycle per cell, turning "for all j" claims into finite checks.

Every iterate ``F^j`` with ``j >= 1`` is read off one :class:`Orbit` per cell
(box relations) or per point (finite relations).  The orbit is swept once,
one image at a time and only as far as some caller has asked; it stops for
good at the first repeated set, and it is memoized on the relation object,
so it lives and dies with the relation.

Two more memos live on the relation in the same way.  Each image step an
orbit takes is kept by its set, so orbits of different regions that reach
the same set share the rest of their sweep; and each distance between two
sets is kept by its mode and pair of sets, so it is computed once however
many requirements, cells, spacings or certificates compare that pair.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import BadRangeError, EmptyImageError
from .sets import (
    FiniteMetricSpace,
    Interval,
    IntervalSpace,
    IntervalUnion,
    PointSet,
    normalize,
    rat,
)

AmbientSet = Union[IntervalUnion, PointSet]

MODES = ("plain", "hausdorff")


class Orbit:
    """The iterates F^1(y), F^2(y), ... shared by every y of one cell or point.

    The sweep applies the relation's image map one step at a time, only as
    far as some caller has asked, and it stops for good at the first repeated
    set: from there on the sequence is periodic and every exponent is read
    off ``preperiod`` and ``cycle``.  An orbit that dies raises
    EmptyImageError naming its first empty step, whenever an exponent at or
    beyond that step is asked for.
    """

    def __init__(self, relation, first: AmbientSet):
        self._relation = relation
        self._sets: list[AmbientSet] = []
        self._seen: dict[AmbientSet, int] = {}
        self._cycle_start: int | None = None
        self._death: int | None = None
        self._push(first)

    def _push(self, s: AmbientSet) -> None:
        """Record s as the next iterate, or as the repeat or death that ends the sweep."""
        if s.is_empty:
            self._death = len(self._sets) + 1
        elif s in self._seen:
            self._cycle_start = self._seen[s]
        else:
            self._seen[s] = len(self._sets)
            self._sets.append(s)

    def _sweep(self, j: int | None) -> None:
        """Extend the orbit to exponent j, or to its first repeat when j is None."""
        sets = self._sets
        while self._cycle_start is None and self._death is None and (j is None or len(sets) < j):
            self._push(self._relation.step(sets[-1]))
        if self._death is not None and (j is None or j >= self._death):
            raise EmptyImageError(self._death)

    def value_at(self, j: int) -> AmbientSet:
        """F^j(y) for j >= 1."""
        if j < 1:
            raise ValueError("an orbit holds exponents j >= 1")
        self._sweep(j)
        idx = j - 1
        if idx >= len(self._sets):
            start = self._cycle_start
            idx = start + (idx - start) % (len(self._sets) - start)
        return self._sets[idx]

    def close(self) -> "Orbit":
        """Sweep to the first repeat, so that transient and period are known."""
        self._sweep(None)
        return self

    @property
    def preperiod(self) -> tuple[AmbientSet, ...]:
        return tuple(self.close()._sets[: self._cycle_start])

    @property
    def cycle(self) -> tuple[AmbientSet, ...]:
        return tuple(self.close()._sets[self._cycle_start :])

    @property
    def transient(self) -> int:
        return self.close()._cycle_start

    @property
    def period(self) -> int:
        return len(self.close()._sets) - self._cycle_start


@dataclass(frozen=True)
class OrbitSegment:
    """The sets F^first(x), ..., F^last(x), read off the orbit of x.

    Building a segment sweeps the orbit to ``last`` (or to its first repeat),
    so a segment whose orbit dies is rejected here, naming the empty step.
    """

    base: object
    first: int
    last: int
    origin: AmbientSet
    orbit: Orbit = field(repr=False)

    def __post_init__(self):
        if self.first < 0:
            raise BadRangeError(f"segment exponent {self.first} is negative")
        if self.first > self.last:
            raise BadRangeError(f"segment range [{self.first}, {self.last}] is empty")
        if self.last >= 1:
            self.orbit.value_at(self.last)

    def set_at(self, j: int) -> AmbientSet:
        """The set F^j(base); j must lie within [first, last]."""
        return self.origin if j == 0 else self.orbit.value_at(j)

    @property
    def sets(self) -> tuple[AmbientSet, ...]:
        return tuple(self.set_at(j) for j in range(self.first, self.last + 1))


class _Iterates:
    """Iterates of either relation kind, read off one memoized orbit per region.

    A region is a cell of a box relation or a point of a finite space.
    Subclasses name the region of a point and its first image.
    """

    @cached_property
    def _orbits(self) -> dict:
        return {}

    @cached_property
    def _steps(self) -> dict:
        return {}

    @cached_property
    def _distances(self) -> dict:
        return {}

    def step(self, s: AmbientSet) -> AmbientSet:
        """F(S) through the relation's memo of image steps; may be empty."""
        image = self._steps.get(s)
        if image is None:
            image = self._steps[s] = self.image(s)
        return image

    def distance(self, mode: str, a: AmbientSet, b: AmbientSet) -> Fraction:
        """The set distance ("plain") or Hausdorff distance of two non-empty sets.

        Kept by (mode, a, b) in a memo on the relation; an unknown mode
        raises ValueError and an empty set EmptySetError, and neither is kept.
        """
        key = (mode, a, b)
        d = self._distances.get(key)
        if d is None:
            if mode not in MODES:
                raise ValueError(f"mode must be one of {MODES}")
            measure = self.space.set_distance if mode == "plain" else self.space.hausdorff
            d = self._distances[key] = measure(a, b)
        return d

    def orbit(self, x) -> Orbit:
        """The orbit of x's region; x is a point, or a cell of a box relation."""
        region = self._region(x)
        orbit = self._orbits.get(region)
        if orbit is None:
            orbit = self._orbits[region] = Orbit(self, self._first_image(region))
        return orbit

    def iterate(self, x, j: int) -> AmbientSet:
        """F^j(x) exactly; F^0(x) = {x}."""
        return self.point_set(x) if j == 0 else self.orbit(x).value_at(j)

    def orbit_segment(self, x, first: int, last: int) -> OrbitSegment:
        """F^first(x), ..., F^last(x); the orbit of x is swept to last here."""
        origin = self.point_set(x)
        return OrbitSegment(origin.min_point(), first, last, origin, self.orbit(x))


@dataclass(frozen=True)
class BoxRelation(_Iterates):
    """A closed relation on an interval, as a finite union of boxes A_i x B_i."""

    space: IntervalSpace
    boxes: tuple[tuple[Interval, Interval], ...]

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("a box relation needs at least one box")
        amb = self.space
        for a, b in self.boxes:
            if not (amb.contains(a.lo) and amb.contains(a.hi) and amb.contains(b.lo) and amb.contains(b.hi)):
                raise ValueError(f"box {a} x {b} leaves the ambient space {amb}")

    def point_set(self, x) -> IntervalUnion:
        return self.space.point(x)

    def image(self, s: IntervalUnion) -> IntervalUnion:
        """F(S): the union of the B_i whose domain side meets S.  May be empty."""
        hit = []
        for a, b in self.boxes:
            if any(p.intersects(a) for p in s.parts):
                hit.append(b)
        return normalize(hit)

    def _region(self, x) -> "Cell":
        return x if isinstance(x, Cell) else cell_of(self, rat(x))

    def _first_image(self, cell: "Cell") -> IntervalUnion:
        return cell_image(self, cell)

    def project(self, which: int) -> IntervalUnion:
        if which not in (1, 2):
            raise ValueError("projection index must be 1 or 2")
        side = 0 if which == 1 else 1
        return normalize([box[side] for box in self.boxes])

    def inverse(self) -> "BoxRelation":
        return BoxRelation(self.space, tuple((b, a) for a, b in self.boxes))

    def is_function(self) -> bool:
        """True iff every ambient point has exactly one image point."""
        for cell in cell_decomposition(self).cells:
            img = cell_image(self, cell)
            if img.is_empty:
                return False
            if not (len(img.parts) == 1 and img.parts[0].is_point):
                return False
        return True


@dataclass(frozen=True)
class FiniteRelation(_Iterates):
    """A relation on a finite metric space, as a boolean adjacency matrix."""

    space: FiniteMetricSpace
    adjacency: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        frozen = tuple(tuple(bool(v) for v in row) for row in self.adjacency)
        object.__setattr__(self, "adjacency", frozen)
        n = self.space.n
        if len(frozen) != n or any(len(row) != n for row in frozen):
            raise ValueError("adjacency matrix must match the space size")

    @classmethod
    def from_pairs(cls, space: FiniteMetricSpace, pairs) -> "FiniteRelation":
        adj = [[False] * space.n for _ in range(space.n)]
        for a, b in pairs:
            adj[a][b] = True
        return cls(space, tuple(tuple(row) for row in adj))

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.space.n)
            for j in range(self.space.n)
            if self.adjacency[i][j]
        ]

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """For each point i, the points j with (i, j) in F, ascending."""
        return tuple(tuple(j for j, edge in enumerate(row) if edge) for row in self.adjacency)

    def point_set(self, x: int) -> PointSet:
        return self.space.point(x)

    def image(self, s: PointSet) -> PointSet:
        succ = self.successors
        return PointSet.of(j for i in s.members for j in succ[i])

    def _region(self, x: int) -> int:
        return x

    def _first_image(self, x: int) -> PointSet:
        return self.image(self.point_set(x))

    def project(self, which: int) -> PointSet:
        if which not in (1, 2):
            raise ValueError("projection index must be 1 or 2")
        if which == 1:
            return PointSet.of(i for i, row in enumerate(self.adjacency) if any(row))
        return PointSet.of(
            j for j in range(self.space.n) if any(row[j] for row in self.adjacency)
        )

    def inverse(self) -> "FiniteRelation":
        n = self.space.n
        return FiniteRelation(
            self.space, tuple(tuple(self.adjacency[j][i] for j in range(n)) for i in range(n))
        )

    def is_function(self) -> bool:
        return all(sum(row) == 1 for row in self.adjacency)


Relation = Union[BoxRelation, FiniteRelation]


@dataclass(frozen=True)
class Cell:
    """A maximal region of constant box-membership pattern.

    Endpoints may be open: e.g. the pattern on [0, 1/2) can differ from the
    one at the isolated breakpoint {1/2}.  A point cell has lo == hi and both
    ends closed.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    pattern: frozenset[int]

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def representative(self) -> Fraction:
        """A deterministic interior point: the cell itself, or its midpoint."""
        if self.is_point:
            return self.lo
        return (self.lo + self.hi) / 2

    def intersect_closed(self, lo: Fraction, hi: Fraction) -> "Cell | None":
        """Intersection with a closed interval, or None when empty."""
        new_lo, new_hi = max(self.lo, lo), min(self.hi, hi)
        if new_lo > new_hi:
            return None
        lo_closed = self.lo_closed if new_lo == self.lo else True
        hi_closed = self.hi_closed if new_hi == self.hi else True
        if new_lo == new_hi and not (lo_closed and hi_closed):
            return None
        return Cell(new_lo, new_hi, lo_closed, hi_closed, self.pattern)

    def pick_point(self, prefer: Fraction | None = None) -> Fraction:
        """A deterministic member; `prefer` wins when it lies inside."""
        if prefer is not None and self.contains(prefer):
            return prefer
        return self.representative()

    def __str__(self):
        if self.is_point:
            return f"{{{self.lo}}}"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class CellDecomposition:
    """The full partition of the ambient interval into pattern-constant cells."""

    breakpoints: tuple[Fraction, ...]
    cells: tuple[Cell, ...]

    @cached_property
    def lows(self) -> tuple[Fraction, ...]:
        """The cells' lower ends, in order, for bisection in cell_of."""
        return tuple(cell.lo for cell in self.cells)


def _pattern_at(relation: BoxRelation, x: Fraction) -> frozenset[int]:
    return frozenset(i for i, (a, _) in enumerate(relation.boxes) if a.contains(x))


def cell_decomposition(relation: BoxRelation) -> CellDecomposition:
    """Split the ambient interval by the domain-side box endpoints.

    Elementary pieces (breakpoint singletons and the open intervals between
    them) are tagged with their pattern and then adjacent pieces with equal
    patterns are merged, so e.g. {0} merges into [0, 1/2) when the pattern
    does not change at 0.  The result is kept on the relation object (a
    frozen dataclass still has a ``__dict__``), so it is freed with it.
    """
    memo = relation.__dict__
    if "_cell_decomposition" in memo:
        return memo["_cell_decomposition"]
    amb = relation.space
    points = {amb.lo, amb.hi}
    for a, _ in relation.boxes:
        points.add(a.lo)
        points.add(a.hi)
    breaks = tuple(sorted(points))

    pieces: list[Cell] = []
    for idx, b in enumerate(breaks):
        pieces.append(Cell(b, b, True, True, _pattern_at(relation, b)))
        if idx + 1 < len(breaks):
            nxt = breaks[idx + 1]
            mid = (b + nxt) / 2
            pieces.append(Cell(b, nxt, False, False, _pattern_at(relation, mid)))

    merged: list[Cell] = []
    for piece in pieces:
        if merged and merged[-1].pattern == piece.pattern:
            prev = merged[-1]
            merged[-1] = Cell(prev.lo, piece.hi, prev.lo_closed, piece.hi_closed, prev.pattern)
        else:
            merged.append(piece)
    memo["_cell_decomposition"] = CellDecomposition(breaks, tuple(merged))
    return memo["_cell_decomposition"]


def cell_of(relation: BoxRelation, x: Fraction) -> Cell:
    """The cell containing x, found by bisection over the cells' lower ends.

    The last cell starting at or before x holds x unless x is its open lower
    end; then x lies in the cell just before it.
    """
    decomposition = cell_decomposition(relation)
    i = bisect_right(decomposition.lows, x)
    for cell in decomposition.cells[max(i - 2, 0) : i]:
        if cell.contains(x):
            return cell
    raise ValueError(f"point {x} outside the ambient space")


def cell_image(relation: BoxRelation, cell: Cell) -> IntervalUnion:
    """F(y) for every y in the cell: the union of B_i over the cell's pattern."""
    return normalize([relation.boxes[i][1] for i in sorted(cell.pattern)])


@dataclass(frozen=True)
class IterateAutomaton:
    """Per-cell eventually periodic description of all iterates j >= 1."""

    decomposition: CellDecomposition
    orbits: tuple[Orbit, ...]

    def orbit_for(self, cell: Cell) -> Orbit:
        return self.orbits[self.decomposition.cells.index(cell)]


def iterate_automaton(relation: BoxRelation) -> IterateAutomaton:
    """The eventually periodic sequence (F^j(y))_{j>=1} for each cell.

    Requires p1(F) = X; a cell whose orbit dies raises EmptyImageError naming
    the failing exponent.
    """
    decomp = cell_decomposition(relation)
    return IterateAutomaton(decomp, tuple(relation.orbit(c).close() for c in decomp.cells))


def check_surjectivity(relation: Relation) -> tuple[bool, bool]:
    """Whether p1(F) and p2(F) each cover the whole ambient space."""
    full = relation.space.full()
    return relation.project(1) == full, relation.project(2) == full
