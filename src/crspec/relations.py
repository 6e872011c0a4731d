"""Closed relations as data, with images, orbits and exact per-cell analysis.

Two concrete relation kinds cover every construction in this library:

* :class:`BoxRelation` -- a finite union of closed boxes ``A_i x B_i`` inside
  an ambient interval squared.  The image of a set S is the exact union of
  the ``B_i`` whose domain side meets S, so every iterate of a point is a
  finite interval union and can be computed without approximation.
* :class:`FiniteRelation` -- an adjacency matrix over a finite metric space.
  The matrix is checked and frozen in C-level passes (only a matrix holding
  something other than bools is converted entry by entry).  A finite set is
  an int mask, bit i for point i, and the relation keeps one successor mask
  per point, so an image is the OR of the masks at the set's bits.

For box relations the ambient interval splits into finitely many *cells*
(maximal subintervals, possibly half-open, plus isolated points) on which the
membership pattern ``{i : y in A_i}`` is constant.  All iterates ``F^j(y)``
with ``j >= 1`` depend only on the cell of ``y``, which is what makes tracer
search and "for all y" refutations exact rather than sampled.  Iterates of a
cell range over unions of the ``B_i``, a finite lattice, so the sequence
``j -> F^j(y)`` is eventually periodic; ``relation.orbit(cell).close()`` gives
its preperiod and cycle, turning "for all j" claims into finite checks.

A *region* is a cell of a box relation or a point of a finite relation, and
both kinds answer the same region interface: ``regions()`` lists each region
with a representative point, ``first_image(region)`` is F(y) for every y in
it, and ``orbit(region)`` its iterates.  Every iterate ``F^j`` with ``j >= 1``
is read off one :class:`Orbit` per region.  The orbit is swept once,
one image at a time and only as far as some caller has asked; it stops for
good at the first repeated set, and it is memoized on the relation object,
so it lives and dies with the relation.

Two more memos live on the relation in the same way.  Each image step an
orbit takes is kept by its set, so orbits of different regions that reach
the same set share the rest of their sweep; and each distance between two
sets is kept by its mode and pair of sets, so it is computed once however
many requirements, cells, spacings or certificates compare that pair.
No memo refers back to the relation (see :class:`Orbit`), so dropping the
relation frees it and its memos by reference counting, with no cycle
collection.

A box relation puts the ambient ends and all four endpoints of every box on
one integer grid (ints over the lcm of their denominators) when it is built,
and its hot path compares those ints:

* validation checks each box against the ambient on the grid, and
  ``point_set`` checks a point against the ambient ends there;
* an image is found by box mask: S's ends go from its own grid onto the
  relation's, the boxes whose domain side meets S form a bit mask, and the
  union of their B sides is merged on the relation's grid once per mask and
  kept on the relation.  One gcd reduces its ends to the union's own grid, so
  it is the union :func:`~crspec.sets.normalize` would return, and no
  ``Fraction`` is made;
* cells are found by integer lookup: the cell decomposition shares the grid
  and keeps the cell of each elementary piece, so :func:`cell_of` takes one
  ``divmod`` and one bisection over ints;
* cells are built and decided on ints: a cell keeps its box mask, which its
  first image reads, hashes the reduced numerators and denominators of its
  ends, compares those to tell a point cell, and builds its representative
  as one ``Fraction`` from them, with no ``Fraction`` sum or quotient.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import or_
from typing import Union

from .errors import BadRangeError, EmptyImageError
from .sets import (
    FiniteMetricSpace,
    Interval,
    IntervalSpace,
    IntervalUnion,
    PointSet,
    common_grid,
    memo_property,
    merged_ends,
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

    An orbit holds its sets, their positions, and the relation's ``step``,
    which holds the memo of image steps and the image data (the grid ints,
    domain masks and unions of a box relation, or the successor masks of a
    finite one), never the relation.  So the orbit and the memos are freed
    when the last of the relation and the orbits taken from it goes, and an
    orbit that outlives its relation still sweeps.
    """

    def __init__(self, relation, first: AmbientSet):
        self._step = relation.step
        self._sets: list[AmbientSet] = []
        self._seen: dict[AmbientSet, int] = {}
        self._cycle_start: int | None = None
        self._death: int | None = None
        self._push(first)

    def _push(self, s: AmbientSet) -> None:
        """Record s as the next iterate, or as the repeat or death that ends the sweep."""
        n = len(self._sets)
        if s.is_empty:
            self._death = n + 1
        # one hash of s: its first position, or n once recorded there
        elif (first := self._seen.setdefault(s, n)) < n:
            self._cycle_start = first
        else:
            self._sets.append(s)

    def _sweep(self, j: int | None) -> None:
        """Extend the orbit to exponent j, or to its first repeat when j is None."""
        sets = self._sets
        while self._cycle_start is None and self._death is None and (j is None or len(sets) < j):
            self._push(self._step(sets[-1]))
        if self._death is not None and (j is None or j >= self._death):
            raise EmptyImageError(self._death)

    def value_at(self, j: int) -> AmbientSet:
        """F^j(y) for j >= 1."""
        if j < 1:
            raise ValueError("an orbit holds exponents j >= 1")
        sets = self._sets
        if j > len(sets):
            if self._cycle_start is None:
                self._sweep(j)
            if j > len(sets):
                start = self._cycle_start
                j = start + 1 + (j - 1 - start) % (len(sets) - start)
        return sets[j - 1]

    def close(self) -> "Orbit":
        """Sweep to the first repeat, so that transient and period are known."""
        self._sweep(None)
        return self

    @property
    def swept_window(self) -> tuple[int, int] | None:
        """(transient, period) if the sweep has already reached its first repeat, else None.

        Unlike ``transient`` and ``period`` this never sweeps: an orbit still
        open, or one that died, gives None.
        """
        start = self._cycle_start
        return None if start is None else (start, len(self._sets) - start)

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


def check_range(first: int, last: int) -> None:
    """BadRangeError unless 0 <= first <= last: the exponents of one segment."""
    if first < 0:
        raise BadRangeError(f"segment exponent {first} is negative")
    if first > last:
        raise BadRangeError(f"segment range [{first}, {last}] is empty")


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
        check_range(self.first, self.last)
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
    Subclasses list their regions, in order, as ``(label, representative)``
    pairs from ``regions()``; a point region is yielded as its own
    representative, the same object.  They also name the region of a point
    (``_region``) and a region's first image (``first_image``), and, when
    built, call :meth:`_start_memos` with their image function and its data.
    Everything else here reads only those.

    The memos are plain dicts made when the relation is built.  Nothing a
    relation holds refers back to it, so once its last reference goes,
    reference counting frees it with every memo, orbit and set only it held.
    """

    def _start_memos(self, image, *data) -> None:
        """Make the memos, and ``step``: F(S) through the memo of image steps; may be empty.

        ``step`` calls ``image(*data, s)`` once per distinct set, and holds
        the memo, the function and its data, never the relation.
        """
        steps = {}

        def step(s: AmbientSet) -> AmbientSet:
            out = steps.get(s)
            if out is None:
                out = steps[s] = image(*data, s)
            return out

        self.__dict__.update(_orbits={}, _distances={}, step=step)

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
            orbit = self._orbits[region] = Orbit(self, self.first_image(region))
        return orbit

    def iterate(self, x, j: int) -> AmbientSet:
        """F^j(x) exactly; F^0(x) = {x}."""
        return self.point_set(x) if j == 0 else self.orbit(x).value_at(j)

    def orbit_segment(self, x, first: int, last: int) -> OrbitSegment:
        """F^first(x), ..., F^last(x); the orbit of x is swept to last here."""
        origin = self.point_set(x)
        return OrbitSegment(origin.min_point(), first, last, origin, self.orbit(x))

    def is_function(self) -> bool:
        """True iff every point has exactly one image point."""
        for region, _ in self.regions():
            image = self.first_image(region)
            if image.is_empty or image != self.point_set(image.min_point()):
                return False
        return True


@dataclass(frozen=True)
class BoxRelation(_Iterates):
    """A closed relation on an interval, as a finite union of boxes A_i x B_i.

    Building one puts the ambient ends and the endpoints of every box on one
    integer grid: ``_den``, the domain sides as ``(bit, lo, hi)`` ints with
    bit i standing for box i, and the B sides as ``(lo, hi, i)`` ints in
    ascending order.
    """

    space: IntervalSpace
    boxes: tuple[tuple[Interval, Interval], ...]

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("a box relation needs at least one box")
        amb = self.space
        ends = [amb.lo, amb.hi]
        for a, b in self.boxes:
            ends += (a.lo, a.hi, b.lo, b.hi)
        den, ints = common_grid(ends)
        lo, hi = ints[0], ints[1]
        for k, (a, b) in enumerate(self.boxes):
            alo, ahi, blo, bhi = ints[4 * k + 2 : 4 * k + 6]
            if not (lo <= alo and ahi <= hi and lo <= blo and bhi <= hi):
                raise ValueError(f"box {a} x {b} leaves the ambient space {amb}")
        count = len(self.boxes)
        domains = tuple((1 << k, ints[4 * k + 2], ints[4 * k + 3]) for k in range(count))
        ranges = tuple(sorted((ints[4 * k + 4], ints[4 * k + 5], k) for k in range(count)))
        unions: dict[int, IntervalUnion] = {}
        self.__dict__.update(_den=den, _span=(lo, hi), _domains=domains, _ranges=ranges, _unions=unions)
        self._start_memos(_box_image, den, domains, ranges, unions)

    def point_set(self, x) -> IntervalUnion:
        """{x}, checked against the ambient ends on the grid: with the ends at
        lo / D and hi / D, x = n / d lies between them when lo * d <= n * D <= hi * d."""
        x = rat(x)
        num, den = x._numerator, x._denominator
        lo, hi = self._span
        if not lo * den <= num * self._den <= hi * den:
            raise ValueError(f"point {x} outside ambient {self.space}")
        return IntervalUnion.on_grid(den, (num, num))

    def image(self, s: IntervalUnion) -> IntervalUnion:
        """F(S): the union of the B_i whose domain side meets S.  May be empty."""
        return _box_image(self._den, self._domains, self._ranges, self._unions, s)

    def regions(self):
        """(cell, its representative) for each cell of the decomposition, in order."""
        for cell in cell_decomposition(self).cells:
            yield cell, cell.representative()

    def _region(self, x) -> "Cell":
        return x if isinstance(x, Cell) else cell_of(self, rat(x))

    def first_image(self, cell: "Cell") -> IntervalUnion:
        """F(y) for every y in the cell: the union of B_i over the cell's mask."""
        return _union_of(self._den, self._ranges, self._unions, cell.mask)

    def project(self, which: int) -> IntervalUnion:
        if which not in (1, 2):
            raise ValueError("projection index must be 1 or 2")
        side = 0 if which == 1 else 1
        return normalize([box[side] for box in self.boxes])

    def inverse(self) -> "BoxRelation":
        return BoxRelation(self.space, tuple((b, a) for a, b in self.boxes))


def _box_image(den, domains, ranges, unions, s: IntervalUnion) -> IntervalUnion:
    """F(S) from a box relation's grid data alone; see :meth:`BoxRelation.image`.

    S's ends go from its grid onto the relation's, rounded inward (a part
    meets [lo, hi] exactly when the ceiling of its lower end is at most hi
    and the floor of its upper end at least lo), and the mask of the boxes
    they meet picks the union.
    """
    sden, ends = s.den, s.ends
    parts = [(-(-lo * den // sden), hi * den // sden) for lo, hi in zip(ends[::2], ends[1::2])]
    mask = 0
    for bit, alo, ahi in domains:
        for plo, phi in parts:
            if plo <= ahi and alo <= phi:
                mask |= bit
                break
    return _union_of(den, ranges, unions, mask)


def _union_of(den, ranges, unions, mask: int) -> IntervalUnion:
    """The union of the B sides picked by mask, kept in ``unions`` by mask."""
    union = unions.get(mask)
    if union is None:
        sides = [(lo, hi) for lo, hi, k in ranges if mask >> k & 1]
        union = unions[mask] = IntervalUnion.on_grid(den, merged_ends(sides))
    return union


def successor_masks(rows: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    """For each row of a square boolean matrix, the int mask of its true entries
    (bit j for column j), summed in one C-level pass over the rows."""
    bits = [1 << j for j in range(len(rows))]
    return tuple(map(sum, map(compress, repeat(bits), rows)))


@dataclass(frozen=True)
class FiniteRelation(_Iterates):
    """A relation on a finite metric space, as a boolean adjacency matrix.

    Building one keeps ``masks``, one int per point i with bit j set for
    each (i, j) in F, and images are read off them.  ``successors``, the
    same points j as ascending tuples, is listed on first read.
    """

    space: FiniteMetricSpace
    adjacency: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.adjacency))
        if set(map(type, chain.from_iterable(rows))) - {bool}:
            rows = tuple(tuple(map(bool, row)) for row in rows)
        object.__setattr__(self, "adjacency", rows)
        n = self.space.n
        if len(rows) != n or set(map(len, rows)) - {n}:
            raise ValueError("adjacency matrix must match the space size")
        masks = self.__dict__["masks"] = successor_masks(rows)
        self._start_memos(_finite_image, n, masks)

    @memo_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        rows = self.adjacency
        return tuple(tuple(compress(range(len(rows)), row)) for row in rows)

    @classmethod
    def from_pairs(cls, space: FiniteMetricSpace, pairs) -> "FiniteRelation":
        n = space.n
        adj = [[False] * n for _ in range(n)]
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) is not a pair of points 0..{n - 1}")
            adj[a][b] = True
        return cls(space, tuple(map(tuple, adj)))

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.successors) for j in row]

    def point_set(self, x: int) -> PointSet:
        return self.space.point(x)

    def image(self, s: PointSet) -> PointSet:
        return _finite_image(self.space.n, self.masks, s)

    def regions(self):
        """(x, x) for each point x of the space, in order."""
        return ((x, x) for x in range(self.space.n))

    def _region(self, x: int) -> int:
        return x

    def first_image(self, x: int) -> PointSet:
        """F(x): the successors of x, once x is checked to be a point 0..n-1."""
        masks = self.masks
        if not 0 <= x < len(masks):
            raise ValueError(f"point index {x} out of range 0..{len(masks) - 1}")
        return PointSet._of_mask(masks[x])

    def project(self, which: int) -> PointSet:
        if which not in (1, 2):
            raise ValueError("projection index must be 1 or 2")
        if which == 1:
            return PointSet(compress(count(), self.masks))
        return PointSet._of_mask(reduce(or_, self.masks))

    def inverse(self) -> "FiniteRelation":
        return FiniteRelation.from_pairs(self.space, ((j, i) for i, j in self.pairs()))


def _finite_image(n: int, masks: tuple[int, ...], s: PointSet) -> PointSet:
    """F(S) from a finite relation's successor masks alone: the OR of the masks
    at S's bits, taken lowest bit first, with no member tuple built."""
    mask = s.mask
    if mask >> n:
        raise ValueError(f"image: {s} is not a set of points 0..{n - 1}")
    image = 0
    while mask:
        low = mask & -mask
        image |= masks[low.bit_length() - 1]
        mask ^= low
    return PointSet._of_mask(image)


Relation = Union[BoxRelation, FiniteRelation]


@dataclass(frozen=True)
class Cell:
    """A maximal region of constant box-membership pattern.

    Endpoints may be open: e.g. the pattern on [0, 1/2) can differ from the
    one at the isolated breakpoint {1/2}.  A point cell has lo == hi and both
    ends closed.  Building a cell reads its ends' reduced numerators and
    denominators from their slots, as :func:`~crspec.sets.common_grid` does,
    and keeps ``mask``, the pattern as a bit mask (bit i for box i).  Its
    hash is taken once, from those ints and the mask, since cells key the
    orbit memo.  Like :class:`~crspec.specifications.TraceEntry`, a cell
    fills its instance dict in one update, fields and derived values alike,
    where a frozen dataclass's own ``__init__`` sets each through
    ``object.__setattr__``.  ``is_point`` compares the ints, and the
    representative is one ``Fraction`` built from them.  The representative
    and the text are kept on the cell once first asked for, since every pass
    over a relation's regions reads the one and every report line or payload
    entry naming the cell the other.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    pattern: frozenset[int]

    def __init__(self, lo, hi, lo_closed, hi_closed, pattern):
        ends = (lo._numerator, lo._denominator, hi._numerator, hi._denominator)
        mask = 0
        for i in pattern:
            mask |= 1 << i
        self.__dict__.update(
            lo=lo,
            hi=hi,
            lo_closed=lo_closed,
            hi_closed=hi_closed,
            pattern=pattern,
            _ends=ends,
            mask=mask,
            _hash=hash((ends, lo_closed, hi_closed, mask)),
        )

    def __hash__(self):
        return self._hash

    @property
    def is_point(self) -> bool:
        lo_num, lo_den, hi_num, hi_den = self._ends
        return lo_num == hi_num and lo_den == hi_den

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
        return self._representative

    @memo_property
    def _representative(self) -> Fraction:
        if self.is_point:
            return self.lo
        lo_num, lo_den, hi_num, hi_den = self._ends
        return Fraction(lo_num * hi_den + hi_num * lo_den, 2 * lo_den * hi_den)

    def __str__(self):
        return self._text

    @memo_property
    def _text(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class CellDecomposition:
    """The full partition of the ambient interval into pattern-constant cells.

    ``grid`` holds the breakpoints as ints on the relation's grid, and
    ``piece_cells`` the index of the cell of each elementary piece: piece 2k
    is breakpoint k, piece 2k + 1 the open interval after it.
    """

    breakpoints: tuple[Fraction, ...]
    cells: tuple[Cell, ...]
    grid: tuple[int, ...] = field(repr=False)
    piece_cells: tuple[int, ...] = field(repr=False)


def cell_decomposition(relation: BoxRelation) -> CellDecomposition:
    """Split the ambient interval by the domain-side box endpoints.

    Elementary pieces (breakpoint singletons and the open intervals between
    them) are tagged with their pattern and then adjacent pieces with equal
    patterns are merged, so e.g. {0} merges into [0, 1/2) when the pattern
    does not change at 0.  Breakpoints are the relation's grid ints, and one
    sweep over them tags every piece: a box holds a breakpoint from its
    lower end to its upper end, and the open piece after it while it has not
    ended.  Cells keep the original endpoints.  The result is kept on the
    relation object (a frozen dataclass still has a ``__dict__``), so it is
    freed with it.
    """
    memo = relation.__dict__
    if "_cell_decomposition" in memo:
        return memo["_cell_decomposition"]
    amb = relation.space
    value = dict(zip(relation._span, (amb.lo, amb.hi)))
    for (_, lo, hi), (a, _) in zip(relation._domains, relation.boxes):
        value[lo], value[hi] = a.lo, a.hi
    grid = sorted(value)
    index = {x: k for k, x in enumerate(grid)}
    # bit i of a mask stands for box i
    opens, closes = [0] * len(grid), [0] * len(grid)
    for bit, lo, hi in relation._domains:
        opens[index[lo]] |= bit
        closes[index[hi]] |= bit

    # each breakpoint's mask, then the open piece's after it
    masks = []
    active = 0
    for k in range(len(grid)):
        active |= opens[k]
        masks.append(active)
        active &= ~closes[k]
        masks.append(active)
    masks.pop()

    # merged runs of pieces as [first piece, last piece, mask]
    runs: list[list] = []
    piece_cells = []
    for piece, mask in enumerate(masks):
        if runs and runs[-1][2] == mask:
            runs[-1][1] = piece
        else:
            runs.append([piece, piece, mask])
        piece_cells.append(len(runs) - 1)
    breaks = tuple(value[x] for x in grid)
    boxes = range(len(relation.boxes))
    cells = []
    for first, last, mask in runs:
        pattern = frozenset(i for i in boxes if mask >> i & 1)
        # an even piece is a breakpoint, closed; an odd one the open interval after one
        lo_closed, hi_closed = first % 2 == 0, last % 2 == 0
        cells.append(Cell(breaks[first // 2], breaks[(last + 1) // 2], lo_closed, hi_closed, pattern))
    decomposition = CellDecomposition(breaks, tuple(cells), tuple(grid), tuple(piece_cells))
    memo["_cell_decomposition"] = decomposition
    return decomposition


def cell_of(relation: BoxRelation, x: Fraction) -> Cell:
    """The cell containing x, found by one bisection over the grid's breakpoints.

    On the grid, x is ``q + r / x.denominator`` with ``0 <= r < x.denominator``:
    a breakpoint when r is 0 and q is one, otherwise inside the open piece
    after the last breakpoint at or below q.
    """
    decomposition = cell_decomposition(relation)
    grid = decomposition.grid
    q, r = divmod(x._numerator * relation._den, x._denominator)
    k = bisect_right(grid, q)
    if not r and k and grid[k - 1] == q:
        piece = 2 * k - 2
    elif 0 < k < len(grid):
        piece = 2 * k - 1
    else:
        raise ValueError(f"point {x} outside the ambient space")
    return decomposition.cells[decomposition.piece_cells[piece]]
