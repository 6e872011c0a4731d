"""Shift spaces built from finite relations.

The one-sided shift space of a finite relation F consists of all infinite
symbol sequences whose consecutive pairs lie in F; with the left shift it is
an ordinary (single-valued) dynamical system, so classical tracing applies
to it directly.  This module works with the eventually periodic sequences:
they are dense in the shift space, finitely representable, and every metric
computation on them terminates with an exact rational value.

The metric is the weighted supremum  max_{m>=1} d(s_m, t_m) / (scale * 2^m),
where ``scale`` is the ambient metric's diameter (1 when that is 0), which
the :class:`ShiftSpace` reads on first use.  Because the weights decay
geometrically and the scaled distances are at most 1, a scan can stop as
soon as the remaining tail cannot beat the best value found.  The scan
works on ints: it reads each term off the ambient metric's integer grid,
keeps the best term as a pair (entry, position) compared by shifts, and
builds one ``Fraction``, the result.

Word-level utilities (admissible word enumeration, transition-matrix
primitivity) support building tracers by splicing: agree with each
segment's base on a window of symbols, and join the windows with
admissible connecting words, whose symbols are read off the relation's
memoized orbits: deciding a splice costs the windows plus the orbits'
transients and periods, not the gaps.

Every kernel costs per edge and per position read.  Words follow each
symbol's successor list, ``FiniteRelation.successors``.  ``admissible_words(L)``
extends words one symbol at a time only up to L - L // 2 symbols; each word
of length L is then one tuple concatenation, run in C, of a prefix of
L // 2 symbols and a suffix that may follow it.  So a call builds at most
the symbols that the words of lengths 1..L hold together.  ``mixing_index``
keeps each row of a matrix power as an int bitmask, so the next power costs
one OR per edge, and it stops at Wielandt's bound (n-1)^2 + 1 whatever
``t_max`` is.  ``EPSequence.shifted(j)`` drops the preperiod and rotates the
cycle in one step, so a trace check at exponent 10^6 costs what it costs at
10.  A trace check shifts and measures each distinct pair of phases of a
segment once: a segment's sup-metric scans number at most the larger
preperiod plus the lcm of the two cycle lengths, whatever its length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_
from typing import Sequence

from .errors import BadRangeError, EmptyImageError, NoPreimageError
from .relations import FiniteRelation, Orbit, successor_lists
from .sets import memo_property, rat
from .specifications import TraceEntry, TraceReport


def _primitive_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


@dataclass(frozen=True)
class EPSequence:
    """An eventually periodic one-sided sequence: preperiod then cycle forever.

    The stored form is canonical (primitive cycle, shortest preperiod), so
    structural equality coincides with equality of the infinite sequences.
    """

    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("the cycle must be non-empty")
        cycle = _primitive_cycle(tuple(self.cycle))
        pre = list(self.preperiod)
        while pre and pre[-1] == cycle[-1]:
            cycle = (cycle[-1],) + cycle[:-1]
            pre.pop()
        object.__setattr__(self, "preperiod", tuple(pre))
        object.__setattr__(self, "cycle", cycle)

    def symbol(self, m: int) -> int:
        """The m-th symbol, 1-based."""
        if m < 1:
            raise ValueError("positions are 1-based")
        idx = m - 1
        if idx < len(self.preperiod):
            return self.preperiod[idx]
        return self.cycle[(idx - len(self.preperiod)) % len(self.cycle)]

    def shift(self) -> "EPSequence":
        """Drop the first symbol; rotates the cycle once the preperiod is gone."""
        if self.preperiod:
            return EPSequence(self.preperiod[1:], self.cycle)
        return EPSequence((), self.cycle[1:] + self.cycle[:1])

    def shifted(self, j: int) -> "EPSequence":
        """The sequence shifted j times, built once: drop up to the whole
        preperiod, then rotate the cycle by the rest of j."""
        if j <= 0:
            return self
        pre = self.preperiod
        if j <= len(pre):
            return EPSequence(pre[j:], self.cycle)
        r = (j - len(pre)) % len(self.cycle)
        return EPSequence((), self.cycle[r:] + self.cycle[:r])

    def phase(self, j: int) -> int:
        """The least shift k with ``shifted(k) == shifted(j)``, for j >= 0."""
        pre = len(self.preperiod)
        return j if j <= pre else pre + (j - pre) % len(self.cycle)

    def __str__(self):
        pre = " ".join(str(s) for s in self.preperiod)
        cyc = " ".join(str(s) for s in self.cycle)
        return f"{pre} ({cyc})*".strip()


@dataclass(frozen=True)
class TransitionMatrix:
    """Boolean reachability view of a finite relation's adjacency."""

    entries: tuple[tuple[bool, ...], ...]

    @classmethod
    def of(cls, relation: FiniteRelation) -> "TransitionMatrix":
        return cls(relation.adjacency)

    @property
    def n(self) -> int:
        return len(self.entries)

    @memo_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        return successor_lists(self.entries)


def mixing_index(matrix: TransitionMatrix, t_max: int) -> int | None:
    """Smallest t <= t_max with M^t entrywise positive, else None.

    Each row of a power is an int bitmask: row i of M^(t+1) = M M^t is the
    OR of the rows of M^t at the successors of i, one OR per edge.  No power
    beyond Wielandt's bound (n-1)^2 + 1 is tried: a matrix with a positive
    power has one by then.
    """
    succ = matrix.successors
    full = (1 << matrix.n) - 1
    power = [sum(1 << j for j in row) for row in succ]
    for t in range(1, min(t_max, (matrix.n - 1) ** 2 + 1) + 1):
        if all(row == full for row in power):
            return t
        power = [reduce(or_, [power[j] for j in row], 0) for row in succ]
    return None


@dataclass(frozen=True)
class ShiftSpace:
    """The one-sided shift space of a finite relation."""

    relation: FiniteRelation

    @classmethod
    def of(cls, relation: FiniteRelation) -> "ShiftSpace":
        return cls(relation)

    @memo_property
    def scale(self) -> Fraction:
        """The diameter that normalizes the metric, 1 when it is 0; read on first use,
        so a space that never measures builds no metric grid."""
        diam = self.relation.space.diameter()
        return diam if diam > 0 else Fraction(1)

    @property
    def n(self) -> int:
        return self.relation.space.n

    def _check_symbols(self, *words: Sequence[int]) -> None:
        """ValueError unless every symbol of the words is a point 0..n-1."""
        n = self.n
        for symbol in chain(*words):
            if not 0 <= symbol < n:
                raise ValueError(f"symbol {symbol} out of range 0..{n - 1}")

    @staticmethod
    def _check_segments(spec: Sequence[tuple[EPSequence, int, int]]) -> None:
        """Refuse an empty spec, and a segment that ``OrbitSegment`` would refuse."""
        if not spec:
            raise ValueError("a specification needs at least one segment")
        for _, first, last in spec:
            if first < 0:
                raise BadRangeError(f"segment exponent {first} is negative")
            if first > last:
                raise BadRangeError(f"segment range [{first}, {last}] is empty")

    def is_admissible(self, word: Sequence[int]) -> bool:
        self._check_symbols(word)
        adj = self.relation.adjacency
        return all(adj[a][b] for a, b in zip(word, word[1:]))

    def admissible_words(self, length: int) -> list[tuple[int, ...]]:
        """All admissible words of the given length, lexicographic.

        A join of two halves.  The words of m = length - length // 2 symbols
        are built one symbol at a time, grouped by first symbol, and those of
        h = length // 2 symbols on the way.  ``after[a]`` lists the m-symbol
        words that may follow a, and each h-symbol prefix p is joined to
        ``after[p[-1]]`` by one tuple concatenation per word, in C.  No call
        builds more symbols than the words of every length up to ``length``
        hold together.
        """
        if length < 1:
            raise ValueError("word length must be positive")
        half = length // 2
        if half == 0:
            return [(a,) for a in range(self.n)]
        succ = self.relation.successors
        levels = [[[(a,)] for a in range(self.n)]]  # levels[k][a]: words of k + 1 symbols from a
        while len(levels) < length - half:
            levels.append([[w + (b,) for w in ws for b in succ[w[-1]]] for ws in levels[-1]])
        after = [list(chain.from_iterable(levels[-1][b] for b in row)) for row in succ]
        words: list[tuple[int, ...]] = []
        for p in chain.from_iterable(levels[half - 1]):
            words.extend(map(p.__add__, after[p[-1]]))
        return words

    def transition_matrix(self) -> TransitionMatrix:
        return TransitionMatrix.of(self.relation)

    def sequence(self, preperiod: Sequence[int], cycle: Sequence[int]) -> EPSequence:
        """Build and admissibility-check an eventually periodic sequence."""
        self._check_symbols(preperiod, cycle)
        seq = EPSequence(tuple(preperiod), tuple(cycle))
        horizon = len(seq.preperiod) + len(seq.cycle)
        for m in range(1, horizon + 1):
            a, b = seq.symbol(m), seq.symbol(m + 1)
            if not self.relation.adjacency[a][b]:
                raise ValueError(f"inadmissible step ({a}, {b}) at position {m}")
        return seq

    def sup_metric(self, s: EPSequence, t: EPSequence) -> Fraction:
        """max over m >= 1 of d(s_m, t_m) / 2^m, exact.

        The terms are read as ints off the ambient metric's grid: the entry
        D*d at position m weighs d / (scale * 2^m), so the best term is kept
        as a pair (g, m) and compared by shifts, and one ``Fraction`` is built
        for the result.  The scan stops once 2^-(m+1) (an upper bound for the
        tail, since the normalized diameter is at most 1) cannot beat the
        best value seen; equal sequences are recognized within one joint
        period.  The symbols of both sequences are checked once, up front.
        """
        self._check_symbols(s.preperiod, s.cycle, t.preperiod, t.cycle)
        horizon = max(len(s.preperiod), len(t.preperiod)) + math.lcm(
            len(s.cycle), len(t.cycle)
        )
        grid_den, rows, _, _, _ = self.relation.space.grid
        num, den = self.scale.numerator, self.scale.denominator
        unit = grid_den * num  # the term at (g, m) is g * den / (unit << m)
        best_g = best_m = top = 0  # top = den * best_g
        m = 1
        while True:
            g = rows[s.symbol(m)][t.symbol(m)]
            if g << best_m > best_g << m:
                best_g, best_m, top = g, m, den * g
            if top:
                if top << (m + 1) >= unit << best_m:
                    return Fraction(top, unit << best_m)
            elif m >= horizon:
                return Fraction(0)
            m += 1

    def trace_check(
        self,
        spec: Sequence[tuple[EPSequence, int, int]],
        y: EPSequence,
        eps,
    ) -> TraceReport:
        """Classical tracing in the shift system: one entry per (i, j).

        ``spec`` lists (base sequence, first, last) segments; the tracer and
        each base are shifted j times and compared in the sup metric.  Within
        a segment the pair of shifted sequences depends only on the pair of
        phases, so each distinct pair is shifted and measured once and its
        later exponents reuse that entry's sequences and distance.  Raises
        ValueError on an empty spec and BadRangeError on a segment with a
        negative exponent or an empty range.
        """
        self._check_segments(spec)
        eps = rat(eps)
        entries = []
        for i, (base, first, last) in enumerate(spec, start=1):
            # (phase of y, phase of base) -> (shifted y, shifted base, distance)
            seen: dict[tuple[int, int], tuple] = {}
            for j in range(first, last + 1):
                key = (y.phase(j), base.phase(j))
                hit = seen.get(key)
                if hit is None:
                    sy, sx = y.shifted(j), base.shifted(j)
                    hit = seen[key] = (sy, sx, self.sup_metric(sy, sx))
                sy, sx, distance = hit
                entries.append(TraceEntry(i, j, j, distance, sy, sx))
        return TraceReport("plain", eps, tuple(entries))

    def splice_tracer(self, spec: Sequence[tuple[EPSequence, int, int]], eps) -> EPSequence:
        """Build a tracer by word surgery.

        The tracer copies each base on the window of positions
        [first_i + 1, last_i + w], where w is the least depth making the
        tail weight 2^-(w+1) fall within eps, follows the final base
        forever, and joins the windows with the least admissible connecting
        words.  Deciding costs the windows plus the relation's orbit
        transients and periods, whatever the gaps; a witness still spells
        out every symbol before the final segment.  Raises NoPreimageError
        at the first position left with no symbol (the relation is not
        mixing enough for the requested gaps), ValueError on an empty spec
        or when a base holds a symbol outside 0..n-1, and BadRangeError on
        a segment with a negative exponent or an empty range.
        """
        self._check_segments(spec)
        self._check_symbols(*chain.from_iterable((b.preperiod, b.cycle) for b, _, _ in spec))
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        w = 0
        while Fraction(1, 2 ** (w + 1)) > eps:
            w += 1

        final_base, prefix_len, _ = spec[-1]
        tail = final_base.shifted(prefix_len)

        fixed: dict[int, int] = {}
        for base, first, last in spec[:-1]:
            for pos in range(first + 1, last + w + 1):
                sym = base.symbol(pos)
                if fixed.get(pos, sym) != sym:
                    raise NoPreimageError(f"segment windows conflict at position {pos}")
                fixed[pos] = sym
        if any(pos > prefix_len for pos in fixed):
            raise NoPreimageError("segment windows overrun the final segment")

        # A free position p after the fixed position a opens F^(p-a)({fixed[a]}), and
        # one before the first F^(p-1)(X): the orbit of X, read from a virtual position 0.
        relation = self.relation
        fixed[prefix_len + 1] = tail.symbol(1)
        starts = sorted(fixed)
        whole = Orbit(relation, relation.space.full())
        stretches = [(a, q, relation.orbit(fixed[a]) if a else whole) for a, q in zip([0] + starts, starts)]
        for a, q, orbit in stretches:
            try:
                dead = None if orbit.value_at(q - a).contains(fixed[q]) else q
            except EmptyImageError as death:
                dead = a + death.step
            if dead is not None:
                raise NoPreimageError(f"no admissible connection into position {dead}")
        adj = relation.adjacency
        word = [fixed[prefix_len + 1]]
        for a, q, orbit in reversed(stretches):
            for p in range(q - 1, a, -1):
                word.append(next(s for s in orbit.value_at(p - a).members if adj[s][word[-1]]))
            if a:
                word.append(fixed[a])
        prefix = tuple(reversed(word))[:-1]
        return EPSequence(prefix + tail.preperiod, tail.cycle)
