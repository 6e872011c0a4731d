"""Shift spaces built from finite relations.

The one-sided shift space of a finite relation F consists of all infinite
symbol sequences whose consecutive pairs lie in F; with the left shift it is
an ordinary (single-valued) dynamical system, so classical tracing applies
to it directly.  This module works with the eventually periodic sequences:
they are dense in the shift space, finitely representable, and every metric
computation on them terminates with an exact rational value.

The metric is the weighted supremum  max_{m>=1} d(s_m, t_m) / 2^m  over the
ambient metric rescaled to diameter 1 (the rescaling factor is recorded on
the :class:`ShiftSpace`).  Because the weights decay geometrically and the
rescaled distances are at most 1, a scan can stop as soon as the remaining
tail cannot beat the best value found.  The rescaling is lazy: each term
divides the raw distance by ``scale * 2^m``, so a scan reads only the
pairs it visits; the rescaled matrix ``metric`` is built on first use.

Word-level utilities (admissible word enumeration, transition-matrix
primitivity, connecting-path extraction) support building tracers by
splicing: agree with each segment's base on a window of symbols, and join
the windows with admissible connecting words.

Every kernel costs per edge and per position read.  Words, connecting paths
and the splice's feasible sets follow each symbol's successor list, kept on
the relation (``FiniteRelation.successors``).  ``mixing_index`` keeps each
row of a matrix power as an int bitmask, so the next power costs one OR per
edge, and it stops at Wielandt's bound (n-1)^2 + 1 whatever ``t_max`` is.
``EPSequence.shifted(j)`` drops the preperiod and rotates the cycle in one
step, so a trace check at exponent 10^6 costs what it costs at 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import Sequence

from .errors import NoPreimageError
from .relations import FiniteRelation
from .sets import FiniteMetricSpace, rat
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

    def __str__(self):
        pre = " ".join(str(s) for s in self.preperiod)
        cyc = " ".join(str(s) for s in self.cycle)
        return f"{pre} ({cyc})*".strip()


@dataclass(frozen=True)
class BiEPSequence:
    """A two-sided sequence: left cycle, finite core, right cycle.

    ``core_start`` is the absolute position of the first core symbol;
    position 0 is the marked origin.  Positions below the core repeat the
    left cycle leftward, positions above it repeat the right cycle.
    """

    left_cycle: tuple[int, ...]
    core: tuple[int, ...]
    right_cycle: tuple[int, ...]
    core_start: int = 0

    def __post_init__(self):
        if not self.left_cycle or not self.right_cycle:
            raise ValueError("both cycles must be non-empty")

    def symbol(self, p: int) -> int:
        rel = p - self.core_start
        if rel < 0:
            return self.left_cycle[rel % len(self.left_cycle)]
        if rel < len(self.core):
            return self.core[rel]
        return self.right_cycle[(rel - len(self.core)) % len(self.right_cycle)]

    def shift(self, direction: str = "forward") -> "BiEPSequence":
        """Move the origin: forward reads one step into the future."""
        if direction == "forward":
            delta = -1
        elif direction == "backward":
            delta = 1
        else:
            raise ValueError("direction must be 'forward' or 'backward'")
        return BiEPSequence(
            self.left_cycle, self.core, self.right_cycle, self.core_start + delta
        )

    def same_sequence(self, other: "BiEPSequence") -> bool:
        """Positionwise equality of the two-sided sequences."""
        left = math.lcm(len(self.left_cycle), len(other.left_cycle))
        right = math.lcm(len(self.right_cycle), len(other.right_cycle))
        lo = min(self.core_start, other.core_start) - left
        hi = (
            max(self.core_start + len(self.core), other.core_start + len(other.core))
            + right
        )
        return all(self.symbol(p) == other.symbol(p) for p in range(lo, hi + 1))


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

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """For each symbol, the symbols it may be followed by, ascending."""
        return tuple(tuple(j for j, edge in enumerate(row) if edge) for row in self.entries)

    def path_witness(self, a: int, b: int, edges: int) -> tuple[int, ...]:
        """An admissible word of `edges` + 1 symbols from a to b, min-lex."""
        succ = self.successors
        reachable = [{a}]
        for _ in range(edges):
            reachable.append(set().union(*(succ[i] for i in reachable[-1])))
        if b not in reachable[-1]:
            raise NoPreimageError(f"no path of {edges} edges from {a} to {b}")
        word = [b]
        for step in range(edges - 1, -1, -1):
            word.append(
                min(i for i in reachable[step] if self.entries[i][word[-1]])
            )
        return tuple(reversed(word))


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
    """A finite relation together with the scale that normalizes its diameter."""

    relation: FiniteRelation
    scale: Fraction

    @classmethod
    def of(cls, relation: FiniteRelation) -> "ShiftSpace":
        diam = relation.space.diameter()
        return cls(relation, diam if diam > 0 else Fraction(1))

    @cached_property
    def metric(self) -> FiniteMetricSpace:
        """The ambient metric divided by ``scale``, so of diameter 1 (or 0)."""
        return self.relation.space.rescale(self.scale)

    @property
    def n(self) -> int:
        return self.relation.space.n

    def is_admissible(self, word: Sequence[int]) -> bool:
        adj = self.relation.adjacency
        return all(adj[a][b] for a, b in zip(word, word[1:]))

    def admissible_words(self, length: int) -> list[tuple[int, ...]]:
        """All admissible words of the given length, lexicographic."""
        if length < 1:
            raise ValueError("word length must be positive")
        succ = self.relation.successors
        words = [(a,) for a in range(self.n)]
        for _ in range(length - 1):
            words = [w + (b,) for w in words for b in succ[w[-1]]]
        return words

    def transition_matrix(self) -> TransitionMatrix:
        return TransitionMatrix.of(self.relation)

    def sequence(self, preperiod: Sequence[int], cycle: Sequence[int]) -> EPSequence:
        """Build and admissibility-check an eventually periodic sequence."""
        seq = EPSequence(tuple(preperiod), tuple(cycle))
        horizon = len(seq.preperiod) + len(seq.cycle)
        for m in range(1, horizon + 1):
            a, b = seq.symbol(m), seq.symbol(m + 1)
            if not self.relation.adjacency[a][b]:
                raise ValueError(f"inadmissible step ({a}, {b}) at position {m}")
        return seq

    def bisequence(
        self,
        left_cycle: Sequence[int],
        core: Sequence[int],
        right_cycle: Sequence[int],
        core_start: int = 0,
    ) -> BiEPSequence:
        seq = BiEPSequence(tuple(left_cycle), tuple(core), tuple(right_cycle), core_start)
        adj = self.relation.adjacency
        lo = seq.core_start - len(seq.left_cycle) - 1
        hi = seq.core_start + len(seq.core) + len(seq.right_cycle)
        for p in range(lo, hi + 1):
            a, b = seq.symbol(p), seq.symbol(p + 1)
            if not adj[a][b]:
                raise ValueError(f"inadmissible step ({a}, {b}) at position {p}")
        return seq

    def sup_metric(self, s: EPSequence, t: EPSequence) -> Fraction:
        """max over m >= 1 of d(s_m, t_m) / 2^m, exact.

        The scan stops once 2^-(m+1) (an upper bound for the tail, since the
        normalized diameter is at most 1) cannot beat the best value seen;
        equal sequences are recognized within one joint period.
        """
        horizon = max(len(s.preperiod), len(t.preperiod)) + math.lcm(
            len(s.cycle), len(t.cycle)
        )
        dist = self.relation.space.dist
        num, den = self.scale.numerator, self.scale.denominator
        best = Fraction(0)
        m = 1
        while True:
            d = dist[s.symbol(m)][t.symbol(m)]
            if d:
                # d / (scale * 2^m), built as one Fraction
                term = Fraction(d.numerator * den, (d.denominator * num) << m)
                if term > best:
                    best = term
            if best and best.denominator <= best.numerator << (m + 1):
                return best
            if not best and m >= horizon:
                return best
            m += 1

    def trace_check(
        self,
        spec: Sequence[tuple[EPSequence, int, int]],
        y: EPSequence,
        eps,
    ) -> TraceReport:
        """Classical tracing in the shift system: one entry per (i, j).

        ``spec`` lists (base sequence, first, last) segments; the tracer and
        each base are shifted j times and compared in the sup metric.
        """
        eps = rat(eps)
        entries = []
        for i, (base, first, last) in enumerate(spec, start=1):
            for j in range(first, last + 1):
                sy, sx = y.shifted(j), base.shifted(j)
                entries.append(
                    TraceEntry(i, j, j, self.sup_metric(sy, sx), sy, sx)
                )
        return TraceReport("plain", eps, tuple(entries))

    def splice_tracer(
        self, spec: Sequence[tuple[EPSequence, int, int]], eps
    ) -> EPSequence:
        """Build a tracer by word surgery.

        The tracer copies each base on the window of positions
        [first_i + 1, last_i + w], where w is the least depth making the
        tail weight 2^-(w+1) fall within eps, follows the final base
        forever, and joins the windows with admissible connecting words.
        Raises NoPreimageError when no connecting word exists (the relation
        is not mixing enough for the requested gaps).
        """
        eps = rat(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        w = 0
        while Fraction(1, 2 ** (w + 1)) > eps:
            w += 1

        final_base, final_first, _ = spec[-1]
        tail = final_base.shifted(final_first)
        prefix_len = final_first

        fixed: dict[int, int] = {}
        for base, first, last in spec[:-1]:
            for pos in range(first + 1, last + w + 1):
                sym = base.symbol(pos)
                if fixed.get(pos, sym) != sym:
                    raise NoPreimageError(
                        f"segment windows conflict at position {pos}"
                    )
                fixed[pos] = sym
        if any(pos > prefix_len for pos in fixed):
            raise NoPreimageError("segment windows overrun the final segment")

        if prefix_len == 0:
            return tail

        # Feasible symbol sets position by position, then a min-lex backtrack.
        adj = self.relation.adjacency
        succ = self.relation.successors
        feasible = [set()] * (prefix_len + 2)
        feasible[1] = {fixed[1]} if 1 in fixed else set(range(self.n))
        for p in range(2, prefix_len + 2):
            reach = set().union(*(succ[a] for a in feasible[p - 1]))
            if p == prefix_len + 1:
                reach &= {tail.symbol(1)}
            elif p in fixed:
                reach &= {fixed[p]}
            feasible[p] = reach
            if not feasible[p]:
                raise NoPreimageError(f"no admissible connection into position {p}")
        word = [tail.symbol(1)]
        for p in range(prefix_len, 0, -1):
            word.append(min(a for a in feasible[p] if adj[a][word[-1]]))
        prefix = tuple(reversed(word))[:-1]
        return EPSequence(prefix + tail.preperiod, tail.cycle)

