"""Independent brute-force oracles.

Everything here re-derives values by enumeration over a common rational
grid or over raw symbol tuples, reading only the *data* of library objects
(interval endpoints, adjacency entries, metric matrices), never calling the
library's own distance/search code paths.  Frozen expected values in the
tests come from these oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import product


def _parts(union) -> list[tuple[Fraction, Fraction]]:
    return [(p.lo, p.hi) for p in union.parts]


def _grid(parts_lists) -> list[Fraction]:
    """All multiples of 1/(2*lcm of endpoint denominators) across the hull."""
    dens = [1]
    los, his = [], []
    for parts in parts_lists:
        for lo, hi in parts:
            dens.extend((lo.denominator, hi.denominator))
            los.append(lo)
            his.append(hi)
    d = 2 * math.lcm(*dens)
    lo_n = math.ceil(min(los) * d)
    hi_n = math.floor(max(his) * d)
    return [Fraction(k, d) for k in range(lo_n, hi_n + 1)]


def common_grid(values) -> tuple[int, list[int]]:
    """(den, ints): each rational as an int over den, the lcm of the reduced denominators,
    read through ``as_integer_ratio``."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return den, [p * (den // q) for p, q in ratios]


def _members(grid, parts):
    return [x for x in grid if any(lo <= x <= hi for lo, hi in parts)]


def _nearest(x: Fraction, sorted_pts: list[Fraction]) -> Fraction:
    idx = bisect_left(sorted_pts, x)
    best = None
    for j in (idx - 1, idx):
        if 0 <= j < len(sorted_pts):
            cand = abs(x - sorted_pts[j])
            if best is None or cand < best:
                best = cand
    return best


def set_distance(a, b) -> Fraction:
    """min |x - y| over grid members of the two interval unions.

    The grid step divides every endpoint twice over, and the minimum of the
    piecewise linear pair distance is attained at endpoints, so enumeration
    over the grid is exact.
    """
    pa, pb = _parts(a), _parts(b)
    grid = _grid([pa, pb])
    pts_a, pts_b = _members(grid, pa), _members(grid, pb)
    return min(_nearest(x, pts_b) for x in pts_a)


def hausdorff(a, b) -> Fraction:
    """max over members of one set of the distance to the other, both ways."""
    pa, pb = _parts(a), _parts(b)
    grid = _grid([pa, pb])
    pts_a, pts_b = _members(grid, pa), _members(grid, pb)
    ab = max(_nearest(x, pts_b) for x in pts_a)
    ba = max(_nearest(x, pts_a) for x in pts_b)
    return max(ab, ba)


def least_common_point(a, b):
    """min of the points both sets hold, or None: grid members of two interval
    unions (every part's lower end lies on the grid), or common members of two
    point sets."""
    if hasattr(a, "members"):
        common = set(a.members) & set(b.members)
        return min(common) if common else None
    pa, pb = _parts(a), _parts(b)
    if not pa or not pb:
        return None
    grid = _grid([pa, pb])
    common = set(_members(grid, pa)) & set(_members(grid, pb))
    return min(common) if common else None


def image_contains(relation, s, y: Fraction) -> bool:
    """Definitional membership: y lies in some B_i whose A_i meets s."""
    for (a, b) in relation.boxes:
        if not (b.lo <= y <= b.hi):
            continue
        for p in s.parts:
            if a.lo <= p.hi and p.lo <= a.hi:
                return True
    return False


def path_counts(adjacency, max_len: int) -> list[int]:
    """Words with L symbols counted through integer matrix powers."""
    n = len(adjacency)
    matrix = [[1 if adjacency[i][j] else 0 for j in range(n)] for i in range(n)]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    out = []
    for _ in range(max_len):
        out.append(sum(sum(row) for row in power))
        power = [
            [sum(power[i][k] * matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out


def matrix_power_positive(adjacency, t: int) -> bool:
    n = len(adjacency)
    matrix = [[1 if adjacency[i][j] else 0 for j in range(n)] for i in range(n)]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(t):
        power = [
            [sum(power[i][k] * matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return all(all(v > 0 for v in row) for row in power)


def grid_tracer_candidates(space, step: Fraction) -> list[Fraction]:
    """Grid points of the ambient interval at the given step."""
    lo_n = math.ceil(space.lo / step)
    hi_n = math.floor(space.hi / step)
    return [step * k for k in range(lo_n, hi_n + 1)]


class _RawSeq:
    """Symbols of a raw (preperiod, cycle) candidate, 1-based."""

    __slots__ = ("pre", "cyc")

    def __init__(self, pre, cyc):
        self.pre = pre
        self.cyc = cyc

    def sym(self, m: int) -> int:
        idx = m - 1
        if idx < len(self.pre):
            return self.pre[idx]
        return self.cyc[(idx - len(self.pre)) % len(self.cyc)]


def _passes(dist, diam_bound, y: _RawSeq, x: _RawSeq, j: int, eps: Fraction) -> bool:
    """d(y_{j+m}, x_{j+m}) <= eps * 2^m for every m, checked exactly.

    Positions with eps * 2^m at or above the metric diameter pass
    automatically, so only finitely many m need inspection.
    """
    m = 1
    weight = 2 * eps
    while weight < diam_bound:
        if dist[y.sym(j + m)][x.sym(j + m)] > weight:
            return False
        m += 1
        weight *= 2
    return True


def find_ep_tracer(shift_space, spec, eps, max_pre: int, max_cyc: int):
    """First eventually periodic tracer by exhaustive enumeration, or None.

    Candidates run over all admissible (preperiod, cycle) pairs with
    ``len(preperiod) <= max_pre`` and ``len(cycle) <= max_cyc``; the tracing
    check re-derives the weighted-metric comparisons from the raw metric
    matrix, divided by its own largest entry (or by 1 when every entry is
    0).  Returns the (preperiod, cycle) tuple of the first success.
    """
    adj = shift_space.relation.adjacency
    raw = shift_space.relation.space.dist
    scale = max(v for row in raw for v in row) or 1
    dist = [[v / scale for v in row] for row in raw]
    diam = max(v for row in dist for v in row)
    n = len(adj)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("the enumeration oracle needs eps > 0")
    bases = [(_RawSeq(tuple(b.preperiod), tuple(b.cycle)), k, l) for b, k, l in spec]

    def admissible_cycles(length):
        for cyc in product(range(n), repeat=length):
            if all(adj[cyc[i]][cyc[(i + 1) % length]] for i in range(length)):
                yield cyc

    cycles = [cyc for ln in range(1, max_cyc + 1) for cyc in admissible_cycles(ln)]
    for plen in range(0, max_pre + 1):
        for pre in product(range(n), repeat=plen):
            if any(not adj[a][b] for a, b in zip(pre, pre[1:])):
                continue
            for cyc in cycles:
                if pre and not adj[pre[-1]][cyc[0]]:
                    continue
                cand = _RawSeq(pre, cyc)
                if all(
                    _passes(dist, diam, cand, base, j, eps)
                    for base, k, l in bases
                    for j in range(k, l + 1)
                ):
                    return (pre, cyc)
    return None
