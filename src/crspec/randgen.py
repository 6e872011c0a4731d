"""Seeded random instances for property suites.

Sizes are deliberately small (a handful of boxes with denominator <= 8
endpoints, finite spaces with at most six points) so that the exhaustive
oracles used to cross-check every implication stay fast.  All generation is
driven by an explicit :class:`random.Random`, never by global state.  Integer
draws call ``randrange(a, b + 1)``, which is all that CPython's
``randint(a, b)`` does, so every seed draws what it drew through ``randint``,
with one Python frame less per draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .relations import BoxRelation, FiniteRelation
from .sets import FiniteMetricSpace, Interval, IntervalSpace, IntervalUnion, common_grid, normalize

UNIT = IntervalSpace(0, 1)


def random_fraction(
    rng: random.Random, lo=Fraction(0), hi=Fraction(1), max_den: int = 8
) -> Fraction:
    den = rng.randrange(1, max_den + 1)
    lo_num = -(-lo.numerator * den // lo.denominator)  # ceil(lo * den)
    hi_num = hi.numerator * den // hi.denominator  # floor(hi * den)
    return Fraction(rng.randrange(lo_num, hi_num + 1), den)


def random_interval(rng: random.Random, space: IntervalSpace, max_den: int = 8) -> Interval:
    a = random_fraction(rng, space.lo, space.hi, max_den)
    b = random_fraction(rng, space.lo, space.hi, max_den)
    return Interval(min(a, b), max(a, b))


def random_interval_union(
    rng: random.Random, space: IntervalSpace, max_parts: int = 3, max_den: int = 8
) -> IntervalUnion:
    parts = [random_interval(rng, space, max_den) for _ in range(rng.randrange(1, max_parts + 1))]
    return normalize(parts)


def _domain_gaps(space: IntervalSpace, covered: IntervalUnion) -> list[Interval]:
    """Closed gaps of the ambient interval not covered by `covered`."""
    gaps = []
    cursor = space.lo
    for part in covered.parts:
        if part.lo > cursor:
            gaps.append(Interval(cursor, part.lo))
        cursor = max(cursor, part.hi)
    if cursor < space.hi:
        gaps.append(Interval(cursor, space.hi))
    return gaps


def random_box_relation(
    rng: random.Random,
    space: IntervalSpace = UNIT,
    max_boxes: int = 5,
    max_den: int = 8,
    cover_domain: bool = True,
) -> BoxRelation:
    """A random box relation; with cover_domain, p1(F) = X is guaranteed."""
    count = rng.randrange(1, max_boxes + 1)
    boxes = [
        (random_interval(rng, space, max_den), random_interval(rng, space, max_den))
        for _ in range(count)
    ]
    if cover_domain:
        covered = normalize([a for a, _ in boxes])
        for gap in _domain_gaps(space, covered):
            boxes.append((gap, random_interval(rng, space, max_den)))
    return BoxRelation(space, tuple(boxes))


def random_partition_relation(
    rng: random.Random,
    space: IntervalSpace = UNIT,
    max_boxes: int = 5,
    max_den: int = 8,
) -> BoxRelation:
    """Domain sides tile the ambient interval, so p1(F) = X with <= max_boxes boxes."""
    cuts = sorted(
        {
            random_fraction(rng, space.lo, space.hi, max_den)
            for _ in range(rng.randrange(max_boxes))
        }
        - {space.lo, space.hi}
    )[: max_boxes - 1]
    edges = [space.lo, *cuts, space.hi]
    boxes = tuple(
        (Interval(a, b), random_interval(rng, space, max_den))
        for a, b in zip(edges, edges[1:])
    )
    return BoxRelation(space, boxes)


def random_finite_space(rng: random.Random, n: int, max_den: int = 8) -> FiniteMetricSpace:
    """A random rational metric on n points.

    Half the draws embed the points on a line (distances of arbitrary
    ratios), the other half draw distances from [1/2, 1], where the triangle
    inequality holds automatically.
    """
    zero = Fraction(0)
    dist = [[zero] * n for _ in range(n)]
    if rng.random() < 0.5:
        positions = [random_fraction(rng, Fraction(0), Fraction(4), max_den) for _ in range(n)]
        den, at = common_grid([*positions, Fraction(1, max_den)])
        step = at.pop()  # 1/max_den
        at.sort()
        for i in range(1, n):
            if at[i] <= at[i - 1]:
                at[i] = at[i - 1] + step
        for i, j in combinations(range(n), 2):
            dist[i][j] = dist[j][i] = Fraction(at[j] - at[i], den)
    else:
        for i, j in combinations(range(n), 2):
            p, q = random_fraction(rng, Fraction(0), Fraction(1, 2), max_den).as_integer_ratio()
            dist[i][j] = dist[j][i] = Fraction(2 * p + q, 2 * q)  # 1/2 + p/q
    return FiniteMetricSpace(tuple(map(tuple, dist)))


def random_finite_relation(
    rng: random.Random,
    space: FiniteMetricSpace,
    density: float = 0.4,
    p1_full: bool = True,
    p2_full: bool = False,
) -> FiniteRelation:
    n = space.n
    adj = [[rng.random() < density for _ in range(n)] for _ in range(n)]
    if p1_full:
        for i in range(n):
            if not any(adj[i]):
                adj[i][rng.randrange(n)] = True
    if p2_full:
        for j in range(n):
            if not any(adj[i][j] for i in range(n)):
                adj[rng.randrange(n)][j] = True
    return FiniteRelation(space, tuple(tuple(row) for row in adj))


def random_function_relation(rng: random.Random, space: FiniteMetricSpace) -> FiniteRelation:
    """A relation that is a function: one image point per row."""
    n = space.n
    return FiniteRelation.from_pairs(space, [(i, rng.randrange(n)) for i in range(n)])


def random_point(rng: random.Random, relation) -> object:
    if isinstance(relation, FiniteRelation):
        return rng.randrange(relation.space.n)
    return random_fraction(rng, relation.space.lo, relation.space.hi)


def random_spaced_triples(
    rng: random.Random,
    relation,
    segments: int,
    spacing: int,
    max_len: int = 2,
    max_first: int = 2,
) -> list[tuple]:
    triples = []
    first = rng.randrange(0, max_first + 1)
    for _ in range(segments):
        last = first + rng.randrange(0, max_len + 1)
        triples.append((random_point(rng, relation), first, last))
        first = last + spacing + rng.randrange(0, 2)
    return triples


def random_isometric_space(
    rng: random.Random, n: int, max_den: int = 6
) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """A metric space together with a non-trivial isometry of it.

    Averaging an arbitrary random metric over the cyclic group generated by
    a random permutation yields a metric for which that permutation is an
    isometry.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    base = random_finite_space(rng, n, max_den)

    orbit_of_perm = [tuple(range(n))]
    current = tuple(perm)
    while current != orbit_of_perm[0]:
        orbit_of_perm.append(current)
        current = tuple(current[p] for p in perm)
    group = orbit_of_perm

    # base is symmetric, so each unordered pair is averaged once, over D * |group|
    den, rows, _, _, _ = base.grid
    zero = Fraction(0)
    dist = [[zero] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        dist[i][j] = dist[j][i] = Fraction(sum(rows[g[i]][g[j]] for g in group), den * len(group))
    return FiniteMetricSpace(tuple(map(tuple, dist))), tuple(perm)
