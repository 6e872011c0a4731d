"""Reference figures: ROADMAP item 1's baseline rows, timed with this harness.

Usage, from the root of the repository:  python3 bench/reference.py

Each row builds its relation and specification afresh, empties crspec's
process-global caches and times the question; it prints the median of five
repetitions in wall-clock milliseconds and at the reference speed of
``run.py``.
"""

import random
import statistics
import sys
import time
from fractions import Fraction as F

import run

run._paths()
import crspec  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def monica_find_tracer(n=100):
    rel = workloads._box_relation(crspec, workloads.MONICA)
    spec = crspec.Specification.build(rel, [(F(0), 2, 3), (F(1), n, n + 1)])
    return crspec.find_tracer(rel, spec, F(1, 4), "hausdorff")


def monica_refute_hsp(hi=200):
    rel = workloads._box_relation(crspec, workloads.MONICA)
    template = crspec.SpacedTemplate((F(0), 2, 3), ((F(1), 1),))
    return crspec.refute_property(rel, "HSP", F(1, 4), template, range(1, hi + 1))


def finite_find_tracer(n=32):
    rng = random.Random(32)
    dist, adj = workloads.random_finite(rng, n=n)
    rel = crspec.FiniteRelation(crspec.FiniteMetricSpace(dist), adj)
    spec = crspec.Specification.build(rel, [(rng.randrange(n), 1, 2), (rng.randrange(n), 4, 5)])
    return crspec.find_tracer(rel, spec, max(map(max, dist)) / 4, "hausdorff")


ROWS = (
    ("monica find_tracer hausdorff, second segment at N=100", monica_find_tracer),
    ("monica refute HSP over spacings 1..200", monica_refute_hsp),
    ("finite n=32 density 0.2 find_tracer hausdorff", finite_find_tracer),
)


def main():
    clear = run.cache_clearer(crspec)
    for label, fn in ROWS:
        wall, ref = [], []
        for _ in range(REPEATS):
            clear()
            before = run.probe_speed()
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            wall.append(1000 * elapsed)
            ref.append(1000 * elapsed * run.REFERENCE_S / ((before + run.probe_speed()) / 2))
        print(
            f"{label}: {statistics.median(wall):.1f} ms wall clock, "
            f"{statistics.median(ref):.1f} ms at the reference speed (medians of {REPEATS})"
        )
    print(f"Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
