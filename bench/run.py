"""Time to verdict for crspec, end to end, with a traced per-layer run.

Usage, from the root of the repository:

    python3 bench/run.py --workload box-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30     # every workload, each in its own process

One run builds its inputs from ``--seed``, then runs whole rounds of the
workload's operations until ``--seconds`` have passed, timing each
operation alone and checking each verdict outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run wraps crspec's layers
(see ``tracing.py``), runs a fixed number of rounds so that every count
repeats exactly, writes its spans under ``bench/out/`` and reports the
per-layer metrics.  See ``bench/README.md``.

Times are reported at a fixed reference speed.  The machines this runs on
change speed by up to a factor of two within seconds, so each operation is
bracketed by two runs of a fixed piece of Fraction arithmetic (the speed
probe), and its wall time is divided by theirs: one reported millisecond is
the time the probe takes.  Raw wall-clock figures go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("box-deep", "finite-shift", "cli-scenarios")
SETUP_PROBES = 5  # fresh processes timing the set-up; setup_s is their median
REFERENCE_S = 1e-3  # one speed-probe duration is reported as this many seconds
# The traced run runs --seconds // this many rounds: a count fixed by --seconds, so
# that two traced runs do the same work and every count repeats exactly.
TRACED_SECONDS_PER_ROUND = {"box-deep": 3, "finite-shift": 1, "cli-scenarios": 5}


def _reference_loop():
    s = Fraction(0)
    for k in range(1, 400):
        s += Fraction(1, k % 97 + 1)
    return s


def probe_speed() -> float:
    """Seconds the speed probe takes now; one reported millisecond is this long."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _paths():
    for p in (str(BENCH), str(ROOT / "tests"), str(ROOT / "src")):
        if p not in sys.path:
            sys.path.insert(0, p)


def setup(workload: str, seed: int, out_dir: Path):
    """Import crspec and build the first round's inputs: the timed set-up."""
    import crspec
    import crspec.cli  # noqa: F401  (the CLI is part of the program's import cost)

    import workloads

    return crspec, workloads.Workload(workload, crspec, seed, out_dir)


def scratch_dir(workload: str) -> Path:
    """A directory of this process's own under bench/out, for scenario files and reports."""
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))


def probe_setup(workload: str, seed: int) -> float:
    """setup() in fresh interpreters, in reference seconds; the median of a few."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def timed_setup(workload: str, seed: int) -> float:
    """One setup() in this fresh process, divided by the speed probe around it."""
    out_dir = scratch_dir(workload)
    try:
        speed = statistics.median(probe_speed() for _ in range(5))
        t0 = time.perf_counter()
        setup(workload, seed, out_dir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    speed = (speed + statistics.median(probe_speed() for _ in range(5))) / 2
    return elapsed * REFERENCE_S / speed


def quantile(sorted_values, q):
    """The q-quantile by linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_rounds(work, clear_caches, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until the time or the round count is reached.

    Returns each completed operation's (raw seconds, reference seconds), the
    attempted and failed counts, and the failed checks.
    """
    latencies, attempted, failed, problems = [], 0, 0, []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    index = 0
    while True:
        for op in work.round(index):
            clear_caches()
            attempted += 1
            run = op.run if tracer is None else tracer.op(op.name, op.run)
            before = probe_speed()
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            speed = (before + probe_speed()) / 2
            latencies.append((elapsed, elapsed * REFERENCE_S / speed))
            try:
                op.check(result)
            except Exception as exc:
                problems.append(f"round {index} {op.name}: {type(exc).__name__}: {exc}")
        index += 1
        if (rounds is not None and index >= rounds) or (deadline is not None and time.perf_counter() >= deadline):
            return latencies, attempted, failed, problems


def summary(latencies, column):
    """ops_per_s, op_p50_ms and op_p90_ms of one latency column."""
    ms = sorted(1000 * lat[column] for lat in latencies)
    return len(ms) / (sum(ms) / 1000), quantile(ms, 0.5), quantile(ms, 0.9)


def cache_clearer(crspec):
    """Empty crspec's process-global caches, where the library still has them.

    Each operation then pays what it would pay in a fresh process, and memory
    does not grow with the number of operations run.
    """
    fns = [getattr(crspec.relations, name, None) for name in ("cell_decomposition", "iterate_automaton")]
    clears = [fn.cache_clear for fn in fns if hasattr(fn, "cache_clear")]

    def clear():
        for c in clears:
            c()

    return clear


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _paths()

    if args.probe:
        print(timed_setup(args.workload, args.seed))
        return 0
    if args.workload is None:
        return run_all(args)

    setup_s = probe_setup(args.workload, args.seed)
    out_dir = scratch_dir(args.workload)
    try:
        crspec, work = setup(args.workload, args.seed, out_dir)
        clear = cache_clearer(crspec)
        if args.trace:
            import tracing

            tracer = tracing.Tracer(crspec)
            rounds = max(1, args.seconds // TRACED_SECONDS_PER_ROUND[args.workload])
            with tracer:
                lat, attempted, failed, problems = run_rounds(work, clear, rounds=rounds, tracer=tracer)
            tracer.write(OUT / f"trace-{args.workload}.spans")
        else:
            lat, attempted, failed, problems = run_rounds(work, clear, seconds=args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if not lat:
        print("no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = {"value": summary(lat, 1)[0], "unit": "ops/s"}
    else:
        ops_per_s, p50, p90 = summary(lat, 1)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    raw = summary(lat, 0)
    print(
        f"{args.workload}: {attempted} attempted, {failed} failed; wall clock: "
        f"{raw[0]:.3f} ops/s, p50 {raw[1]:.3f} ms, p90 {raw[2]:.3f} ms",
        file=sys.stderr,
    )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one summary line per metric, then one JSON object."""
    results = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[workload] = result
        print(f"{workload}: correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
