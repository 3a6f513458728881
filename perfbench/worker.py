"""One benchmark process: set up a workload, then run its jobs in rounds.

Started by run.py as ``python3 -m perfbench.worker`` from the repository
root.  It imports torq from ``src``, builds the workload's inputs, and
prints ``ready`` once set-up is done; run.py times spawn to ``ready`` as
set-up time.  With ``--setup-only`` it stops there.  Otherwise it sends
the job list one job at a time, as one closed-loop client, in rounds,
until ``--seconds`` is used, and prints one JSON line with the job
list's time (see ``run_round`` and ``best_total``), job counts and peak
RSS.  With ``--trace 1`` rounds alternate untraced and traced (the first
untraced), and the JSON line also holds the per-layer metrics of the
traced rounds and the spans go to ``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from array import array
from time import perf_counter, process_time

import numpy as np

from .layers import layer_metrics
from .tracing import NullTracer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Stop before this, whatever --seconds says, so the run ends within 180 s.
HARD_STOP_S = 120.0
MAX_REPORTED_FAILURES = 5

# On a shared machine speed drops by 1.1x to 1.8x in spells lasting from
# seconds to whole runs, and it slows torq's code and a plain loop alike
# (CPU time too, so this is contention for the core, not waiting).  So
# besides its measured time, each job gets a time at reference speed: a
# probe, a small loop of the same kind of work as the workload's, is
# timed at least every PROBE_EVERY_S of job time.  Pure-Python work and
# numpy calls on short arrays slow by different amounts (on greedy's
# traces, scaling by the pure-Python probe raised the spread of job times
# from 0.064 to 0.089; the numpy probe lowered it to 0.058), so greedy has
# a probe of its own.
PROBE_EVERY_S = 0.05
_ARRAY = np.arange(1001)


def _python_work() -> dict:
    d: dict[int, int] = {}
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + (i ^ k)
    return d


def _numpy_work() -> int:
    return sum(int(np.count_nonzero(_ARRAY % 7 == i % 7)) for i in range(40))


# kind -> (probe work, its time when the machine is quiet).  The python
# time is the 1st percentile of 20000 probes on the 2-CPU Xeon this
# benchmark was built on; the numpy time is that times the ratio of the
# two probes' 1st percentiles over 29000 alternating passes (0.747).
PROBES = {"python": (_python_work, 0.00036), "numpy": (_numpy_work, 0.00027)}


def probe_s(work) -> float:
    """Time of a fixed loop: the machine's current speed.

    The loop makes no garbage, and the best of three passes counts, so
    neither a garbage collection over torq's heap (collection is off
    meanwhile) nor caches a job left cold move it."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            work()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best


def run_round(jobs, probe: str, tr, failures: list[str],
              index: int) -> tuple[tuple, int]:
    """Send every job once, timing the ``probe`` kind of PROBES between
    jobs.  Returns the jobs' measured times, times at
    reference speed and CPU times, as three arrays (a round of lattice
    holds some 1400 jobs; kept as tuples, the times of a run added 10 to
    17 MiB to the worker's peak resident set), and the number of failed
    jobs; checks and speed probes run outside all three times.

    A job's time at reference speed is its measured time scaled by the
    probe's quiet-machine time over the mean of the probes taken just
    before and just after it."""
    work, ref_s = PROBES[probe]
    tr.begin_round()
    times = (array("d"), array("d"), array("d"))
    failed = 0
    before, probed_at = probe_s(work), perf_counter()
    for i, job in enumerate(jobs):
        if perf_counter() - probed_at > PROBE_EVERY_S:
            before, probed_at = probe_s(work), perf_counter()
        tr.begin_job(f"{index}.{i}")
        error = None
        c0, t0 = process_time(), perf_counter()
        try:
            with tr.span(job.name):
                out = job.run(tr)
        except Exception:  # any exception a job does not expect is a failure
            error = traceback.format_exc()
        dt, dcpu = perf_counter() - t0, process_time() - c0
        after = before
        if dt > PROBE_EVERY_S:
            after, probed_at = probe_s(work), perf_counter()
        times[0].append(dt)
        times[1].append(dt * 2 * ref_s / (before + after))
        times[2].append(dcpu)
        before = after
        if error is None:
            try:
                job.check(out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{job.name} (round {index}, job {i}):\n{error}")
    return times, failed


def best_total(rounds: list[tuple], k: int) -> float:
    """Sum over jobs of each job's lower-quartile round (its fastest when
    there are fewer than four); k=0 measured time, k=1 time at reference
    speed, k=2 CPU time.

    Probes cannot see a spell inside a long job, so for long jobs the
    fastest rounds are the ones to trust; for short jobs the very fastest
    scaled round mostly marks a probe that happened to read slow.  Two runs
    of the lattice workload with the same seed differed by 17% in the sum
    of fastest scaled rounds and by 2% in this sum."""
    total = 0.0
    for i in range(len(rounds[0][k])):
        samples = sorted(r[k][i] for r in rounds)
        total += samples[len(samples) // 4]
    return total


def measure(jobs, probe: str, seconds: float, traced: bool, specs: list[dict]) -> dict:
    """Run rounds until another round would overrun ``seconds``; at least
    one round, two when traced."""
    null, tracer = NullTracer(), Tracer()
    rounds = {False: [], True: []}  # traced? -> per round, per job times
    failures: list[str] = []
    failed = attempted = 0
    round_s: list[float] = []
    start = perf_counter()
    while True:
        index = len(round_s)
        trace_this = traced and index % 2 == 1
        r0 = perf_counter()
        times, bad = run_round(jobs, probe, tracer if trace_this else null, failures, index)
        round_s.append(perf_counter() - r0)
        rounds[trace_this].append(times)
        failed += bad
        attempted += len(jobs)
        elapsed = perf_counter() - start
        enough = index + 1 >= (2 if traced else 1)
        if enough and (elapsed + statistics.median(round_s) > seconds
                       or elapsed > HARD_STOP_S):
            break
    for text in failures:
        print(text, file=sys.stderr)
    untraced = rounds[False]
    result = {
        "wall_s": best_total(untraced, 0),
        "wall_ref_s": best_total(untraced, 1),
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layer = layer_metrics(tracer.rounds, specs)
        layer["run.wall_s"] = result["wall_s"]
        layer["run.cpu_s"] = best_total(untraced, 2)
        layer["run.slowdown"] = result["wall_s"] / result["wall_ref_s"]
        result["layer"] = layer
        result["tracer"] = tracer
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from .workloads import PROBE, WORKLOADS  # imports torq: part of set-up time

    jobs = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["per_layer"]
    result = measure(jobs, PROBE[args.workload], args.seconds, bool(args.trace), specs)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{args.workload}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
