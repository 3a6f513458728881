"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/record.py [--out FILE]

For each workload of BENCHMARK.json, runs ``run.py --trace 0`` for
``run_seconds`` once per seed 1..SEEDS, one run at a time, and prints
the median, the quartiles and the spread (interquartile range over
median) of every end-to-end metric, next to the metric's bound.  With
``--out`` it also writes those numbers, the per-layer metrics of one
extra traced run per workload (seed 1), and a fingerprint of the machine
and commit, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    record = {"fingerprint": fingerprint(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for m in bench["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = s
            print(f"{workload:10s} {m['name']:12s} median {s['median']:.6g} {m['unit']}"
                  f"  spread {s['spread']:.4f} (bound {m['bound']})"
                  f"  values {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
        if args.out:
            traced = run_once(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
