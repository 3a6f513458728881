"""Run one workload of the torq benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; paths are taken relative to this file.  Each set-up
happens in a fresh process (``perfbench/worker.py``), timed from spawn
until the worker reports ready.  One worker goes on to run the job list
in rounds for ``--seconds``; with ``--trace 0`` more workers are spawned
before and after it, only to time their set-up, and ``setup_s`` is the
median of all the set-up times.  The output is
one line per metric, ``name value unit``, then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer
metrics, measured on the traced rounds of one worker.

Exits with 2, printing no result, when torq's sources are not beside this
directory, and with 1 when a worker dies or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set-up is timed in this many spawns, half before the measuring worker
# and half after it, so that they sample the machine across the whole run.
SETUP_PROBES = 10
DEADLINE_S = 170.0  # the whole run, set-ups included


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str]) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its spawn-to-ready time and the process."""
    cmd = [sys.executable, "-m", "perfbench.worker", *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.monotonic() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})")
    return setup_s, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker overran the run's deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def probe(common: list[str], deadline: float) -> float:
    """Set-up time of a worker that stops once ready."""
    setup_s, proc = spawn([*common, "--setup-only"])
    finish(proc, deadline)
    return setup_s


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "torq", "__init__.py")):
        print("error: torq's sources (src/torq) are missing beside perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [probe(common, deadline) for _ in range(probes)]
        setup_s, proc = spawn([*common, "--trace", str(args.trace)])
        setups.append(setup_s)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        setups += [probe(common, deadline) for _ in range(probes)]
    except WorkerError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        specs, values = bench["per_layer"], result["layer"]
    else:
        specs = bench["end_to_end"]
        values = {
            "wall_ref_s": result["wall_ref_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "passed_frac": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"wall_s {result['wall_s']:.6g} s  (measured; "
              f"{result['wall_s'] / result['wall_ref_s']:.3g}x the reference speed's time)")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
