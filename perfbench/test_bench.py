"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_bench.py

Runs each workload briefly, untraced and traced, and checks that every
metric of BENCHMARK.json is printed with its unit and that the outputs
pass their checks.  Hands the checker corrupted outputs, one per
workload, and checks that each counts as a failed job; and checks that
the benchmark refuses to run where torq's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from torq.board import Matching  # noqa: E402
from torq.lattice import SignedEdgeSet  # noqa: E402

from perfbench.jobs import Job  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from perfbench.worker import run_round  # noqa: E402
from perfbench.workloads import PROBE, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines, result = run_bench(workload, trace)
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in specs} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in specs:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in specs)


def drop_one_edge(out):
    res, pair, text = out
    entries = dict(res.phi.entries)
    entries.pop(next(iter(entries)))
    return dataclasses.replace(res, phi=SignedEdgeSet(res.phi.n, entries)), pair, text


def flip_verdict(out):
    vector, (ok, text) = out
    return vector, (not ok, text)


def repeat_an_edge(out):
    trace, *rest = out
    edges = list(trace.matching)
    return (dataclasses.replace(trace, matching=Matching.of(edges + edges[:1])), *rest)


CORRUPTIONS = {  # workload -> (job name, corruption of its output)
    "search": ("job.search.count", lambda count: count + 1),
    "greedy": ("job.greedy.n1001", repeat_an_edge),
    "lattice": ("job.lattice.parse", flip_verdict),
    "decompose": ("job.decompose.decompose_bounded", drop_one_edge),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(workload):
    name, corrupt = CORRUPTIONS[workload]
    job = next(j for j in WORKLOADS[workload](7) if j.name == name)
    bad = Job(name, lambda tr: corrupt(job.run(tr)), job.check)
    failures = []
    _, failed = run_round([job, bad], PROBE[workload], NullTracer(), failures, 0)
    assert failed == 1 and len(failures) == 1 and "CheckFailed" in failures[0]


def test_refuses_to_run_without_torq(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
