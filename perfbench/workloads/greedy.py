"""greedy: the campaign path of the random greedy matching process.

A job is one seeded trace, followed by the envelope check, the count
estimate, parity tracking and CSV export: several at n=1001 (b=0.05,
stop=0.9), the campaign of the acceptance test, and one at n=2001, whose
n^2 edge pool sets the peak resident set.
"""

from __future__ import annotations

import math
import random
import statistics

from torq.board import TorusGraph, verify_matching
from torq.greedy import (
    count_estimate,
    envelope_check,
    parity_track,
    run_greedy,
    trace_to_csv,
)

from ..jobs import Job, expect

B, STOP = 0.05, 0.9
CAMPAIGN_N, CAMPAIGN_SEEDS = 1001, 3
LARGE_N = 2001


def _trace(tr, g: TorusGraph, seed: int) -> tuple:
    n = g.n
    with tr.span("greedy.run_greedy", f"n{n}"):
        trace = run_greedy(g, seed, STOP)
    steps = len(trace.matching)
    tr.count("greedy.run_greedy.calls")
    tr.count("greedy.run_greedy.completed", trace.completed)
    tr.count("greedy.run_greedy.steps", steps)
    tr.count(f"greedy.run_greedy.n{n}.steps", steps)
    with tr.span("greedy.envelope_check"):
        env = envelope_check(trace, B)
    with tr.span("greedy.count_estimate"):
        est = count_estimate(trace)
    with tr.span("greedy.parity_track"):
        parity = parity_track(trace)
    with tr.span("greedy.trace_to_csv"):
        csv = trace_to_csv(trace, B)
    return trace, env, est, parity, csv


class _Campaign:
    """Acceptance criterion 8 over the n=1001 traces of one round: median
    inside fraction at least 0.99, mean count estimate within 0.3 of
    log n - 3.  Checked when the last trace of the round comes in.

    Per trace the estimate sits 0.289 above log n - 3 with standard
    deviation 0.0053 (24 seeds), so a single trace may miss the band but
    the mean of three misses it with probability about 2e-4."""

    def __init__(self, seeds: list[int]) -> None:
        self.seeds = set(seeds)
        self.seen: dict[int, tuple[float, float]] = {}

    def add(self, seed: int, inside: float, estimate: float) -> None:
        self.seen[seed] = (inside, estimate)
        if set(self.seen) != self.seeds:
            return
        inside = statistics.median(v[0] for v in self.seen.values())
        mean_log = statistics.fmean(v[1] for v in self.seen.values())
        self.seen = {}
        band = math.log(CAMPAIGN_N) - 3.0
        expect(inside >= 0.99, f"campaign median inside fraction {inside}")
        expect(abs(mean_log - band) <= 0.3, f"campaign estimate {mean_log} vs band {band}")


def _job(g: TorusGraph, seed: int, campaign: _Campaign | None = None) -> Job:
    def run(tr):
        return _trace(tr, g, seed)

    def check(out):
        trace, env, est, parity, csv = out
        expect(trace.completed, f"n={g.n} seed={seed}: run stopped early")
        expect(verify_matching(g, trace.matching).valid,
               f"n={g.n} seed={seed}: greedy output is not a matching")
        expect(len(parity) == len(trace.matching), "parity track length")
        expect(csv.count("\n") == len(trace.steps) + 1, "CSV has one row per step")
        if campaign is not None:
            campaign.add(seed, env.inside_fraction, est.normalized)

    return Job(f"job.greedy.n{g.n}", run, check)


def build(seed: int) -> list[Job]:
    rng = random.Random(seed)
    seeds = [rng.randrange(2**32) for _ in range(CAMPAIGN_SEEDS + 1)]
    g, campaign = TorusGraph(CAMPAIGN_N), _Campaign(seeds[:-1])
    # The large trace goes first, while the heap holds only the set-up, so
    # that its peak resident set does not depend on the traces before it.
    return [_job(TorusGraph(LARGE_N), seeds[-1])] + [_job(g, s, campaign) for s in seeds[:-1]]
