"""Spans and counters recorded around each public torq call the benchmark makes.

A span holds a name, start and end (``time.perf_counter`` seconds), the
index of the span that caused it and the job it belongs to; every span of
one job shares that job's id.  Self time, the span's duration minus the
time covered by its direct children, is worked out when the span closes.
Spans stay in memory until the run ends.  The tracer also times its own
bookkeeping in each span's enter and exit, per round, as the counter
``trace.overhead_s``.  ``NullTracer`` is the untraced mode: the same
calls, doing nothing.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

OVERHEAD = "trace.overhead_s"


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: spans and counts cost one method call each."""

    on = False
    _span = _NullSpan()

    def span(self, name: str, *tags: str) -> _NullSpan:
        return self._span

    def count(self, name: str, value: float = 1) -> None:
        pass

    def begin_round(self) -> None:
        pass

    def begin_job(self, job_id: str) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "index", "name", "tags", "start", "end", "parent",
                 "job", "child_s", "self_s")

    def __init__(self, tracer: "Tracer", name: str, tags: tuple[str, ...]) -> None:
        self.tracer = tracer
        self.name = name
        self.tags = list(tags)
        self.child_s = 0.0

    def __enter__(self) -> "_Span":
        t0 = perf_counter()
        tr = self.tracer
        self.parent = tr.stack[-1].index if tr.stack else None
        self.job = tr.job
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = perf_counter()
        tr.round_counts[OVERHEAD] += self.start - t0
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        dur = self.end - self.start
        self.self_s = dur - self.child_s
        if tr.stack:
            tr.stack[-1].child_s += dur
        totals = tr.round_self_s
        totals[self.name] += self.self_s
        for suffix in self.tags:
            totals[f"{self.name}.{suffix}"] += self.self_s
        tr.round_counts[OVERHEAD] += perf_counter() - self.end


class Tracer:
    """Tracing on: keeps every span, and per round the self time of each
    span name and the sum of each counter."""

    on = True

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.job: str | None = None
        self.rounds: list[tuple[dict[str, float], dict[str, float]]] = []
        self.round_self_s: dict[str, float] = defaultdict(float)
        self.round_counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, *tags: str) -> _Span:
        return _Span(self, name, tags)

    def count(self, name: str, value: float = 1) -> None:
        self.round_counts[name] += value

    def begin_round(self) -> None:
        self.round_self_s = defaultdict(float)
        self.round_counts = defaultdict(float)
        self.rounds.append((self.round_self_s, self.round_counts))

    def begin_job(self, job_id: str) -> None:
        self.job = job_id

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "name": sp.name, "tags": sp.tags, "start": sp.start,
                    "end": sp.end, "self_s": sp.self_s, "parent": sp.parent,
                    "job": sp.job,
                }) + "\n")
