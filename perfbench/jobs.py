"""The job: one closed-loop request the benchmark sends to torq.

``run(tr)`` makes the torq calls, each inside a span of ``tr``, and
returns what they produced.  ``check(out)`` runs outside the timed window
and raises ``CheckFailed`` when the output is wrong.  A job counts as
failed when either raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class CheckFailed(Exception):
    """A job's output is not what torq promises for its input."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    name: str  # root span name, "job.<workload>.<kind>"
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
