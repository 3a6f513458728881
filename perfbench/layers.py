"""Per-layer metrics, worked out from the rounds a ``Tracer`` recorded.

A metric named ``<key>.s`` is the self time of the spans counted under
``<key>`` (a span name, or a name plus a tag such as ``n12``).  A metric
in ``DERIVED`` combines counters and times.  Any other name is a counter.
Each is computed per traced round; the reported value is the best round's,
by the metric's direction, as for the end-to-end time (counts and ratios
repeat exactly from round to round).  A layer the workload never calls
reads 0.
"""

from __future__ import annotations


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ratio(num: str, den: str):
    return lambda t, c: _div(c[num], c[den])


def _step_us(n: int):
    key = f"greedy.run_greedy.n{n}"
    return lambda t, c: 1e6 * _div(t[key], c[f"{key}.steps"])


DERIVED = {
    "solvers.extend_classical.refuted_ratio":
        _ratio("solvers.extend_classical.refuted", "solvers.extend_classical.calls"),
    "greedy.knuth_count_estimator.trials_per_s":
        lambda t, c: _div(c["greedy.knuth_count_estimator.trials"],
                          t["greedy.knuth_count_estimator"]),
    "greedy.run_greedy.n1001.step_us": _step_us(1001),
    "greedy.run_greedy.n2001.step_us": _step_us(2001),
    "greedy.run_greedy.completed_ratio":
        _ratio("greedy.run_greedy.completed", "greedy.run_greedy.calls"),
    "lattice.member_ratio": _ratio("lattice.members", "lattice.jobs"),
    "decomp.to_matching_pair.capacity_ratio":
        _ratio("decomp.to_matching_pair.ok", "decomp.to_matching_pair.calls"),
    "decomp.build_cascade.built_ratio":
        _ratio("decomp.build_cascade.built", "decomp.build_cascade.calls"),
    "decomp.make_config.valid_ratio":
        _ratio("decomp.make_config.valid", "decomp.make_config.calls"),
}


def layer_metrics(rounds, specs) -> dict[str, float]:
    """``rounds`` is ``Tracer.rounds``: per traced round, (self time by key,
    counter sums), both defaulting to 0.  ``specs`` are BENCHMARK.json's
    per-layer entries."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in DERIVED:
            per_round = [DERIVED[name](t, c) for t, c in rounds]
        elif name.endswith(".s"):
            per_round = [t[name[:-2]] for t, _ in rounds]
        else:
            per_round = [c[name] for _, c in rounds]
        best = min if spec["better"] == "lower" else max
        out[name] = float(best(per_round))
    return out
