"""The four workloads, each a ``build(seed) -> list[Job]`` that makes every
input during set-up."""

from . import decompose, greedy, lattice, search

WORKLOADS = {
    "search": search.build,
    "greedy": greedy.build,
    "lattice": lattice.build,
    "decompose": decompose.build,
}

# The kind of probe each workload's job times are scaled by (worker.PROBES):
# greedy's numpy kernel slows less than pure-Python code on a busy machine.
PROBE = {"search": "python", "greedy": "numpy", "lattice": "python", "decompose": "python"}
