"""Random greedy matching process on toroidal boards.

Repeatedly picks a uniformly random remaining edge, adds it to a
matching, and deletes its vertices together with all incident edges.
Each step records the remaining edge count Q(i), the degree extremes
over surviving vertices, and (for odd n) the signed parity disparity:
the number of surviving odd-centered S vertices minus odd-centered D
vertices, which changes only when a single-wrap edge is removed.

The process keeps O(n) state: per part, a vertex-alive mask and the
vertex degrees.  An edge is alive exactly when all its vertices are, so
Q(i) is the sum of the row degrees; a uniform live edge is a row drawn
with probability proportional to its degree, then a uniform live column
of that row.

Reference curves: with p(i) = 1 - 4i/|V(0)| the process tracks
Q(i) ~ n^2 p^4 and degrees ~ n p^3, with error envelopes
e_q = 2(1 - 4 ln p) b n^2 and e_d = 2(1 - 4 ln p) b^(2/3) n for a
user-chosen envelope width b (infinite at p = 0, reached when a run ends
in a perfect matching).  The per-step product of Q(i) also yields
an unbiased estimator of the number of ordered perfect edge sequences,
i.e. n! times the perfect-matching count.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .board import (
    BoardKind,
    Edge,
    Matching,
    Part,
    TorusGraph,
    centered,
)
from .errors import PreconditionError, VerificationError

#: RNG family used by run_greedy; recorded in trace metadata.
RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class StepRecord:
    """State of the process after i edges have been removed."""

    i: int
    q: int  # remaining edge count Q(i)
    d_min: int  # minimum degree over surviving vertices (0 if none)
    d_max: int  # maximum degree over surviving vertices (0 if none)
    parity_disparity: int  # signed odd-S minus odd-D count (odd n only)
    p: float  # 1 - k*i/|V(0)| for a k-partite board


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of one greedy run: per-step stats plus the matching."""

    n: int
    seed: int
    stop_fraction: float
    kind: BoardKind
    rng_algorithm: str
    steps: tuple[StepRecord, ...]
    matching: Matching
    completed: bool


@dataclass(frozen=True)
class Envelope:
    """Reference error envelopes around the idealized trajectories."""

    b: float

    def __post_init__(self) -> None:
        if not (0 < self.b < math.inf):  # also false for NaN
            raise PreconditionError("b", "envelope parameter b must be finite and positive")

    def e_q(self, n: int, p: float) -> float:
        """Allowed deviation of Q(i) from n^2 p^4 (inf at p = 0, its limit)."""
        return _widening(p) * self.b * n * n

    def e_d(self, n: int, p: float) -> float:
        """Allowed deviation of any degree from n p^3 (inf at p = 0)."""
        return _widening(p) * self.b ** (2.0 / 3.0) * n


def _widening(p: float) -> float:
    """2(1 - 4 ln p), the envelopes' common factor; a perfect matching
    ends a run at p = 0, where the factor's limit is inf."""
    return 2.0 * (1.0 - 4.0 * math.log(p)) if p > 0 else math.inf


def _centered_parity(n: int) -> np.ndarray:
    """parity[c] = centered(n, c) mod 2 for residues c in 0..n-1."""
    c = np.arange(n)
    return np.where(c > n // 2, c - n, c) % 2


class _LiveBoard:
    """The surviving part of a board, held in O(n) state.

    Per part, a vertex-alive mask and the degree of every vertex.  Edge
    (x, y) is alive exactly when its X, Y, S (and D) vertices are all
    alive, so no per-edge state exists.  Starts from the full board, on
    which every vertex has degree n and Q = n^2.
    """

    def __init__(self, n: int, parts: tuple[Part, ...]) -> None:
        self.n = n
        self.parts = parts
        self.alive = {part: np.ones(n, dtype=bool) for part in parts}
        self.deg = {part: np.full(n, n, dtype=np.int64) for part in parts}
        self.q = n * n
        # mod[j] = j mod n: every coordinate sequence along a line is a
        # slice of it, so building a line allocates nothing of size n.
        self._mod = np.arange(3 * n) % n

    def line(self, part: Part, c: int) -> tuple[dict[Part, np.ndarray], np.ndarray]:
        """The cells on the line of live vertex (part, c): their
        coordinates in the other parts, and 1 where the cell is live.

        The cells are (c, t) on an X line and (t, .) on the others, for
        t = 0..n-1.
        """
        n, m = self.n, self._mod
        t = m[:n]
        c_plus_t, c_minus_t = m[c : c + n], m[c + n : c : -1]
        t_minus_c, two_t_minus_c = m[n - c : 2 * n - c], m[n - c : 3 * n - c : 2]
        if part is Part.X:  # cells (c, t)
            coords = {Part.Y: t, Part.S: c_plus_t, Part.D: c_minus_t}
        elif part is Part.Y:  # cells (t, c)
            coords = {Part.X: t, Part.S: c_plus_t, Part.D: t_minus_c}
        elif part is Part.S:  # cells (t, c - t); D = 2t - c repeats for even n
            coords = {Part.X: t, Part.Y: c_minus_t, Part.D: two_t_minus_c}
        else:  # cells (t, t - c); S = 2t - c repeats for even n
            coords = {Part.X: t, Part.Y: t_minus_c, Part.S: two_t_minus_c}
        coords = {p: coords[p] for p in self.parts if p is not part}
        live = np.ones(n, dtype=bool)
        for p, idx in coords.items():
            live &= self.alive[p][idx]
        return coords, live.astype(np.int64)

    def sample(self, r: int) -> Edge:
        """The r-th live edge (0 <= r < Q) in (x, y) order.

        The row is the x with cum[x-1] <= r < cum[x] over the cumulative
        row degrees, drawn with probability deg_X[x]/Q; r's offset in that
        row is then uniform over its live columns.
        """
        cum = np.cumsum(self.deg[Part.X])
        x = int(np.searchsorted(cum, r, side="right"))
        offset = r - int(cum[x]) + int(self.deg[Part.X][x])
        _, live = self.line(Part.X, x)
        return Edge(x, int(np.flatnonzero(live)[offset]))

    def kill(self, part: Part, c: int) -> None:
        """Delete live vertex (part, c) and the live edges through it.

        np.subtract.at accumulates: on an S or D line of an even-n board
        the other diagonal's coordinates repeat.
        """
        coords, live = self.line(part, c)
        for p, idx in coords.items():
            np.subtract.at(self.deg[p], idx, live)
        self.q -= int(self.deg[part][c])
        self.deg[part][c] = 0
        self.alive[part][c] = False

    def check(self) -> None:
        """Rebuild the degrees and Q from the masks and compare."""
        deg = {part: np.zeros(self.n, dtype=np.int64) for part in self.parts}
        for x in np.flatnonzero(self.alive[Part.X]):
            coords, live = self.line(Part.X, int(x))
            deg[Part.X][x] = live.sum()
            for p, idx in coords.items():
                np.add.at(deg[p], idx, live)
        for part in self.parts:
            if not np.array_equal(self.deg[part], deg[part]):
                raise VerificationError(f"{part.value} degrees drifted from the masks")
        if self.q != int(deg[Part.X].sum()):
            raise VerificationError(f"Q = {self.q} drifted from the masks")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise PreconditionError("seed", f"must be a non-negative integer, got {seed}")


def run_greedy(
    g: TorusGraph, seed: int, stop_fraction: float, debug: bool = False
) -> GreedyTrace:
    """Run the uniform random greedy matching process on g.

    Selects a uniformly random remaining edge, appends it to the
    matching, deletes its vertices and all incident edges, and repeats
    until ceil(stop_fraction * m_max) edges are placed (m_max being the
    largest conceivable matching size) or no edges remain.  The trace
    records a StepRecord for every prefix, including the empty one.
    Deterministic for fixed (g, seed, stop_fraction).  Memory is O(n).

    With debug=True the incrementally maintained degrees are rebuilt
    from the vertex-alive masks every 256 steps and after the last one,
    and compared.
    """
    if not (0.0 < stop_fraction <= 1.0):
        raise PreconditionError("stop-fraction", "stop_fraction must be in (0, 1]")
    _check_seed(seed)
    n = g.n
    parts = g.parts()
    k = len(parts)
    has_d = Part.D in parts

    board = _LiveBoard(n, parts)
    for v in g.removed:
        board.kill(v.part, v.coord)
    vertex_alive, deg = board.alive, board.deg

    v0 = g.vertex_count()
    track_parity = has_d and n % 2 == 1
    par = _centered_parity(n)
    disparity = 0
    if track_parity:
        disparity = int(par[vertex_alive[Part.S]].sum()) - int(
            par[vertex_alive[Part.D]].sum()
        )

    m_max = min(int(vertex_alive[part].sum()) for part in parts)
    m_target = math.ceil(stop_fraction * m_max)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def record(i: int) -> StepRecord:
        d_lo: int | None = None
        d_hi = 0
        for part in parts:
            mask = vertex_alive[part]
            if mask.any():
                col = deg[part][mask]
                lo = int(col.min())
                d_lo = lo if d_lo is None else min(d_lo, lo)
                d_hi = max(d_hi, int(col.max()))
        return StepRecord(i, board.q, d_lo or 0, d_hi, disparity, 1.0 - (k * i) / v0)

    steps = [record(0)]
    chosen: list[Edge] = []
    while len(chosen) < m_target and board.q > 0:
        e = board.sample(int(rng.integers(board.q)))
        for v in g.edge_vertices(e):
            board.kill(v.part, v.coord)
        if track_parity:
            disparity += int(par[e.d(n)]) - int(par[e.s(n)])
        chosen.append(e)
        steps.append(record(len(chosen)))
        if debug and len(chosen) % 256 == 0:
            board.check()
    if debug:
        board.check()
    return GreedyTrace(
        n=n,
        seed=seed,
        stop_fraction=stop_fraction,
        kind=g.kind,
        rng_algorithm=RNG_ALGORITHM,
        steps=tuple(steps),
        matching=Matching.of(chosen),
        completed=len(chosen) >= m_target,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-step envelope verdicts for a trace."""

    first_violation: int | None
    inside_fraction: float
    inside: tuple[bool, ...]


def envelope_check(trace: GreedyTrace, b: float) -> EnvelopeReport:
    """Flag, per recorded step, whether Q(i) and the degree extremes lie
    within the reference envelopes around n^2 p^4 and n p^3."""
    env = Envelope(b)
    n = trace.n
    flags: list[bool] = []
    first: int | None = None
    for rec in trace.steps:
        p = rec.p
        v_alive = rec.i < len(trace.steps) - 1 or rec.d_max > 0 or rec.q > 0
        ok_q = abs(rec.q - n * n * p**4) <= env.e_q(n, p)
        ok_d = True
        if v_alive:
            target = n * p**3
            dev = max(abs(rec.d_min - target), abs(rec.d_max - target))
            ok_d = dev <= env.e_d(n, p)
        ok = ok_q and ok_d
        flags.append(ok)
        if not ok and first is None:
            first = rec.i
    frac = sum(flags) / len(flags) if flags else 1.0
    return EnvelopeReport(first, frac, tuple(flags))


@dataclass(frozen=True)
class CountEstimate:
    """Accumulated log of the number of process choices."""

    total: float  # sum over steps of log Q(i) - log(n - i)
    normalized: float  # total / n, comparable with log n - 3


def count_estimate(trace: GreedyTrace) -> CountEstimate:
    """Accumulate log Q(i) - log(n - i) over the steps actually taken.

    Q(i) counts the choices available at step i; dividing by (n - i)
    discounts the order in which the final matching could have been
    produced.  Normalized by n the value is comparable with log n - 3,
    the per-queen log of the (n/e^3)^n count lower bound.
    """
    n = trace.n
    total = 0.0
    for i in range(len(trace.matching)):
        total += math.log(trace.steps[i].q) - math.log(n - i)
    return CountEstimate(total, total / n)


def knuth_count_estimator(g: TorusGraph, trials: int, seed: int = 0) -> float:
    """Unbiased estimate of the number of ordered perfect edge sequences.

    Runs the greedy process to completion `trials` times; a run reaching
    a perfect matching contributes the product of its per-step choice
    counts Q(i), a dead run contributes 0.  The expectation of one run
    is exactly the number of ordered sequences of edges forming a
    perfect matching, i.e. n! times the perfect-matching count.
    Products are accumulated as exact integers, so no intermediate
    rounding occurs.  A run holds the live edges' masks in (x, y) order
    and, as _LiveBoard.sample does, takes the r-th for r uniform below
    Q(i), then drops every mask that meets it.  The trials draw in turn
    from one stream, SeedSequence(seed).
    """
    _check_seed(seed)
    n = g.n
    edges = (Edge(x, y) for x in range(n) for y in range(n))
    masks = [g.edge_mask(e) for e in edges if g.has_edge(e)]
    m_max = n - max(sum(1 for v in g.removed if v.part is part) for part in g.parts())

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    total = 0
    for _ in range(trials):
        live = masks
        product = 1
        placed = 0
        while placed < m_max and live:
            product *= len(live)
            pick = live[int(rng.integers(len(live)))]
            live = [m for m in live if not m & pick]
            placed += 1
        if placed == m_max:
            total += product
    return total / trials if trials else 0.0


def parity_track(trace: GreedyTrace) -> tuple[int, ...]:
    """Signed parity disparity after each step of an odd-n queens trace.

    Recomputes the sequence from the per-edge wrap classification of the
    matching (an edge whose centered S coordinate is even and centered D
    coordinate is odd contributes +1, the opposite single-wrap kind -1,
    non-wrap and double-wrap edges 0) and checks it against the values
    recorded during the run.
    """
    if trace.n % 2 == 0:
        raise PreconditionError("odd-n", "parity tracking requires odd n")
    if trace.kind is not BoardKind.QUEENS_TOROIDAL:
        raise PreconditionError("kind", "parity tracking requires the D part")
    n = trace.n
    out: list[int] = []
    delta = trace.steps[0].parity_disparity
    for i, e in enumerate(trace.matching):
        ps = centered(n, e.s(n)) % 2
        pd = centered(n, e.d(n)) % 2
        delta += pd - ps
        if delta != trace.steps[i + 1].parity_disparity:
            raise VerificationError(
                f"parity disparity mismatch at step {i + 1}: "
                f"recomputed {delta}, recorded {trace.steps[i + 1].parity_disparity}"
            )
        out.append(delta)
    return tuple(out)


# --- Reporting ----------------------------------------------------------


def trace_to_csv(trace: GreedyTrace, b: float) -> str:
    """Render a trace as CSV with the reference curves alongside."""
    env = Envelope(b)
    n = trace.n
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["i", "Q", "p", "n2p4", "eq", "dmin", "dmax", "np3", "ed",
                "parity_disparity"])
    for rec in trace.steps:
        p = rec.p
        w.writerow([
            rec.i, rec.q, repr(p), repr(n * n * p**4), repr(env.e_q(n, p)),
            rec.d_min, rec.d_max, repr(n * p**3), repr(env.e_d(n, p)),
            rec.parity_disparity,
        ])
    return buf.getvalue()


def run_campaign(
    n: int, seeds: Sequence[int], b: float, stop_fraction: float
) -> dict:
    """Run one greedy trace per seed and fold the summary statistics."""
    if len(seeds) == 0:
        raise PreconditionError("seeds", "a campaign needs at least one seed")
    g = TorusGraph(n)
    fracs: list[float] = []
    estimates: list[float] = []
    for seed in seeds:
        trace = run_greedy(g, seed, stop_fraction)
        fracs.append(envelope_check(trace, b).inside_fraction)
        estimates.append(count_estimate(trace).normalized)
    return {
        "schema": "torq/1",
        "n": n,
        "seeds": list(seeds),
        "b": b,
        "stop_fraction": stop_fraction,
        "summary": {
            "inside_fraction_median": statistics.median(fracs),
            "estimate_mean_log": statistics.fmean(estimates),
        },
    }
