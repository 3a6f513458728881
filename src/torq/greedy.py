"""Random greedy matching process on toroidal boards.

Repeatedly picks a uniformly random remaining edge, adds it to a
matching, and deletes its vertices together with all incident edges.
Each step records the remaining edge count Q(i), the degree extremes
over surviving vertices, and (for odd n) the signed parity disparity:
the number of surviving odd-centered S vertices minus odd-centered D
vertices, which changes only when a single-wrap edge is removed.

The process keeps O(n) state: a (k, n) vertex-alive mask and a (k, n)
degree array, one row per part, so a step's degree extremes are two
reductions over the live degrees.  An edge is alive exactly when all its
vertices are, so Q(i) is the sum of the X degrees; a uniform live edge
is a row drawn with probability proportional to its degree, then a
uniform live column of that row.

Reference curves: with p(i) = 1 - 4i/|V(0)| the process tracks
Q(i) ~ n^2 p^4 and degrees ~ n p^3, with error envelopes
e_q = 2(1 - 4 ln p) b n^2 and e_d = 2(1 - 4 ln p) b^(2/3) n for a
user-chosen envelope width b (infinite at p = 0, reached when a run ends
in a perfect matching).  The per-step product of Q(i) also yields
an unbiased estimator of the number of ordered perfect edge sequences,
i.e. n! times the perfect-matching count.  knuth_count_estimator
computes it on its own small kernel, a filtered list of edge masks,
which draws the same edges from the same seed as run_greedy.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .board import BoardKind, Edge, Matching, Part, TorusGraph, centered
from .errors import PreconditionError, VerificationError


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


# Which view of the line's coordinates (see _LiveBoard.line) each part
# takes on a line of part i, indexed like PART_ORDER; None marks part i.
_T, _C_PLUS_T, _C_MINUS_T, _T_MINUS_C, _TWO_T_MINUS_C = range(5)
_LINE_VIEWS = (
    (None, _T, _C_PLUS_T, _C_MINUS_T),  # X line: cells (c, t)
    (_T, None, _C_PLUS_T, _T_MINUS_C),  # Y line: cells (t, c)
    (_T, _C_MINUS_T, None, _TWO_T_MINUS_C),  # S line: cells (t, c - t)
    (_T, _T_MINUS_C, _TWO_T_MINUS_C, None),  # D line: cells (t, t - c)
)


class _LiveBoard:
    """The surviving part of a board, held in O(n) state.

    A (k, n) vertex-alive mask and a (k, n) degree array, row i for part
    PART_ORDER[i] (the first k parts are the board's).  Edge (x, y) is alive exactly
    when its X, Y, S (and D) vertices are all alive, so no per-edge
    state exists.  Starts from the full board, on which every vertex has
    degree n and Q = n^2.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.alive = np.ones((k, n), dtype=bool)
        self.deg = np.full((k, n), n, dtype=np.int64)
        self.q = n * n
        # mod[j] = j mod n: every coordinate sequence along a line is a
        # slice of it, so building a line allocates nothing of size n.
        self._mod = np.arange(3 * n) % n

    def line(self, i: int, c: int) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
        """The cells on the line of live vertex (i, c): their coordinates
        in each other row j as [(j, idx)], and 1 where the cell is live.

        The cells are (c, t) on an X line and (t, .) on the others, for
        t = 0..n-1.  On an S or D line of an even-n board the other
        diagonal's coordinates 2t - c repeat.
        """
        n, m = self.n, self._mod
        views = (m[:n], m[c : c + n], m[c + n : c : -1], m[n - c : 2 * n - c],
                 m[n - c : 3 * n - c : 2])
        row = _LINE_VIEWS[i]
        coords = [(j, views[row[j]]) for j in range(len(self.alive)) if j != i]
        live = np.ones(n, dtype=bool)
        for j, idx in coords:
            live &= self.alive[j][idx]
        return coords, live.astype(np.int64)

    def sample(self, r: int) -> Edge:
        """The r-th live edge (0 <= r < Q) in (x, y) order.

        The row is the x with cum[x-1] <= r < cum[x] over the cumulative
        X degrees, drawn with probability deg[0, x]/Q; r's offset in that
        row is then uniform over its live columns.
        """
        cum = np.cumsum(self.deg[0])
        x = int(np.searchsorted(cum, r, side="right"))
        offset = r - int(cum[x]) + int(self.deg[0, x])
        _, live = self.line(0, x)
        return Edge(x, int(np.flatnonzero(live)[offset]))

    def kill(self, i: int, c: int) -> None:
        """Delete live vertex (i, c) and the live edges through it.

        np.subtract.at accumulates repeated coordinates.
        """
        coords, live = self.line(i, c)
        for j, idx in coords:
            np.subtract.at(self.deg[j], idx, live)
        self.q -= int(self.deg[i, c])
        self.deg[i, c] = 0
        self.alive[i, c] = False

    def check(self) -> None:
        """Rebuild the degrees and Q from the masks and compare."""
        deg = np.zeros_like(self.deg)
        for x in np.flatnonzero(self.alive[0]):
            coords, live = self.line(0, int(x))
            deg[0, x] = live.sum()
            for j, idx in coords:
                np.add.at(deg[j], idx, live)
        if not np.array_equal(self.deg, deg):
            raise VerificationError("degrees drifted from the masks")
        if self.q != int(deg[0].sum()):
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
    until ceil(stop_fraction * g.matching_bound()) edges are placed or
    no edges remain.  The trace records a StepRecord for every prefix,
    including the empty one.  Deterministic for fixed (g, seed,
    stop_fraction).  Memory is O(n).

    With debug=True the incrementally maintained degrees are rebuilt
    from the vertex-alive masks every 256 steps and after the last one,
    and compared.
    """
    if not (0.0 < stop_fraction <= 1.0):
        raise PreconditionError("stop_fraction", f"must be in (0, 1], got {stop_fraction}")
    _check_seed(seed)
    if g.vertex_count() == 0:
        raise PreconditionError("board", f"the n={g.n} board has no vertex left")
    n = g.n
    parts = g.parts()
    k = len(parts)

    board = _LiveBoard(n, k)
    for v in g.removed:
        board.kill(parts.index(v.part), v.coord)
    alive, deg = board.alive, board.deg

    v0 = g.vertex_count()
    track_parity = k == 4 and n % 2 == 1
    par = np.array([centered(n, c) % 2 for c in range(n)])
    disparity = 0
    if track_parity:  # rows 2 and 3 are S and D
        disparity = int(par[alive[2]].sum()) - int(par[alive[3]].sum())

    m_target = math.ceil(stop_fraction * g.matching_bound())

    rng = np.random.default_rng(seed)

    def record(i: int) -> StepRecord:
        live = deg[alive]
        d_lo, d_hi = (int(live.min()), int(live.max())) if live.size else (0, 0)
        return StepRecord(i, board.q, d_lo, d_hi, disparity, 1.0 - (k * i) / v0)

    steps = [record(0)]
    chosen: list[Edge] = []
    while len(chosen) < m_target and board.q > 0:
        e = board.sample(int(rng.integers(board.q)))
        for i, v in enumerate(g.edge_vertices(e)):
            board.kill(i, v.coord)
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
    from one stream, default_rng(seed).  Raises PreconditionError("trials")
    for fewer than one trial.
    """
    _check_seed(seed)
    if trials < 1:
        raise PreconditionError("trials", f"an estimate needs at least one trial, got {trials}")
    masks = [mask for _, mask in g.edges()]
    m_max = g.matching_bound()

    rng = np.random.default_rng(seed)
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
    return total / trials


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
    if Part.D not in trace.kind.parts:
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
    try:
        count = len(seeds)
    except OverflowError:  # a range longer than sys.maxsize
        raise PreconditionError("seeds", f"a campaign takes at most {sys.maxsize} seeds") from None
    if count == 0:
        raise PreconditionError("seeds", "a campaign needs at least one seed")
    Envelope(b)  # rejects a bad b before the runs
    g = TorusGraph(n)
    fracs: list[float] = []
    estimates: list[float] = []
    for seed in seeds:
        trace = run_greedy(g, seed, stop_fraction)
        fracs.append(envelope_check(trace, b).inside_fraction)
        estimates.append(count_estimate(trace).normalized)
    return {
        "n": n,
        "seeds": list(seeds),
        "b": b,
        "stop_fraction": stop_fraction,
        "summary": {
            "inside_fraction_median": statistics.median(fracs),
            "estimate_mean_log": statistics.fmean(estimates),
        },
    }
