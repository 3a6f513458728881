"""The line-at-a-time greedy kernel: the reference for torq.greedy's
run_greedy, which removes an edge's k lines in one fused step.

Each vertex kill gathers the alive rows along its line and decrements
the other parts' degrees with np.subtract.at; the degree extremes are
two reductions over the live degrees.  Draws and traces are meant to be
identical to run_greedy's for every (g, seed, stop_fraction).
"""

import math

import numpy as np

from torq.board import Edge, Matching, TorusGraph, centered
from torq.greedy import GreedyTrace, StepRecord

# Which view of the line's coordinates (see ReferenceBoard.line) each
# part takes on a line of part i, indexed like PART_ORDER; None marks part i.
_T, _C_PLUS_T, _C_MINUS_T, _T_MINUS_C, _TWO_T_MINUS_C = range(5)
_LINE_VIEWS = (
    (None, _T, _C_PLUS_T, _C_MINUS_T),  # X line: cells (c, t)
    (_T, None, _C_PLUS_T, _T_MINUS_C),  # Y line: cells (t, c)
    (_T, _C_MINUS_T, None, _TWO_T_MINUS_C),  # S line: cells (t, c - t)
    (_T, _T_MINUS_C, _TWO_T_MINUS_C, None),  # D line: cells (t, t - c)
)


class ReferenceBoard:
    """A (k, n) vertex-alive mask and a (k, n) degree array, row i for
    part PART_ORDER[i]; starts from the full board."""

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.alive = np.ones((k, n), dtype=bool)
        self.deg = np.full((k, n), n, dtype=np.int64)
        self.q = n * n
        self._mod = np.arange(3 * n) % n

    def line(self, i: int, c: int) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
        """The cells on the line of live vertex (i, c): their coordinates
        in each other row j as [(j, idx)], and 1 where the cell is live."""
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
        """The r-th live edge (0 <= r < Q) in (x, y) order."""
        cum = np.cumsum(self.deg[0])
        x = int(np.searchsorted(cum, r, side="right"))
        offset = r - int(cum[x]) + int(self.deg[0, x])
        _, live = self.line(0, x)
        return Edge(x, int(np.flatnonzero(live)[offset]))

    def kill(self, i: int, c: int) -> None:
        """Delete live vertex (i, c) and the live edges through it."""
        coords, live = self.line(i, c)
        for j, idx in coords:
            np.subtract.at(self.deg[j], idx, live)
        self.q -= int(self.deg[i, c])
        self.deg[i, c] = 0
        self.alive[i, c] = False


def greedy_reference(g: TorusGraph, seed: int, stop_fraction: float) -> GreedyTrace:
    """run_greedy(g, seed, stop_fraction), one vertex kill at a time."""
    n = g.n
    parts = g.parts()
    k = len(parts)
    board = ReferenceBoard(n, k)
    for v in g.removed:
        board.kill(parts.index(v.part), v.coord)
    alive, deg = board.alive, board.deg

    v0 = g.vertex_count()
    track_parity = k == 4 and n % 2 == 1
    par = np.array([centered(n, c) % 2 for c in range(n)])
    disparity = 0
    if track_parity:
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
    return GreedyTrace(
        n=n,
        seed=seed,
        stop_fraction=stop_fraction,
        kind=g.kind,
        steps=tuple(steps),
        matching=Matching.of(chosen),
        completed=len(chosen) >= m_target,
    )
