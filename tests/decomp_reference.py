"""The edge cover that rebuilds its unit maps for every edge: the
reference for torq.decomp's _cover_units, which builds its sorted row and
column unit lists once per sign.

Before each edge it reads the row, column, sum and difference weights of
the residual afresh, so it assumes nothing about which units an edge
moves.  Edges, their order and the residual it leaves are meant to be
identical to _cover_units's for every residual.
"""

from torq.board import Edge, Part
from torq.decomp import _put_edge
from torq.lattice import SignedEdgeSet, SupportVector


def cover_units_reference(phi: SignedEdgeSet, r: SupportVector) -> int:
    """Pair the lowest row unit of r with a column unit of the same sign,
    preferring an edge that also covers same-sign diagonal units, until
    no row or column unit of that sign is left; positive units first.
    Returns the number of edges placed."""
    n = r.n
    placed = 0
    for sign in (1, -1):
        while True:
            rx = {k: v for k, v in r.part_weights(Part.X).items() if v * sign > 0}
            ry = {k: v for k, v in r.part_weights(Part.Y).items() if v * sign > 0}
            if not rx or not ry:
                break
            rs = r.part_weights(Part.S)
            rd = r.part_weights(Part.D)
            x = min(rx)
            best = None
            for y in sorted(ry):
                bonus = (rs.get((x + y) % n, 0) * sign > 0) + (
                    rd.get((x - y) % n, 0) * sign > 0
                )
                if best is None or bonus > best[0]:
                    best = (bonus, y)
                    if bonus == 2:
                        break
            _put_edge(phi, r, Edge(x, best[1]), sign)
            placed += 1
    return placed
