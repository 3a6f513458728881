"""The row-order matching DFS: the reference for torq.board's
_exact_cover, which branches on the uncovered vertex with the fewest
live options instead.

Both exhaust the same search space, so they agree on whether a perfect
matching exists; the matchings they find, and their node counts, may
differ.
"""

from typing import Sequence

from torq.board import Edge


def first_matching_reference(
    rows: Sequence[Sequence[tuple[Edge, int]]], node_cap: int
) -> tuple[list[Edge] | None, bool]:
    """The first pick of one (edge, edge mask) candidate per row, in the
    order listed, whose masks are pairwise disjoint; or None.  Each row
    visited is a node, and the search stops past node_cap nodes; the
    flag says it stopped early."""
    chosen: list[Edge] = []
    nodes = 0
    truncated = False

    def rec(idx: int, used: int) -> bool:
        nonlocal nodes, truncated
        if idx == len(rows):
            return True
        nodes += 1
        if nodes > node_cap:
            truncated = True
            return False
        for e, mask in rows[idx]:
            if used & mask:
                continue
            chosen.append(e)
            if rec(idx + 1, used | mask):
                return True
            chosen.pop()
        return False

    return (chosen if rec(0, 0) else None), truncated
