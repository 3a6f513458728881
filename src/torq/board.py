"""Toroidal queens boards as 4-partite hypergraphs.

The toroidal board of side n is modelled as a 4-partite 4-uniform
hypergraph: parts X (rows), Y (columns), S (sum diagonals, X+Y) and
D (difference diagonals, X-Y), each with n vertices indexed by residues
mod n.  Placing a queen at (x, y) uses the edge
(x, y, x+y mod n, x-y mod n).  The semi-queens variant drops the D part.
This module owns each board's parts, the one vertex numbering
(vertex_index) and the edge masks built on it: bit vertex_index(n, v)
for each vertex v, so vertex overlap is one AND, in the exact-cover
search for perfect matchings (_exact_cover) and in torq.decomp's link
searches; verification compares Vertex sets instead.

Coordinates are stored as canonical residues 0..n-1; the "centered"
representative (odd n: [-(n-1)/2, (n-1)/2], even n: [-n/2+1, n/2]) is a
derived view used for interval geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError


class Part(str, Enum):
    X = "X"
    Y = "Y"
    S = "S"
    D = "D"


#: X, Y, S, D, the order of a board's parts and vertex numbering (Vertex sorts D, S, X, Y).
PART_ORDER: tuple[Part, ...] = tuple(Part)


class BoardKind(str, Enum):
    """A board, valued by its SupportVector kind; ``parts`` are the first k of PART_ORDER."""

    QUEENS_TOROIDAL = ("queens", 4)
    SEMIQUEENS_TOROIDAL = ("semi", 3)  # no D

    def __new__(cls, value: str, k: int) -> "BoardKind":
        kind = str.__new__(cls, value)
        kind._value_ = value
        kind.parts = PART_ORDER[:k]
        return kind


#: vector_board's lookup: a dict, as calling BoardKind("semi") is far slower.
_BOARDS = {board.value: board for board in BoardKind}


def vector_board(kind: object) -> BoardKind:
    """The board of a vector kind, or PreconditionError naming kind."""
    try:
        return _BOARDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON kind
        raise PreconditionError("kind", f"must be {' or '.join(map(repr, _BOARDS))}") from None


def check_side(n: int) -> None:
    """Reject a board side below 1, naming the field n."""
    if n < 1:
        raise PreconditionError("n", "board side must be >= 1")


def check_seed(seed: int) -> None:
    """Reject a negative seed, naming the field seed: Random seeds by
    absolute value, so -s would alias s."""
    if seed < 0:
        raise PreconditionError("seed", f"must be a non-negative integer, got {seed}")


def centered(n: int, coord: int) -> int:
    """Centered representative of a residue: odd n -> [-(n-1)/2,(n-1)/2],
    even n -> [-n/2+1, n/2]."""
    c = coord % n
    bound = n // 2  # max centered value for both parities
    if c > bound:
        c -= n
    return c


class Vertex(NamedTuple):
    """A vertex of the toroidal board: a part and a residue coordinate.

    A tuple: it hashes, compares and sorts as (part, coord), in C,
    which the per-edge loops of torq.lattice and torq.decomp lean on."""

    part: Part
    coord: int


def vertex_index(n: int, v: Vertex) -> int:
    """The one flat numbering of a board's vertices, part by part in
    PART_ORDER: bit vertex_index(n, v) of an edge mask stands for v."""
    return PART_ORDER.index(v.part) * n + v.coord


class Edge(NamedTuple):
    """An edge of T(n), fully determined by its (x, y) coordinates; a
    tuple, like Vertex, hashing, comparing and sorting as (x, y)."""

    x: int
    y: int

    def s(self, n: int) -> int:
        return (self.x + self.y) % n

    def d(self, n: int) -> int:
        return (self.x - self.y) % n

    def vertices(self, n: int) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        return (
            Vertex(Part.X, self.x),
            Vertex(Part.Y, self.y),
            Vertex(Part.S, self.s(n)),
            Vertex(Part.D, self.d(n)),
        )


def edge_at_centered(n: int, cx: int, cy: int) -> Edge:
    """Edge through centered row cx and centered column cy."""
    return Edge(cx % n, cy % n)


@dataclass(frozen=True)
class Interval:
    """Square interval I'_s: the vertices whose centered coordinate is at
    most s in absolute value, in every part."""

    s: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("interval parameter must be nonnegative")

    def contains(self, n: int, v: Vertex) -> bool:
        return abs(centered(n, v.coord)) <= self.s

    def contains_edge(self, n: int, e: Edge) -> bool:
        return all(self.contains(n, v) for v in e.vertices(n))


def square(s: int) -> Interval:
    return Interval(s)


def whole_board(n: int) -> Interval:
    return Interval(n)


@dataclass(frozen=True)
class TorusGraph:
    """A board: kind, side n, and an optional set of removed vertices."""

    n: int
    kind: BoardKind = BoardKind.QUEENS_TOROIDAL
    removed: frozenset[Vertex] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BoardKind):
            raise PreconditionError("kind", f"must be a BoardKind, got {self.kind!r}")
        check_side(self.n)
        for v in self.removed:
            if v.part not in self.parts() or not 0 <= v.coord < self.n:
                raise ValueError(f"removed vertex {v} not on this board")

    def parts(self) -> tuple[Part, ...]:
        return self.kind.parts

    def vertices(self) -> Iterator[Vertex]:
        for part in self.parts():
            for c in range(self.n):
                v = Vertex(part, c)
                if v not in self.removed:
                    yield v

    def vertex_count(self) -> int:
        return self.n * len(self.parts()) - len(self.removed)

    def matching_bound(self) -> int:
        """The largest conceivable matching: the fewest live vertices in any part."""
        return self.n - max(sum(v.part is p for v in self.removed) for p in self.parts())

    def edge_vertices(self, e: Edge) -> tuple[Vertex, ...]:
        return e.vertices(self.n)[: len(self.parts())]

    def edge_mask(self, e: tuple[int, int]) -> int:
        """An int with bit vertex_index(n, v) for each vertex v of e, an
        Edge or a plain (x, y) pair, on this board: two edges of this
        board share a vertex exactly when their masks share a bit."""
        n, (x, y) = self.n, e
        mask = 1 << x | 1 << (n + y) | 1 << (2 * n + (x + y) % n)
        if Part.D in self.parts():
            mask |= 1 << (3 * n + (x - y) % n)
        return mask

    def has_vertex(self, v: Vertex) -> bool:
        """Whether v, of one of this board's parts, is in range and not removed."""
        return 0 <= v.coord < self.n and v not in self.removed

    def has_edge(self, e: Edge) -> bool:
        return all(self.has_vertex(v) for v in self.edge_vertices(e))

    def removed_mask(self) -> int:
        """An int with bit vertex_index(n, v) for each removed vertex v:
        an edge is live exactly when its edge mask misses it."""
        return sum(1 << vertex_index(self.n, v) for v in self.removed)

    def edges(self) -> list[tuple[Edge, int]]:
        """The live edges with their edge masks, in (x, y) order."""
        n, dead = self.n, self.removed_mask()
        every = (Edge(x, y) for x in range(n) for y in range(n))
        return [(e, mask) for e in every if not (mask := self.edge_mask(e)) & dead]


def attacks(n: int, mode: str, q1: tuple[int, int], q2: tuple[int, int]) -> bool:
    """Whether two queens attack: same row/column, or same (mode-dependent)
    diagonal."""
    if q1 == q2:
        raise ValueError("attacks requires distinct squares")
    (r1, c1), (r2, c2) = q1, q2
    if r1 == r2 or c1 == c2:
        return True
    if mode == "classical":
        return r1 + c1 == r2 + c2 or r1 - c1 == r2 - c2
    if mode == "toroidal":
        return (r1 + c1) % n == (r2 + c2) % n or (r1 - c1) % n == (r2 - c2) % n
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class Matching:
    """A sequence of pairwise vertex-disjoint edges."""

    edges: tuple[Edge, ...]

    @staticmethod
    def of(edges: Iterable[Edge]) -> "Matching":
        return Matching(tuple(edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)


@dataclass(frozen=True)
class MatchingReport:
    valid: bool
    perfect: bool
    offending_vertex: Vertex | None = None


def verify_matching(
    g: TorusGraph, m: Matching | Sequence[Edge], require_perfect: bool = False
) -> MatchingReport:
    """Check pairwise disjointness and optionally perfection on g.  For an
    edge not on g, the offending vertex is its first vertex, in part order,
    that is removed or has a coordinate outside 0..n-1."""
    seen: set[Vertex] = set()
    for e in m:
        dead = next((v for v in g.edge_vertices(e) if not g.has_vertex(v)), None)
        if dead is not None:
            return MatchingReport(False, False, offending_vertex=dead)
        for v in g.edge_vertices(e):
            if v in seen:
                return MatchingReport(False, False, offending_vertex=v)
            seen.add(v)
    if require_perfect:
        return MatchingReport(True, all(v in seen for v in g.vertices()))
    return MatchingReport(True, False)


def _exact_cover(masks: Sequence[int], items: int, node_cap: int) -> tuple[list[int] | None, bool]:
    """Indices, in ascending order, of masks that cover each bit of
    items exactly once; or None.  Every bit of a mask is an item.

    Knuth's Algorithm X: each node branches on the uncovered item with
    the fewest live options, the lowest bit among ties, and tries those
    options in the order listed.  The live options are one int over
    option indices, and placing option i keeps those whose masks miss
    its mask, alive & ~conflict[i].  The items' live-option counts are
    one list, kept current as Dancing Links keeps them: the child's list
    is the parent's less one per item of each option that placing i
    removes, which are few, and i's own items get a count above any
    live one.  Each node visited counts, and the search stops past
    node_cap nodes; the flag says it stopped early.  Nodes are its only
    budget: it never reads the clock, so a caller with a deadline checks
    it between calls, and the answer does not depend on machine speed."""
    # Items by position: the p-th lowest bit of items.
    position = {b: p for p, b in enumerate(_bits(items))}
    covers = [[position[b] for b in _bits(mask)] for mask in masks]
    holders = [0] * len(position)
    for i, ps in enumerate(covers):
        for p in ps:
            holders[p] |= 1 << i
    conflict = [reduce(or_, [holders[p] for p in ps], 0) for ps in covers]
    covered = len(masks) + 1
    chosen: list[int] = []
    nodes = 0
    truncated = False

    def rec(counts: list[int], alive: int, left: int) -> bool:
        # counts: each item's live options, or covered; left: items uncovered.
        nonlocal nodes, truncated
        if not left:
            return True
        nodes += 1
        if nodes > node_cap:
            truncated = True
            return False
        options = holders[counts.index(min(counts))] & alive
        while options:
            low = options & -options
            options ^= low
            i = low.bit_length() - 1
            removed = alive & conflict[i]
            child = counts.copy()
            for j in _bits(removed):
                for p in covers[j]:
                    child[p] -= 1
            for p in covers[i]:
                child[p] = covered
            chosen.append(i)
            if rec(child, alive ^ removed, left - len(covers[i])):
                return True
            chosen.pop()
        return False

    counts = [h.bit_count() for h in holders]
    found = rec(counts, (1 << len(masks)) - 1, len(holders))
    return (sorted(chosen) if found else None), truncated


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# --- JSON I/O -----------------------------------------------------------


#: The schema tag torq.cli stamps on every JSON document it writes.
SCHEMA = "torq/1"


def placement_to_json(n: int, mode: str, queens: Sequence[tuple[int, int]]) -> dict:
    return {"n": n, "mode": mode, "queens": [[r, c] for r, c in queens]}


def placement_from_json(obj: object) -> tuple[int, str, list[tuple[int, int]]]:
    """Parse :func:`placement_to_json` output; PreconditionError names the
    first bad field by its path, such as ``queens[0][1]``."""
    if not isinstance(obj, dict):
        raise PreconditionError("top level", "must be a JSON object")
    n = _json_int(obj, "n")
    check_side(n)
    if obj.get("mode") not in ("toroidal", "classical"):
        raise PreconditionError("mode", "must be 'toroidal' or 'classical'")
    if not isinstance(obj.get("queens"), list):
        raise PreconditionError("queens", "must be a JSON array" if "queens" in obj else "missing")
    queens = []
    for i, rc in enumerate(obj["queens"]):
        if not (isinstance(rc, list) and len(rc) == 2):
            raise PreconditionError(f"queens[{i}]", "must be a [row, column] pair")
        r, c = _json_int(rc, 0, i, "queens"), _json_int(rc, 1, i, "queens")
        if not (0 <= r < n and 0 <= c < n):
            raise PreconditionError(f"queens[{i}]", f"out of range for n={n}")
        queens.append((r, c))
    return n, obj["mode"], queens


def _json_int(
    obj: dict | list, key: str | int, i: int | None = None, array: str = "entries"
) -> int:
    """obj[key], which must be a JSON integer (not a float, string or
    bool); a list obj must have index key.  When obj is item i of the
    JSON array named array, errors name the field ``array[i].key`` (or
    ``array[i][key]`` for a list)."""
    try:
        val = obj[key]
        if type(val) is int:
            return val
        why = f"must be an integer, got {json.dumps(val)}"
    except KeyError:
        why = "missing"
    if i is None:
        raise PreconditionError(str(key), why)
    sub = f"[{key}]" if isinstance(obj, list) else f".{key}"
    raise PreconditionError(f"{array}[{i}]{sub}", why)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
