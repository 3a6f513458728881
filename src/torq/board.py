"""Toroidal queens boards as 4-partite hypergraphs.

The toroidal board of side n is modelled as a 4-partite 4-uniform
hypergraph: parts X (rows), Y (columns), S (sum diagonals, X+Y) and
D (difference diagonals, X-Y), each with n vertices indexed by residues
mod n.  Placing a queen at (x, y) uses the edge
(x, y, x+y mod n, x-y mod n).  The semi-queens variant drops the D part.
This module owns each board's parts, the one vertex numbering
(vertex_index) and the edge masks built on it: bit vertex_index(n, v)
for each vertex v, so vertex overlap is one AND, in the perfect-matching
search and in torq.decomp's link searches; verification compares Vertex
sets instead.

Coordinates are stored as canonical residues 0..n-1; the "centered"
representative (odd n: [-(n-1)/2, (n-1)/2], even n: [-n/2+1, n/2]) is a
derived view used for interval geometry.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError


class Part(str, Enum):
    X = "X"
    Y = "Y"
    S = "S"
    D = "D"


#: Deterministic iteration order for parts (lexicographic on the enum).
PART_ORDER: tuple[Part, ...] = (Part.X, Part.Y, Part.S, Part.D)


class BoardKind(str, Enum):
    """A board and its ``parts``, the first k of PART_ORDER."""

    QUEENS_TOROIDAL = ("queens-toroidal", 4)
    SEMIQUEENS_TOROIDAL = ("semiqueens-toroidal", 3)  # no D

    def __new__(cls, value: str, k: int) -> "BoardKind":
        kind = str.__new__(cls, value)
        kind._value_ = value
        kind.parts = PART_ORDER[:k]
        return kind


#: The board of each SupportVector kind.
VECTOR_KINDS = {"queens": BoardKind.QUEENS_TOROIDAL, "semi": BoardKind.SEMIQUEENS_TOROIDAL}


def vector_board(kind: object) -> BoardKind:
    """The board of a vector kind, or PreconditionError naming kind."""
    try:
        return VECTOR_KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON kind
        raise PreconditionError("kind", "must be 'queens' or 'semi'") from None


def check_side(n: int) -> None:
    """Reject a board side below 1, naming the field n."""
    if n < 1:
        raise PreconditionError("n", "board side must be >= 1")


def centered(n: int, coord: int) -> int:
    """Centered representative of a residue: odd n -> [-(n-1)/2,(n-1)/2],
    even n -> [-n/2+1, n/2]."""
    c = coord % n
    bound = n // 2  # max centered value for both parities
    if c > bound:
        c -= n
    return c


@dataclass(frozen=True, order=True)
class Vertex:
    """A vertex of the toroidal board: a part and a residue coordinate."""

    part: Part
    coord: int


def vertex_index(n: int, v: Vertex) -> int:
    """The one flat numbering of a board's vertices, part by part in
    PART_ORDER: bit vertex_index(n, v) of an edge mask stands for v."""
    return PART_ORDER.index(v.part) * n + v.coord


@dataclass(frozen=True, order=True)
class Edge:
    """An edge of T(n), fully determined by its (x, y) coordinates."""

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

    def edge_mask(self, e: Edge) -> int:
        """An int with bit vertex_index(n, v) for each vertex v of e on
        this board: two edges of this board share a vertex exactly when
        their masks share a bit."""
        n, x, y = self.n, e.x, e.y
        mask = 1 << x | 1 << (n + y) | 1 << (2 * n + (x + y) % n)
        if Part.D in self.parts():
            mask |= 1 << (3 * n + (x - y) % n)
        return mask

    def has_vertex(self, v: Vertex) -> bool:
        """Whether v, of one of this board's parts, is in range and not removed."""
        return 0 <= v.coord < self.n and v not in self.removed

    def has_edge(self, e: Edge) -> bool:
        return all(self.has_vertex(v) for v in self.edge_vertices(e))

    def edges(self) -> list[tuple[Edge, int]]:
        """The live edges with their edge masks, in (x, y) order."""
        n = self.n
        dead = sum(1 << vertex_index(n, v) for v in self.removed)
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


def _first_matching(
    rows: Sequence[Sequence[tuple[Edge, int]]], node_cap: int, deadline: float | None = None
) -> tuple[list[Edge] | None, bool]:
    """The first pick of one (edge, edge mask) candidate per row, in the
    order listed, whose masks are pairwise disjoint; or None.  Each row
    visited is a node, and the search stops past node_cap nodes or the
    time.monotonic() deadline.  The flag says it stopped early."""
    chosen: list[Edge] = []
    nodes = 0
    truncated = False

    def rec(idx: int, used: int) -> bool:
        nonlocal nodes, truncated
        if idx == len(rows):
            return True
        nodes += 1
        if nodes > node_cap or (deadline is not None and time.monotonic() > deadline):
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
