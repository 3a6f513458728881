"""Toroidal/classical queens boards as 4-partite hypergraphs.

The toroidal board of side n is modelled as a 4-partite 4-uniform
hypergraph: parts X (rows), Y (columns), S (sum diagonals, X+Y) and
D (difference diagonals, X-Y), each with n vertices indexed by residues
mod n.  Placing a queen at (x, y) uses the edge
(x, y, x+y mod n, x-y mod n).  The semi-queens variant drops the D part;
the classical board unrolls the diagonals into 2n-1 classes each.

Coordinates are stored as canonical residues 0..n-1; the "centered"
representative (odd n: [-(n-1)/2, (n-1)/2], even n: [-n/2+1, n/2]) is a
derived view used for interval geometry and wrap-around detection.
"""

from __future__ import annotations

import json
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
    QUEENS_TOROIDAL = "queens-toroidal"
    SEMIQUEENS_TOROIDAL = "semiqueens-toroidal"
    QUEENS_CLASSICAL = "queens-classical"


class WrapKind(str, Enum):
    NONE = "none"
    SUM = "sum"
    DIFF = "diff"
    BOTH = "both"


def centered(n: int, coord: int) -> int:
    """Centered representative of a residue: odd n -> [-(n-1)/2,(n-1)/2],
    even n -> [-n/2+1, n/2]."""
    c = coord % n
    bound = n // 2  # max centered value for both parities
    if c > bound:
        c -= n
    return c


def centered_range(n: int) -> tuple[int, int]:
    """Inclusive (lo, hi) of the centered representative range."""
    if n % 2 == 1:
        return (-(n - 1) // 2, (n - 1) // 2)
    return (-n // 2 + 1, n // 2)


@dataclass(frozen=True, order=True)
class Vertex:
    """A vertex of the toroidal board: a part and a residue coordinate."""

    part: Part
    coord: int

    def centered(self, n: int) -> int:
        return centered(n, self.coord)

    def to_json(self) -> dict:
        return {"part": self.part.value, "coord": self.coord}


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

    def coord_in(self, part: Part, n: int) -> int:
        if part is Part.X:
            return self.x
        if part is Part.Y:
            return self.y
        if part is Part.S:
            return self.s(n)
        return self.d(n)


def edge_of(n: int, x: int, y: int) -> Edge:
    """The unique edge dictated by row x and column y."""
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"edge coordinates out of range for n={n}: ({x}, {y})")
    return Edge(x, y)


def edge_at_centered(n: int, cx: int, cy: int) -> Edge:
    """Edge through centered row cx and centered column cy."""
    return Edge(cx % n, cy % n)


def wraps(n: int, e: Edge) -> WrapKind:
    """Whether the centered sum/difference of e's (x, y) leaves the
    centered coordinate range."""
    lo, hi = centered_range(n)
    cx, cy = centered(n, e.x), centered(n, e.y)
    sum_wraps = not (lo <= cx + cy <= hi)
    diff_wraps = not (lo <= cx - cy <= hi)
    if sum_wraps and diff_wraps:
        return WrapKind.BOTH
    if sum_wraps:
        return WrapKind.SUM
    if diff_wraps:
        return WrapKind.DIFF
    return WrapKind.NONE


def wrap_parity_test(n: int, e: Edge) -> bool:
    """For odd n: an edge wraps iff its centered S and D coordinates have
    different parities."""
    if n % 2 == 0:
        raise ValueError("wrap_parity_test is defined for odd n only")
    cs = centered(n, e.s(n))
    cd = centered(n, e.d(n))
    return (cs - cd) % 2 == 1


@dataclass(frozen=True)
class Interval:
    """Box interval I_s (X/Y capped at 2s/3) or square interval I'_s."""

    shape: str  # "box" | "square"
    s: int

    def __post_init__(self) -> None:
        if self.shape not in ("box", "square"):
            raise ValueError(f"unknown interval shape {self.shape!r}")
        if self.s < 0:
            raise ValueError("interval parameter must be nonnegative")

    def bound_for(self, part: Part) -> int:
        if self.shape == "box" and part in (Part.X, Part.Y):
            return (2 * self.s) // 3
        return self.s

    def contains(self, n: int, v: Vertex) -> bool:
        return abs(centered(n, v.coord)) <= self.bound_for(v.part)

    def contains_edge(self, n: int, e: Edge) -> bool:
        return all(self.contains(n, v) for v in e.vertices(n))


def box(s: int) -> Interval:
    return Interval("box", s)


def square(s: int) -> Interval:
    return Interval("square", s)


def whole_board(n: int) -> Interval:
    return Interval("square", n)


@dataclass(frozen=True)
class TorusGraph:
    """A board: kind, side n, and an optional set of removed vertices."""

    n: int
    kind: BoardKind = BoardKind.QUEENS_TOROIDAL
    removed: frozenset[Vertex] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PreconditionError("n", "board side must be >= 1")
        for v in self.removed:
            if v.part not in self.parts():
                raise ValueError(f"removed vertex {v} not on this board")
            if not (0 <= v.coord < self.part_size(v.part)):
                raise ValueError(f"removed vertex {v} out of range")

    def parts(self) -> tuple[Part, ...]:
        if self.kind is BoardKind.SEMIQUEENS_TOROIDAL:
            return (Part.X, Part.Y, Part.S)
        return PART_ORDER

    def part_size(self, part: Part) -> int:
        if self.kind is BoardKind.QUEENS_CLASSICAL and part in (Part.S, Part.D):
            return 2 * self.n - 1
        return self.n

    def vertices(self) -> Iterator[Vertex]:
        for part in self.parts():
            for c in range(self.part_size(part)):
                v = Vertex(part, c)
                if v not in self.removed:
                    yield v

    def vertex_count(self) -> int:
        return sum(self.part_size(p) for p in self.parts()) - len(self.removed)

    def edge_vertices(self, e: Edge) -> tuple[Vertex, ...]:
        n = self.n
        if self.kind is BoardKind.SEMIQUEENS_TOROIDAL:
            return (Vertex(Part.X, e.x), Vertex(Part.Y, e.y), Vertex(Part.S, e.s(n)))
        if self.kind is BoardKind.QUEENS_CLASSICAL:
            # Classical diagonals do not wrap: s in 0..2n-2, d shifted
            # by n-1 into 0..2n-2.
            return (
                Vertex(Part.X, e.x),
                Vertex(Part.Y, e.y),
                Vertex(Part.S, e.x + e.y),
                Vertex(Part.D, e.x - e.y + n - 1),
            )
        return e.vertices(n)

    def has_edge(self, e: Edge) -> bool:
        if not (0 <= e.x < self.n and 0 <= e.y < self.n):
            return False
        return not any(v in self.removed for v in self.edge_vertices(e))

    def edges(self) -> Iterator[Edge]:
        for x in range(self.n):
            for y in range(self.n):
                e = Edge(x, y)
                if self.has_edge(e):
                    yield e


def edges_through(g: TorusGraph, v: Vertex) -> list[Edge]:
    """All edges of g containing v, enumerated arithmetically."""
    n = g.n
    out = []
    for e in _candidate_edges(n, v, g.kind):
        if g.has_edge(e):
            out.append(e)
    return out


def _candidate_edges(n: int, v: Vertex, kind: BoardKind) -> Iterator[Edge]:
    if v.part is Part.X:
        for y in range(n):
            yield Edge(v.coord, y)
    elif v.part is Part.Y:
        for x in range(n):
            yield Edge(x, v.coord)
    elif v.part is Part.S:
        if kind is BoardKind.QUEENS_CLASSICAL:
            for x in range(n):
                y = v.coord - x
                if 0 <= y < n:
                    yield Edge(x, y)
        else:
            for x in range(n):
                yield Edge(x, (v.coord - x) % n)
    else:
        if kind is BoardKind.QUEENS_CLASSICAL:
            for x in range(n):
                y = x - (v.coord - (n - 1))
                if 0 <= y < n:
                    yield Edge(x, y)
        else:
            for x in range(n):
                yield Edge(x, (x - v.coord) % n)


def edges_into(g: TorusGraph, v: Vertex, interval: Interval) -> list[Edge]:
    """Edges containing v whose other vertices all lie in the interval."""
    n = g.n
    out = []
    for e in edges_through(g, v):
        others = [w for w in g.edge_vertices(e) if w != v]
        if all(interval.contains(n, w) for w in others):
            out.append(e)
    return out


def pair_degree(g: TorusGraph, u: Vertex, v: Vertex) -> int:
    """Number of edges of g containing both u and v (u, v in different parts)."""
    if u.part == v.part:
        raise ValueError("pair_degree requires vertices in different parts")
    return sum(1 for e in edges_through(g, u) if v in g.edge_vertices(e))


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
    uncovered: tuple[Vertex, ...] = ()


def verify_matching(
    g: TorusGraph, m: Matching | Sequence[Edge], require_perfect: bool = False
) -> MatchingReport:
    """Check pairwise disjointness and optionally perfection on g."""
    seen: set[Vertex] = set()
    for e in m:
        if not g.has_edge(e):
            return MatchingReport(False, False, offending_vertex=Vertex(Part.X, e.x))
        for v in g.edge_vertices(e):
            if v in seen:
                return MatchingReport(False, False, offending_vertex=v)
            seen.add(v)
    if require_perfect:
        uncovered = tuple(v for v in g.vertices() if v not in seen)
        return MatchingReport(True, not uncovered, uncovered=uncovered)
    return MatchingReport(True, False)


def parity_census(
    n: int, vertices: Iterable[Vertex]
) -> tuple[int, int, int, int, int]:
    """(odd-S, even-S, odd-D, even-D, disparity) counts over centered
    coordinates of the given vertex set."""
    os = es = od = ed = 0
    for v in vertices:
        p = centered(n, v.coord) % 2
        if v.part is Part.S:
            os, es = os + p, es + (1 - p)
        elif v.part is Part.D:
            od, ed = od + p, ed + (1 - p)
    return (os, es, od, ed, abs(os - od))


# --- JSON I/O -----------------------------------------------------------


def placement_to_json(n: int, mode: str, queens: Sequence[tuple[int, int]]) -> dict:
    return {
        "schema": "torq/1",
        "n": n,
        "mode": mode,
        "queens": [[r, c] for r, c in queens],
    }


def placement_from_json(obj: dict) -> tuple[int, str, list[tuple[int, int]]]:
    n = int(obj["n"])
    if n < 1:
        raise ValueError("n: must be a positive integer")
    mode = obj["mode"]
    if mode not in ("toroidal", "classical"):
        raise ValueError("mode: must be 'toroidal' or 'classical'")
    queens = []
    for i, rc in enumerate(obj["queens"]):
        r, c = int(rc[0]), int(rc[1])
        if not (0 <= r < n and 0 <= c < n):
            raise ValueError(f"queens[{i}]: coordinates out of range for n={n}")
        queens.append((r, c))
    return n, mode, queens


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
