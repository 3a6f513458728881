"""Integer vectors on the vertex set, edge shadows, generator families,
and exact lattice-membership tests.

``SupportVector`` (vertex weights) and ``SignedEdgeSet`` (edge
multiplicities) are one sparse counter: every sum of vectors or edge
sets in torq, including the shadow map and each phase of
:mod:`torq.decomp`, goes through their ``add`` / ``+=`` /
``add_edge``, which check keys and drop zeros.  Their ``from_json``
rejects malformed input with a PreconditionError naming the field path.

The edge lattice L of a board is the integer span of the shadows of its
edges.  Membership is characterised by part-sum equalities together with
weighted congruences in i and i^2; for even n an additional exact parity
identity is required (the sum of weights on odd S-coordinates must equal
the sum on odd D-coordinates — every even-n edge has S and D coordinates
of equal parity, so this quantity is invariant and zero on the lattice).
Each test reads its sums from one ``SupportVector.part_stats`` pass.
An independent Hermite-style integer elimination oracle cross-checks the
congruence tests at small n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple

from .board import (
    Edge, Part, PART_ORDER, TorusGraph, Vertex, _json_int, centered, check_side, vector_board,
    vertex_index,
)
from .errors import PreconditionError


class PartStats(NamedTuple):
    """The sums of one part of a vector, over its coordinates c (residues)
    with weights w: sum w, sum c*w, sum c^2*w, and sum w over the c whose
    centered representative is odd (at even n, the odd residues)."""

    sum: int
    i_sum: int
    i2_sum: int
    odd_weight: int


class _Counter:
    """A sparse integer counter over the vertices or edges of one board.

    The constructor copies ``entries`` through :meth:`add`, which checks
    each key with the subclass's ``_check`` and never stores a zero.
    ``add``, ``+=`` and ``SupportVector.add_edge`` update the counter in
    place: use them only on a counter the caller created, never on one it
    was given.  ``_space`` gives the fields besides ``entries`` (the board
    and kind), which operands of ``+`` must share.
    """

    entries: Mapping

    def __post_init__(self) -> None:
        given = self.entries
        object.__setattr__(self, "entries", {})
        for key, m in given.items():
            self.add(key, m)

    def add(self, key, m: int) -> None:
        """Add m to the count of key, dropping the key when it reaches 0."""
        if m == 0:
            return
        self._check(key)
        total = self.entries.get(key, 0) + int(m)
        if total:
            self.entries[key] = total
        else:
            del self.entries[key]

    def __iadd__(self, other):
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(f"mismatched {type(self).__name__} operands")
        for key, m in other.entries.items():
            self.add(key, m)
        return self

    def copy(self):
        """A new counter with the same entries, free to update in place."""
        out = type(self)(**self._space())
        out.entries.update(self.entries)
        return out

    def __add__(self, other):
        out = self.copy()
        out += other
        return out

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k: int):
        """k times this counter, built through the constructor."""
        return type(self)(entries={key: k * m for key, m in self.entries.items()}, **self._space())

    def __neg__(self):
        return self.scaled(-1)

    def size(self) -> int:
        return sum(abs(m) for m in self.entries.values())


@dataclass(frozen=True)
class SupportVector(_Counter):
    """Integer weights on the vertices of a board of side n.

    kind is "queens" (4 parts) or "semi" (3 parts, no D), the parts of
    its board in torq.board.VECTOR_KINDS; any other kind raises
    PreconditionError("kind").  Zero weights are never stored.
    """

    n: int
    entries: Mapping[Vertex, int] = field(default_factory=dict)
    kind: str = "queens"
    _parts: tuple[Part, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_parts", vector_board(self.kind).parts)
        super().__post_init__()

    def _check(self, v: Vertex) -> None:
        if v.part not in self._parts or not (0 <= v.coord < self.n):
            raise ValueError(f"vertex {v} invalid for n={self.n} kind={self.kind}")

    def _space(self) -> dict:
        return {"n": self.n, "kind": self.kind}

    def add_edge(self, e: Edge, m: int = 1) -> None:
        """Add m times the shadow of e for this vector's kind."""
        for v in e.vertices(self.n)[: len(self._parts)]:
            self.add(v, m)

    def weight(self, v: Vertex) -> int:
        return self.entries.get(v, 0)

    def support(self) -> list[Vertex]:
        return sorted(self.entries)

    def part_weights(self, part: Part) -> dict[int, int]:
        return {v.coord: w for v, w in self.entries.items() if v.part is part}

    def part_stats(self) -> dict[Part, PartStats]:
        """The sums of every part, in one pass over the entries; a part
        this vector lacks (D of a semi vector) reads all zeros."""
        n = self.n
        acc = {p: [0, 0, 0, 0] for p in PART_ORDER}
        for v, w in self.entries.items():
            c, row = v.coord, acc[v.part]
            row[0] += w
            row[1] += c * w
            row[2] += c * c * w
            if centered(n, c) % 2:
                row[3] += w
        return {p: PartStats(*row) for p, row in acc.items()}

    def is_zero(self) -> bool:
        return not self.entries

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "entries": [
                {"part": v.part.value, "coord": v.coord, "weight": w}
                for v, w in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_json(obj: object) -> "SupportVector":
        """Parse :meth:`to_json` output; PreconditionError names the first
        bad field by its path, such as ``entries[0].weight``."""

        def empty(n: int, top: dict) -> SupportVector:
            return SupportVector(n, kind=top.get("kind", "queens"))

        def key(ent: dict, i: int) -> Vertex:
            part = ent.get("part")
            if not isinstance(part, str) or part not in _PARTS:
                raise PreconditionError(f"entries[{i}].part", "must be one of X, Y, S, D")
            return Vertex(_PARTS[part], _json_int(ent, "coord", i))

        return _from_json(obj, empty, key, "weight")


def check_vector(v: SupportVector, n: int, kind: str) -> None:
    """Reject a vector of another kind or side than the test it is
    given to, with a PreconditionError naming kind or n."""
    vector_board(kind)
    if v.kind != kind:
        raise PreconditionError("kind", f"the vector has kind {v.kind!r}, not {kind!r}")
    if v.n != n:
        raise PreconditionError("n", f"the vector has n={v.n}, not {n}")


def sv(n: int, items: Iterable[tuple[Part, int, int]], kind: str = "queens") -> SupportVector:
    """Build a SupportVector from (part, coord, weight) triples (coords
    reduced mod n, repeated vertices accumulated)."""
    out = SupportVector(n, kind=kind)
    for part, coord, w in items:
        out.add(Vertex(part, coord % n), w)
    return out


@dataclass(frozen=True)
class SignedEdgeSet(_Counter):
    """An integer multiset of edges with signs (multiplicity per edge)."""

    n: int
    entries: Mapping[Edge, int] = field(default_factory=dict)

    def _check(self, e: Edge) -> None:
        if not (0 <= e.x < self.n and 0 <= e.y < self.n):
            raise ValueError(f"edge {e} out of range for n={self.n}")

    def _space(self) -> dict:
        return {"n": self.n}

    def mult(self, e: Edge) -> int:
        return self.entries.get(e, 0)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"x": e.x, "y": e.y, "mult": m} for e, m in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_json(obj: object) -> "SignedEdgeSet":
        """Parse :meth:`to_json` output; PreconditionError names the first
        bad field by its path, such as ``entries[0].mult``."""
        return _from_json(
            obj,
            lambda n, top: SignedEdgeSet(n),
            lambda ent, i: Edge(_json_int(ent, "x", i), _json_int(ent, "y", i)),
            "mult",
        )


_PARTS = {p.value: p for p in Part}


def _from_json(
    obj: object,
    empty: Callable[[int, dict], _Counter],
    key: Callable[[dict, int], object],
    weight: str,
) -> _Counter:
    """The shared JSON reader of SupportVector and SignedEdgeSet: checks
    every field, then fills ``empty(n, obj)`` entry by entry."""
    if not isinstance(obj, dict):
        raise PreconditionError("top level", "must be a JSON object")
    n = _json_int(obj, "n")
    check_side(n)
    out = empty(n, obj)
    if not isinstance(obj.get("entries"), list):
        why = "must be a JSON array" if "entries" in obj else "missing"
        raise PreconditionError("entries", why)
    seen: set = set()
    for i, ent in enumerate(obj["entries"]):
        if not isinstance(ent, dict):
            raise PreconditionError(f"entries[{i}]", "must be a JSON object")
        k = key(ent, i)
        m = _json_int(ent, weight, i)
        if k in seen:
            raise PreconditionError(f"entries[{i}]", "repeats an earlier entry")
        seen.add(k)
        try:
            out.add(k, m)
        except ValueError as ex:
            raise PreconditionError(f"entries[{i}]", str(ex)) from None
    return out


def edge_shadow(n: int, e: Edge, kind: str = "queens") -> SupportVector:
    out = SupportVector(n, kind=kind)
    out.add_edge(e)
    return out


def shadow(phi: SignedEdgeSet, kind: str = "queens") -> SupportVector:
    """The boundary map: each vertex receives the signed sum of the
    multiplicities of edges containing it."""
    out = SupportVector(phi.n, kind=kind)
    for e, m in phi.entries.items():
        out.add_edge(e, m)
    return out


# --- membership tests ---------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failed: str | None = None  # name of the first violated condition

    def __bool__(self) -> bool:
        return self.ok


def check_lattice_queens(v: SupportVector) -> Verdict:
    """Exact membership of v in the edge lattice of the toroidal queens
    board.

    Odd n: (i) equal part sums; (ii) sum(i*vX)+sum(i*vY) = sum(i*vS) mod n;
    (iii) sum(i*vX)-sum(i*vY) = sum(i*vD) mod n; (iv)
    2*sum(i^2*vX)+2*sum(i^2*vY) = sum(i^2*vS)+sum(i^2*vD) mod n.
    Even n: (a)-(c) as (i)-(iii); (d) the i^2 combination divisible by 2n;
    (e) the odd-coordinate weight sums on S and D agree exactly.
    """
    n = v.n
    stats = v.part_stats()
    x, y, s, d = (stats[p] for p in PART_ORDER)
    odd = n % 2 == 1
    if not (x.sum == y.sum == s.sum == d.sum):
        return Verdict(False, "i" if odd else "a")
    if (x.i_sum + y.i_sum - s.i_sum) % n != 0:
        return Verdict(False, "ii" if odd else "b")
    if (x.i_sum - y.i_sum - d.i_sum) % n != 0:
        return Verdict(False, "iii" if odd else "c")
    combo = s.i2_sum + d.i2_sum - 2 * x.i2_sum - 2 * y.i2_sum
    if odd:
        if combo % n != 0:
            return Verdict(False, "iv")
    else:
        if combo % (2 * n) != 0:
            return Verdict(False, "d")
        if s.odd_weight != d.odd_weight:
            return Verdict(False, "e")
    return Verdict(True)


def in_lattice_queens(v: SupportVector) -> bool:
    return check_lattice_queens(v).ok


def check_lattice_semiqueens(v: SupportVector) -> Verdict:
    """Membership in the edge lattice of the semi-queens board: equal part
    sums and sum(i*vX)+sum(i*vY) = sum(i*vS) mod n."""
    stats = v.part_stats()
    x, y, s = (stats[p] for p in vector_board("semi").parts)
    if not (x.sum == y.sum == s.sum):
        return Verdict(False, "part-sums")
    if (x.i_sum + y.i_sum - s.i_sum) % v.n != 0:
        return Verdict(False, "i-sum")
    return Verdict(True)


#: check_lattice_queens's condition names, as they read on an S-only vector.
_S_CONDITIONS = {
    "i": "sum", "a": "sum", "ii": "i-sum", "b": "i-sum",
    "iv": "i2-sum", "d": "i2-sum", "e": "odd-sum",
}


def check_sublattice_S(v: SupportVector) -> Verdict:
    """Membership in the one-part sublattice: lattice members supported on
    the S part only.

    This is :func:`check_lattice_queens` on an S-only vector, where the
    X, Y and D sums and moments are all 0.  Odd n: sum v = 0 (i), sum i*v
    = 0 mod n (ii), sum i^2*v = 0 mod n (iv).  Even n: the i^2 condition
    strengthens to divisibility by 2n (d) and the odd-coordinate weight
    sum must vanish exactly (e).  Condition iii/c reads 0 = 0 and never
    fails.
    """
    if any(u.part is not Part.S for u in v.entries):
        return Verdict(False, "support")
    verdict = check_lattice_queens(v)
    return verdict if verdict else Verdict(False, _S_CONDITIONS[verdict.failed])


def in_sublattice_S(v: SupportVector) -> bool:
    return check_sublattice_S(v).ok


# --- generators ---------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    """One of the three generator families.

    simple-matrix(a, b, c, d): +1 at matrix cells (a,c),(b,d), -1 at
    (a,d),(b,c) — rows a,b and columns c,d of an n x n integer matrix.
    sq-gen(a, b, c): S-weights (1,-1,-1,1) at (a, b, c, b+c-a).
    q-gen(a, b, c, s): offsets — (1,-1,-1,1) at (a, a+b, a+c, a+b+c)
    minus the same pattern shifted by s.
    """

    kind: str
    params: tuple[int, ...]
    sign: int = 1

    _ARITY = {"simple-matrix": 4, "sq-gen": 3, "q-gen": 4}

    def __post_init__(self) -> None:
        if self.kind not in self._ARITY:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len(self.params) != self._ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {self._ARITY[self.kind]} parameters")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


def expand(n: int, g: Generator, kind: str = "queens") -> SupportVector:
    """The definite SupportVector of a generator on a board of side n."""
    t = g.sign
    if g.kind == "sq-gen":
        a, b, c = g.params
        return sv(
            n,
            [(Part.S, a, t), (Part.S, b, -t), (Part.S, c, -t), (Part.S, b + c - a, t)],
            kind,
        )
    if g.kind == "q-gen":
        a, b, c, s = g.params
        items = []
        for coord, w in (
            (a, 1), (a + b, -1), (a + c, -1), (a + b + c, 1),
            (s + a, -1), (s + a + b, 1), (s + a + c, 1), (s + a + b + c, -1),
        ):
            items.append((Part.S, coord, t * w))
        return sv(n, items, kind)
    # simple-matrix
    a, b, c, d = g.params
    items = [
        (Part.S, a + c, t), (Part.S, b + d, t), (Part.S, a + d, -t), (Part.S, b + c, -t),
        (Part.D, a - c, t), (Part.D, b - d, t), (Part.D, a - d, -t), (Part.D, b - c, -t),
    ]
    return sv(n, items, kind)


# --- independent membership oracle --------------------------------------

HNF_MAX_N = 15


class _EchelonLattice:
    """Integer lattice kept in row-echelon form (Hermite-style pivots).

    Rows are dicts column-index -> value with a leading pivot column;
    insertion eliminates against existing pivots using extended gcd.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @staticmethod
    def _pivot(row: dict[int, int]) -> int | None:
        live = [c for c, x in row.items() if x != 0]
        return min(live) if live else None

    def add(self, vec: dict[int, int]) -> None:
        row = {c: x for c, x in vec.items() if x != 0}
        while True:
            p = self._pivot(row)
            if p is None:
                return
            if p not in self.rows:
                lead = row[p]
                if lead < 0:
                    row = {c: -x for c, x in row.items()}
                self.rows[p] = row
                return
            base = self.rows[p]
            a, b = base[p], row[p]
            if b % a == 0:
                q = b // a
                row = {
                    c: row.get(c, 0) - q * base.get(c, 0)
                    for c in set(row) | set(base)
                }
            else:
                g, u, w = _ext_gcd(a, b)
                new_base = {
                    c: u * base.get(c, 0) + w * row.get(c, 0)
                    for c in set(row) | set(base)
                }
                qa, qb = a // g, b // g
                new_row = {
                    c: qa * row.get(c, 0) - qb * base.get(c, 0)
                    for c in set(row) | set(base)
                }
                self.rows[p] = {c: x for c, x in new_base.items() if x != 0}
                row = new_row

    def contains(self, vec: dict[int, int]) -> bool:
        row = {c: x for c, x in vec.items() if x != 0}
        while True:
            p = self._pivot(row)
            if p is None:
                return True
            if p not in self.rows:
                return False
            base = self.rows[p]
            if row[p] % base[p] != 0:
                return False
            q = row[p] // base[p]
            row = {
                c: row.get(c, 0) - q * base.get(c, 0) for c in set(row) | set(base)
            }


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@functools.cache
def _edge_lattice(n: int, kind: str) -> _EchelonLattice:
    g = TorusGraph(n, vector_board(kind))
    lat = _EchelonLattice()
    for e, _ in g.edges():
        lat.add({vertex_index(n, v): 1 for v in g.edge_vertices(e)})
    return lat


def hnf_oracle(n: int, kind: str, v: SupportVector) -> bool:
    """Membership of v in the integer span of edge shadows, decided by
    exact integer elimination (independent of the congruence tests).
    v must be a vector of this kind and side n."""
    if n > HNF_MAX_N:
        raise PreconditionError("n", f"hnf_oracle supports n <= {HNF_MAX_N}")
    check_vector(v, n, kind)
    lat = _edge_lattice(n, kind)
    return lat.contains({vertex_index(n, u): w for u, w in v.entries.items()})
