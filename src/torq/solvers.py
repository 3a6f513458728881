"""Exact solvers and explicit constructions on small boards.

Backtracking counters for the classical, toroidal, and semi-queens
problems, which still give the published counts but search one solution
per orbit of the column translation (torus) or of the mirror y -> n-1-y
(classical queens; the mirror swaps the two diagonal families, so
classical semi-queens get the full search); a branch-and-bound maximum
partial toroidal solution matching Monsky's closed form; and the
removed-vertex construction that turns a perfect matching of a
punctured torus into a classical n-queens placement whose only
toroidal attacks are six pairs among twelve fixed queens (three pairs
on each diagonal family).

Every search keeps its state in int bitmasks: the columns and diagonals
blocked in the current row; in the WSet search, one mask per attacking
pair of the elements and diagonal classes it uses, so placing a pair
filters the open pairs with one AND each; and in the punctured-torus
matching search (``torq.board``'s shared exact-cover search, which
branches on the vertex with the fewest squares left) the live squares
as one int over the candidate list, which placing a square filters
with one AND.
Search budgets count restarts and nodes, so the answer never depends on
machine speed.  Wall clock only aborts a run, and the punctured-torus
search reads it only between restarts and between WSets: a timeout
overruns by at most one 50,000-node restart plus the walk to the next
WSet, which the WSet search does not interrupt.  A WSet verifies its
invariants when it is built.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Iterator

from .board import (
    Edge,
    Matching,
    Part,
    TorusGraph,
    Vertex,
    _exact_cover,
    attacks,
    check_seed,
    check_side,
    placement_to_json,
    verify_matching,
)
from .errors import CapacityError, PreconditionError, VerificationError
from .lattice import Verdict, check_lattice_queens, sv

#: Largest n counted exhaustively by default (classical/toroidal/semi).
DEFAULT_EXHAUSTIVE_BOUND = 13
#: Largest n for the maximum-partial branch and bound by default.
DEFAULT_PARTIAL_BOUND = 16


def _check_n(n: int, bound: int | None, default: int) -> None:
    check_side(n)
    limit = default if bound is None else bound
    if n > limit:
        raise CapacityError(
            f"n={n} exceeds the exhaustive bound {limit}; raise the bound explicitly"
        )


def count_classical(n: int, bound: int | None = None) -> int:
    """Exact number of n-queens placements on the classical board.

    Row-by-row backtracking with column/diagonal bitmasks, counting the
    columns of row 0's queen up to the mirror y -> n-1-y (see
    _count_rows); the value is still the full count of the published
    sequence (OEIS A000170).
    """
    _check_n(n, bound, DEFAULT_EXHAUSTIVE_BOUND)
    return _count_rows(n, torus=False, semi=False)


def count_toroidal(n: int, bound: int | None = None) -> int:
    """Exact number of perfect matchings of the toroidal board T(n)."""
    _check_n(n, bound, DEFAULT_EXHAUSTIVE_BOUND)
    return _count_rows(n, torus=True, semi=False)


def count_semiqueens(n: int, mode: str = "toroidal", bound: int | None = None) -> int:
    """Exact semi-queens count: permutations with distinct sum diagonals,
    taken mod n (toroidal) or over 0..2n-2 (classical)."""
    _check_n(n, bound, DEFAULT_EXHAUSTIVE_BOUND)
    if mode not in ("toroidal", "classical"):
        raise PreconditionError("mode", f"unknown mode {mode!r}")
    return _count_rows(n, torus=mode == "toroidal", semi=True)


def _count_rows(n: int, torus: bool, semi: bool) -> int:
    """Number of ways to fill the rows in order with one queen each.

    cols, d and s are the columns, difference diagonals and sum
    diagonals blocked in the current row.  Moving down a row shifts d up
    one column and s down one; on the torus the shift wraps around.
    Semi-queens keep only the sum family, so their d is masked to 0.
    The loop body is picked once per call: wrap terms in the classical
    body would cost every node.

    Each count searches one solution per symmetry orbit and multiplies
    back, so it still equals the unreduced count.  On the torus, queens
    and semi-queens alike, moving every queen one column right maps
    solutions to solutions and fixes none (row 0's queen moves), so the
    count is n times the solutions with row 0's queen at column 0.  On
    the classical board the mirror y -> n-1-y sends row 0's column c to
    n-1-c, so columns below n/2 count twice and an odd n's middle column
    once.  Classical semi-queens get the full search: the mirror turns
    sum diagonals into difference diagonals, which they do not constrain.
    """
    full = (1 << n) - 1
    dmask = 0 if semi else full
    top = n - 1

    def shift(cols: int, d: int, s: int) -> int:
        if cols == full:
            return 1
        count = 0
        avail = full & ~(cols | d | s)
        while avail:
            bit = avail & -avail
            avail ^= bit
            count += shift(cols | bit, ((d | bit) << 1) & dmask, (s | bit) >> 1)
        return count

    def rotate(cols: int, d: int, s: int) -> int:
        if cols == full:
            return 1
        count = 0
        avail = full & ~(cols | d | s)
        while avail:
            bit = avail & -avail
            avail ^= bit
            d1, s1 = d | bit, s | bit
            count += rotate(cols | bit, (d1 << 1 | d1 >> top) & dmask, s1 >> 1 | (s1 & 1) << top)
        return count

    if torus:
        # Row 0's queen at column 0 blocks row 1's column 0, difference
        # column 1 and sum column n - 1 (n = 1 is done at once).
        return n * rotate(1, 2 & dmask, 1 << top)
    if semi:
        return shift(0, 0, 0)

    def row0(c: int) -> int:
        bit = 1 << c
        return shift(bit, bit << 1 & full, bit >> 1)

    mirrored = 2 * sum(row0(c) for c in range(n // 2))
    return mirrored + row0(n // 2) if n % 2 else mirrored


def monsky_value(n: int) -> int:
    """Closed form for the maximum partial toroidal solution size: n when
    n = 1,5 mod 6, n-1 when neither 3 nor 4 divides n, else n-2."""
    if n % 6 in (1, 5):
        return n
    if n % 3 != 0 and n % 4 != 0:
        return n - 1
    return n - 2


def max_partial_toroidal(n: int, bound: int | None = None) -> int:
    """Maximum matching size in T(n), by branch and bound.

    Feasibility of each target size m is tested in descending order.  For
    m < n some skipped row is followed by a filled row; translating the
    rows makes them n - 1 and 0, and translating the columns puts row 0's
    queen at column 0.  So the search fixes a queen at (0, 0) and fills
    rows 1..n-2 with a budget of n - m - 1 skips, never reaching row
    n - 1; for m = n the budget -1 acts as 0.
    """
    _check_n(n, bound, DEFAULT_PARTIAL_BOUND)
    full = (1 << n) - 1
    top = n - 1

    def feasible(m: int) -> bool:
        # _count_rows's rotating masks; a skipped row rotates them too.
        def rec(placed: int, skips: int, cols: int, d: int, s: int) -> bool:
            if placed == m:
                return True
            avail = full & ~(cols | d | s)
            while avail:
                bit = avail & -avail
                avail ^= bit
                d1, s1 = d | bit, s | bit
                if rec(placed + 1, skips, cols | bit,
                       (d1 << 1 | d1 >> top) & full, s1 >> 1 | (s1 & 1) << top):
                    return True
            return skips > 0 and rec(
                placed, skips - 1, cols, (d << 1 | d >> top) & full, s >> 1 | (s & 1) << top
            )

        # Normalized: the queen at (0, 0) blocks row 1's column 0,
        # difference column 1 and sum column n - 1.
        return rec(1, n - m - 1, 1, 2, 1 << top)

    for m in range(n, 0, -1):
        if feasible(m):
            return m
    return 0


# --- The punctured-torus classical construction -------------------------


@dataclass(frozen=True)
class WSet:
    """Removed-vertex data for the punctured torus T* = T(n) - W.

    tuples holds three octets (a, b, x, y, c, d, w, z) of distinct
    elements of 1..n with x + y = a + b + n and w - z = c - d - n, so the
    queens (a, b), (x, y) attack toroidally on a sum diagonal and
    (c, d), (w, z) on a difference diagonal, with no classical attacks.
    W removes 12 vertices per part: the rows, columns, and the nine used
    diagonal classes, padded to twelve by three spare diagonals per
    family offset by delta (n/6, n/2, or n/3 by divisibility case).
    Every construction, dataclasses.replace included, verifies these
    invariants, so an unverified WSet cannot exist.
    """

    n: int
    tuples: tuple[tuple[int, int, int, int, int, int, int, int], ...]

    def __post_init__(self) -> None:
        _verify_wset(self)

    @property
    def case(self) -> str:
        """The divisibility case: "even-3div", "even-3ndiv" or "odd-3div"."""
        return _wset_case(self.n)[0]

    @property
    def delta(self) -> int:
        return _wset_case(self.n)[1]

    @cached_property
    def removed_vertices(self) -> frozenset[Vertex]:
        """W as board vertices, built once per WSet.  Elements of 1..n
        convert to residues by v -> v-1 on rows/columns; a sum-diagonal
        value sigma (of 1-indexed squares) is the S residue sigma-2, a
        difference value is unchanged."""
        n, delta = self.n, self.delta
        out: set[Vertex] = set()
        for a, b, x, y, c, d, w, z in self.tuples:
            for row in (a, x, c, w):
                out.add(Vertex(Part.X, row - 1))
            for col in (b, y, d, z):
                out.add(Vertex(Part.Y, col - 1))
            for sigma in (a + b, c + d, w + z, a + b + delta):
                out.add(Vertex(Part.S, (sigma - 2) % n))
            for diff in (a - b, x - y, c - d, c - d + delta):
                out.add(Vertex(Part.D, diff % n))
        return frozenset(out)

    def fixed_queens(self) -> tuple[tuple[int, int], ...]:
        """The 12 queens, as 0-indexed board squares."""
        out = []
        for a, b, x, y, c, d, w, z in self.tuples:
            out += [(a - 1, b - 1), (x - 1, y - 1), (c - 1, d - 1), (w - 1, z - 1)]
        return tuple(out)


def _wset_case(n: int) -> tuple[str, int]:
    if n % 6 in (1, 5):
        raise PreconditionError(
            "case", f"n={n} is 1 or 5 mod 6, which needs no removed vertices"
        )
    if n % 2 == 0 and n % 3 == 0:
        return "even-3div", n // 6
    if n % 2 == 0:
        return "even-3ndiv", n // 2
    return "odd-3div", n // 3  # n % 6 == 3 is all that is left


def _congruence_holds(n: int, case: str, total: int) -> bool:
    """The per-case divisibility constraint on sum(a_i+b_i+c_i-d_i)."""
    if case == "even-3div":
        return (2 + n + 2 * total) % 12 == 0
    if case == "even-3ndiv":
        return (2 + n + 2 * total) % 4 == 0
    return (1 + 2 * total) % 3 == 0


def wset_candidates(n: int, node_limit: int = 10_000_000) -> Iterator[WSet]:
    """All WSets for n in lexicographic order of their flattened tuples.

    Each call first lists every sum pair (a, b, x, y), the two queens
    attacking on a sum diagonal, in ascending (a, b, x) order, and every
    difference pair (c, d, w, z), the two attacking on a difference
    diagonal, in ascending (c, d, w) order.  Each pair carries one int
    mask of what it uses: bit e for element e of 1..n, bit n+1+v for sum
    class v mod n and bit 2n+1+v for difference class v mod n, so two
    pairs fit exactly when their masks AND to 0.  The search places
    octet i's sum pair, then its difference pair, and each placement
    filters both open lists with one AND per entry: the next octet's sum
    pairs are the ones still open after this octet's difference pair.
    Octet 2 pairs each open sum pair with each open difference pair that
    fits it and passes the case congruence on sum(a_i+b_i+c_i-d_i).
    Octets 0 and 1 also prune on having enough disjoint small-sum pairs
    left for the octets after them.

    node_limit counts octets placed: at octets 0 and 1 each (sum pair,
    difference pair) that leaves enough small-sum pairs for the octets
    after it, and at octet 2 each WSet.  CapacityError comes before any
    WSet whose count is past the limit.
    """
    if n < 26:
        raise PreconditionError("n", "need n >= 26 for 24 distinct elements")
    case, delta = _wset_case(n)
    half = n // 2
    low = (2 << half) - 2  # elements 1..half
    # The congruence depends on sum(a_i+b_i+c_i-d_i) only mod 12: bit t
    # of congruent_ts[r] is set when a last difference t in 1..half
    # satisfies it at a running total of r.
    congruent_ts = [
        sum(1 << t for t in range(1, half + 1) if _congruence_holds(n, case, r + t))
        for r in range(12)
    ]
    # A pair is kept when its mask has eight bits: four distinct
    # elements, two distinct sum classes and two distinct difference
    # classes.
    S, D = n + 1, 2 * n + 1  # the bits of sum and difference class 0
    sums = []  # (mask, a, b, x, y), x + y = a + b + n
    for a in range(1, half):
        for b in range(1, half - a + 1):
            s = a + b
            m_ab = 1 << a | 1 << b | 1 << S + s | 1 << S + (s + delta) % n | 1 << D + (a - b) % n
            for x in range(s, n + 1):
                y = s + n - x
                m = m_ab | 1 << x | 1 << y | 1 << D + (x - y) % n
                if m.bit_count() == 8:
                    sums.append((m, a, b, x, y))
    diffs = []  # (mask, t, c, d, w, z), t = c - d in 1..half, w - z = t - n
    for c in range(2, n + 1):
        for d in range(max(1, c - half), c):
            t = c - d
            m_cd = 1 << c | 1 << d | 1 << S + (c + d) % n | 1 << D + t | 1 << D + (t + delta) % n
            for w in range(1, t + 1):
                z = w + n - t
                m = m_cd | 1 << w | 1 << z | 1 << S + (w + z) % n
                if m.bit_count() == 8:
                    diffs.append((m, t, c, d, w, z))
    octets: list[tuple[int, ...]] = []
    nodes = 0
    # Per used elements in 1..half: small_pairs_available's pair count.
    pair_counts: dict[int, int] = {}

    def small_pairs_available(needed: int, used: int) -> bool:
        # Each octet still to build consumes a distinct pair of elements
        # with sum at most n//2; a two-pointer scan over the free
        # elements counts the largest number of disjoint such pairs.
        if needed <= 0:
            return True
        key = used & low
        pairs = pair_counts.get(key)
        if pairs is None:
            free = [e for e in range(1, half + 1) if not key >> e & 1]
            lo, hi, pairs = 0, len(free) - 1, 0
            while lo < hi:
                if free[lo] + free[hi] <= half:
                    pairs += 1
                    lo += 1
                hi -= 1
            pair_counts[key] = pairs
        return pairs >= needed

    def charge() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise CapacityError(f"WSet search exceeded {node_limit} nodes")

    def octet(i: int, used: int, sums: list, diffs: list, total: int) -> Iterator[WSet]:
        # Octet i's sum pair, its difference pair, then octet i + 1;
        # used is the union of the masks placed, and total the running
        # sum of a + b + c - d.
        for m, a, b, x, y in sums:
            if i == 2:
                ts = congruent_ts[(total + a + b) % 12]
                for m_q, t, c, d, w, z in diffs:
                    if not m_q & m and ts >> t & 1:
                        charge()
                        yield WSet(n, (*octets, (a, b, x, y, c, d, w, z)))
                continue
            if not small_pairs_available(2 - i, used | 1 << a | 1 << b):
                continue
            open_diffs = [q for q in diffs if not q[0] & m]
            open_sums = None  # built when a difference pair first needs it
            for m_q, t, c, d, w, z in open_diffs:
                u = used | m | m_q
                if not small_pairs_available(2 - i, u):
                    continue
                charge()
                # A level with no sum or no difference pair open yields
                # nothing, so it is not entered.
                next_diffs = [q for q in open_diffs if not q[0] & m_q]
                if not next_diffs:
                    continue
                if open_sums is None:
                    open_sums = [p for p in sums if not p[0] & m]
                next_sums = [p for p in open_sums if not p[0] & m_q]
                if next_sums:
                    octets.append((a, b, x, y, c, d, w, z))
                    yield from octet(i + 1, u, next_sums, next_diffs, total + a + b + t)
                    octets.pop()

    try:
        yield from octet(0, 0, sums, diffs, 0)
    finally:
        # octet's closure holds octet itself, so this call's cells live
        # on until the next cyclic collection; empty the memo, their
        # bulk, as soon as the search ends or is dropped.
        pair_counts.clear()


def build_wset(n: int) -> WSet:
    """The lexicographically smallest WSet for n's divisibility case,
    searched within 1,000,000 nodes."""
    for wset in wset_candidates(n, 1_000_000):
        return wset
    raise CapacityError(f"no WSet exists within the searched range for n={n}")


def wset_from_tuples(
    n: int, tuples: tuple[tuple[int, int, int, int, int, int, int, int], ...]
) -> WSet:
    """WSet(n, tuples), which verifies every invariant itself."""
    return WSet(n, tuples)


def _verify_wset(w: WSet) -> None:
    """Check every WSet invariant; WSet.__post_init__ runs this.  With
    24 distinct elements, W's 48 vertices are 12 per part exactly when
    its 12 sum and 12 difference classes are distinct mod n."""
    n, half = w.n, w.n // 2
    case, _ = _wset_case(n)
    elements = [e for t in w.tuples for e in t]
    if len(set(elements)) != 24 or not all(1 <= e <= n for e in elements):
        raise VerificationError("WSet elements not 24 distinct members of 1..n")
    total = 0
    for a, b, x, y, c, d, wv, z in w.tuples:
        if not (1 <= a + b <= half and x + y == a + b + n):
            raise VerificationError("sum-pair constraint violated")
        if not (1 <= c - d <= half and wv - z == c - d - n):
            raise VerificationError("difference-pair constraint violated")
        total += a + b + c - d
    if len(w.removed_vertices) != 48:
        raise VerificationError("diagonal classes of W not distinct mod n")
    if not _congruence_holds(n, case, total):
        raise VerificationError("case congruence violated")


def _punctured(n: int, w: WSet) -> TorusGraph:
    """T(n) minus W, for a WSet built for this n."""
    if n != w.n:
        raise PreconditionError("n", f"the removed-vertex set is for n={w.n}, not n={n}")
    return TorusGraph(n, removed=w.removed_vertices)


def verify_tstar_lattice(n: int, w: WSet) -> Verdict:
    """Lattice membership of the all-ones target on T(n) minus W.

    Builds the vector with weight 1 on every vertex outside W and 0 on
    W, and runs the full queens-lattice membership test; a valid WSet
    must pass, which is what makes the all-ones target on the punctured
    board reachable.  PreconditionError("n") when w is for another n."""
    tstar = _punctured(n, w)
    return check_lattice_queens(sv(n, [(v.part, v.coord, 1) for v in tstar.vertices()]))


@dataclass(frozen=True)
class ClassicalExtension:
    """A full n-queens placement assembled from a punctured-torus
    matching plus the 12 fixed queens."""

    n: int
    queens: tuple[tuple[int, int], ...]  # all n, the 12 fixed ones first
    matching: Matching
    toroidal_attack_pairs: tuple[tuple[int, int], ...]  # indices into queens

    @property
    def fixed_queens(self) -> tuple[tuple[int, int], ...]:
        return self.queens[:12]

    def to_json(self) -> dict:
        obj = placement_to_json(self.n, "classical", self.queens)
        obj["fixed_queens"] = [[r, c] for r, c in self.fixed_queens]
        obj["toroidal_attack_pairs"] = [
            [i, j] for i, j in self.toroidal_attack_pairs
        ]
        return obj


def verify_placement(
    n: int, queens: list[tuple[int, int]], mode: str
) -> list[tuple[int, int]]:
    """All attacking index pairs among the queens under the given mode."""
    if len(set(queens)) != len(queens):
        raise PreconditionError("queens", "duplicate squares in placement")
    out = []
    for i in range(len(queens)):
        for j in range(i + 1, len(queens)):
            if attacks(n, mode, queens[i], queens[j]):
                out.append((i, j))
    return out


#: Node-capped restarts extend_classical gives one WSet.
_RESTARTS = 8


def extend_classical(
    n: int, w: WSet, budget_seconds: float = 30.0, seed: int = 0
) -> ClassicalExtension:
    """Classical n-queens placement with exactly six toroidal attack
    pairs, from a perfect matching of the punctured torus.

    Searches for a perfect matching of T(n) minus W with torq.board's
    exact-cover search: every live vertex is an item and every live
    square an option, listed row by row in a seed-shuffled row order,
    each row's squares in a fresh seed-shuffled column order.  Each node
    branches on the vertex with the fewest squares left, the lowest
    vertex bit among ties (rows first), and tries them in that listed
    order.  A restart with a fresh shuffle follows whenever the cap of
    50,000 nodes is hit, at most _RESTARTS times; a restart that
    exhausts its search proves that no perfect matching exists.  The
    matching comes back in the listed order.  The clock is read only
    between restarts: the budget can stop the next restart, never a
    running one, so a run overruns budget_seconds by at most one restart
    and the budget never picks the answer.  w verified itself when it
    was built.  A found matching is combined with the 12 fixed queens
    and the result is fully verified before being returned: no classical
    attacks, and exactly six toroidal attack pairs, all among the fixed
    queens.
    Raises CapacityError when the restarts or the budget run out,
    PreconditionError("budget_seconds") for a NaN budget, whose deadline
    would never pass, PreconditionError("seed") for a negative seed and
    PreconditionError("n") when w is for another n.
    """
    check_seed(seed)
    if math.isnan(budget_seconds):
        raise PreconditionError("budget_seconds", "must be a number of seconds, got nan")
    tstar = _punctured(n, w)
    dead = tstar.removed_mask()
    rows = [r for r in range(n) if not dead >> r & 1]
    cols = [c for c in range(n) if not dead >> (n + c) & 1]
    # T*'s squares as a row -> column -> edge mask table, built once
    # from the vertex bits, without the squares on removed diagonals.
    masks = {r: {c: m for c in cols if not (m := tstar.edge_mask((r, c))) & dead} for r in rows}
    items = (1 << 4 * n) - 1 & ~dead
    deadline = time.monotonic() + budget_seconds

    for restart in range(_RESTARTS):
        if time.monotonic() >= deadline:
            break
        rng = Random((seed << 20) + restart)
        order = rows[:]
        rng.shuffle(order)
        # Each live row's squares in a shuffled order of the live columns.
        squares = [(r, c) for r in order for c in rng.sample(cols, len(cols)) if c in masks[r]]
        found, truncated = _exact_cover([masks[r][c] for r, c in squares], items, 50_000)
        if found is not None:
            return _assemble_extension(tstar, w, Matching.of(Edge(*squares[i]) for i in found))
        if not truncated:
            # The restart ran to exhaustion: this punctured torus has no
            # perfect matching at all, so further restarts are pointless.
            raise CapacityError(
                f"the punctured torus for n={n} has no perfect matching "
                "with this removed-vertex set"
            )
    raise CapacityError(
        f"no perfect matching of the punctured torus found within budget for n={n}"
    )


def extend_classical_search(
    n: int,
    budget_seconds: float = 60.0,
    seed: int = 0,
) -> ClassicalExtension:
    """Classical extension over successive WSets within a time budget.

    At desk scale the lexicographically smallest WSet often leaves a
    punctured torus with no perfect matching at all, so this walks the
    WSets in lexicographic order, giving each at most eight restarts of
    extend_classical's node-capped exact-cover search (provably empty
    punctured tori are dismissed in one exhausted restart).  The answer
    depends only on (n, seed).  The clock is read only between restarts
    and between WSets, so running out of budget_seconds aborts the walk
    with CapacityError after at most one more 50,000-node restart or the
    walk to the next WSet (about 1.4 and 1.8 s at n = 26 and 27, where
    the first WSet takes that long); it never moves on to another WSet.
    """
    check_seed(seed)
    deadline = time.monotonic() + budget_seconds
    for w in wset_candidates(n):
        try:
            return extend_classical(n, w, budget_seconds=deadline - time.monotonic(), seed=seed)
        except CapacityError:
            if time.monotonic() >= deadline:
                break
    raise CapacityError(
        f"no extendable removed-vertex set found within {budget_seconds} s for n={n}"
    )


def _assemble_extension(tstar: TorusGraph, w: WSet, m: Matching) -> ClassicalExtension:
    n = tstar.n
    report = verify_matching(tstar, m, require_perfect=True)
    if not (report.valid and report.perfect):
        raise VerificationError("candidate matching fails verification on T*")
    fixed = w.fixed_queens()
    queens = fixed + tuple((e.x, e.y) for e in m)
    if verify_placement(n, list(queens), "classical"):
        raise VerificationError("assembled placement has classical attacks")
    pairs = tuple(verify_placement(n, list(queens), "toroidal"))
    if len(pairs) != 6 or any(j >= len(fixed) for _, j in pairs):
        raise VerificationError(
            "toroidal attacks are not exactly six pairs among the fixed queens"
        )
    s_pairs = sum(
        1 for i, j in pairs if (queens[i][0] + queens[i][1]) % n
        == (queens[j][0] + queens[j][1]) % n
    )
    if s_pairs != 3:
        raise VerificationError("toroidal attacks must split 3 + 3 by diagonal family")
    return ClassicalExtension(n, queens, m, pairs)
