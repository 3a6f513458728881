"""Exact solvers and explicit constructions on small boards.

Backtracking counters for the classical, toroidal, and semi-queens
problems; a branch-and-bound maximum partial toroidal solution matching
Monsky's closed form; and the removed-vertex construction that turns a
perfect matching of a punctured torus into a classical n-queens
placement whose only toroidal attacks are six pairs among twelve fixed
queens (three pairs on each diagonal family).

Every search keeps its state in int bitmasks: the columns and diagonals
blocked in the current row, the WSet search's used elements and
classes, and in the punctured-torus matching search (``torq.board``'s
shared DFS) the union of the chosen squares' edge masks, which each
candidate is tested against in one AND.  Search budgets count restarts
and nodes, so the answer never depends on machine speed; wall clock
only aborts a run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .board import (
    Matching,
    Part,
    TorusGraph,
    Vertex,
    _first_matching,
    attacks,
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

    Row-by-row backtracking with column/diagonal bitmasks and no
    symmetry reduction, so the value matches the published sequence.
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

    return (rotate if torus else shift)(0, 0, 0)


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
    """

    n: int
    case: str  # "even-3div" | "even-3ndiv" | "odd-3div"
    tuples: tuple[tuple[int, int, int, int, int, int, int, int], ...]
    delta: int
    removed_vertices: frozenset[Vertex]

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


def _removed_vertices(
    n: int,
    tuples: tuple[tuple[int, int, int, int, int, int, int, int], ...],
    delta: int,
) -> frozenset[Vertex]:
    """W as board vertices.  Elements of 1..n convert to residues by
    v -> v-1 on rows/columns; a sum-diagonal value sigma (of 1-indexed
    squares) is the S residue sigma-2, a difference value is unchanged."""
    out: set[Vertex] = set()
    for a, b, x, y, c, d, w, z in tuples:
        for row in (a, x, c, w):
            out.add(Vertex(Part.X, row - 1))
        for col in (b, y, d, z):
            out.add(Vertex(Part.Y, col - 1))
        for sigma in (a + b, c + d, w + z, a + b + delta):
            out.add(Vertex(Part.S, (sigma - 2) % n))
        for diff in (a - b, x - y, c - d, c - d + delta):
            out.add(Vertex(Part.D, diff % n))
    return frozenset(out)


def wset_candidates(n: int, node_limit: int = 200_000_000) -> Iterator[WSet]:
    """All WSets for n in lexicographic order of their flattened tuples.

    Depth-first search over the free fields in the order a1, b1, x1, c1,
    d1, w1, a2, ... (y_i and z_i are determined), taking values in
    ascending order.  Two generators take turns: ``sum_pair`` places an
    octet's (a, b, x, y), the pair attacking on a sum diagonal, and
    ``difference_pair`` its (c, d, w, z), the pair attacking on a
    difference diagonal, before recursing into the next octet's sum
    pair.  The search prunes on element distinctness, on distinctness
    mod n of the twelve sum and twelve difference diagonal classes, on
    the case congruence once all a, b, c, d are fixed, and on having
    enough disjoint small-sum pairs left for the remaining octets.  The
    used elements and diagonal classes are bitmasks passed down the
    recursion; every (a, b) probe counts as one node against node_limit.
    """
    if n < 26:
        raise PreconditionError("n", "need n >= 26 for 24 distinct elements")
    case, delta = _wset_case(n)
    half = n // 2
    # The congruence depends on sum(a_i+b_i+c_i-d_i) only mod 12.
    congruent = [_congruence_holds(n, case, t) for t in range(12)]
    elements = (1 << (n + 1)) - 2
    octets: list[tuple[int, ...]] = []
    nodes = 0

    # In the masks below, bit e of used is element e of 1..n, and bit v
    # of svals / dvals is sum / difference class v mod n.  As 0 < delta
    # < n, the two classes a pair adds to one family always differ.

    def small_pairs_available(needed: int, used: int) -> bool:
        # Each octet still to build consumes a distinct pair of elements
        # with sum at most n//2; a two-pointer scan over the free
        # elements counts the largest number of disjoint such pairs.
        if needed <= 0:
            return True
        free = [e for e in range(1, half + 1) if not used >> e & 1]
        lo, hi, pairs = 0, len(free) - 1, 0
        while lo < hi:
            if free[lo] + free[hi] <= half:
                pairs += 1
                lo += 1
            hi -= 1
        return pairs >= needed

    def sum_pair(i: int, used: int, svals: int, dvals: int) -> Iterator[None]:
        # Octet i's (a, b) and (x, y), with x + y = a + b + n.
        nonlocal nodes
        for a in range(1, half):
            if used >> a & 1:
                continue
            for b in range(1, half - a + 1):
                nodes += 1
                if nodes > node_limit:
                    raise CapacityError(f"WSet search exceeded {node_limit} nodes")
                if used >> b & 1 or b == a:
                    continue
                s_ab = 1 << (a + b) % n | 1 << (a + b + delta) % n
                if svals & s_ab:
                    continue
                d_ab = 1 << (a - b) % n
                if dvals & d_ab:
                    continue
                u_ab = used | 1 << a | 1 << b
                if not small_pairs_available(2 - i, u_ab):
                    continue
                for x in range(a + b, n + 1):
                    y = a + b + n - x
                    if u_ab >> x & 1 or u_ab >> y & 1 or x == y:
                        continue
                    d_xy = 1 << (x - y) % n
                    if (dvals | d_ab) & d_xy:
                        continue
                    yield from difference_pair(
                        i, (a, b, x, y), u_ab | 1 << x | 1 << y,
                        svals | s_ab, dvals | d_ab | d_xy,
                    )

    def difference_pair(
        i: int, abxy: tuple[int, int, int, int], used: int, svals: int, dvals: int
    ) -> Iterator[None]:
        # Octet i's (c, d) and (w, z), with w - z = c - d - n; then the
        # next octet's sum pair, or the finished WSet after octet 2.
        free = elements & ~used
        svals2 = svals | svals << n  # bit v is class v mod n, for v < 2n
        if i == 2:
            base = sum(t[0] + t[1] + t[4] - t[5] for t in octets) + abxy[0] + abxy[1]
        # Bit half - t of diffs is set when the difference t = c - d in
        # 1..half passes every test that does not involve c itself.
        diffs = 0
        for t in range(1, half + 1):
            if dvals >> t & 1 or dvals >> (t + delta) % n & 1:
                continue
            if i == 2 and not congruent[(base + t) % 12]:
                continue
            diffs |= 1 << (half - t)
        cs = free
        while cs:
            cbit = cs & -cs
            cs ^= cbit
            c = cbit.bit_length() - 1
            # d = c - t ascending, free, with (c + d) mod n unused.
            ds = diffs << c >> half & free & ~(svals2 >> c)
            while ds:
                dbit = ds & -ds
                ds ^= dbit
                d = dbit.bit_length() - 1
                t = c - d
                s_cd = 1 << (c + d) % n
                d_cd = 1 << t | 1 << (t + delta) % n
                # w in 1..t with z = w + n - t free as well.
                rest = free ^ cbit ^ dbit
                ws = rest & rest >> (n - t) & (2 << t) - 2
                while ws:
                    wbit = ws & -ws
                    ws ^= wbit
                    w = wbit.bit_length() - 1
                    z = w + n - t
                    s_wz = 1 << (w + z) % n
                    if (svals | s_cd) & s_wz:
                        continue
                    u = used | cbit | dbit | wbit | 1 << z
                    octets.append((*abxy, c, d, w, z))
                    if small_pairs_available(2 - i, u):
                        if i == 2:
                            yield None
                        else:
                            yield from sum_pair(i + 1, u, svals | s_cd | s_wz, dvals | d_cd)
                    octets.pop()

    for _ in sum_pair(0, 0, 0, 0):
        yield wset_from_tuples(n, tuple(octets))


def build_wset(n: int) -> WSet:
    """The lexicographically smallest WSet for n's divisibility case,
    searched within 20,000,000 nodes."""
    for wset in wset_candidates(n, 20_000_000):
        return wset
    raise CapacityError(f"no WSet exists within the searched range for n={n}")


def wset_from_tuples(
    n: int, tuples: tuple[tuple[int, int, int, int, int, int, int, int], ...]
) -> WSet:
    """Rebuild a WSet from its three octets, re-verifying every invariant."""
    case, delta = _wset_case(n)
    wset = WSet(n, case, tuples, delta, _removed_vertices(n, tuples, delta))
    _verify_wset(wset)
    return wset


def _verify_wset(w: WSet) -> None:
    """Re-check every WSet invariant on a constructed instance."""
    n, half = w.n, w.n // 2
    elements = [e for t in w.tuples for e in t]
    if len(set(elements)) != 24 or not all(1 <= e <= n for e in elements):
        raise VerificationError("WSet elements not 24 distinct members of 1..n")
    svals, dvals = set(), set()
    total = 0
    for a, b, x, y, c, d, wv, z in w.tuples:
        if not (1 <= a + b <= half and x + y == a + b + n):
            raise VerificationError("sum-pair constraint violated")
        if not (1 <= c - d <= half and wv - z == c - d - n):
            raise VerificationError("difference-pair constraint violated")
        svals.update(v % n for v in (a + b, c + d, wv + z, a + b + w.delta))
        dvals.update(v % n for v in (a - b, x - y, c - d, c - d + w.delta))
        total += a + b + c - d
    if len(svals) != 12 or len(dvals) != 12:
        raise VerificationError("diagonal classes of W not distinct mod n")
    if not _congruence_holds(n, w.case, total):
        raise VerificationError("case congruence violated")
    if len(w.removed_vertices) != 48:
        raise VerificationError("W must remove 12 vertices in each part")


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
    queens: tuple[tuple[int, int], ...]  # all n, fixed first
    fixed_queens: tuple[tuple[int, int], ...]
    matching: Matching
    toroidal_attack_pairs: tuple[tuple[int, int], ...]  # indices into queens

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

    Searches for a perfect matching of T(n) minus W by depth-first
    search with seed-shuffled row and column orders, restarting with a
    fresh shuffle whenever a node cap is hit, at most _RESTARTS times
    and within the wall-clock budget.  A found matching is combined with
    the 12 fixed queens and the result is fully verified before being
    returned: no classical attacks, and exactly six toroidal attack
    pairs, all among the fixed queens.  Raises CapacityError when the
    restarts or the budget run out,
    PreconditionError("budget_seconds") for a NaN budget, whose deadline
    would never pass, and PreconditionError("n") when w is for another n.
    """
    if math.isnan(budget_seconds):
        raise PreconditionError("budget_seconds", "must be a number of seconds, got nan")
    _verify_wset(w)
    tstar = _punctured(n, w)
    rows = [r for r in range(n) if Vertex(Part.X, r) not in tstar.removed]
    cols = [c for c in range(n) if Vertex(Part.Y, c) not in tstar.removed]
    squares = {(e.x, e.y): (e, mask) for e, mask in tstar.edges()}
    deadline = time.monotonic() + budget_seconds

    for restart in range(_RESTARTS):
        if time.monotonic() > deadline:
            break
        rng = Random((seed << 20) + restart)
        order = rows[:]
        rng.shuffle(order)
        # One candidate list per row, in the shuffled column order, with
        # squares on removed diagonals dropped.
        choices = [
            [squares[r, c] for c in rng.sample(cols, len(cols)) if (r, c) in squares]
            for r in order
        ]
        found, truncated = _first_matching(choices, 50_000, deadline)
        if found is not None:
            return _assemble_extension(tstar, w, Matching.of(found))
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
    extend_classical's node-capped DFS (provably empty punctured tori
    are dismissed in one exhausted restart).  The answer depends only
    on (n, seed); running out of budget_seconds aborts the walk with
    CapacityError, it never moves on to another WSet.
    """
    deadline = time.monotonic() + budget_seconds
    for w in wset_candidates(n):
        try:
            return extend_classical(n, w, budget_seconds=deadline - time.monotonic(), seed=seed)
        except CapacityError:
            if time.monotonic() > deadline:
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
    return ClassicalExtension(n, queens, fixed, m, pairs)
