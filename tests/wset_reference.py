"""The two-generator WSet search: the reference for torq.solvers'
wset_candidates, which searches two pre-built pair lists instead.

Besides each WSet it yields the number of octets placed so far, so a
test can tell which WSets come out before CapacityError at any
node_limit: exactly those whose octet count is at most the limit.
"""

from typing import Iterator

from torq.errors import CapacityError, PreconditionError
from torq.solvers import WSet, _congruence_holds, _wset_case


def wset_reference(n: int, node_limit: int = 10_000_000) -> Iterator[tuple[WSet, int]]:
    """(WSet, octet count) for every WSet for n, in lexicographic order.

    Depth-first search over the free fields in the order a1, b1, x1, c1,
    d1, w1, a2, ... (y_i and z_i are determined), taking values in
    ascending order.  Two generators take turns: ``sum_pair`` places an
    octet's (a, b, x, y) and ``difference_pair`` its (c, d, w, z), before
    recursing into the next octet's sum pair.  Every octet placed counts
    as one node against node_limit: a (sum pair, difference pair) that
    leaves enough small-sum pairs for the octets after it, and at octet
    2 each WSet.
    """
    if n < 26:
        raise PreconditionError("n", "need n >= 26 for 24 distinct elements")
    case, delta = _wset_case(n)
    half = n // 2
    elements = (1 << (n + 1)) - 2
    low = (2 << half) - 2  # elements, or differences, 1..half
    # Bit t of congruent_ts[r] is set when a last difference t in 1..half
    # satisfies the case congruence at a running total of r mod 12.
    congruent_ts = [
        sum(1 << t for t in range(1, half + 1) if _congruence_holds(n, case, r + t))
        for r in range(12)
    ]
    octets: list[tuple[int, ...]] = []
    nodes = 0
    pair_counts: dict[int, int] = {}

    # Bit e of used is element e of 1..n; bit v of svals / dvals is sum /
    # difference class v mod n; total is the running sum of a + b + c - d.

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

    def sum_pair(i: int, used: int, svals: int, dvals: int, total: int) -> Iterator[None]:
        # Octet i's (a, b) and (x, y), with x + y = a + b + n.
        for a in range(1, half):
            if used >> a & 1:
                continue
            for b in range(1, half - a + 1):
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
                        svals | s_ab, dvals | d_ab | d_xy, total + a + b,
                    )

    def difference_pair(
        i: int, abxy: tuple[int, int, int, int], used: int, svals: int, dvals: int, total: int
    ) -> Iterator[None]:
        # Octet i's (c, d) and (w, z), with w - z = c - d - n; then the
        # next octet's sum pair, or the finished WSet after octet 2.
        nonlocal nodes
        free = elements & ~used
        svals2 = svals | svals << n  # bit v is class v mod n, for v < 2n
        # Bit t of ts is set when the difference t = c - d in 1..half
        # passes every test that does not involve c itself: classes t and
        # (t + delta) mod n unused, and at octet 2 the congruence.
        ts = low & ~(dvals | dvals >> delta | dvals << (n - delta))
        if i == 2:
            ts &= congruent_ts[total % 12]
        # diffs holds the same set with t at bit half - t.
        diffs = int(f"{ts:0{half + 1}b}"[::-1], 2)
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
                        nodes += 1
                        if nodes > node_limit:
                            raise CapacityError(f"WSet search exceeded {node_limit} nodes")
                        if i == 2:
                            yield None
                        else:
                            yield from sum_pair(
                                i + 1, u, svals | s_cd | s_wz, dvals | d_cd, total + t
                            )
                    octets.pop()

    for _ in sum_pair(0, 0, 0, 0, 0):
        yield WSet(n, tuple(octets)), nodes
