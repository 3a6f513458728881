"""Constructive decompositions of lattice vectors into signed edge sets.

The central objects are signed edge multisets ``phi`` whose boundary
(:func:`torq.lattice.shadow`) hits a prescribed target vector.  The
builders proceed through named phases and every public entry point
re-verifies its own output bit-exactly, raising :class:`VerificationError`
rather than returning a wrong answer.  Each phase accumulates into an
edge set it created, with the in-place ``add`` / ``+=`` of
:class:`~torq.lattice.SignedEdgeSet` (:func:`bidc_reduce` tallies by
the int key x*n + y and builds its set once), and never changes its
arguments; :func:`decompose_bounded` and :func:`cover_leave` keep
``target - shadow(phi)`` current edge by edge instead of recomputing it.

Step vectors used internally ("SQ steps", in offset form) are the
supports ``+1@a, -1@(a+b), -1@(a+c), +1@(a+b+c)`` on the diagonal-sum
part; "Q steps" are differences of two SQ steps at bases ``a`` and
``a+s`` and are exactly the vectors realizable by eight signed edges
with no residue on the other three parts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .board import (
    Edge,
    Interval,
    Matching,
    PART_ORDER,
    Part,
    TorusGraph,
    Vertex,
    _exact_cover,
    centered,
    check_side,
    edge_at_centered,
    square,
    verify_matching,
    vertex_index,
)
from .errors import CapacityError, PreconditionError, VerificationError
from .lattice import (
    SignedEdgeSet,
    SupportVector,
    check_lattice_queens,
    check_sublattice_S,
    check_vector,
    shadow,
)


# --- zero-sum configurations -------------------------------------------


@dataclass(frozen=True)
class ZeroSumConfig:
    """Eight edges in two matchings of four whose boundaries cancel.

    Parameters are residues; the fourth implied column is
    ``d = b + c - a``.  The two matchings cover the same sixteen
    vertices when ``valid`` holds.
    """

    n: int
    a: int
    b: int
    c: int
    s: int

    @property
    def d(self) -> int:
        return (self.b + self.c - self.a) % self.n

    def positive_edges(self) -> tuple[Edge, ...]:
        n, a, b, c, s, d = self.n, self.a, self.b, self.c, self.s, self.d
        return (
            Edge(a, (b + s) % n),
            Edge(b, (d + s) % n),
            Edge(c, (a + s) % n),
            Edge(d, (c + s) % n),
        )

    def negative_edges(self) -> tuple[Edge, ...]:
        n, a, b, c, s, d = self.n, self.a, self.b, self.c, self.s, self.d
        return (
            Edge(a, (c + s) % n),
            Edge(b, (a + s) % n),
            Edge(c, (d + s) % n),
            Edge(d, (b + s) % n),
        )

    def edge_set(self) -> SignedEdgeSet:
        out = SignedEdgeSet(self.n)
        for e in self.positive_edges():
            out.add(e, 1)
        for e in self.negative_edges():
            out.add(e, -1)
        return out

    def vertices(self) -> set[Vertex]:
        out: set[Vertex] = set()
        for e in self.positive_edges():
            out.update(e.vertices(self.n))
        return out

    @property
    def valid(self) -> bool:
        """True when the sixteen vertices are pairwise distinct."""
        return len(self.vertices()) == 16

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "params": {"a": self.a, "b": self.b, "c": self.c, "s": self.s},
            "valid": self.valid,
            "positive": [{"x": e.x, "y": e.y} for e in self.positive_edges()],
            "negative": [{"x": e.x, "y": e.y} for e in self.negative_edges()],
        }


def make_config(n: int, a: int, b: int, c: int, s: int) -> ZeroSumConfig:
    """Build the zero-sum configuration with the given residue parameters."""
    check_side(n)
    return ZeroSumConfig(n, a % n, b % n, c % n, s % n)


# --- results ------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionResult:
    """A target vector, the realizing edge set, and a per-phase audit."""

    target: SupportVector
    phi: SignedEdgeSet
    phases: tuple[tuple[str, int, int], ...] = ()

    @property
    def size(self) -> int:
        return self.phi.size()

    def to_json(self) -> dict:
        return {
            "target": self.target.to_json(),
            "phi": self.phi.to_json(),
            "size": self.size,
            "phases": [
                {"name": name, "gadgets": g, "edges": e} for name, g, e in self.phases
            ],
        }


# --- Q-step realization -------------------------------------------------


def _q_step_realizable(n: int, b: int, c: int, s: int) -> bool:
    return n % 2 == 1 or s % 2 == 0 or (b + c) % 2 == 1


def _simple_matrix(
    n: int, r0: int, r1: int, k0: int, k1: int, s: int
) -> list[tuple[int, int, int]]:
    """The signed simple matrix as ``(x, y, sign)`` triples: ``+s`` at
    (r0, k0) and (r1, k1), ``-s`` at (r0, k1) and (r1, k0), mod n.  Its
    row and column boundaries vanish."""
    r0, r1, k0, k1 = r0 % n, r1 % n, k0 % n, k1 % n
    return [(r0, k0, s), (r1, k1, s), (r0, k1, -s), (r1, k0, -s)]


def _q_step_edges(n: int, a: int, b: int, c: int, s: int) -> list[tuple[int, int, int]]:
    """Eight signed edges whose boundary is the Q step (a, b, c, s).

    Returned as ``(x, y, sign)`` triples; the boundary vanishes on the
    row, column and difference parts and equals
    ``SQ(a,b,c) - SQ(a+s,b,c)`` on the sum part.  The step must be
    realizable; ``_BinaryReducer.record`` checks that for every step.
    """
    out = _simple_matrix(n, 0, c, a, a + b, 1)
    if s % 2 == 0 or n % 2 == 1:
        t = (s // 2) % n if s % 2 == 0 else (s * ((n + 1) // 2)) % n
        return out + _simple_matrix(n, t, c + t, a + t, a + b + t, -1)
    # Crosswise pairing: the two constituent matrices use the two step
    # orientations so their difference-part residues cancel despite the
    # odd shift.
    h = (s % n) + (c % n) - (b % n)
    ap = (h // 2) % n  # h is even: s odd and b+c odd
    base = (a + s) % n
    return out + _simple_matrix(n, ap, ap + b, base - ap, base + c - ap, -1)


# --- binary-identity reduction on the sum part --------------------------


def _sq_step_decompose(n: int, weights: dict[int, int]) -> list[tuple[int, int, int, int]]:
    """Greedy exact decomposition of a sum-part vector into SQ steps.

    Requires total weight zero and first moment divisible by n.  Returns
    endpoint quadruple signs ``(sign, a, p, q)`` standing for
    ``sign * (+1@a, -1@p, -1@q, +1@(p+q-a))``; the total absolute weight
    drops by exactly two per emitted step.
    """
    w = Counter(weights)
    gens: list[tuple[int, int, int, int]] = []
    while any(w.values()):
        a0 = min(k for k, v in w.items() if v)
        sigma = 1 if w[a0] > 0 else -1
        opp = sorted(k for k, v in w.items() if v * sigma < 0)
        if not opp:
            raise VerificationError("sum-part decomposition lost zero total weight")
        p = opp[0]
        if abs(w[p]) >= 2:
            q = p
        elif len(opp) > 1:
            q = opp[1]
        else:
            raise VerificationError("sum-part decomposition hit an unsplittable pair")
        r = (p + q - a0) % n
        gens.append((sigma, a0, p, q))
        for coord, delta in ((a0, -sigma), (p, sigma), (q, sigma), (r, -sigma)):
            w[coord] += delta
    return gens


def _split_powers(n: int, g: int) -> Iterator[tuple[int, int]]:
    """Binary expansion of a residue with every power at most n // 2, as
    (offset, power) pairs: each power with the sum of those before it."""
    parts: list[int] = []
    top = 1 << (g.bit_length() - 1)
    if top > n // 2:
        parts += [top // 2, top // 2]
        g -= top
    while g:
        p = 1 << (g.bit_length() - 1)
        parts.append(p)
        g -= p
    return zip(accumulate(parts, initial=0), parts)


class _BinaryReducer:
    """Rewrites a sum-part vector into realizable Q steps.

    Tracks the invariant: input = (class coefficients on the base steps
    SQ(0, 1, 2^j)) + (recorded Q steps).
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.classes: Counter[int] = Counter()
        self.steps: list[tuple[str, int, int, int, int, int]] = []

    def record(self, phase: str, mult: int, a: int, b: int, c: int, s: int) -> None:
        if mult == 0:
            return
        n = self.n
        a, b, c, s = a % n, b % n, c % n, s % n
        if not _q_step_realizable(n, b, c, s):
            raise VerificationError(
                f"internal Q step (a={a}, b={b}, c={c}, s={s}) unrealizable at n={n}"
            )
        self.steps.append((phase, mult, a, b, c, s))

    def _is_small_power(self, g: int) -> bool:
        return g > 0 and (g & (g - 1)) == 0 and g <= self.n // 2

    def normalize(self, w: int, a: int, b: int, c: int) -> None:
        """Fold w * SQ(a, b, c) into base classes, recording Q steps."""
        n = self.n
        a, b, c = a % n, b % n, c % n
        if w == 0 or b == 0 or c == 0:
            return
        # Prefer the short residue representative: SQ(a, b, c) with
        # c = n - h equals -SQ(a - h, b, h), a pure rewrite.
        if c > n - c and not self._is_small_power(c):
            self.normalize(-w, a - (n - c), b, n - c)
            return
        if b > n - b and not self._is_small_power(b):
            self.normalize(-w, a - (n - b), n - b, c)
            return
        if not self._is_small_power(b):
            for off, p in _split_powers(n, b):
                self.normalize(w, a + off, p, c)
            return
        if not self._is_small_power(c):
            for off, p in _split_powers(n, c):
                self.normalize(w, a + off, b, p)
            return
        x = b.bit_length() - 1
        y = c.bit_length() - 1
        if x > 0 and y > 0:
            # Halve one power while doubling the other until the first
            # becomes a unit step; each halving costs two Q steps.
            while x > 0:
                bb = 1 << (x - 1)
                cc = 1 << y
                self.record("shift-to-1", w, a, bb, cc, cc)
                self.record("shift-to-1", -w, a, bb, cc, bb)
                x -= 1
                y += 1
            self.normalize(w, a, 1, pow(2, y, n))
            return
        g = 1 << max(x, y)
        self._base_shift(w, a, g)

    def _base_shift(self, w: int, a: int, g: int) -> None:
        n = self.n
        a %= n
        if a == 0:
            self.classes[g.bit_length() - 1] += w
            return
        if g == 1 and n % 2 == 0 and a % 2 == 1:
            # An odd base cannot be shifted home directly at even n;
            # trade the step for a width-2 step and an even-base unit.
            self.normalize(w, a, 1, 2)
            self._base_shift(-w, a + 1, 1)
            return
        self.record("base-shift", w, a, 1, g, (n - a) % n)
        self.classes[g.bit_length() - 1] += w


def bidc_size_bound(weight: int, n: int) -> int:
    """Declared upper bound on the edge count of :func:`bidc_reduce`."""
    logn = max(1, (n - 1).bit_length())
    return 8 * (logn + 3) ** 3 * (weight + 4)


def bidc_reduce(v: SupportVector) -> DecompositionResult:
    """Realize a sum-part lattice vector as a signed edge set.

    The input must be supported on the sum part and satisfy the sum-part
    sublattice conditions; the output boundary equals the input exactly
    and vanishes on the other three parts along the way.
    """
    check_vector(v, v.n, "queens")
    n = v.n
    if n < 4:
        raise PreconditionError("n", "reduction requires n >= 4")
    verdict = check_sublattice_S(v)
    if not verdict:
        raise PreconditionError(verdict.failed)

    red = _BinaryReducer(n)
    weights = v.part_weights(Part.S)

    gens = _sq_step_decompose(n, weights)

    # Opposite-sign steps of the same width class differ by a single Q
    # step; pair them off directly before the binary rewrite.
    buckets: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for sigma, a, p, q in gens:
        bc = tuple(sorted(((p - a) % n, (q - a) % n)))
        pos, neg = buckets.setdefault(bc, ([], []))
        (pos if sigma > 0 else neg).append(a % n)
    leftovers: list[tuple[int, int, int, int]] = []
    for (b, c), (pos, neg) in sorted(buckets.items()):
        if n % 2 == 0 and (b + c) % 2 == 0:
            groups = [
                ([a for a in pos if a % 2 == r], [a for a in neg if a % 2 == r])
                for r in (0, 1)
            ]
        else:
            groups = [(pos, neg)]
        for gp, gn in groups:
            gp.sort()
            gn.sort()
            while gp and gn:
                a_pos, a_neg = gp.pop(), gn.pop()
                red.record("base-shift", 1, a_pos, b, c, (a_neg - a_pos) % n)
            leftovers += [(1, a, b, c) for a in gp] + [(-1, a, b, c) for a in gn]

    n_steps = len(red.steps)
    for sigma, a, b, c in leftovers:
        red.normalize(sigma, a, b, c)
    rewrite_steps = len(red.steps) - n_steps

    # Zero the exact second moment with width-2 Q steps of second moment
    # 2n each, folding the displaced far step back into base classes.
    total2 = sum(w * (1 << (j + 1)) for j, w in red.classes.items())
    if total2 % (2 * n) != 0:
        raise VerificationError("second moment of the class residual is not a 2n multiple")
    k = total2 // (2 * n)
    if k:
        red.record("i2-zeroing", k, 0, 1, 2, (n - 2) % n)
        red.classes[1] -= k
        # Fold the displaced step through an explicit binary chain so the
        # class second moment drops by exactly 2n per copy.
        for off, p in _split_powers(n, (n - 2) % n):
            red.normalize(-k, off, 1, p)

    # Binary carries: pairs of a base class fold into the next class.
    # At even n nothing may be left in the unit class to carry.
    if n % 2 == 0 and red.classes[0]:
        raise VerificationError("even-n parity invariant left a unit-class surplus")
    cap = (n // 2).bit_length() - 1
    for j in range(cap):
        q = red.classes[j] // 2
        if q:
            red.record("binary-carry", q, 0, 1, 1 << j, 1 << j)
            red.classes[j] -= 2 * q
            red.classes[j + 1] += q
    if any(red.classes.values()):
        raise VerificationError("class residual nonzero after carries")

    # One tally per edge, keyed x*n + y; the constructor checks each
    # distinct edge once.
    tally: dict[int, int] = {}
    phase_gadgets: Counter[str] = Counter()
    for phase, mult, a, b, c, s in red.steps:
        phase_gadgets[phase] += abs(mult)
        for x, y, sign in _q_step_edges(n, a, b, c, s):
            k = x * n + y
            tally[k] = tally.get(k, 0) + sign * mult
    phi = SignedEdgeSet(n, {Edge(*divmod(k, n)): m for k, m in tally.items()})
    if shadow(phi) != v:
        raise VerificationError("reduced edge set does not shadow the target")
    if phi.size() > bidc_size_bound(v.size(), n):
        raise VerificationError("reduced edge set exceeds its declared size bound")

    phases = [
        ("sq-decompose", len(gens), 0),
        ("power-of-2", rewrite_steps, 0),
    ]
    for name in ("shift-to-1", "base-shift", "i2-zeroing", "binary-carry"):
        gadgets = phase_gadgets[name]
        phases.append((name, gadgets, 8 * gadgets))
    return DecompositionResult(v, phi, tuple(phases))


# --- bounded decomposition of general lattice vectors -------------------


def _exact_matching_cover(target: SupportVector) -> list[Edge] | None:
    """A matching whose shadow equals target exactly, if one is found.

    Only applicable to all-ones targets with the same number of units in
    every part; the shared exact-cover search covers the target's units
    by the edges between them, listed in (x, y) order, and the matching
    comes back in that order.  None when the target is out of scope, no
    matching exists, or the search visits 200,000 nodes.
    """
    n = target.n
    if not target.entries or any(w != 1 for w in target.entries.values()):
        return None
    units = {p: sorted(target.part_weights(p)) for p in PART_ORDER}
    k = len(units[Part.X])
    if any(len(units[p]) != k for p in PART_ORDER):
        return None
    g = TorusGraph(n)
    ss, ds = set(units[Part.S]), set(units[Part.D])
    edges = [e for x in units[Part.X] for y in units[Part.Y]
             if (e := Edge(x, y)).s(n) in ss and e.d(n) in ds]
    items = sum(1 << vertex_index(n, v) for v in target.entries)
    found = _exact_cover([g.edge_mask(e) for e in edges], items, 200_000)[0]
    return None if found is None else [edges[i] for i in found]


def _put_edge(phi: SignedEdgeSet, residual: SupportVector, e: Edge, m: int) -> None:
    """Add m copies of e to phi and keep residual = target - shadow(phi)."""
    phi.add(e, m)
    residual.add_edge(e, -m)


def _cover_units(phi: SignedEdgeSet, r: SupportVector) -> int:
    """Pair the lowest row unit of r with a column unit of the same sign,
    preferring an edge that also covers same-sign diagonal units, until
    no row or column unit of that sign is left; positive units first.
    Each edge goes into phi through :func:`_put_edge`.  Returns the
    number of edges placed.

    Placing (x, y) moves only row x and column y among the row and column
    units, each one step toward 0, so the sorted unit lists of one sign
    are built once and lose a coordinate when its units run out.
    """
    n, weight = r.n, r.entries.get
    placed = 0
    for sign in (1, -1):
        xs, ys = (
            sorted(c for c, w in r.part_weights(p).items() if w * sign > 0)
            for p in (Part.X, Part.Y)
        )
        while xs and ys:
            x = xs[0]
            best, best_bonus = 0, -1
            for j, y in enumerate(ys):
                bonus = (weight(Vertex(Part.S, (x + y) % n), 0) * sign > 0) + (
                    weight(Vertex(Part.D, (x - y) % n), 0) * sign > 0
                )
                if bonus > best_bonus:
                    best, best_bonus = j, bonus
                    if bonus == 2:
                        break
            y = ys[best]
            _put_edge(phi, r, Edge(x, y), sign)
            placed += 1
            if Vertex(Part.X, x) not in r.entries:
                del xs[0]
            if Vertex(Part.Y, y) not in r.entries:
                del ys[best]
    return placed


def decompose_bounded(target: SupportVector) -> DecompositionResult:
    """Realize an arbitrary lattice vector, at any n, as a signed edge set.

    A target that is exactly a matching shadow is reconstructed as that
    matching.  Otherwise: cover every weighted vertex by edges,
    eliminate the row and column parts by pairing units, lift the
    difference part away through signed simple matrices, then reduce the
    remaining sum-part vector (by bidc_reduce, or at n = 3 by diagonals).
    """
    check_vector(target, target.n, "queens")
    n = target.n
    verdict = check_lattice_queens(target)
    if not verdict:
        raise PreconditionError(verdict.failed)

    # phi grows edge by edge and r = target - shadow(phi) is kept current.
    phi = SignedEdgeSet(n)
    r = target.copy()

    # Phase: edge cover.  A matching shadow is reconstructed as the
    # matching, which leaves r zero for every later phase; otherwise
    # _cover_units pairs row units with column units.
    exact = _exact_matching_cover(target) or []
    for e in exact:
        _put_edge(phi, r, e, 1)
    cover_edges = len(exact) + _cover_units(phi, r)

    # Phase: row/column elimination of the leftover same-part ± pairs.
    px, nx, py, ny = [], [], [], []
    for coord, w in sorted(r.part_weights(Part.X).items()):
        (px if w > 0 else nx).extend([coord] * abs(w))
    for coord, w in sorted(r.part_weights(Part.Y).items()):
        (py if w > 0 else ny).extend([coord] * abs(w))
    xy_edges = 0
    while px and nx:
        _put_edge(phi, r, Edge(px.pop(), 0), 1)
        _put_edge(phi, r, Edge(nx.pop(), 0), -1)
        xy_edges += 2
    while py and ny:
        _put_edge(phi, r, Edge(0, py.pop()), 1)
        _put_edge(phi, r, Edge(0, ny.pop()), -1)
        xy_edges += 2
    if px or nx or py or ny:
        raise VerificationError("row/column elimination left unpaired units")

    # Phase: lift the difference part into the sum part with signed
    # simple matrices (each has zero row/column boundary).
    dpart = r.part_weights(Part.D)
    d_gens = _sq_step_decompose(n, dpart)
    for sigma, a0, p, q in d_gens:
        beta = (p - a0) % n
        gamma = (q - a0) % n
        m = (-a0 - beta) % n
        # Simple matrix on rows {0, gamma}, columns {m, m + beta}: its
        # difference-part boundary is -SQ(a0, beta, gamma) and its sum
        # part lands at base m.
        for x, y, sign in _simple_matrix(n, 0, gamma, m, m + beta, -sigma):
            _put_edge(phi, r, Edge(x, y), sign)

    # Phase: sum-part reduction, when anything is left to reduce.
    if any(v.part is not Part.S for v in r.support()):
        raise VerificationError("difference lift left residue off the sum part")
    bidc = ("bidc", 0, 0)
    if n == 3:  # bidc_reduce needs n >= 4; here S weight w is w/3 sum diagonals,
        # whose w/3 on each X, Y and D vertex cancel, as the weights sum to 0.
        copies = {s: w // 3 for s, w in r.part_weights(Part.S).items()}
        for s, m in copies.items():
            for x in range(n):
                _put_edge(phi, r, Edge(x, (s - x) % n), m)
        gadgets = sum(map(abs, copies.values()))
        bidc = ("bidc", gadgets, n * gadgets)
    if not r.is_zero():
        sub = bidc_reduce(r)
        phi += sub.phi
        bidc = ("bidc", sum(g for _, g, _ in sub.phases), sub.phi.size())
    if shadow(phi) != target:
        raise VerificationError("decomposition does not shadow the target")
    phases = (
        ("edge-cover", target.size(), cover_edges),
        ("xy-elimination", xy_edges, xy_edges),
        ("d-reduction", len(d_gens), 4 * len(d_gens)),
        bidc,
    )
    return DecompositionResult(target, phi, phases)


# --- support push-down --------------------------------------------------


def push_down(u: SupportVector, t: int) -> SignedEdgeSet:
    """Halve the support radius of a lattice vector.

    Returns ``phi`` with ``u + shadow(phi)`` supported inside the square
    interval of radius ``t // 2``; all edges stay inside radius ``t``,
    ``|phi| <= 3|u|`` and ``|u + shadow(phi)| <= 6|u|``.
    """
    n = u.n
    if t % 2 != 0 or t < 2:
        raise PreconditionError("radius-even", "push-down radius must be even and >= 2")
    if t > n // 2:
        raise PreconditionError("radius-range", f"radius {t} exceeds n//2 = {n // 2}")
    box_t = square(t)
    for v in u.support():
        if not box_t.contains(n, v):
            raise PreconditionError("support-interval", f"vertex {v} outside radius {t}")

    half = t // 2
    phi = SignedEdgeSet(n)
    for v, w in sorted(u.entries.items()):
        c = centered(n, v.coord)
        if abs(c) <= half:
            continue
        i = c % 2
        a = (c + i) // 2
        if v.part is Part.S:
            phi.add(edge_at_centered(n, a, a - i), -w)
        elif v.part is Part.D:
            phi.add(edge_at_centered(n, a, i - a), -w)
        elif v.part is Part.X:
            phi.add(edge_at_centered(n, c, 0), -w)
            phi.add(edge_at_centered(n, a, a - i), w)
            phi.add(edge_at_centered(n, a, i - a), w)
        else:
            phi.add(edge_at_centered(n, 0, c), -w)
            phi.add(edge_at_centered(n, a, a - i), w)
            phi.add(edge_at_centered(n, i - a, a), w)

    for e in phi.entries:
        if not box_t.contains_edge(n, e):
            raise VerificationError(f"push-down edge {e} escapes radius {t}")
    pushed = u + shadow(phi)
    box_half = square(half)
    for v in pushed.support():
        if not box_half.contains(n, v):
            raise VerificationError(f"push-down left {v} outside radius {half}")
    if phi.size() > 3 * u.size():
        raise VerificationError("push-down edge count exceeds 3|u|")
    if pushed.size() > 6 * u.size():
        raise VerificationError("push-down residual exceeds 6|u|")
    return phi


# --- zero-summing of diagonal support -----------------------------------


def _diagonals_balanced(u: SupportVector) -> bool:
    """Whether the S and D parts carry equal weight in each centered
    parity class: equal sums and equal odd sums."""
    stats = u.part_stats()
    s, d = stats[Part.S], stats[Part.D]
    return s.sum == d.sum and s.odd_weight == d.odd_weight


def zero_sum_support(u: SupportVector) -> SignedEdgeSet:
    """Clear the diagonal parts of a vector by pairing units with edges.

    Returns ``phi`` with ``u + shadow(phi)`` supported on rows and
    columns only.  Every added edge has both centered diagonal
    coordinates equal to the unit it cancels, which is possible exactly
    when the centered-parity balance between the two diagonal parts
    holds.
    """
    n = u.n
    if not _diagonals_balanced(u):
        raise PreconditionError(
            "parity-balance",
            "diagonal parity classes are unbalanced between the sum and difference parts",
        )

    def edge(s_c: int, d_c: int) -> Edge:
        """The edge on centered diagonals s_c and d_c of equal parity."""
        return edge_at_centered(n, (s_c + d_c) // 2, (s_c - d_c) // 2)

    # Pair within each centered parity class p, so that no edge leaves
    # the centered range; same-part pairs meet the other diagonal at p.
    phi = SignedEdgeSet(n)
    for p in (0, 1):
        units = {(part, sign): [] for part in (Part.S, Part.D) for sign in (1, -1)}
        for v, w in sorted(u.entries.items()):
            c = centered(n, v.coord)
            if v.part in (Part.S, Part.D) and c % 2 == p:
                units[v.part, 1 if w > 0 else -1].extend([c] * abs(w))
        sp, sm, dp, dm = units.values()
        while sp and dp:
            phi.add(edge(sp.pop(), dp.pop()), -1)
        while sm and dm:
            phi.add(edge(sm.pop(), dm.pop()), 1)
        while sp and sm:
            phi.add(edge(sp.pop(), p), -1)
            phi.add(edge(sm.pop(), p), 1)
        while dp and dm:
            phi.add(edge(p, dp.pop()), -1)
            phi.add(edge(p, dm.pop()), 1)
        if sp or sm or dp or dm:
            raise VerificationError("zero-summing left unpaired diagonal units")

    cleared = u + shadow(phi)
    if any(v.part in (Part.S, Part.D) for v in cleared.support()):
        raise VerificationError("zero-summing left diagonal residue")
    return phi


# --- covering a qualifying leave ----------------------------------------


def cover_leave(leave: SupportVector, radius: int) -> DecompositionResult:
    """Realize a qualifying 0/1 leave set as a signed edge set.

    Conditions: (1) weights in {0, 1}; (2) support inside the square
    interval of the given radius; (3) lattice membership; (4) balanced
    centered-parity counts between the two diagonal parts.  The radius
    must be below n / 2, and its power-of-2 ceiling at most n // 2.
    """
    check_vector(leave, leave.n, "queens")
    n = leave.n
    if any(w != 1 for w in leave.entries.values()):
        raise PreconditionError("qualifying-leave condition 1", "weights must be 0/1")
    box_r = square(radius) if radius >= 0 else None
    if radius < 0 or any(not box_r.contains(n, v) for v in leave.support()):
        raise PreconditionError(
            "qualifying-leave condition 2", f"support outside radius {radius}"
        )
    verdict = check_lattice_queens(leave)
    if not verdict:
        raise PreconditionError("qualifying-leave condition 3", verdict.failed)
    if not _diagonals_balanced(leave):
        raise PreconditionError(
            "qualifying-leave condition 4", "diagonal parity classes unbalanced"
        )

    t = 2
    while t < max(radius, 2):
        t *= 2
    # At even n the square of radius n/2 reads -n/2 as +n/2, so a leave
    # edge through -n/2 lifts to integer moments the finisher cannot clear.
    if t > n // 2 or 2 * radius >= n:
        raise PreconditionError("radius-range", f"radius {radius} too large for n={n}")

    # phi grows step by step and r = leave - shadow(phi) is kept current;
    # each step returned for r is absorbed negated.
    phi = SignedEdgeSet(n)
    r = leave.copy()
    phases: list[tuple[str, int, int]] = []

    def absorb(name: str, step: SignedEdgeSet, gadgets: int = 1) -> None:
        for e, m in step.entries.items():
            _put_edge(phi, r, e, -m)
        phases.append((name, gadgets, step.size()))

    while t >= 2:
        absorb("push-down", push_down(r, t))
        t //= 2
    absorb("zero-sum", zero_sum_support(r))

    # Finisher: the surviving row pattern is forced to (h, -2h, h) on
    # centered coordinates (-1, 0, 1); one gadget per unit clears it and
    # the column pattern must then vanish identically.
    rx = {centered(n, coord): w for coord, w in r.part_weights(Part.X).items()}
    ry = {centered(n, coord): w for coord, w in r.part_weights(Part.Y).items()}
    if any(abs(c) > 1 for c in list(rx) + list(ry)):
        raise VerificationError("finisher saw support outside the unit square")
    h = rx.get(1, 0)
    if rx.get(-1, 0) != h or rx.get(0, 0) != -2 * h:
        raise VerificationError("finisher row pattern is not (h, -2h, h)")
    gadget = SignedEdgeSet(n)
    for (cx, cy), sign in (((0, -1), 1), ((0, 1), 1), ((-1, 0), -1), ((1, 0), -1)):
        gadget.add(edge_at_centered(n, cx, cy), sign * h)
    absorb("finish-gadget", gadget, abs(h))
    if not r.is_zero():
        raise VerificationError("leave cover left a nonzero residual")

    if shadow(phi) != leave:
        raise VerificationError("leave cover does not shadow the leave")
    return DecompositionResult(leave, phi, tuple(phases))


# --- rewriting an edge set into a matching pair -------------------------


def _spiral(n: int) -> Iterator[int]:
    """Residues in order of increasing absolute centered value."""
    yield 0
    for k in range(1, n // 2 + 1):
        yield k % n
        if (n - k) % n != k % n:
            yield (n - k) % n


def _mask(board: TorusGraph, edges: Iterable[Edge]) -> int:
    """The OR of the edges' masks on board: the vertices they cover."""
    out = 0
    for e in edges:
        out |= board.edge_mask(e)
    return out


def _links(
    board: TorusGraph, v: Vertex, e_pos: Edge, e_neg: Edge
) -> Iterator[tuple[ZeroSumConfig, int] | None]:
    """For each free parameter q in :func:`_spiral` order, the zero-sum
    configuration joined at ``v``, a vertex of both edges, that holds
    ``e_pos`` with multiplicity +1 and ``e_neg`` with -1, with the mask on
    the queens ``board`` of its nine fresh vertices (those not on either
    edge); None when q gives no admissible configuration."""
    n = board.n
    keep = board.edge_mask(e_pos) | board.edge_mask(e_neg)
    for q in _spiral(n):
        if v.part is Part.X:
            z = make_config(n, v.coord, (e_pos.y - q) % n, (e_neg.y - q) % n, q)
        elif v.part is Part.Y:
            z = make_config(n, q, e_neg.x, e_pos.x, (v.coord - q) % n)
        elif v.part is Part.S:
            z = make_config(n, e_pos.x, e_neg.x, q, (e_neg.y - e_pos.x) % n)
        else:
            z = make_config(n, e_pos.x, (e_pos.y - q) % n, e_neg.x, q)
        # As v lies on both edges, each case puts e_pos on z's positive
        # side and e_neg on its negative side: (a, b+s) and (a, c+s) for
        # X, (c, a+s) and (b, a+s) for Y, (a, b+s) and (b, a+s) for S,
        # (a, b+s) and (c, d+s) for D.  With sixteen distinct vertices the
        # two sides share no edge, so these are their multiplicities in
        # z.edge_set().
        vs = _mask(board, z.positive_edges())
        fresh = vs & ~keep
        yield (z, fresh) if vs.bit_count() == 16 and fresh.bit_count() == 9 else None


def _matching_pair(g: TorusGraph, phi: SignedEdgeSet, what: str) -> tuple[Matching, Matching]:
    """The positive and negative edges of phi as two matchings, each
    verified on g."""
    # Edge e of multiplicity m appears m times on the positive side or -m
    # times on the negative one, so a multi-edge fails verify_matching.
    pair = tuple(
        Matching.of(e for e, m in sorted(phi.entries.items()) for _ in range(sign * m))
        for sign in (1, -1)
    )
    for m in pair:
        report = verify_matching(g, m)
        if not report.valid:
            raise VerificationError(f"{what} produced a non-matching at {report.offending_vertex}")
    return pair


def to_matching_pair(phi: SignedEdgeSet, region: Interval) -> tuple[Matching, Matching]:
    """Rewrite a signed edge set with a 0/±1 shadow into two matchings.

    Replaces opposite-sign edge pairs through over-covered vertices by
    zero-sum configurations whose fresh vertices lie inside ``region``
    and are currently uncovered; terminates because each replacement
    strictly reduces the same-sign over-coverage.  CapacityError names
    which budget ran out: the step cap or the 200,000-configuration scan.
    """
    n = phi.n
    board = TorusGraph(n)
    row = sum(1 << c for c in range(n) if region.contains(n, Vertex(Part.X, c)))
    inside = sum(row << i * n for i in range(len(PART_ORDER)))  # row in every part
    sh = shadow(phi)
    if any(abs(w) > 1 for w in sh.entries.values()):
        raise PreconditionError("shadow-weights", "shadow weights must lie in {-1, 0, 1}")

    work = phi.copy()
    steps = 0
    max_steps = 100 + 8 * phi.size()
    max_edges = 64 + 4 * phi.size()
    scan_budget = 200_000  # candidate configurations across the whole call

    def links_at(v: Vertex) -> Iterator[tuple[ZeroSumConfig, int] | None]:
        """For each positive edge e+ and negative edge e- of work through v,
        the links holding e- at +1 and e+ at -1, which cancel both."""
        bit = 1 << vertex_index(n, v)
        epos = sorted(e for e, m in work.entries.items() if m > 0 and masks[e] & bit)
        eneg = sorted(e for e, m in work.entries.items() if m < 0 and masks[e] & bit)
        if not epos or not eneg:
            raise VerificationError(f"over-covered vertex {v} lacks an opposite-sign edge")
        for e_plus in epos:
            for e_minus in eneg:
                yield from _links(board, v, e_minus, e_plus)

    while True:
        # One pass over work: each edge's mask, the vertices covered by
        # each sign, and those covered twice by one sign (an edge of
        # multiplicity m counts m times).
        masks: dict[Edge, int] = {}
        once, over = {1: 0, -1: 0}, 0
        for e, m in work.entries.items():
            mask = masks[e] = board.edge_mask(e)
            sign = 1 if m > 0 else -1
            over |= mask if abs(m) > 1 else once[sign] & mask
            once[sign] |= mask
        if not over:
            break
        covered = once[1] | once[-1]
        # Conflicts in reversed part order, then ascending coordinate.
        conflicts = [
            Vertex(part, c)
            for i, part in reversed(list(enumerate(PART_ORDER)))
            for c in range(n)
            if over >> (i * n + c) & 1
        ]
        steps += 1
        if steps > max_steps or len(work.entries) > max_edges:
            raise CapacityError(
                "rewriting did not converge within its step budget",
                blocking=conflicts[0],
            )

        # Take the first configuration whose fresh vertices lie in region
        # and are all uncovered, else the first with the fewest collisions
        # (a collision may create a new conflict, so the global step cap
        # above bounds the retries).  Every q tried costs scan budget.
        best: tuple[int, ZeroSumConfig] | None = None
        for v, link in ((v, link) for v in conflicts for link in links_at(v)):
            scan_budget -= 1
            if scan_budget < 0:
                raise CapacityError(
                    "rewriting ran out of its 200,000-configuration scan budget", blocking=v
                )
            if link is None or link[1] & ~inside:
                continue
            z, fresh = link
            collisions = (fresh & covered).bit_count()
            if best is None or collisions < best[0]:
                best = (collisions, z)
                if collisions == 0:
                    break
        if best is None:
            raise CapacityError(
                "no admissible replacement configuration at any over-covered vertex",
                blocking=conflicts[0],
            )
        work += best[1].edge_set()

    if shadow(work) != sh:
        raise VerificationError("rewriting changed the shadow")
    return _matching_pair(board, work, "rewriting")


# --- cascades -----------------------------------------------------------


@dataclass(frozen=True)
class Cascade:
    """A seed edge, four target edges, and five zero-sum configurations
    whose signed union links them through two 16-edge matchings."""

    n: int
    seed: Edge
    targets: tuple[Edge, Edge, Edge, Edge]
    primary: ZeroSumConfig
    links: tuple[ZeroSumConfig, ZeroSumConfig, ZeroSumConfig, ZeroSumConfig]
    m1: Matching
    m2: Matching

    def vertices(self) -> set[Vertex]:
        out: set[Vertex] = set()
        for e in self.m1:
            out.update(e.vertices(self.n))
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "seed": {"x": self.seed.x, "y": self.seed.y},
            "targets": [{"x": e.x, "y": e.y} for e in self.targets],
            "primary": self.primary.to_json(),
            "links": [z.to_json() for z in self.links],
            "m1": [{"x": e.x, "y": e.y} for e in self.m1],
            "m2": [{"x": e.x, "y": e.y} for e in self.m2],
        }


def build_cascade(g: TorusGraph, e: Edge, targets: Sequence[Edge]) -> Cascade:
    """Link a seed edge to four 1-intersecting target edges.

    Each target must share with the seed exactly the seed's vertex in one
    part (in part order X, Y, S, D) and nothing else; the sixteen seed
    vertices must be distinct, and every edge of the seed and targets must
    be an edge of ``g``.  All fresh vertices avoid the vertices removed
    from ``g``, and both matchings are verified on ``g``.
    """
    n = g.n
    if len(targets) != 4:
        raise PreconditionError("cascade-targets", "exactly four target edges required")
    for edge in (e, *targets):
        if not g.has_edge(edge):
            raise PreconditionError("cascade-edge", f"{edge} is not an edge of the board")
    # Vertex sets are masks on the queens board, whatever the kind of g.
    board = TorusGraph(n)
    seed_vs = e.vertices(n)
    seed_mask = used = board.edge_mask(e)
    for i, (t_edge, v_shared) in enumerate(zip(targets, seed_vs)):
        t_mask, shared = board.edge_mask(t_edge), 1 << vertex_index(n, v_shared)
        if t_mask & seed_mask != shared:
            raise PreconditionError(
                "cascade-intersection",
                f"target {i} does not meet the seed in its {v_shared.part.value} vertex alone",
            )
        if t_mask & used != shared:
            raise PreconditionError("cascade-overlap", f"target {i} reuses earlier vertices")
        used |= t_mask
    used |= g.removed_mask()

    # Primary configuration: contains the seed edge positively, avoids
    # every other used vertex; two free parameters.
    configs = (make_config(n, e.x, (e.y - s) % n, c, s) for s in _spiral(n) for c in _spiral(n))
    for primary in configs:
        vs = _mask(board, primary.positive_edges())
        if vs.bit_count() == 16 and not vs & ~seed_mask & used:
            break
    else:
        raise CapacityError("no admissible primary configuration for the cascade seed")
    used |= vs

    # Spoke i is the primary's negative edge through the seed's i-th vertex.
    spokes = [
        next(f for f in primary.negative_edges() if v in f.vertices(n)) for v in seed_vs
    ]

    links: list[ZeroSumConfig] = []
    for i, (spoke, t_edge, v_shared) in enumerate(zip(spokes, targets, seed_vs)):
        for z, fresh in filter(None, _links(board, v_shared, spoke, t_edge)):
            if not fresh & used:
                break
        else:
            raise CapacityError(
                f"no admissible link configuration at target {i}", blocking=t_edge
            )
        # The link's other seven vertices, on the spoke and the target,
        # are used already.
        used |= fresh
        links.append(z)

    total = SignedEdgeSet(n)
    for z in [primary, *links]:
        total += z.edge_set()
    m1, m2 = _matching_pair(g, total, "cascade")
    if len(m1) != 16 or len(m2) != 16:
        raise VerificationError("cascade matchings are not sixteen edges each")
    if total.mult(e) != 1 or any(total.mult(t) != -1 for t in targets):
        raise VerificationError("cascade lost its seed or target edges")
    vs1, vs2 = ({v for edge in m for v in edge.vertices(n)} for m in (m1, m2))
    if vs1 != vs2 or len(vs1) != 64:
        raise VerificationError("cascade matchings do not cover the same 64 vertices")
    return Cascade(n, e, tuple(targets), primary, tuple(links), m1, m2)
