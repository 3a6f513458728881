"""Zero-sum configurations, edge-set decompositions, leave covers,
matching-pair rewriting, and cascades."""

import os
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from torq.board import (
    PART_ORDER,
    Edge,
    Part,
    TorusGraph,
    Vertex,
    edge_at_centered,
    centered,
    dumps,
    square,
    verify_matching,
    whole_board,
)
from torq.decomp import (
    Cascade,
    _links,
    _spiral,
    build_cascade,
    bidc_reduce,
    bidc_size_bound,
    cover_leave,
    decompose_bounded,
    make_config,
    push_down,
    to_matching_pair,
    zero_sum_support,
)
from torq.errors import CapacityError, PreconditionError
from torq.lattice import (
    Generator,
    SignedEdgeSet,
    edge_shadow,
    expand,
    shadow,
    sv,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def sq_vec(n, a, b, c):
    return expand(n, Generator("sq-gen", (a, b, c)))


def sq_pair(n, rng):
    """A random sum-part sublattice member built from two sq-gen steps."""
    g = 2 * rng.randrange(1, n // 2)
    a1, a2 = rng.randrange(n), rng.randrange(n)
    return sq_vec(n, a1, a1 + 1, a1 + g) + sq_vec(n, a2, a2 + 1, a2 + n - g)


def random_member(rng, n, k):
    total = sv(n, [])
    for _ in range(k):
        e = Edge(rng.randrange(n), rng.randrange(n))
        total = total + edge_shadow(n, e).scaled(rng.choice((-1, 1)))
    return total


def greedy_matching(rng, n, k, max_coord=None):
    """k random vertex-disjoint edges; with max_coord, all edges fit in
    the square interval of that radius without wrapping."""
    used, edges = set(), []
    tries = 0
    while len(edges) < k and tries < 50_000:
        tries += 1
        if max_coord is None:
            e = Edge(rng.randrange(n), rng.randrange(n))
        else:
            cx = rng.randrange(-max_coord, max_coord + 1)
            cy = rng.randrange(-max_coord, max_coord + 1)
            if abs(cx + cy) > max_coord or abs(cx - cy) > max_coord:
                continue
            e = edge_at_centered(n, cx, cy)
        vs = e.vertices(n)
        if any(v in used for v in vs):
            continue
        used.update(vs)
        edges.append(e)
    assert len(edges) == k
    return edges


class TestZeroSumConfig:
    def test_reference_configuration(self):
        z = make_config(13, 0, 1, 3, 5)
        assert z.d == 4 and z.valid
        coords = {p: set() for p in Part}
        for v in z.vertices():
            coords[v.part].add(v.coord)
        assert coords[Part.X] == {0, 1, 3, 4}
        assert coords[Part.Y] == {5, 6, 8, 9}
        assert coords[Part.S] == {6, 8, 10, 12}
        assert coords[Part.D] == {5, 7, 9, 11}

    def test_boundary_cancels(self):
        rng = random.Random(1)
        for _ in range(200):
            z = make_config(
                101, rng.randrange(101), rng.randrange(101),
                rng.randrange(101), rng.randrange(101),
            )
            assert shadow(z.edge_set()).is_zero()

    def test_degenerate_is_flagged(self):
        assert not make_config(13, 0, 0, 3, 5).valid

    def test_json_shape(self):
        obj = make_config(13, 0, 1, 3, 5).to_json()
        assert obj["params"] == {"a": 0, "b": 1, "c": 3, "s": 5}
        assert obj["valid"] is True
        assert len(obj["positive"]) == len(obj["negative"]) == 4


class TestBidcReduce:
    @pytest.mark.parametrize("n", [31, 32])
    def test_exact_on_sublattice_members(self, n):
        rng = random.Random(n)
        for _ in range(25):
            v = sq_pair(n, rng)
            res = bidc_reduce(v)
            assert shadow(res.phi) == v
            assert res.size <= bidc_size_bound(v.size(), n)

    def test_phase_names(self):
        res = bidc_reduce(sq_pair(31, random.Random(0)))
        assert [name for name, _, _ in res.phases] == [
            "sq-decompose", "power-of-2", "shift-to-1",
            "base-shift", "i2-zeroing", "binary-carry",
        ]

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError) as exc:
            bidc_reduce(sv(31, [(Part.S, 0, 1)]))
        assert exc.value.condition == "sum"


class TestDecomposeBounded:
    @pytest.mark.parametrize("n", [31, 33])
    def test_exact_on_lattice_members(self, n):
        rng = random.Random(n)
        for _ in range(20):
            v = random_member(rng, n, rng.randrange(1, 7))
            res = decompose_bounded(v)
            assert shadow(res.phi) == v

    def test_matching_shadow_reconstructed_exactly(self):
        rng = random.Random(4)
        edges = greedy_matching(rng, 33, 6)
        v = sv(33, [])
        for e in edges:
            v = v + edge_shadow(33, e)
        res = decompose_bounded(v)
        assert sorted(res.phi.entries.items()) == sorted((e, 1) for e in edges)

    def test_phase_names(self):
        res = decompose_bounded(random_member(random.Random(9), 31, 4))
        assert [name for name, _, _ in res.phases] == [
            "edge-cover", "xy-elimination", "d-reduction", "bidc",
        ]

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError) as exc:
            decompose_bounded(sv(31, [(Part.X, 0, 1)]))
        assert exc.value.condition == "i"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_board_with_nothing_to_reduce(self, n):
        # The edge cover leaves no sum-part residual, so the n >= 4 bound
        # of bidc_reduce does not apply.
        for v, phi in ((sv(n, []), {}), (edge_shadow(n, Edge(0, 0)).scaled(2), {Edge(0, 0): 2})):
            res = decompose_bounded(v)
            assert res.phi.entries == phi and shadow(res.phi) == v
            assert res.phases[-1] == ("bidc", 0, 0)


class TestPushDown:
    def test_reference_step(self):
        # A unit at sum coordinate 6 pushed below radius 4 spends one
        # edge at centered (3, 3).
        phi = push_down(sv(17, [(Part.S, 6, 1)]), 8)
        assert phi.mult(Edge(3, 3)) == -1

    def test_halves_support_radius(self):
        rng = random.Random(2)
        n, t = 29, 12
        for _ in range(30):
            items = [
                (rng.choice(tuple(Part)), rng.randrange(-t, t + 1), rng.randrange(-2, 3))
                for _ in range(6)
            ]
            u = sv(n, items)
            phi = push_down(u, t)
            pushed = u + shadow(phi)
            assert all(
                abs(centered(n, v.coord)) <= t // 2 for v in pushed.support()
            )
            assert phi.size() <= 3 * u.size()

    def test_precondition_names(self):
        with pytest.raises(PreconditionError) as exc:
            push_down(sv(13, [(Part.S, 1, 1)]), 5)
        assert exc.value.condition == "radius-even"
        with pytest.raises(PreconditionError) as exc:
            push_down(sv(13, [(Part.S, 1, 1)]), 8)
        assert exc.value.condition != "radius-even"  # 8 > 13 // 2
        assert exc.value.condition == "radius-range"
        with pytest.raises(PreconditionError) as exc:
            push_down(sv(29, [(Part.S, 10, 1)]), 4)
        assert exc.value.condition == "support-interval"


class TestZeroSumSupport:
    def test_clears_diagonals_of_balanced_vector(self):
        rng = random.Random(6)
        for n in (12, 13):
            for _ in range(20):
                edges = greedy_matching(rng, n, 2, max_coord=n // 2 - 1)
                u = sv(n, [])
                for e in edges:
                    u = u + edge_shadow(n, e)
                phi = zero_sum_support(u)
                cleared = u + shadow(phi)
                assert all(
                    v.part in (Part.X, Part.Y) for v in cleared.support()
                )

    def test_unbalanced_odd_requires_wrap(self):
        # A single-wrap edge's shadow has diagonal coordinates of
        # different centered parity.
        u = edge_shadow(13, edge_at_centered(13, 4, 4))
        with pytest.raises(PreconditionError) as exc:
            zero_sum_support(u)
        assert exc.value.condition == "parity-balance"

    @settings(deadline=None)
    @given(st.sampled_from([*range(1, 13), 31, 32]), st.data())
    def test_balance_matches_brute_force(self, n, data):
        items = data.draw(st.lists(
            st.tuples(st.sampled_from((Part.S, Part.D)), st.integers(0, n - 1),
                      st.integers(-2, 2)),
            max_size=8,
        ))
        u = sv(n, items)
        # Per centered parity class, the S weight minus the D weight.
        gap = {0: 0, 1: 0}
        for p, c, w in items:
            gap[centered(n, c) % 2] += w if p is Part.S else -w
        if any(gap.values()):
            with pytest.raises(PreconditionError) as exc:
                zero_sum_support(u)
            assert exc.value.condition == "parity-balance"
        else:
            cleared = u + shadow(zero_sum_support(u))
            assert all(v.part in (Part.X, Part.Y) for v in cleared.support())


class TestCoverLeave:
    def leave_from_matching(self, rng, n, k, r):
        v = sv(n, [])
        for e in greedy_matching(rng, n, k, max_coord=r):
            v = v + edge_shadow(n, e)
        return v

    @pytest.mark.parametrize("n,r", [(33, 7), (101, 20), (64, 13)])
    def test_exact_cover(self, n, r):
        rng = random.Random(n)
        for _ in range(10):
            leave = self.leave_from_matching(rng, n, 3, r)
            res = cover_leave(leave, r)
            assert shadow(res.phi) == leave
            names = [name for name, _, _ in res.phases]
            assert names[-2:] == ["zero-sum", "finish-gadget"]
            assert set(names[:-2]) == {"push-down"}

    def test_condition_1_weights(self):
        v = sv(33, [(Part.S, 1, 2)])
        with pytest.raises(PreconditionError) as exc:
            cover_leave(v, 7)
        assert exc.value.condition == "qualifying-leave condition 1"

    def test_condition_2_radius(self):
        v = edge_shadow(33, edge_at_centered(33, 5, 5))
        with pytest.raises(PreconditionError) as exc:
            cover_leave(v, 4)
        assert exc.value.condition == "qualifying-leave condition 2"

    def test_condition_3_lattice(self):
        v = sv(33, [(Part.S, 1, 1)])
        with pytest.raises(PreconditionError) as exc:
            cover_leave(v, 7)
        assert exc.value.condition == "qualifying-leave condition 3"

    def test_condition_4_parity(self):
        # Shadow of a single sum-wrapping edge on an odd board: a 0/1
        # lattice member whose diagonal parity classes are unbalanced.
        v = edge_shadow(67, edge_at_centered(67, 18, 18))
        with pytest.raises(PreconditionError) as exc:
            cover_leave(v, 31)
        assert exc.value.condition == "qualifying-leave condition 4"

    def test_radius_range(self):
        v = edge_shadow(13, edge_at_centered(13, 1, 2))
        with pytest.raises(PreconditionError) as exc:
            cover_leave(v, 5)
        assert exc.value.condition == "radius-range"


def assert_matching_pair_shadows(n, m1, m2, leave):
    """m1 and m2 are matchings of T(n), and m1 - m2 shadows leave."""
    g = TorusGraph(n)
    assert verify_matching(g, m1).valid and verify_matching(g, m2).valid
    union = SignedEdgeSet(n)
    for m, sign in ((m1, 1), (m2, -1)):
        for e in m:
            union.add(e, sign)
    assert shadow(union) == leave


#: Centered cells whose edge lies inside the square of radius 4.
CELLS_IN_RADIUS_4 = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda c: abs(c[0] + c[1]) <= 4 and abs(c[0] - c[1]) <= 4
)


class TestToMatchingPair:
    def test_leave_cover_rewrites_to_matchings(self):
        n, r = 101, 4
        for seed in range(5):
            rng = random.Random(seed)
            leave = TestCoverLeave().leave_from_matching(rng, n, 1, r)
            res = cover_leave(leave, r)
            m1, m2 = to_matching_pair(res.phi, whole_board(n))
            assert_matching_pair_shadows(n, m1, m2, leave)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(17, 37), st.lists(CELLS_IN_RADIUS_4, min_size=1, max_size=2))
    def test_leave_covers_rewrite_or_run_out(self, n, cells):
        # One or two disjoint edges inside radius 4, every n mod 6: the
        # rewrite returns a verified pair or names a spent budget.
        edges = [edge_at_centered(n, cx, cy) for cx, cy in cells]
        assume(verify_matching(TorusGraph(n), edges).valid)
        leave = sv(n, [])
        for e in edges:
            leave = leave + edge_shadow(n, e)
        phi = cover_leave(leave, 4).phi
        try:
            m1, m2 = to_matching_pair(phi, whole_board(n))
        except CapacityError:
            return
        assert_matching_pair_shadows(n, m1, m2, leave)

    def test_congested_cover_still_rewrites(self):
        # This particular leave produces a cover whose over-covered
        # vertices admit no collision-free replacement at first; the
        # fewest-collision fallback has to step through it.
        n = 31
        leave = edge_shadow(n, edge_at_centered(n, 3, 1))
        res = cover_leave(leave, 4)
        m1, m2 = to_matching_pair(res.phi, whole_board(n))
        assert_matching_pair_shadows(n, m1, m2, leave)
        pair = {"positive": [[e.x, e.y] for e in m1], "negative": [[e.x, e.y] for e in m2]}
        assert dumps(pair) + "\n" == golden("congested_pair.json")

    def test_tight_region_spends_the_scan_budget(self):
        # Inside square(6) this cover's rewriting never converges: it
        # picks 79 links, then runs out of scan budget.  The links it
        # picks decide the vertex being scanned when the budget runs out.
        n = 31
        phi = cover_leave(edge_shadow(n, edge_at_centered(n, 3, 1)), 4).phi
        with pytest.raises(CapacityError, match="scan budget") as exc:
            to_matching_pair(phi, square(6))
        assert exc.value.blocking == Vertex(Part.D, 27)

    def test_rejects_heavy_shadow(self):
        phi = SignedEdgeSet(33, {Edge(0, 0): 2})
        with pytest.raises(PreconditionError) as exc:
            to_matching_pair(phi, whole_board(33))
        assert exc.value.condition == "shadow-weights"


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 40), st.sampled_from(PART_ORDER), st.data())
def test_links_hold_their_edges_on_their_sides(n, part, data):
    """Every configuration _links builds, admissible or not, holds e_pos
    on its positive side and e_neg on its negative side, so _links need
    not test it."""
    coord = st.integers(0, n - 1)
    e_pos = Edge(data.draw(coord), data.draw(coord))
    v = e_pos.vertices(n)[PART_ORDER.index(part)]
    x = data.draw(coord)
    e_neg = {  # another edge through v
        Part.X: Edge(v.coord, x),
        Part.Y: Edge(x, v.coord),
        Part.S: Edge(x, (v.coord - x) % n),
        Part.D: Edge(x, (x - v.coord) % n),
    }[part]
    assume(e_neg != e_pos)
    built = []

    def record(*args):
        built.append(make_config(*args))
        return built[-1]

    with mock.patch("torq.decomp.make_config", side_effect=record):
        links = list(_links(TorusGraph(n), v, e_pos, e_neg))
    assert len(built) == len(links) == len(list(_spiral(n)))
    for z, link in zip(built, links):
        assert e_pos in z.positive_edges() and e_neg in z.negative_edges()
        assert link is None or link[0] is z


class TestArgumentsUnchanged:
    """The phases build their edge sets and residuals in place; none may
    change the vector or edge set it is given."""

    def test_entries_unchanged(self):
        n = 31
        e1, e2, e3 = (edge_at_centered(n, cx, cy) for cx, cy in ((-3, 0), (2, -1), (3, -1)))
        member = edge_shadow(n, e1) + edge_shadow(n, e2) - edge_shadow(n, e3)
        leave = edge_shadow(n, edge_at_centered(n, 3, 1))
        for fn, arg, rest in (
            (decompose_bounded, member, ()),
            (bidc_reduce, sq_pair(n, random.Random(0)), ()),
            (cover_leave, leave, (4,)),
            (push_down, sv(n, [(Part.S, 6, 1), (Part.X, -5, 2)]), (8,)),
            (zero_sum_support, leave, ()),
            (to_matching_pair, cover_leave(leave, 4).phi, (whole_board(n),)),
        ):
            before = dict(arg.entries)
            fn(arg, *rest)
            assert arg.entries == before, fn.__name__


class TestCascade:
    SEED = Edge(0, 0)
    TARGETS = (Edge(0, 5), Edge(7, 0), Edge(11, 90), Edge(13, 13))

    def test_build_and_verify(self):
        g = TorusGraph(101)
        cas = build_cascade(g, self.SEED, self.TARGETS)
        assert isinstance(cas, Cascade)
        assert len(cas.m1) == len(cas.m2) == 16
        assert self.SEED in set(cas.m1)
        assert set(self.TARGETS) <= set(cas.m2)
        acc = {}
        for e in cas.m1:
            acc[e] = acc.get(e, 0) + 1
        for e in cas.m2:
            acc[e] = acc.get(e, 0) - 1
        assert shadow(SignedEdgeSet(101, acc)).is_zero()

    def test_golden(self):
        cas = build_cascade(TorusGraph(101), self.SEED, self.TARGETS)
        assert dumps(cas.to_json()) + "\n" == golden("cascade.json")

    def test_punctured_board_respected(self):
        # D1 is the first fresh vertex of the cascade on the whole board.
        hole = Vertex(Part.D, 1)
        assert hole in build_cascade(TorusGraph(101), self.SEED, self.TARGETS).vertices()
        g = TorusGraph(101, removed=frozenset({hole}))
        cas = build_cascade(g, self.SEED, self.TARGETS)
        assert hole not in cas.vertices()
        assert verify_matching(g, cas.m1).valid and verify_matching(g, cas.m2).valid
        with pytest.raises(PreconditionError) as exc:
            build_cascade(g, Edge(1, 0), self.TARGETS)  # its D vertex is the hole
        assert exc.value.condition == "cascade-edge"

    def test_avoid_set_respected(self):
        # A vertex to avoid is a hole in the board.
        base = build_cascade(TorusGraph(101), self.SEED, self.TARGETS)
        fixed = set(self.SEED.vertices(101))
        for t in self.TARGETS:
            fixed |= set(t.vertices(101))
        for poison in sorted(base.vertices() - fixed)[:3]:
            g = TorusGraph(101, removed=frozenset({poison}))
            cas = build_cascade(g, self.SEED, self.TARGETS)
            assert poison not in cas.vertices()
            assert verify_matching(g, cas.m1).valid and verify_matching(g, cas.m2).valid

    def test_target_count_checked(self):
        with pytest.raises(PreconditionError) as exc:
            build_cascade(TorusGraph(101), self.SEED, self.TARGETS[:3])
        assert exc.value.condition == "cascade-targets"

    def test_intersection_checked(self):
        bad = (Edge(1, 5),) + self.TARGETS[1:]  # misses the seed's row vertex
        with pytest.raises(PreconditionError) as exc:
            build_cascade(TorusGraph(101), self.SEED, bad)
        assert exc.value.condition == "cascade-intersection"

    def test_overlap_checked(self):
        bad = (Edge(0, 5), Edge(7, 0), Edge(11, 90), Edge(7, 7))
        with pytest.raises(PreconditionError) as exc:
            build_cascade(TorusGraph(101), self.SEED, bad)
        assert exc.value.condition == "cascade-overlap"
