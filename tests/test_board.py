"""Board model: coordinates, wrap parity, intervals, graphs, matchings."""

import pytest
from hypothesis import example, given, settings, strategies as st

from torq.board import (
    BoardKind,
    Edge,
    Interval,
    Matching,
    PART_ORDER,
    Part,
    TorusGraph,
    Vertex,
    _exact_cover,
    attacks,
    centered,
    edge_at_centered,
    placement_from_json,
    placement_to_json,
    square,
    verify_matching,
    vertex_index,
)
from torq.errors import PreconditionError
from torq.decomp import _exact_matching_cover, make_config
from torq.lattice import Generator, SignedEdgeSet, SupportVector, edge_shadow, shadow, sv
from torq.solvers import count_semiqueens, count_toroidal, max_partial_toroidal, verify_placement

from matching_reference import first_matching_reference


class TestCentered:
    def test_odd_range(self):
        assert [centered(9, c) for c in range(9)] == [0, 1, 2, 3, 4, -4, -3, -2, -1]

    def test_even_range(self):
        assert [centered(8, c) for c in range(8)] == [0, 1, 2, 3, 4, -3, -2, -1]

    @given(st.integers(2, 40), st.integers(-100, 100))
    def test_centered_is_congruent_and_in_range(self, n, c):
        lo, hi = min(centered(n, k) for k in range(n)), max(centered(n, k) for k in range(n))
        assert (lo, hi) == (n // 2 - n + 1, n // 2)
        cc = centered(n, c)
        assert lo <= cc <= hi
        assert (cc - c) % n == 0


class TestEdges:
    def test_vertices(self):
        e = Edge(2, 6)
        assert e.vertices(7) == (
            Vertex(Part.X, 2),
            Vertex(Part.Y, 6),
            Vertex(Part.S, 1),
            Vertex(Part.D, 3),
        )

    def test_centered_constructor(self):
        assert edge_at_centered(7, -1, -2) == Edge(6, 5)

    @given(st.integers(3, 30), st.data())
    def test_wrap_parity_against_classification(self, n, data):
        """Odd n: exactly one of an edge's centered sum and difference
        leaves the centered range iff its centered S and D coordinates
        differ in parity (the identity parity_track relies on)."""
        if n % 2 == 0:
            n += 1
        e = Edge(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        lo, hi = min(centered(n, k) for k in range(n)), max(centered(n, k) for k in range(n))
        cx, cy = centered(n, e.x), centered(n, e.y)
        single = (lo <= cx + cy <= hi) != (lo <= cx - cy <= hi)
        assert ((centered(n, e.s(n)) - centered(n, e.d(n))) % 2 == 1) == single


class TestTupleSemantics:
    """Edge and Vertex are tuples that hash, compare and sort as their
    fields, as the frozen dataclasses they replace did: sets and dicts of
    them iterate in the same order, so outputs keep every byte."""

    @given(st.integers(-60, 60), st.integers(-60, 60))
    def test_edge(self, x, y):
        e = Edge(x, y)
        assert hash(e) == hash((e.x, e.y))
        assert repr(e) == f"Edge(x={x}, y={y})"
        with pytest.raises(AttributeError):
            e.x = 0

    @given(st.lists(st.builds(Vertex, st.sampled_from(list(Part)), st.integers(0, 60))))
    def test_vertex(self, vs):
        for v in vs:
            assert hash(v) == hash((v.part, v.coord))
            assert repr(v) == f"Vertex(part={v.part!r}, coord={v.coord})"
            with pytest.raises(AttributeError):
                v.coord = 0
        # Parts sort by their letters, D, S, X, Y, then coordinates.
        assert sorted(vs) == sorted(vs, key=lambda v: ("DSXY".index(v.part.value), v.coord))

    def test_repr(self):
        assert repr(Edge(3, 5)) == "Edge(x=3, y=5)"
        assert repr(Vertex(Part.S, 2)) == "Vertex(part=<Part.S: 'S'>, coord=2)"


class TestIntervals:
    def test_square_bounds_all_parts(self):
        i = square(5)
        for p in Part:
            assert i.contains(13, Vertex(p, 5)) and i.contains(13, Vertex(p, 8))  # -5
            assert not i.contains(13, Vertex(p, 6)) and not i.contains(13, Vertex(p, 7))

    def test_contains_edge(self):
        assert square(2).contains_edge(11, Edge(1, 1))
        assert not square(2).contains_edge(11, Edge(2, 1))  # sum coord 3


class TestTorusGraph:
    def test_full_board_counts(self):
        g = TorusGraph(6)
        assert g.vertex_count() == 24
        edges = [Edge(x, y) for x in range(6) for y in range(6) if g.has_edge(Edge(x, y))]
        assert len(edges) == 36
        degree = {v: 0 for v in g.vertices()}
        for e in edges:
            for v in g.edge_vertices(e):
                degree[v] += 1
        assert set(degree.values()) == {6}

    def test_semi_board(self):
        g = TorusGraph(5, BoardKind.SEMIQUEENS_TOROIDAL)
        assert g.parts() == (Part.X, Part.Y, Part.S)
        assert g.vertex_count() == 15

    def test_removed_vertex_punctures_lines(self):
        g = TorusGraph(7, removed=frozenset({Vertex(Part.S, 3)}))
        live = [Edge(x, y) for x in range(7) for y in range(7) if g.has_edge(Edge(x, y))]
        assert len(live) == 49 - 7
        assert all(e.s(7) != 3 for e in live)
        assert g.vertex_count() == 28 - 1

    def test_pair_degree_is_one_on_queens_board(self):
        g = TorusGraph(7)
        u, v = Vertex(Part.X, 1), Vertex(Part.S, 4)
        through = [Edge(x, y) for x in range(7) for y in range(7)
                   if {u, v} <= set(g.edge_vertices(Edge(x, y)))]
        assert through == [Edge(1, 3)]

    @pytest.mark.parametrize("kind", ["semiqueens-toroidal", "queens-classical"])
    def test_kind_must_be_a_board_kind(self, kind):
        with pytest.raises(PreconditionError) as exc:
            TorusGraph(5, kind)
        assert exc.value.condition == "kind"

    def test_side_check_is_shared(self):
        # Boards, exact solvers, gadgets and JSON readers reject n < 1 alike.
        for build in (lambda: TorusGraph(0), lambda: count_toroidal(-1),
                      lambda: max_partial_toroidal(0), lambda: make_config(0, 0, 1, 3, 5),
                      lambda: placement_from_json({"n": 0, "mode": "toroidal", "queens": []}),
                      lambda: SupportVector.from_json({"n": 0, "entries": []})):
            with pytest.raises(PreconditionError) as exc:
                build()
            assert (exc.value.condition, str(exc.value)) == ("n", "board side must be >= 1")


class TestEdgeMask:
    @pytest.mark.parametrize(
        "kind", list(BoardKind), ids=lambda kind: kind.name.lower().replace("_", "-")
    )
    @pytest.mark.parametrize("n", range(5, 11))
    def test_masks_meet_iff_edges_share_a_vertex(self, kind, n):
        g = TorusGraph(n, kind)
        edges = [Edge(x, y) for x in range(n) for y in range(n)]
        masks = [g.edge_mask(e) for e in edges]
        verts = [set(g.edge_vertices(e)) for e in edges]
        assert all(m.bit_count() == len(g.parts()) for m in masks)
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                assert bool(masks[i] & masks[j]) == bool(verts[i] & verts[j])


@st.composite
def boards(draw):
    """A board of either kind, side 1..13 (odd and even, every n mod 6),
    with a random set of removed vertices."""
    n, kind = draw(st.integers(1, 13)), draw(st.sampled_from(list(BoardKind)))
    vertex = st.builds(Vertex, st.sampled_from(kind.parts), st.integers(0, n - 1))
    return TorusGraph(n, kind, frozenset(draw(st.sets(vertex, max_size=2 * n))))


@settings(max_examples=150, deadline=None)
@given(boards())
def test_board_model_agrees_with_its_vertices(g):
    """Edge masks, shadows, live edges and the matching bound all follow
    from the parts table and edge_vertices."""
    n = g.n
    every = [Edge(x, y) for x in range(n) for y in range(n)]
    assert [e for e, _ in g.edges()] == [e for e in every if g.has_edge(e)]
    dead = g.removed_mask()
    assert dead.bit_count() == len(g.removed)
    assert {b for b in range(4 * n) if dead >> b & 1} == {vertex_index(n, v) for v in g.removed}
    for e, mask in g.edges():
        assert not mask & dead
        vs = g.edge_vertices(e)
        assert [v.part for v in vs] == list(g.parts())
        bits = {vertex_index(n, v) for v in vs}
        assert mask == g.edge_mask(e) == sum(1 << b for b in bits)
        assert edge_shadow(n, e, g.kind.value).entries == {v: 1 for v in vs}
    live = [sum(v.part is p for v in g.vertices()) for p in g.parts()]
    assert g.matching_bound() == min(live)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: Interval(-1), ValueError, "nonnegative"),
        (lambda: TorusGraph(5, BoardKind.SEMIQUEENS_TOROIDAL, frozenset({Vertex(Part.D, 0)})),
         ValueError, "not on this board"),
        (lambda: TorusGraph(5, removed=frozenset({Vertex(Part.X, 5)})),
         ValueError, "not on this board"),
        (lambda: attacks(5, "knight", (0, 0), (1, 2)), ValueError, "unknown mode"),
        (lambda: Generator("sq-gen", (0, 1, 2), sign=2), ValueError, "sign"),
        (lambda: count_semiqueens(5, mode="knight"), PreconditionError, "mode"),
        (lambda: verify_placement(5, [(0, 1), (2, 3), (0, 1)], "toroidal"),
         PreconditionError, "queens"),
    ],
    ids=["interval", "semi-removed-d", "removed-off-board", "attacks-mode", "generator-sign",
         "semiqueens-mode", "repeated-square"],
)
def test_library_guards_reject_bad_input(call, error, match):
    with pytest.raises(error) as exc:
        call()
    if error is PreconditionError:
        assert exc.value.condition == match
    else:
        assert match in str(exc.value)


class TestExactCover:
    @staticmethod
    def masks(n):
        """T(n)'s edge masks in (x, y) order."""
        g = TorusGraph(n)
        return [g.edge_mask((x, y)) for x in range(n) for y in range(n)]

    def test_branches_on_the_item_with_fewest_options(self):
        # Item 4 has one option, {1, 2, 4}, which forces {0, 3}: two
        # nodes.  Branching on item 0 first would try {0, 1} at a third.
        masks = [0b00011, 0b01100, 0b01001, 0b10110]
        assert _exact_cover(masks, 0b11111, 2) == ([2, 3], False)
        assert _exact_cover(masks, 0b11111, 1) == (None, True)

    def test_ties_go_to_the_lowest_item(self):
        # Every item has two options.  Item 0 tries {0, 1} first, which
        # leaves {2, 3}; item 2 would have tried {1, 2} first.
        masks = [0b0011, 0b0110, 0b1100, 0b1001]
        assert _exact_cover(masks, 0b1111, 10) == ([0, 2], False)

    def test_every_item_needs_an_option(self):
        assert _exact_cover([0b011, 0b100], 0b111, 10) == ([0, 1], False)
        assert _exact_cover([0b011], 0b111, 10) == (None, False)

    def test_finds_a_perfect_matching_of_t5(self):
        found, truncated = _exact_cover(self.masks(5), (1 << 20) - 1, 1000)
        assert [divmod(i, 5) for i in found] == [(x, 2 * x % 5) for x in range(5)]
        assert not truncated
        edges = [Edge(*divmod(i, 5)) for i in found]
        assert verify_matching(TorusGraph(5), edges, require_perfect=True).perfect

    def test_exhausted_search_is_not_truncated(self):
        # T(6) has no perfect matching.
        assert _exact_cover(self.masks(6), (1 << 24) - 1, 10**6) == (None, False)

    def test_node_cap_truncates(self):
        assert _exact_cover(self.masks(6), (1 << 24) - 1, 10) == (None, True)


#: A node cap no search in these tests reaches.
UNCAPPED = 10**12


@st.composite
def punctured_boards(draw, residue):
    """T(n) minus the same number of vertices in every part, for an n in
    7..24 of the given residue mod 6.  At most 9 vertices of a part stay
    live, so the row-order reference can exhaust the board.  Half the
    boards keep exactly the vertices of a random matching, so that a
    perfect matching exists."""
    n = draw(st.sampled_from([n for n in range(7, 25) if n % 6 == residue]))
    m = draw(st.integers(1, min(n, 9)))
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        g = TorusGraph(n)
        used, edges = 0, []
        for e, mask in rng.sample(g.edges(), n * n):
            if len(edges) < m and not used & mask:
                used |= mask
                edges.append(e)
        live = [{v.coord for e in edges for v in e.vertices(n) if v.part is p} for p in PART_ORDER]
    else:
        live = [draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m)) for _ in PART_ORDER]
    removed = frozenset(Vertex(p, c) for p, keep in zip(PART_ORDER, live)
                        for c in range(n) if c not in keep)
    return TorusGraph(n, removed=removed)


@pytest.mark.parametrize("residue", range(6))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_cover_agrees_with_the_row_order_reference(residue, data):
    """On a punctured board, the exact-cover search and the row-order
    DFS agree on whether a perfect matching exists, and each one found
    verifies."""
    g = data.draw(punctured_boards(residue))
    n, live_edges = g.n, g.edges()
    items = (1 << 4 * n) - 1 & ~g.removed_mask()
    found, truncated = _exact_cover([mask for _, mask in live_edges], items, UNCAPPED)
    rows = [[(e, mask) for e, mask in live_edges if e.x == x]
            for x in range(n) if g.has_vertex(Vertex(Part.X, x))]
    ref, ref_truncated = first_matching_reference(rows, UNCAPPED)
    assert not truncated and not ref_truncated
    assert (found is None) == (ref is None)
    for m in ([live_edges[i][0] for i in found] if found is not None else None, ref):
        if m is not None:
            assert verify_matching(g, m, require_perfect=True).perfect


@pytest.mark.parametrize("residue", range(6))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_matching_cover_agrees_with_the_row_order_reference(residue, data):
    """An all-ones target with k units in every part: decompose's exact
    matching cover finds a matching exactly when the row-order DFS over
    the same candidates does, and its matching shadows the target."""
    g = data.draw(punctured_boards(residue))
    n = g.n
    target = sv(n, [(v.part, v.coord, 1) for v in g.vertices()])
    found = _exact_matching_cover(target)
    units = {p: [v.coord for v in g.vertices() if v.part is p] for p in PART_ORDER}
    rows = [[(e, g.edge_mask(e)) for y in units[Part.Y] if g.has_edge(e := Edge(x, y))]
            for x in units[Part.X]]
    ref, ref_truncated = first_matching_reference(rows, UNCAPPED)
    assert not ref_truncated
    assert (found is None) == (ref is None)
    if found is not None:
        assert verify_matching(g, found, require_perfect=True).perfect
        assert shadow(SignedEdgeSet(n, dict.fromkeys(found, 1))) == target


class TestAttacks:
    def test_row_and_column(self):
        assert attacks(8, "classical", (0, 0), (0, 5))
        assert attacks(8, "classical", (2, 3), (6, 3))

    def test_toroidal_wraps_diagonal(self):
        assert not attacks(8, "classical", (0, 7), (1, 0))
        assert attacks(8, "toroidal", (0, 7), (1, 0))

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            attacks(8, "classical", (1, 1), (1, 1))


class TestMatching:
    def test_verify_disjoint(self):
        g = TorusGraph(5)
        m = Matching.of([Edge(0, 0), Edge(1, 2)])
        assert verify_matching(g, m).valid

    def test_verify_rejects_shared_vertex(self):
        g = TorusGraph(5)
        report = verify_matching(g, Matching.of([Edge(0, 0), Edge(1, 4)]))
        assert not report.valid
        assert report.offending_vertex == Vertex(Part.S, 0)

    def test_off_board_edge_names_its_dead_vertex(self):
        g = TorusGraph(5, removed=frozenset({Vertex(Part.S, 0)}))
        report = verify_matching(g, [Edge(0, 0)])  # X0 and Y0 are live
        assert not report.valid
        assert report.offending_vertex == Vertex(Part.S, 0)
        report = verify_matching(TorusGraph(5), [Edge(7, 0)])
        assert not report.valid
        assert report.offending_vertex == Vertex(Part.X, 7)

    def test_perfect_solution(self):
        g = TorusGraph(5)
        m = Matching.of([Edge(i, (2 * i) % 5) for i in range(5)])
        report = verify_matching(g, m, require_perfect=True)
        assert report.valid and report.perfect


class TestPlacementJson:
    def test_round_trip(self):
        obj = placement_to_json(5, "toroidal", [(0, 0), (1, 2)])
        assert placement_from_json(obj) == (5, "toroidal", [(0, 0), (1, 2)])

    def test_rejects_out_of_range_with_field_path(self):
        obj = placement_to_json(5, "toroidal", [(0, 9)])
        with pytest.raises(PreconditionError) as exc:
            placement_from_json(obj)
        assert exc.value.condition == "queens[0]"

    def test_rejects_bad_n(self):
        with pytest.raises(PreconditionError) as exc:
            placement_from_json({"n": 0, "mode": "toroidal", "queens": []})
        assert exc.value.condition == "n"

    @pytest.mark.parametrize("obj", [
        {"n": 0, "mode": "toroidal", "queens": []},
        {"n": 5, "mode": "diagonal", "queens": []},
        {"n": 5, "mode": "toroidal", "queens": [[0, 5]]},
    ])
    def test_message_does_not_repeat_the_field(self, obj):
        # The CLI prints "error: <field>: <message>", so a message that
        # starts with the field would name it twice.
        with pytest.raises(PreconditionError) as exc:
            placement_from_json(obj)
        assert not str(exc.value).startswith(f"{exc.value.condition}:")

    @pytest.mark.parametrize("obj,field", [
        ([], "top level"),
        ({"mode": "toroidal", "queens": []}, "n"),
        ({"n": 5.9, "mode": "toroidal", "queens": [[0, 1.7], ["2", True]]}, "n"),
        ({"n": 5, "mode": "toroidal", "queens": [[0, 1.7], ["2", True]]}, "queens[0][1]"),
        ({"n": 5, "mode": "toroidal", "queens": [[0, 1], ["2", True]]}, "queens[1][0]"),
        ({"n": 5, "mode": "toroidal", "queens": [[1]]}, "queens[0]"),
        ({"n": 5, "mode": "toroidal"}, "queens"),
        ({"n": 5, "mode": 7, "queens": []}, "mode"),
    ])
    def test_rejects_non_integers_naming_the_field(self, obj, field):
        with pytest.raises(PreconditionError) as exc:
            placement_from_json(obj)
        assert exc.value.condition == field


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=12)
    | st.sampled_from(["n", "mode", "queens", "toroidal", "classical"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "mode", "queens", "x"]), inner, max_size=4),
    max_leaves=12,
)


@given(JSON_VALUES)
@example({"n": 5.9, "mode": "toroidal", "queens": [[0, 1.7], ["2", True]]})
@example({"n": 5, "mode": "classical", "queens": [[0, 4], [3, 2]]})
def test_placement_from_json_returns_a_placement_or_names_the_field(obj):
    """Any JSON value parses to a well-formed placement or raises
    PreconditionError; it is never coerced and never fails otherwise."""
    try:
        n, mode, queens = placement_from_json(obj)
    except PreconditionError as exc:
        assert exc.condition
        return
    assert type(obj["n"]) is int and obj["n"] == n >= 1
    assert obj["mode"] == mode in ("toroidal", "classical")
    assert len(obj["queens"]) == len(queens)
    for rc, (r, c) in zip(obj["queens"], queens):
        assert [type(v) for v in rc] == [int, int] and rc == [r, c]
        assert 0 <= r < n and 0 <= c < n
