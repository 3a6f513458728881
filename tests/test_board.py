"""Board model: coordinates, wrap parity, intervals, graphs, matchings."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from torq.board import (
    VECTOR_KINDS,
    BoardKind,
    Edge,
    Matching,
    Part,
    TorusGraph,
    Vertex,
    _first_matching,
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
from torq.decomp import make_config
from torq.lattice import SupportVector, edge_shadow
from torq.solvers import count_toroidal, max_partial_toroidal


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
    @pytest.mark.parametrize("kind", list(BoardKind))
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
    vector_kind = {board: k for k, board in VECTOR_KINDS.items()}[g.kind]
    every = [Edge(x, y) for x in range(n) for y in range(n)]
    assert [e for e, _ in g.edges()] == [e for e in every if g.has_edge(e)]
    for e, mask in g.edges():
        vs = g.edge_vertices(e)
        assert [v.part for v in vs] == list(g.parts())
        bits = {vertex_index(n, v) for v in vs}
        assert mask == g.edge_mask(e) == sum(1 << b for b in bits)
        assert edge_shadow(n, e, vector_kind).entries == {v: 1 for v in vs}
    live = [sum(v.part is p for v in g.vertices()) for p in g.parts()]
    assert g.matching_bound() == min(live)


class TestFirstMatching:
    @staticmethod
    def rows(n):
        """T(n) by rows, each row's squares in ascending column order."""
        g = TorusGraph(n)
        return [[(Edge(x, y), g.edge_mask(Edge(x, y))) for y in range(n)] for x in range(n)]

    def test_finds_the_first_matching_in_row_order(self):
        found, truncated = _first_matching(self.rows(5), 1000)
        assert found == [Edge(x, 2 * x % 5) for x in range(5)] and not truncated
        assert verify_matching(TorusGraph(5), found, require_perfect=True).perfect

    def test_exhausted_search_is_not_truncated(self):
        # T(6) has no perfect matching.
        assert _first_matching(self.rows(6), 10**6) == (None, False)

    def test_node_cap_truncates(self):
        assert _first_matching(self.rows(6), 10) == (None, True)

    def test_past_deadline_truncates(self):
        assert _first_matching(self.rows(5), 1000, time.monotonic() - 1.0) == (None, True)


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
