"""Support vectors, edge shadows, lattice membership tests, and the
independent elimination oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from torq.board import Edge, Part, Vertex, centered
from torq.errors import PreconditionError
from torq.lattice import (
    Generator,
    SignedEdgeSet,
    SupportVector,
    Verdict,
    check_lattice_queens,
    check_lattice_semiqueens,
    check_sublattice_S,
    edge_shadow,
    expand,
    hnf_oracle,
    in_lattice_queens,
    in_sublattice_S,
    shadow,
    sv,
)


def random_member(rng: random.Random, n: int, k: int, kind: str = "queens"):
    """A signed sum of k edge shadows: a lattice member by construction."""
    total = sv(n, [], kind)
    for _ in range(k):
        e = Edge(rng.randrange(n), rng.randrange(n))
        total = total + edge_shadow(n, e, kind).scaled(rng.choice((-1, 1)))
    return total


def sq_vec(n: int, a: int, b: int, c: int) -> SupportVector:
    return expand(n, Generator("sq-gen", (a, b, c)))


class TestSupportVector:
    def test_zero_weights_dropped(self):
        v = sv(5, [(Part.X, 0, 1), (Part.X, 0, -1), (Part.Y, 2, 3)])
        assert v.size() == 3
        assert v.support() == [Vertex(Part.Y, 2)]
        # In place: adding then subtracting leaves no key behind.
        v.add_edge(Edge(1, 4), 2)
        v.add(Vertex(Part.Y, 2), -3)
        v.add_edge(Edge(1, 4), -2)
        assert v.entries == {}
        phi = SignedEdgeSet(5, {Edge(1, 4): 2})
        phi += SignedEdgeSet(5, {Edge(1, 4): -2})
        assert phi.entries == {}

    def test_coords_reduced_and_accumulated(self):
        v = sv(5, [(Part.S, 7, 1), (Part.S, 2, 1)])
        assert v.weight(Vertex(Part.S, 2)) == 2

    def test_algebra(self):
        a = sv(5, [(Part.X, 0, 2)])
        b = sv(5, [(Part.X, 0, 1), (Part.D, 1, 1)])
        assert (a - b).weight(Vertex(Part.X, 0)) == 1
        assert (-b).weight(Vertex(Part.D, 1)) == -1
        assert (a + (-a)).is_zero()
        assert a.scaled(3).weight(Vertex(Part.X, 0)) == 6

    def test_restricted(self):
        v = sv(6, [(Part.S, 1, 4), (Part.D, 1, -2)])
        assert v.part_weights(Part.S) == {1: 4} and v.part_weights(Part.X) == {}
        stats = v.part_stats()
        assert stats[Part.S].sum == 4 and stats[Part.D].sum == -2

    def test_moments_and_odd_sum(self):
        # At odd n the odd sum follows the centered coordinate: 4 is -3.
        v = sv(7, [(Part.S, 1, 2), (Part.S, 4, 3), (Part.S, 2, 5)])
        assert v.part_stats()[Part.S] == (10, 2 + 12 + 10, 2 + 48 + 20, 2 + 3)
        assert v.part_stats()[Part.X] == (0, 0, 0, 0)
        even = sv(8, [(Part.D, 5, 1), (Part.D, 6, 1)])
        assert even.part_stats()[Part.D].odd_weight == 1

    @settings(deadline=None)
    @given(
        st.sampled_from([*range(1, 13), 31, 32]),
        st.sampled_from(["queens", "semi"]),
        st.data(),
    )
    def test_part_stats_matches_brute_force(self, n, kind, data):
        parts = (Part.X, Part.Y, Part.S, Part.D)[: 4 if kind == "queens" else 3]
        items = data.draw(st.lists(
            st.tuples(st.sampled_from(parts), st.integers(0, n - 1), st.integers(-3, 3)),
            max_size=12,
        ))
        v = sv(n, items, kind)
        stats = v.part_stats()
        assert set(stats) == set(Part)
        for p in Part:
            ws = [(c, w) for q, c, w in items if q is p]
            assert stats[p] == (
                sum(w for _, w in ws),
                sum(c * w for c, w in ws),
                sum(c * c * w for c, w in ws),
                sum(w for c, w in ws if centered(n, c) % 2),
            )

    def test_semi_kind_rejects_d(self):
        with pytest.raises(ValueError):
            sv(5, [(Part.D, 0, 1)], kind="semi")
        with pytest.raises(ValueError):
            sv(5, [], kind="semi").add(Vertex(Part.D, 0), 1)

    def test_unknown_kind_rejected_everywhere(self):
        # "Queens" once built a 4-part sv but a 3-part edge_shadow.
        for build in (
            lambda: sv(5, [(Part.D, 0, 1)], kind="Queens"),
            lambda: edge_shadow(5, Edge(0, 0), "Queens"),
            lambda: SupportVector.from_json({"n": 5, "kind": [], "entries": []}),
            lambda: hnf_oracle(5, [], sv(5, [])),
        ):
            with pytest.raises(PreconditionError) as exc:
                build()
            assert exc.value.condition == "kind"

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            sv(5, []).add_edge(Edge(5, 0))
        with pytest.raises(ValueError):
            SignedEdgeSet(5).add(Edge(0, -1), 1)

    def test_json_round_trip(self):
        v = sv(9, [(Part.X, 3, -2), (Part.S, 0, 5)])
        assert SupportVector.from_json(v.to_json()) == v
        phi = SignedEdgeSet(9, {Edge(3, 8): -2, Edge(0, 0): 1})
        assert SignedEdgeSet.from_json(phi.to_json()) == phi

    @pytest.mark.parametrize("cls,obj,field", [
        (SupportVector, [], "top level"),
        (SupportVector, {"entries": []}, "n"),
        (SupportVector, {"n": "3", "entries": []}, "n"),
        (SupportVector, {"n": 3}, "entries"),
        (SupportVector, {"n": 3, "entries": [{"part": "X", "coord": 0}]}, "entries[0].weight"),
        (SupportVector, {"n": 3, "entries": [{"part": "X", "coord": True, "weight": 1}]},
         "entries[0].coord"),
        (SupportVector, {"n": 3, "entries": [{"part": "Q", "coord": 0, "weight": 1}]},
         "entries[0].part"),
        (SupportVector, {"n": 3, "entries": [{"part": "X", "coord": 3, "weight": 1}]},
         "entries[0]"),
        (SupportVector, {"n": 3, "kind": "semi",
                         "entries": [{"part": "D", "coord": 0, "weight": 1}]}, "entries[0]"),
        (SupportVector, {"n": 3, "entries": [{"part": "X", "coord": 0, "weight": 1},
                                             {"part": "X", "coord": 0, "weight": 1}]},
         "entries[1]"),
        (SignedEdgeSet, {"n": 3, "entries": [{"x": 0, "y": 1, "mult": 1.5}]}, "entries[0].mult"),
        (SignedEdgeSet, {"n": 3, "entries": [{"x": "0", "y": 1, "mult": 1}]}, "entries[0].x"),
        (SignedEdgeSet, {"n": 3, "entries": [{"x": 0, "y": 3, "mult": 1}]}, "entries[0]"),
        (SignedEdgeSet, {"n": 3, "entries": [7]}, "entries[0]"),
    ])
    def test_json_errors_name_the_field(self, cls, obj, field):
        with pytest.raises(PreconditionError) as exc:
            cls.from_json(obj)
        assert exc.value.condition == field


class TestShadows:
    def test_edge_shadow(self):
        v = edge_shadow(7, Edge(2, 6))
        assert v.weight(Vertex(Part.X, 2)) == 1
        assert v.weight(Vertex(Part.S, 1)) == 1
        assert v.weight(Vertex(Part.D, 3)) == 1
        assert v.size() == 4

    def test_shadow_is_linear(self):
        phi = SignedEdgeSet(5, {Edge(0, 0): 2, Edge(1, 3): -1})
        expect = edge_shadow(5, Edge(0, 0)).scaled(2) - edge_shadow(5, Edge(1, 3))
        assert shadow(phi) == expect

    def test_semi_shadow_has_no_d(self):
        v = edge_shadow(5, Edge(1, 2), kind="semi")
        assert v.size() == 3 and v.part_stats()[Part.D].sum == 0


class TestQueensLattice:
    def test_all_ones_even_fails_first_moment(self):
        ones = sv(6, [(p, c, 1) for p in Part for c in range(6)])
        verdict = check_lattice_queens(ones)
        assert not verdict.ok and verdict.failed == "b"

    def test_all_ones_odd_is_member(self):
        ones = sv(7, [(p, c, 1) for p in Part for c in range(7)])
        assert in_lattice_queens(ones)
        assert hnf_oracle(7, "queens", ones)

    def test_shadow_sums_are_members(self):
        rng = random.Random(7)
        for n in (4, 5, 6, 7, 9):
            for _ in range(40):
                v = random_member(rng, n, rng.randrange(1, 8))
                verdict = check_lattice_queens(v)
                assert verdict.ok, (n, verdict.failed)

    def test_agrees_with_oracle_on_perturbed_members(self):
        rng = random.Random(11)
        for n in (4, 5, 6, 7):
            for _ in range(60):
                v = random_member(rng, n, rng.randrange(1, 6))
                bump = sv(n, [(rng.choice(tuple(Part)), rng.randrange(n), 1)])
                u = v + bump
                assert check_lattice_queens(u).ok == hnf_oracle(n, "queens", u)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7), st.data())
    def test_agrees_with_oracle_on_sparse_noise(self, n, data):
        items = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(tuple(Part)),
                    st.integers(0, n - 1),
                    st.integers(-3, 3),
                ),
                max_size=10,
            )
        )
        v = sv(n, items)
        assert check_lattice_queens(v).ok == hnf_oracle(n, "queens", v)

    def test_even_parity_condition_is_not_implied(self):
        # Two sq-gen steps with odd gaps 3 and 5: part sums and both moment
        # congruences hold, but the odd-coordinate weight sums on S and D
        # disagree.  The elimination oracle must reject it too.
        v = sq_vec(8, 0, 1, 3) + sq_vec(8, 2, 3, 7)
        verdict = check_lattice_queens(v)
        assert verdict.failed == "e"
        assert not hnf_oracle(8, "queens", v)

    def test_semi_vector_reads_zero_on_d(self):
        # A semi vector has no D part; the queens test reads its D sums as 0.
        assert check_lattice_queens(SupportVector(1, kind="semi")).ok
        for n, failed in ((6, "a"), (7, "i")):
            ones = sv(n, [(p, c, 1) for p in (Part.X, Part.Y, Part.S) for c in range(n)], "semi")
            assert check_lattice_queens(ones) == Verdict(False, failed)
        # X, Y and S cancel in sums and moments, so only D is missing.
        v = sv(5, [(Part.X, 1, 1), (Part.Y, 0, 1), (Part.S, 1, 1)], "semi")
        assert check_lattice_semiqueens(v).ok
        assert check_lattice_queens(v) == Verdict(False, "i")


class TestSemiLattice:
    def test_agrees_with_oracle(self):
        rng = random.Random(3)
        for n in (3, 4, 5, 6):
            for _ in range(60):
                items = [
                    (rng.choice((Part.X, Part.Y, Part.S)), rng.randrange(n),
                     rng.randrange(-2, 3))
                    for _ in range(rng.randrange(0, 8))
                ]
                v = sv(n, items, kind="semi")
                assert check_lattice_semiqueens(v).ok == hnf_oracle(n, "semi", v)

    def test_failure_names(self):
        assert check_lattice_semiqueens(
            sv(5, [(Part.X, 0, 1)], kind="semi")
        ).failed == "part-sums"
        v = sv(5, [(Part.X, 1, 1), (Part.Y, 0, 1), (Part.S, 0, 1)], kind="semi")
        assert check_lattice_semiqueens(v).failed == "i-sum"


class TestSublatticeS:
    def test_sq_pair_members(self):
        rng = random.Random(19)
        for n in (7, 8, 9, 12):
            for _ in range(50):
                g = 2 * rng.randrange(1, n // 2)
                a1, a2 = rng.randrange(n), rng.randrange(n)
                v = (sq_vec(n, a1, a1 + 1, a1 + g)
                     + sq_vec(n, a2, a2 + 1, a2 + n - g))
                assert in_sublattice_S(v), (n, a1, a2, g)

    def test_agrees_with_oracle(self):
        rng = random.Random(23)
        for n in (4, 5, 6, 7, 9):
            for _ in range(80):
                items = [
                    (Part.S, rng.randrange(n), rng.randrange(-2, 3))
                    for _ in range(rng.randrange(0, 7))
                ]
                v = sv(n, items)
                assert check_sublattice_S(v).ok == hnf_oracle(n, "queens", v)

    def test_rejects_off_part_support(self):
        assert check_sublattice_S(sv(5, [(Part.X, 0, 1)])).failed == "support"

    def test_single_sq_fails_second_moment(self):
        # One sq-gen step has second moment 2(a-b)(a-c), nonzero mod 7 here.
        assert check_sublattice_S(sq_vec(7, 0, 1, 3)).failed == "i2-sum"

    def test_failure_names(self):
        for v, name in (
            (sv(7, [(Part.S, 0, 1)]), "sum"),
            (sv(4, [(Part.S, 0, 1), (Part.S, 1, -1)]), "i-sum"),
            (sv(2, [(Part.S, 0, -4), (Part.S, 1, 4)]), "odd-sum"),
        ):
            assert check_sublattice_S(v) == Verdict(False, name)


class TestGenerators:
    def test_expand_matches_edge_shadow_for_simple_matrix(self):
        # Rows a, b and columns c, d: +1 at (a, c), (b, d), -1 at (a, d), (b, c).
        g = Generator("simple-matrix", (0, 2, 1, 4))
        cells = SignedEdgeSet(7, {Edge(0, 1): 1, Edge(2, 4): 1, Edge(0, 4): -1, Edge(2, 1): -1})
        assert shadow(cells) == expand(7, g)

    def test_q_gen_is_sq_difference(self):
        n = 11
        a, b, c, s = 2, 3, 5, 4
        q = expand(n, Generator("q-gen", (a, b, c, s)))
        diff = (sq_vec(n, a, a + b, a + c)
                - sq_vec(n, a + s, a + s + b, a + s + c))
        assert q == diff

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Generator("sq-gen", (1, 2, 3, 4))
        with pytest.raises(ValueError):
            Generator("mystery", (1,))
