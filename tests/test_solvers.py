"""Exhaustive counters, the maximum-partial branch and bound, and the
classical extension pipeline."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random

import pytest

from torq.board import Edge, TorusGraph, verify_matching
from torq.errors import CapacityError, PreconditionError, VerificationError
from torq.solvers import (
    WSet,
    build_wset,
    count_classical,
    count_semiqueens,
    count_toroidal,
    extend_classical,
    extend_classical_search,
    max_partial_toroidal,
    monsky_value,
    verify_placement,
    verify_tstar_lattice,
    wset_candidates,
    wset_from_tuples,
)

from count_reference import count_rows
from wset_data import EXTENDABLE_TUPLES
from wset_reference import wset_reference

# The first three WSets wset_candidates(n) yields, in order.
FIRST_WSETS = {
    28: (((1, 2, 3, 28, 18, 12, 5, 27), (6, 8, 19, 23, 22, 13, 7, 26),
          (9, 4, 21, 20, 24, 10, 11, 25)),
         ((1, 2, 3, 28, 18, 12, 5, 27), (6, 8, 19, 23, 22, 13, 7, 26),
          (9, 4, 21, 20, 25, 11, 10, 24)),
         ((1, 2, 3, 28, 18, 12, 5, 27), (6, 8, 19, 23, 24, 10, 11, 25),
          (9, 4, 21, 20, 22, 13, 7, 26))),
    30: (((1, 2, 3, 30, 14, 7, 6, 29), (4, 11, 20, 25, 22, 8, 10, 26),
          (5, 9, 21, 23, 27, 12, 13, 28)),
         ((1, 2, 3, 30, 14, 7, 6, 29), (4, 11, 20, 25, 22, 8, 10, 26),
          (5, 9, 21, 23, 28, 13, 12, 27)),
         ((1, 2, 3, 30, 14, 7, 6, 29), (4, 11, 20, 25, 22, 8, 10, 26),
          (5, 9, 23, 21, 27, 12, 13, 28))),
    32: (((1, 2, 3, 32, 12, 4, 6, 30), (5, 9, 18, 28, 25, 14, 10, 31),
          (8, 7, 26, 21, 27, 11, 13, 29)),
         ((1, 2, 3, 32, 12, 4, 6, 30), (5, 9, 18, 28, 25, 14, 10, 31),
          (8, 7, 26, 21, 29, 13, 11, 27)),
         ((1, 2, 3, 32, 12, 4, 6, 30), (5, 9, 18, 28, 27, 11, 13, 29),
          (8, 7, 26, 21, 25, 14, 10, 31))),
    33: (((1, 2, 3, 33, 11, 4, 6, 32), (5, 8, 16, 30, 28, 12, 10, 27),
          (7, 9, 25, 24, 29, 14, 13, 31)),
         ((1, 2, 3, 33, 11, 4, 6, 32), (5, 8, 16, 30, 28, 12, 10, 27),
          (9, 7, 25, 24, 29, 14, 13, 31)),
         ((1, 2, 3, 33, 11, 4, 6, 32), (5, 8, 16, 30, 29, 14, 13, 31),
          (7, 9, 25, 24, 28, 12, 10, 27))),
}

# The punctured-torus matching extend_classical(n, EXTENDABLE_TUPLES[n],
# seed=0) returns, edge by edge, in the order of its rows' shuffle.
SEED0_MATCHINGS = {
    27: ((2, 15), (18, 21), (17, 26), (12, 12), (20, 7), (3, 11), (4, 22),
         (14, 9), (16, 6), (11, 10), (1, 5), (25, 0), (23, 19), (13, 18),
         (24, 8)),
    28: ((18, 10), (25, 21), (12, 20), (2, 15), (17, 6), (5, 16), (9, 18),
         (19, 3), (24, 0), (15, 22), (16, 26), (11, 8), (1, 4), (13, 7),
         (27, 14), (23, 13)),
    30: ((20, 18), (17, 17), (1, 24), (28, 12), (8, 13), (27, 22), (18, 10),
         (9, 5), (12, 14), (29, 16), (25, 4), (14, 2), (15, 26), (16, 6),
         (11, 19), (7, 20), (23, 0), (21, 3)),
}
# What the row-order DFS returned where it differs: at n = 30 it found
# the same squares at its second restart, so under another row shuffle.
ROW_ORDER_MATCHINGS = {
    30: ((18, 10), (12, 14), (28, 12), (29, 16), (17, 17), (1, 24), (27, 22),
         (25, 4), (9, 5), (14, 2), (20, 18), (23, 0), (21, 3), (15, 26),
         (7, 20), (16, 6), (8, 13), (11, 19)),
}


def brute_placements(n: int, diagonals: str):
    """Row-ordered permutation placements with the requested diagonal
    constraint, in lexicographic order of the column sequence,
    independent of the bitmask solvers."""
    for perm in itertools.permutations(range(n)):
        if diagonals == "classical":
            ok = (len({r + perm[r] for r in range(n)}) == n
                  and len({r - perm[r] for r in range(n)}) == n)
        elif diagonals == "toroidal":
            ok = (len({(r + perm[r]) % n for r in range(n)}) == n
                  and len({(r - perm[r]) % n for r in range(n)}) == n)
        elif diagonals == "semi-toroidal":
            ok = len({(r + perm[r]) % n for r in range(n)}) == n
        else:
            ok = len({r + perm[r] for r in range(n)}) == n
        if ok:
            yield tuple(enumerate(perm))


def brute_count(n: int, diagonals: str) -> int:
    return sum(1 for _ in brute_placements(n, diagonals))


@functools.cache
def reference_wsets(n: int, count: int) -> tuple:
    """The first count + 1 (tuples, octet count) pairs of the reference
    WSet search."""
    return tuple((w.tuples, p) for w, p in itertools.islice(wset_reference(n), count + 1))


# How many of the first WSets to compare with the reference, per n.  The
# three divisibility cases are 30 and 36, 28, 32 and 34, and 33; n = 27 is
# left out, as its first WSet takes 273,611 octets placed.
REFERENCE_COUNTS = {28: 3, 30: 4, 32: 5, 33: 6, 34: 6, 36: 8}


class TestCounters:
    def test_classical_known_values(self):
        assert [count_classical(n) for n in range(1, 11)] == [
            1, 0, 0, 2, 10, 4, 40, 92, 352, 724,
        ]

    def test_classical_against_brute_force(self):
        for n in range(1, 10):
            assert count_classical(n) == brute_count(n, "classical")

    def test_toroidal_known_values(self):
        assert count_toroidal(5) == 10
        assert count_toroidal(6) == 0
        assert count_toroidal(7) == 28

    def test_toroidal_against_brute_force(self):
        for n in range(1, 10):
            assert count_toroidal(n) == brute_count(n, "toroidal")

    def test_semiqueens_against_brute_force(self):
        for n in range(1, 10):
            assert count_semiqueens(n) == brute_count(n, "semi-toroidal")
        for n in range(1, 10):
            assert count_semiqueens(n, mode="classical") == brute_count(
                n, "semi-classical"
            )

    def test_semiqueens_known_value(self):
        assert count_semiqueens(3) == 3

    @pytest.mark.parametrize(
        "counter,torus,semi",
        [
            (count_classical, False, False),
            (count_toroidal, True, False),
            (count_semiqueens, True, True),
            (functools.partial(count_semiqueens, mode="classical"), False, True),
        ],
        ids=["classical", "toroidal", "semiqueens", "semiqueens-classical"],
    )
    def test_orbit_counts_equal_the_full_search(self, counter, torus, semi):
        # The counters search one solution per symmetry orbit; the
        # reference searches every solution.
        for n in range(1, 12):
            assert counter(n) == count_rows(n, torus, semi), n

    def test_published_values_at_13(self):
        # OEIS A000170, A051906 and A006717.
        assert count_classical(13) == 73_712
        assert count_toroidal(13) == 4_524
        assert count_semiqueens(13) == 1_030_367

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            count_classical(20)
        with pytest.raises(CapacityError):
            count_toroidal(17)

    def test_bound_override(self):
        assert count_classical(4, bound=4) == 2
        with pytest.raises(CapacityError):
            count_classical(5, bound=4)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(PreconditionError):
            count_classical(0)


class TestMonsky:
    EXPECTED = [1, 1, 1, 2, 5, 4, 7, 6, 7, 9, 11, 10, 13, 13, 13, 14]

    def test_closed_form_table(self):
        assert [monsky_value(n) for n in range(1, 17)] == self.EXPECTED

    def test_branch_and_bound_agrees_small(self):
        for n in range(1, 9):
            assert max_partial_toroidal(n) == monsky_value(n)

    def test_partial_capacity_guard(self):
        with pytest.raises(CapacityError):
            max_partial_toroidal(25)


class TestWSet:
    @pytest.mark.parametrize(
        "n,case,delta",
        [(27, "odd-3div", 9), (28, "even-3ndiv", 14), (30, "even-3div", 5)],
    )
    def test_frozen_tuples_rebuild(self, n, case, delta):
        w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])
        assert w.case == case and w.delta == delta
        assert len(w.removed_vertices) == 48
        assert len(w.fixed_queens()) == 12

    @pytest.mark.parametrize("n", [27, 28, 30])
    def test_fixed_queens_attack_structure(self, n):
        w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])
        queens = list(w.fixed_queens())
        assert verify_placement(n, queens, "classical") == []
        assert len(verify_placement(n, queens, "toroidal")) == 6

    @pytest.mark.parametrize("n", [27, 28, 30])
    def test_tstar_lattice_passes(self, n):
        w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])
        assert verify_tstar_lattice(n, w).ok

    def test_tstar_lattice_rejects_other_n(self):
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        with pytest.raises(PreconditionError) as exc:
            verify_tstar_lattice(32, w)
        assert exc.value.condition == "n"

    def test_corrupted_tuples_rejected(self):
        t = [list(oct) for oct in EXTENDABLE_TUPLES[30]]
        t[0][0] = t[1][0]  # break 24-distinctness
        with pytest.raises(VerificationError):
            wset_from_tuples(30, tuple(tuple(o) for o in t))

    def test_every_route_verifies(self):
        # A WSet verifies itself however it is made, so no unverified
        # one reaches extend_classical.
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        assert WSet(30, EXTENDABLE_TUPLES[30]) == w
        first, *rest = w.tuples
        repeated = ((rest[0][0], *first[1:]), *rest)  # an element used twice
        same_class = ((*first[:4], 14, 5, 8, 29), *rest)  # a diagonal class used twice
        for bad, why in ((repeated, "24 distinct"), (same_class, "diagonal classes")):
            for build in (lambda: WSet(30, bad), lambda: dataclasses.replace(w, tuples=bad)):
                with pytest.raises(VerificationError, match=why):
                    build()

    def test_removed_vertices_built_once(self):
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        assert w.removed_vertices is w.removed_vertices
        assert dataclasses.replace(w).removed_vertices == w.removed_vertices

    def test_no_case_for_solvable_sizes(self):
        with pytest.raises(PreconditionError) as exc:
            build_wset(29)
        assert exc.value.condition == "case"

    @pytest.mark.parametrize("n", sorted(FIRST_WSETS))
    def test_candidate_order(self, n):
        got = [w.tuples for w in itertools.islice(wset_candidates(n), 3)]
        assert tuple(got) == FIRST_WSETS[n]

    @pytest.mark.parametrize(
        "n,digest",
        [(28, "1e82e9a401a5fbbd"), (30, "094ca26a1c173a57"), (32, "d87dc848e2e472fe")],
    )
    def test_first_forty_candidates(self, n, digest):
        # SHA-256 prefix of json.dumps of the first 40 WSets' tuples.
        got = [w.tuples for w in itertools.islice(wset_candidates(n), 40)]
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "n,nodes", [(28, 33_735), (30, 14_012), (32, 3_285), (33, 24)]
    )
    def test_node_limit(self, n, nodes):
        # The first WSet comes out after exactly this many octets placed.
        with pytest.raises(CapacityError):
            next(wset_candidates(n, node_limit=nodes - 1))
        w = next(wset_candidates(n, node_limit=nodes))
        assert w.tuples == FIRST_WSETS[n][0]

    @pytest.mark.parametrize("n,count", sorted(REFERENCE_COUNTS.items()))
    def test_first_candidates_match_reference(self, n, count):
        ref = reference_wsets(n, count)
        got = [w.tuples for w in itertools.islice(wset_candidates(n), count)]
        assert got == [tuples for tuples, _ in ref[:count]]

    @pytest.mark.parametrize("n", [30, 32, 33, 34, 36])
    def test_node_limits_match_reference(self, n):
        # At node limits around the first WSets' octet counts and at a
        # few random ones, the search yields what the reference yields
        # within the limit, then raises CapacityError.  Every limit is
        # below the octet count of the first WSet not compared.
        ref = reference_wsets(n, REFERENCE_COUNTS[n])
        below = ref[-1][1]
        rng = random.Random(n)
        limits = {p + e for _, p in ref[:-1] for e in (-1, 0, 1)}
        limits |= {rng.randrange(1, below) for _ in range(3)}
        for limit in sorted(limit for limit in limits if limit < below):
            got = []
            with pytest.raises(CapacityError, match=f"^WSet search exceeded {limit} nodes$"):
                for w in wset_candidates(n, node_limit=limit):
                    got.append(w.tuples)
            assert got == [tuples for tuples, p in ref if p <= limit], limit

    def test_build_wset_is_first_candidate(self):
        w = build_wset(30)
        first = next(wset_candidates(30))
        assert w.tuples == first.tuples
        assert verify_tstar_lattice(30, w).ok


class TestExtendClassical:
    def test_negative_seed_rejected(self):
        # Random seeds by absolute value, so seed -1 would repeat seed 1.
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        for call in (lambda: extend_classical(30, w, seed=-1),
                     lambda: extend_classical_search(30, seed=-1)):
            with pytest.raises(PreconditionError) as exc:
                call()
            assert exc.value.condition == "seed"

    def test_extension_from_known_tuples(self):
        n = 30
        w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])
        ext = extend_classical(n, w, budget_seconds=60.0)
        assert len(ext.queens) == n
        assert ext.queens[:12] == w.fixed_queens()
        assert verify_placement(n, list(ext.queens), "classical") == []
        toroidal = verify_placement(n, list(ext.queens), "toroidal")
        assert len(toroidal) == 6
        assert all(i < 12 and j < 12 for i, j in toroidal)
        assert ext.to_json()["mode"] == "classical"

    @pytest.mark.parametrize("n", sorted(SEED0_MATCHINGS))
    def test_seed0_matching(self, n):
        w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])
        ext = extend_classical(n, w, seed=0)
        assert tuple((e.x, e.y) for e in ext.matching) == SEED0_MATCHINGS[n]

    @pytest.mark.parametrize("pinned", [SEED0_MATCHINGS, ROW_ORDER_MATCHINGS],
                             ids=["exact-cover", "row-order"])
    def test_pinned_matchings_are_perfect_on_their_tstar(self, pinned):
        for n, squares in pinned.items():
            w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])
            tstar = TorusGraph(n, removed=w.removed_vertices)
            report = verify_matching(tstar, [Edge(x, y) for x, y in squares], require_perfect=True)
            assert report.valid and report.perfect, n

    def test_rejects_wset_for_other_n(self):
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        with pytest.raises(PreconditionError) as exc:
            extend_classical(32, w, budget_seconds=600.0)
        assert exc.value.condition == "n"

    def test_unmatchable_wset_reports_capacity(self):
        # The two lexicographically first removed-vertex sets at n=30
        # leave a punctured board with no perfect matching; a restart
        # must exhaust its search and stop early.
        for tuples in FIRST_WSETS[30][:2]:
            w = wset_from_tuples(30, tuples)
            with pytest.raises(CapacityError, match="no perfect matching with this"):
                extend_classical(30, w, budget_seconds=600.0)

    def test_nan_budget_is_rejected(self):
        # A NaN deadline never passes, so it would run without one.
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        for run in (lambda: extend_classical(30, w, budget_seconds=math.nan),
                    lambda: extend_classical_search(30, budget_seconds=math.nan)):
            with pytest.raises(PreconditionError) as exc:
                run()
            assert exc.value.condition == "budget_seconds"

    def test_search_timeout_aborts(self):
        w = wset_from_tuples(30, EXTENDABLE_TUPLES[30])
        for run, message in (
            (lambda: extend_classical_search(30, budget_seconds=0.0), "within 0.0 s"),
            (lambda: extend_classical(30, w, budget_seconds=0.0), "found within budget"),
        ):
            with pytest.raises(CapacityError, match=message):
                run()
