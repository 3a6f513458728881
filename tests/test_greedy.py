"""Random greedy matching process: traces, envelopes, estimators,
parity tracking, CSV export."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from greedy_reference import greedy_reference
from torq.board import BoardKind, Edge, Part, TorusGraph, Vertex, verify_matching
from torq.errors import PreconditionError, VerificationError
from torq.greedy import (
    CountEstimate,
    Envelope,
    GreedyTrace,
    _LiveBoard,
    count_estimate,
    envelope_check,
    knuth_count_estimator,
    parity_track,
    run_campaign,
    run_greedy,
    trace_to_csv,
)
from torq.solvers import count_semiqueens, count_toroidal


def _kind_id(kind: BoardKind) -> str:
    """A board kind's test id, from its member name: queens-toroidal."""
    return kind.name.lower().replace("_", "-")


def replay_checked(g: TorusGraph, trace: GreedyTrace) -> None:
    """Replay trace's matching on a fresh _LiveBoard one vertex kill at a
    time, killing g's removed vertices first as run_greedy does, and
    rebuild the degrees from the masks after every step: they, Q and the
    degree extremes over the live vertices must match the trace's."""
    n = g.n
    board = _LiveBoard(n, len(g.parts()))
    for v in g.removed:
        board.kill(g.parts().index(v.part), v.coord)
    for rec, e in zip(trace.steps, [None, *trace.matching]):
        if e is not None:
            for i, v in enumerate(g.edge_vertices(e)):
                board.kill(i, v.coord)
        board.check()
        live = board.deg[board.alive[:, :n]]
        d_min, d_max = (int(live.min()), int(live.max())) if live.size else (0, 0)
        assert (board.q, d_min, d_max) == (rec.q, rec.d_min, rec.d_max), rec.i


class TestRunGreedy:
    def test_deterministic_for_fixed_seed(self):
        g = TorusGraph(51)
        t1 = run_greedy(g, seed=5, stop_fraction=0.5)
        t2 = run_greedy(g, seed=5, stop_fraction=0.5)
        assert t1 == t2

    def test_seed_changes_the_run(self):
        g = TorusGraph(51)
        t1 = run_greedy(g, seed=0, stop_fraction=0.5)
        t2 = run_greedy(g, seed=1, stop_fraction=0.5)
        assert t1.matching != t2.matching

    def test_trace_shape(self):
        n, stop = 50, 0.6
        trace = run_greedy(TorusGraph(n), seed=3, stop_fraction=stop)
        m = len(trace.matching)
        assert trace.completed and m == math.ceil(stop * n)
        assert len(trace.steps) == m + 1
        assert trace.steps[0].q == n * n
        assert trace.steps[0].p == 1.0
        qs = [rec.q for rec in trace.steps]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert verify_matching(TorusGraph(n), trace.matching).valid

    def test_probability_schedule(self):
        trace = run_greedy(TorusGraph(25), seed=0, stop_fraction=0.4)
        for rec in trace.steps:
            assert rec.p == pytest.approx(1.0 - 4 * rec.i / 100)

    def test_semi_board_schedule(self):
        trace = run_greedy(
            TorusGraph(25, BoardKind.SEMIQUEENS_TOROIDAL), seed=0, stop_fraction=0.4
        )
        for rec in trace.steps:
            assert rec.p == pytest.approx(1.0 - 3 * rec.i / 75)

    def test_debug_mode_agrees(self):
        g = TorusGraph(40)
        replay_checked(g, run_greedy(g, 1, 0.7))

    def test_check_catches_drift(self):
        board = _LiveBoard(7, 4)
        board.kill(2, 3)
        board.check()
        board.deg[1, 5] -= 1
        with pytest.raises(VerificationError, match="degrees"):
            board.check()
        board.deg[1, 5] += 1
        board.q += 1
        with pytest.raises(VerificationError, match="Q = "):
            board.check()
        board.q -= 1
        # Each copy of an alive row, both ways: S3 is dead, S4 alive.
        for col in (3 + 7, 3 + 14, 4 + 7, 4 + 14):
            board.alive[2, col] ^= True
            with pytest.raises(VerificationError, match="copies"):
                board.check()
            board.alive[2, col] ^= True
        # The dead penalty, cleared on dead S3 and set on live S4.
        penalty = int(board.dead[2, 3])
        for c, right, wrong in ((3, penalty, 0), (4, 0, penalty)):
            board.dead[2, c] = wrong
            with pytest.raises(VerificationError, match="dead penalties"):
                board.check()
            board.dead[2, c] = right
        board.check()

    def test_rejects_empty_board(self):
        for n in (1, 2):
            g = TorusGraph(n, removed=frozenset(Vertex(p, c) for p in Part for c in range(n)))
            with pytest.raises(PreconditionError) as exc:
                run_greedy(g, 0, 1.0)
            assert exc.value.condition == "board"
            # The empty matching is the one perfect matching left.
            assert knuth_count_estimator(g, trials=3, seed=0) == 1.0

    def test_rejects_bad_stop_fraction(self):
        with pytest.raises(PreconditionError) as exc:
            run_greedy(TorusGraph(8), 0, 0.0)
        assert exc.value.condition == "stop_fraction"

    def test_degree_extremes_bracket_truth(self):
        g = TorusGraph(31)
        trace = run_greedy(g, seed=2, stop_fraction=0.5)
        q, d_min, d_max = brute_force_step(g, trace.matching)
        final = trace.steps[-1]
        assert (final.q, final.d_min, final.d_max) == (q, d_min, d_max)

    def test_first_pick_is_uniform_over_live_edges(self):
        # Row degrees on this punctured board run from 2 to 5, so a
        # sampler that picked rows uniformly would be far off.
        holes = [(Part.Y, 0), (Part.Y, 1), (Part.S, 1), (Part.D, 0), (Part.D, 6)]
        g = TorusGraph(7, removed=frozenset(Vertex(p, c) for p, c in holes))
        live = [e for x in range(7) for y in range(7) if g.has_edge(e := Edge(x, y))]
        assert len(live) == 21
        assert sorted(Counter(e.x for e in live).values()) == [2, 2, 2, 3, 3, 4, 5]
        trials = 10_000
        picks = Counter(run_greedy(g, s, 0.1).matching.edges[0] for s in range(trials))
        assert set(picks) <= set(live)
        expected = trials / len(live)
        chi2 = sum((picks[e] - expected) ** 2 / expected for e in live)
        # 99.9% point of chi-square with 20 degrees of freedom.
        assert chi2 < 45.31

    def test_memory_is_linear_in_n(self):
        # One n^2 array at n = 3001 takes 8.6 MiB even as booleans.
        tracemalloc.start()
        try:
            run_greedy(TorusGraph(3001), 0, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_perfect_run_ends_at_p_zero(self):
        # Every greedy run on T(5) ends in a perfect matching.
        trace = run_greedy(TorusGraph(5), seed=0, stop_fraction=1.0)
        assert len(trace.matching) == 5 and trace.steps[-1].p == 0.0
        report = envelope_check(trace, b=0.05)
        assert report.inside[-1] and report.inside_fraction == 1.0
        last = trace_to_csv(trace, b=0.05).strip().splitlines()[-1].split(",")
        assert float(last[4]) == math.inf and float(last[8]) == math.inf


@pytest.mark.parametrize("kind", list(BoardKind), ids=_kind_id)
@pytest.mark.parametrize("n", [7, 8])
def test_take_is_k_kills(n, kind):
    # From the full board, one fused step on each edge leaves the state
    # that killing its k vertices one at a time leaves.
    k = len(kind.parts)
    for x, y in itertools.product(range(n), repeat=2):
        e = Edge(x, y)
        fused, single = _LiveBoard(n, k), _LiveBoard(n, k)
        _, x_live = fused.line(0, x)
        fused.take(e, x_live)
        for i, v in enumerate(e.vertices(n)[:k]):
            single.kill(i, v.coord)
        fused.check()
        assert fused.q == single.q, e
        for a, b in ((fused.alive, single.alive), (fused.deg, single.deg),
                     (fused.dead, single.dead)):
            assert (a == b).all(), e


def test_even_board_counts_the_second_sd_crossing_once():
    # On even n the S and D lines of edge (x, y) also cross at
    # (x + n/2, y - n/2), a live edge at step 1 of a full board; a step
    # that counted it on both lines would drop Q(1) by one too many.
    n = 8
    g = TorusGraph(n)
    trace = run_greedy(g, 0, 0.5)
    e = trace.matching.edges[0]
    crossing = Edge((e.x + n // 2) % n, (e.y - n // 2) % n)
    assert (crossing.s(n), crossing.d(n)) == (e.s(n), e.d(n))
    assert g.has_edge(crossing) and crossing != e
    assert trace.steps[1].q == brute_force_step(g, [e])[0]
    assert trace == greedy_reference(g, 0, 0.5)


@st.composite
def _greedy_runs(draw):
    """(board, seed, stop_fraction): n = 1..64, either kind, and a random
    set of removed vertices, dense enough at small n to leave live
    vertices of degree 0 or no live edge at all."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(list(BoardKind)))
    holes = draw(st.sets(st.tuples(st.sampled_from(kind.parts), st.integers(0, n - 1)),
                         max_size=2 * n))
    g = TorusGraph(n, kind, frozenset(Vertex(p, c) for p, c in holes))
    assume(g.vertex_count() > 0)
    seed = draw(st.integers(0, 2**32))
    stop = draw(st.floats(0.0, 1.0, exclude_min=True))
    return g, seed, stop


# Row 0 alone is left on the X side and Y0 is gone, so live S0 has
# degree 0 while other edges live.
_DEGREE_ZERO = TorusGraph(6, removed=frozenset(
    [Vertex(Part.X, x) for x in range(1, 6)] + [Vertex(Part.Y, 0)]))


@given(_greedy_runs())
@example((_DEGREE_ZERO, 0, 1.0))
@settings(max_examples=300, deadline=None)
def test_matches_the_reference_kernel(run):
    g, seed, stop = run
    assert run_greedy(g, seed, stop) == greedy_reference(g, seed, stop)


# sha256 of trace_to_csv(run_greedy(g, 0, 0.9), 0.05): the benchmark's
# boards, byte for byte.
_TRACE_SHA256 = [
    pytest.param(TorusGraph(1000),
                 "b891640f43f399f8b269857f267b76cec4808bceab1288504bc93a82c9a5a240",
                 id="n1000-queens-toroidal"),
    pytest.param(TorusGraph(1001),
                 "9ba752e25f8e93ac43bd59c1dd64f110aa760bd69c89dd19402d4a4d72075ba6",
                 id="n1001-queens-toroidal"),
    pytest.param(TorusGraph(1001, BoardKind.SEMIQUEENS_TOROIDAL),
                 "dd797b8f5e8364f86b2dc32d405f0edc597bf6348b2ba3727136db0b99c91f97",
                 id="n1001-semiqueens-toroidal"),
]


@pytest.mark.parametrize("g,digest", _TRACE_SHA256)
def test_trace_bytes_at_benchmark_scale(g, digest):
    csv_text = trace_to_csv(run_greedy(g, 0, 0.9), 0.05)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def brute_force_step(g: TorusGraph, placed) -> tuple[int, int, int]:
    """(Q, d_min, d_max) after placing the given edges on g, by looking at
    every cell of the board."""
    used = {v for e in placed for v in g.edge_vertices(e)}
    deg = Counter()
    q = 0
    for x in range(g.n):
        for y in range(g.n):
            e = Edge(x, y)
            vs = g.edge_vertices(e)
            if g.has_edge(e) and not used.intersection(vs):
                q += 1
                deg.update(vs)
    degs = [deg[v] for v in g.vertices() if v not in used]
    return q, min(degs, default=0), max(degs, default=0)


def _reference_boards() -> list:
    boards = []
    for n in range(12, 18):  # every class of n mod 6, odd and even
        for kind in (BoardKind.QUEENS_TOROIDAL, BoardKind.SEMIQUEENS_TOROIDAL):
            holes = {Vertex(Part.X, 1), Vertex(Part.Y, n - 2), Vertex(Part.S, 3)}
            if kind is BoardKind.QUEENS_TOROIDAL:
                holes.add(Vertex(Part.D, 0))
            for removed in (frozenset(), frozenset(holes)):
                boards.append(pytest.param(
                    TorusGraph(n, kind, removed),
                    id=f"n{n}-{_kind_id(kind)}-{'punctured' if removed else 'full'}",
                ))
    return boards


@pytest.mark.parametrize("g", _reference_boards())
class TestReferenceBoards:
    def test_steps_match_brute_force(self, g):
        trace = run_greedy(g, seed=g.n, stop_fraction=1.0)
        for rec in trace.steps:
            placed = trace.matching.edges[: rec.i]
            assert (rec.q, rec.d_min, rec.d_max) == brute_force_step(g, placed)

    def test_debug_mode_agrees(self, g):
        replay_checked(g, run_greedy(g, 1, 1.0))

    def test_matches_the_reference_kernel(self, g):
        assert run_greedy(g, 2, 1.0) == greedy_reference(g, 2, 1.0)


class TestEnvelope:
    def test_values_at_p_one(self):
        env = Envelope(0.05)
        assert env.e_q(100, 1.0) == pytest.approx(2 * 0.05 * 100 * 100)
        assert env.e_d(100, 1.0) == pytest.approx(2 * 0.05 ** (2 / 3) * 100)

    def test_widens_as_p_falls(self):
        env = Envelope(0.05)
        assert env.e_q(100, 0.5) > env.e_q(100, 0.9)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(PreconditionError) as exc:
            Envelope(0.0)
        assert exc.value.condition == "b"

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_rejects_nonfinite_b(self, b):
        with pytest.raises(PreconditionError) as exc:
            Envelope(b)
        assert exc.value.condition == "b"

    def test_healthy_run_stays_inside(self):
        trace = run_greedy(TorusGraph(301), seed=0, stop_fraction=0.9)
        report = envelope_check(trace, b=0.05)
        assert report.inside_fraction >= 0.99

    def test_corrupted_step_is_flagged(self):
        trace = run_greedy(TorusGraph(101), seed=0, stop_fraction=0.5)
        bad_step = dataclasses.replace(trace.steps[10], q=10**9)
        steps = trace.steps[:10] + (bad_step,) + trace.steps[11:]
        broken = dataclasses.replace(trace, steps=steps)
        report = envelope_check(broken, b=0.05)
        assert report.first_violation == 10
        assert not report.inside[10]


class TestCountEstimate:
    def test_matches_hand_sum(self):
        trace = run_greedy(TorusGraph(41), seed=7, stop_fraction=0.5)
        expect = sum(
            math.log(trace.steps[i].q) - math.log(41 - i)
            for i in range(len(trace.matching))
        )
        est = count_estimate(trace)
        assert isinstance(est, CountEstimate)
        assert est.total == pytest.approx(expect)
        assert est.normalized == pytest.approx(expect / 41)


class TestKnuthEstimator:
    def test_small_board_consistency(self):
        # Every completed run at n=5 contributes exactly
        # 25*8*3*2*1 = 1200, the ordered-sequence count over 5! per
        # solution; the mean converges on 1200.
        est = knuth_count_estimator(TorusGraph(5), trials=20_000, seed=0)
        assert abs(est - 1200) <= 120

    def test_unsolvable_board_is_zero(self):
        assert knuth_count_estimator(TorusGraph(6), trials=500, seed=0) == 0.0

    def test_needs_a_trial(self):
        for trials in (0, -5):
            with pytest.raises(PreconditionError) as exc:
                knuth_count_estimator(TorusGraph(5), trials)
            assert exc.value.condition == "trials"

    def test_negative_seed_named(self):
        for run in (lambda: knuth_count_estimator(TorusGraph(5), trials=1, seed=-1),
                    lambda: run_greedy(TorusGraph(5), -1, 1.0)):
            with pytest.raises(PreconditionError) as exc:
                run()
            assert exc.value.condition == "seed"

    # One trial's value has a standard deviation of about 1.4 times its
    # mean on these boards, so over 5000 trials 10% is about five
    # standard errors.
    @pytest.mark.parametrize("g,want", [
        (TorusGraph(7), math.factorial(7) * count_toroidal(7)),
        (TorusGraph(7, BoardKind.SEMIQUEENS_TOROIDAL),
         math.factorial(7) * count_semiqueens(7)),
    ])
    def test_matches_exact_counts_at_n7(self, g, want):
        est = knuth_count_estimator(g, trials=5000, seed=1)
        assert abs(est - want) <= 0.10 * want

    @pytest.mark.parametrize("kind", list(BoardKind), ids=_kind_id)
    @pytest.mark.parametrize("punctured", [False, True])
    def test_one_trial_is_the_trace_product(self, kind, punctured):
        # Both kernels draw the r-th live edge in (x, y) order for r
        # uniform below Q from SeedSequence(seed), so one Knuth trial is
        # the product of the trace's Q(i), or 0 if the trace dies early.
        for n in range(1, 12):
            holes = {Vertex(Part.Y, n - 1), Vertex(Part.S, n // 2)} if punctured else set()
            g = TorusGraph(n, kind, frozenset(holes))
            for seed in range(6):
                trace = run_greedy(g, seed, 1.0)
                product = math.prod(rec.q for rec in trace.steps[: len(trace.matching)])
                want = product if trace.completed else 0
                assert knuth_count_estimator(g, 1, seed) == want, (n, seed)

    def test_punctured_board(self):
        # T(7) without X0, Y0, S0 and D0: the 6! orders of each perfect
        # matching of the remaining 6x6 squares, counted by brute force.
        removed = frozenset(Vertex(p, 0) for p in Part)
        matchings = sum(
            1 for cols in itertools.permutations(range(1, 7))
            if len({(x + y) % 7 for x, y in zip(range(1, 7), cols)} - {0}) == 6
            and len({(x - y) % 7 for x, y in zip(range(1, 7), cols)} - {0}) == 6
        )
        want = math.factorial(6) * matchings
        assert want == 2880
        est = knuth_count_estimator(TorusGraph(7, removed=removed), trials=5000, seed=1)
        assert abs(est - want) <= 0.10 * want


class TestParityTrack:
    def test_matches_recorded_disparity(self):
        trace = run_greedy(TorusGraph(51), seed=4, stop_fraction=0.8)
        track = parity_track(trace)
        assert track == tuple(rec.parity_disparity for rec in trace.steps[1:])

    def test_rejects_even_n(self):
        trace = run_greedy(TorusGraph(8), seed=0, stop_fraction=0.3)
        with pytest.raises(PreconditionError) as exc:
            parity_track(trace)
        assert exc.value.condition == "odd-n"

    def test_rejects_semi_board(self):
        trace = run_greedy(
            TorusGraph(9, BoardKind.SEMIQUEENS_TOROIDAL), seed=0, stop_fraction=0.3
        )
        with pytest.raises(PreconditionError) as exc:
            parity_track(trace)
        assert exc.value.condition == "kind"

    def test_detects_tampered_trace(self):
        trace = run_greedy(TorusGraph(51), seed=4, stop_fraction=0.8)
        bad = dataclasses.replace(
            trace.steps[-1], parity_disparity=trace.steps[-1].parity_disparity + 1
        )
        broken = dataclasses.replace(trace, steps=trace.steps[:-1] + (bad,))
        with pytest.raises(VerificationError):
            parity_track(broken)


class TestCsvExport:
    def test_header_and_row_count(self):
        trace = run_greedy(TorusGraph(25), seed=0, stop_fraction=0.5)
        lines = trace_to_csv(trace, b=0.05).strip().splitlines()
        assert lines[0] == "i,Q,p,n2p4,eq,dmin,dmax,np3,ed,parity_disparity"
        assert len(lines) == len(trace.steps) + 1

    def test_float_columns_round_trip(self):
        trace = run_greedy(TorusGraph(25), seed=0, stop_fraction=0.5)
        lines = trace_to_csv(trace, b=0.05).strip().splitlines()
        env = Envelope(0.05)
        for rec, line in zip(trace.steps, lines[1:]):
            cols = line.split(",")
            assert int(cols[0]) == rec.i and int(cols[1]) == rec.q
            assert float(cols[2]) == rec.p
            assert float(cols[4]) == env.e_q(25, rec.p)


class TestCampaign:
    def test_summary_shape(self):
        out = run_campaign(101, seeds=range(3), b=0.05, stop_fraction=0.8)
        assert out["seeds"] == [0, 1, 2]
        s = out["summary"]
        assert 0.0 <= s["inside_fraction_median"] <= 1.0
        assert s["estimate_mean_log"] > 0.0

    def test_rejects_empty_seeds(self):
        with pytest.raises(PreconditionError) as exc:
            run_campaign(51, seeds=[], b=0.05, stop_fraction=0.5)
        assert exc.value.condition == "seeds"
