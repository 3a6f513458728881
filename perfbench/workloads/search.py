"""search: small-board exact counting and the punctured-torus matching search.

Every count here is exact, so the work does not depend on the seed.  The
refutation and extension DFS use the fixed shuffle seed 0, the default of
``torq extend``: the time a refutation takes swings several-fold with the
shuffle (1.1 s to 5.7 s for the same eight n=30 WSets over shuffle seeds
0 to 3), which would drown any change in the engine.  The benchmark seed
drives the Knuth estimator's trial streams.
"""

from __future__ import annotations

import itertools

from torq.board import TorusGraph
from torq.errors import CapacityError
from torq.greedy import knuth_count_estimator
from torq.solvers import (
    count_classical,
    count_semiqueens,
    count_toroidal,
    extend_classical,
    max_partial_toroidal,
    monsky_value,
    verify_placement,
    verify_tstar_lattice,
    wset_candidates,
    wset_from_tuples,
)
from wset_data import EXTENDABLE_TUPLES

from ..jobs import Job, expect

# Published counts: OEIS A000170 (classical), A051906 (toroidal) and
# A006717 (toroidal semi-queens, i.e. transversals of the cyclic Latin
# square; zero for even n).
CLASSICAL = {8: 92, 9: 352, 10: 724, 11: 2680, 12: 14200}
TOROIDAL = {7: 28, 8: 0, 9: 0, 10: 0, 11: 88, 12: 0}
SEMIQUEENS = {7: 133, 8: 0, 9: 2025, 10: 0}
PARTIAL_NS = (12, 13, 14)

WSET_N = 30
# The first two WSets wset_candidates(30) yields (the first 40 do not
# extend), frozen so that each refutation is a job of its own; the
# enumeration job checks that they still come first.
FIRST_WSETS = (
    ((1, 2, 3, 30, 14, 7, 6, 29), (4, 11, 20, 25, 22, 8, 10, 26),
     (5, 9, 21, 23, 27, 12, 13, 28)),
    ((1, 2, 3, 30, 14, 7, 6, 29), (4, 11, 20, 25, 22, 8, 10, 26),
     (5, 9, 21, 23, 28, 13, 12, 27)),
)
DFS_SEED = 0
# Far above any refutation's run time, so that every refutation ends by
# exhausting the search and wall clock never picks the outcome.
BUDGET_S = 600.0
EXHAUSTED = "no perfect matching with this removed-vertex set"

# (n, trials); the estimate targets n! times the toroidal count.
KNUTH = ((5, 2000), (6, 1000), (7, 2000))
KNUTH_TARGET = {5: 120 * 10, 6: 0, 7: 5040 * 28}
KNUTH_TOL = {5: 0.10, 7: 0.25}  # relative; at n=7 about 10 standard errors


def _counter(fn, n: int, want: int) -> Job:
    name = f"solvers.{fn.__name__}"

    def run(tr):
        with tr.span(name, f"n{n}"):
            return fn(n)

    def check(got):
        expect(got == want, f"{fn.__name__}({n}) = {got}, published {want}")

    return Job("job.search.count", run, check)


def _enumerate_wsets() -> Job:
    def run(tr):
        with tr.span("solvers.wset_candidates"):
            wsets = list(itertools.islice(wset_candidates(WSET_N), len(FIRST_WSETS)))
        tr.count("solvers.wset_candidates.yielded", len(wsets))
        verdicts = []
        for w in wsets:
            with tr.span("solvers.verify_tstar_lattice"):
                verdicts.append(verify_tstar_lattice(WSET_N, w).ok)
        return [w.tuples for w in wsets], verdicts

    def check(out):
        tuples, verdicts = out
        expect(tuple(tuples) == FIRST_WSETS, f"first WSets for n={WSET_N}: {tuples}")
        expect(all(verdicts), "a punctured all-ones target is not in the lattice")

    return Job("job.search.enumerate", run, check)


def _refute(tuples) -> Job:
    w = wset_from_tuples(WSET_N, tuples)

    def run(tr):
        tr.count("solvers.extend_classical.calls")
        with tr.span("solvers.extend_classical", "refute"):
            try:
                extend_classical(WSET_N, w, budget_seconds=BUDGET_S, seed=DFS_SEED)
            except CapacityError as ex:
                tr.count("solvers.extend_classical.refuted")
                return str(ex)
        return "extended"

    def check(outcome):
        expect(EXHAUSTED in outcome, f"WSet {tuples}: not refuted by exhaustion: {outcome}")

    return Job("job.search.refute", run, check)


def _extend_frozen(n: int) -> Job:
    w = wset_from_tuples(n, EXTENDABLE_TUPLES[n])

    def run(tr):
        with tr.span("solvers.verify_tstar_lattice"):
            verdict = verify_tstar_lattice(n, w)
        tr.count("solvers.extend_classical.calls")
        with tr.span("solvers.extend_classical", "found"):
            ext = extend_classical(n, w, budget_seconds=BUDGET_S, seed=DFS_SEED)
        return verdict.ok, ext

    def check(out):
        lattice_ok, ext = out
        queens = list(ext.queens)
        expect(lattice_ok, f"n={n}: punctured all-ones target not in the lattice")
        expect(len(queens) == n, f"n={n}: {len(queens)} queens")
        expect(verify_placement(n, queens, "classical") == [], f"n={n}: classical attacks")
        pairs = verify_placement(n, queens, "toroidal")
        expect(len(pairs) == 6 and all(j < 12 for _, j in pairs),
               f"n={n}: toroidal attacks {pairs} are not six pairs of fixed queens")

    return Job("job.search.extend", run, check)


def _knuth(n: int, trials: int, seed: int) -> Job:
    g = TorusGraph(n)

    def run(tr):
        tr.count("greedy.knuth_count_estimator.trials", trials)
        with tr.span("greedy.knuth_count_estimator"):
            return knuth_count_estimator(g, trials, seed=seed)

    def check(est):
        want = KNUTH_TARGET[n]
        if want == 0:
            expect(est == 0.0, f"n={n}: estimate {est}, want exactly 0")
        else:
            expect(abs(est - want) <= KNUTH_TOL[n] * want, f"n={n}: estimate {est} vs {want}")

    return Job("job.search.knuth", run, check)


def build(seed: int) -> list[Job]:
    jobs = [_counter(count_classical, n, c) for n, c in CLASSICAL.items()]
    jobs += [_counter(count_toroidal, n, c) for n, c in TOROIDAL.items()]
    jobs += [_counter(count_semiqueens, n, c) for n, c in SEMIQUEENS.items()]
    jobs += [_counter(max_partial_toroidal, n, monsky_value(n)) for n in PARTIAL_NS]
    jobs.append(_enumerate_wsets())
    jobs += [_refute(tuples) for tuples in FIRST_WSETS]
    jobs += [_extend_frozen(n) for n in sorted(EXTENDABLE_TUPLES)]
    jobs += [_knuth(n, trials, seed) for n, trials in KNUTH]
    return jobs
