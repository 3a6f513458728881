"""decompose: the write path, from lattice vectors to signed edge sets,
matching pairs and gadgets, with ``to_json`` and ``dumps`` on each result
as the CLI does.

Per board: matching shadows through ``decompose_bounded`` and
``to_matching_pair``; random members of fixed edge counts through
``decompose_bounded``, up to the large-|v| tail where the edge-cover loop
is quadratic; q-gen sums through ``bidc_reduce``; radius-4 leaves through
``cover_leave`` and ``to_matching_pair``.  At n=101 also a sweep of
``make_config`` and attempts at ``build_cascade``.  The seed picks the
edges and parameters; the number and size of the jobs are fixed.
"""

from __future__ import annotations

import random

from torq.board import (
    Edge,
    Matching,
    TorusGraph,
    dumps,
    edge_at_centered,
    verify_matching,
    whole_board,
)
from torq.decomp import (
    bidc_reduce,
    build_cascade,
    cover_leave,
    decompose_bounded,
    make_config,
    to_matching_pair,
)
from torq.errors import CapacityError, PreconditionError
from torq.lattice import Generator, SignedEdgeSet, check_sublattice_S, expand, shadow, sv

from ..jobs import Job, expect

# n -> signed edge counts of the random members, one job each.  At n=1001
# one member of 30 edges takes from 0.03 to 1 s by seed alone, so there are
# none there: the large-|v| tail (|v| about 360) is taken at n=101, where
# the time of one 150-edge member varies by seed by about 10%, and twelve
# of them keep the seed's share of the job list's work small.
MEMBER_EDGES = {31: (40, 80, 120), 32: (40, 80, 120), 101: (150,) * 12, 1001: ()}
MATCHINGS, QGEN_SUMS, LEAVES = 6, 6, 6  # jobs per board
# q-gens per q-gen sum: with one, bidc_reduce is trivial or not by seed.
QGENS = 3
LEAVE_RADIUS = 4
GADGET_N, CONFIGS, CASCADE_ATTEMPTS = 101, 400, 30


def _matching(rng: random.Random, n: int, k: int, max_coord: int | None = None) -> list[Edge]:
    """k vertex-disjoint random edges, optionally inside a centered radius."""
    used, edges = set(), []
    while len(edges) < k:
        if max_coord is None:
            e = Edge(rng.randrange(n), rng.randrange(n))
        else:
            cx = rng.randrange(-max_coord, max_coord + 1)
            cy = rng.randrange(-max_coord, max_coord + 1)
            if abs(cx + cy) > max_coord or abs(cx - cy) > max_coord:
                continue
            e = edge_at_centered(n, cx, cy)
        vs = e.vertices(n)
        if not used.intersection(vs):
            used.update(vs)
            edges.append(e)
    return edges


def _qgen_sum(rng: random.Random, n: int):
    while True:
        total = sv(n, [])
        for _ in range(QGENS):
            params = (rng.randrange(n), rng.randrange(1, n), rng.randrange(1, n),
                      rng.randrange(1, n))
            total = total + expand(n, Generator("q-gen", params, rng.choice((-1, 1))))
        if check_sublattice_S(total).ok:
            return total


def _emit(tr, obj) -> str:
    with tr.span("decomp.to_json"):
        data = obj.to_json()
    with tr.span("board.dumps"):
        return dumps(data)


def _audit(tr, fn: str, res) -> None:
    if tr.on:
        tr.count("decomp.phi_edges", res.phi.size())
        for phase, _gadgets, edges in res.phases:
            tr.count(f"decomp.{fn}.edges.{phase}", edges)


def _matching_pair(tr, phi: SignedEdgeSet):
    tr.count("decomp.to_matching_pair.calls")
    with tr.span("decomp.to_matching_pair"):
        pair = to_matching_pair(phi, whole_board(phi.n))
    tr.count("decomp.to_matching_pair.ok")
    return pair


def _is_matching(g: TorusGraph, m: Matching) -> bool:
    return verify_matching(g, m).valid


def _check_pair(target, res, pair) -> None:
    n = target.n
    expect(shadow(res.phi) == target, f"n={n}: shadow(phi) differs from the target")
    g = TorusGraph(n)
    m1, m2 = pair
    expect(_is_matching(g, m1) and _is_matching(g, m2), f"n={n}: rewrite is not two matchings")
    diff = SignedEdgeSet(n, {})
    for m, sign in ((m1, 1), (m2, -1)):
        diff = diff + SignedEdgeSet(n, {e: sign for e in m})
    expect(shadow(diff) == target, f"n={n}: matching pair does not shadow the target")


def _pipeline(fn_name: str, target, then_pair: bool) -> Job:
    fn = {"decompose_bounded": decompose_bounded, "bidc_reduce": bidc_reduce}[fn_name]

    def run(tr):
        with tr.span(f"decomp.{fn_name}"):
            res = fn(target)
        _audit(tr, fn_name, res)
        pair = _matching_pair(tr, res.phi) if then_pair else None
        return res, pair, _emit(tr, res)

    def check(out):
        res, pair, _text = out
        if pair is None:
            expect(shadow(res.phi) == target, f"n={target.n}: shadow(phi) differs from the target")
        else:
            _check_pair(target, res, pair)

    return Job(f"job.decompose.{fn_name}", run, check)


def _leave(leave) -> Job:
    def run(tr):
        with tr.span("decomp.cover_leave"):
            res = cover_leave(leave, LEAVE_RADIUS)
        _audit(tr, "cover_leave", res)
        return res, _matching_pair(tr, res.phi), _emit(tr, res)

    def check(out):
        res, pair, _text = out
        _check_pair(leave, res, pair)

    return Job("job.decompose.leave", run, check)


def _config(params: tuple[int, int, int, int]) -> Job:
    def run(tr):
        tr.count("decomp.make_config.calls")
        with tr.span("decomp.make_config"):
            cfg = make_config(GADGET_N, *params)
        text = _emit(tr, cfg)
        tr.count("decomp.make_config.valid", cfg.valid)
        return cfg, text

    def check(out):
        cfg, _text = out
        expect(shadow(cfg.edge_set()).is_zero(), f"config {params}: nonzero shadow")
        if cfg.valid:
            g = TorusGraph(GADGET_N)
            expect(len(cfg.vertices()) == 16, f"config {params}: not 16 vertices")
            expect(_is_matching(g, Matching.of(cfg.positive_edges()))
                   and _is_matching(g, Matching.of(cfg.negative_edges())),
                   f"config {params}: sides are not matchings")

    return Job("job.decompose.config", run, check)


def _cascade(g: TorusGraph, seed_edge: Edge, targets: tuple[Edge, ...]) -> Job:
    def run(tr):
        tr.count("decomp.build_cascade.calls")
        with tr.span("decomp.build_cascade"):
            try:
                cas = build_cascade(g, seed_edge, targets)
            except (PreconditionError, CapacityError):
                return None, None
        tr.count("decomp.build_cascade.built")
        return cas, _emit(tr, cas)

    def check(out):
        cas, _text = out
        if cas is not None:
            expect(len(cas.m1) == 16 and len(cas.m2) == 16, "cascade sides are not 16 edges")
            expect(_is_matching(g, cas.m1) and _is_matching(g, cas.m2), "cascade sides are not matchings")
            expect(len(cas.vertices()) == 64, "cascade does not cover 64 vertices")

    return Job("job.decompose.cascade", run, check)


def _cascade_inputs(rng: random.Random, n: int) -> tuple[Edge, tuple[Edge, ...]]:
    """A seed edge and four edges each meeting it in one part (X, Y, S, D)."""
    x0, y0 = rng.randrange(n), rng.randrange(n)
    xs, xd = rng.randrange(n), rng.randrange(n)
    return Edge(x0, y0), (
        Edge(x0, rng.randrange(n)),
        Edge(rng.randrange(n), y0),
        Edge(xs, (x0 + y0 - xs) % n),
        Edge(xd, (xd - x0 + y0) % n),
    )


def build(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, member_edges in MEMBER_EDGES.items():
        for j in range(MATCHINGS):
            edges = _matching(rng, n, 1 + j % 5)
            target = shadow(SignedEdgeSet(n, dict.fromkeys(edges, 1)))
            jobs.append(_pipeline("decompose_bounded", target, then_pair=True))
        for k in member_edges:
            signed = {}
            for _ in range(k):
                e = Edge(rng.randrange(n), rng.randrange(n))
                signed[e] = signed.get(e, 0) + rng.choice((-1, 1))
            target = shadow(SignedEdgeSet(n, signed))
            jobs.append(_pipeline("decompose_bounded", target, then_pair=False))
        jobs += [_pipeline("bidc_reduce", _qgen_sum(rng, n), then_pair=False)
                 for _ in range(QGEN_SUMS)]
        for _ in range(LEAVES):
            e = _matching(rng, n, 1, max_coord=LEAVE_RADIUS)[0]
            jobs.append(_leave(shadow(SignedEdgeSet(n, {e: 1}))))
    n = GADGET_N
    jobs += [_config(tuple(rng.randrange(n) for _ in range(4))) for _ in range(CONFIGS)]
    g = TorusGraph(n)
    jobs += [_cascade(g, *_cascade_inputs(rng, n)) for _ in range(CASCADE_ATTEMPTS)]
    return jobs
