"""lattice: the read path, thousands of small membership jobs.

A parse job reads a vector as JSON text, checks it in one of the three
modes of ``torq lattice check`` and dumps the verdict, as the CLI does.
A build job sums signed edge shadows or expanded generators and checks
the result.  Inputs are members by construction, perturbed members (one
extra unit, so never members) and, on boards small enough for the
elimination oracle, sparse noise whose verdict the oracle decides outside
the timed window.  The seed picks edges, generators and noise; the number
of jobs of each kind and their sizes are fixed.
"""

from __future__ import annotations

import json
import random

from torq.board import Edge, Part, dumps
from torq.lattice import (
    Generator,
    SignedEdgeSet,
    SupportVector,
    check_lattice_queens,
    check_lattice_semiqueens,
    check_sublattice_S,
    edge_shadow,
    expand,
    hnf_oracle,
    shadow,
    sv,
)

from ..jobs import Job, expect

# Odd and even n, and every class of n mod 6, at both sizes.
MAIN_NS = (28, 30, 31, 32, 33, 101, 1001)
ORACLE_NS = (5, 6, 7, 8, 9, 10)

MODES = {  # CLI mode -> (checker, vector kind, parts)
    "queens": (check_lattice_queens, "queens", (Part.X, Part.Y, Part.S, Part.D)),
    "sublattice-s": (check_sublattice_S, "queens", (Part.S,)),
    "semi": (check_lattice_semiqueens, "semi", (Part.X, Part.Y, Part.S)),
}
SPAN = {mode: f"lattice.{fn.__name__}" for mode, (fn, _, _) in MODES.items()}

# Jobs per board: (mode, class, count), class one of member, perturbed, noise.
PARSE_MIX = (
    ("queens", "member", 40), ("queens", "perturbed", 20),
    ("sublattice-s", "member", 20), ("sublattice-s", "perturbed", 10),
    ("semi", "member", 20), ("semi", "perturbed", 10),
)
BUILD_MIX = (
    ("queens", "member", 20), ("queens", "perturbed", 10),
    ("sublattice-s", "member", 10), ("semi", "member", 10),
)
ORACLE_PARSE_MIX = (
    ("queens", "member", 6), ("queens", "perturbed", 3), ("queens", "noise", 8),
    ("sublattice-s", "member", 3), ("sublattice-s", "noise", 4),
    ("semi", "member", 3), ("semi", "noise", 4),
)
ORACLE_BUILD_MIX = (("queens", "member", 4), ("queens", "perturbed", 2))


def _edges(rng: random.Random, n: int, k: int) -> list[tuple[Edge, int]]:
    return [(Edge(rng.randrange(n), rng.randrange(n)), rng.choice((-1, 1)))
            for _ in range(k)]


def _generators(rng: random.Random, n: int, mode: str, k: int) -> list[Generator]:
    """Generators whose expansions are lattice members: signed simple
    matrices for the queens lattice, pairs of SQ generators with widths
    g and n - g (g even) for the one-part sublattice."""
    out = []
    for _ in range(k):
        if mode == "queens":
            params = tuple(rng.randrange(n) for _ in range(4))
            out.append(Generator("simple-matrix", params, rng.choice((-1, 1))))
        else:
            g = 2 * rng.randrange(1, n // 2)
            sign = rng.choice((-1, 1))
            for width in (g, n - g):
                a = rng.randrange(n)
                out.append(Generator("sq-gen", (a, a + 1, a + width), sign))
    return out


def _unit(rng: random.Random, n: int, mode: str) -> tuple[Part, int, int]:
    return (rng.choice(MODES[mode][2]), rng.randrange(n), 1)


def _vector(rng, n: int, mode: str, cls: str, size: int) -> SupportVector:
    kind, parts = MODES[mode][1], MODES[mode][2]
    if cls == "noise":
        items = [(rng.choice(parts), rng.randrange(n), rng.randrange(-3, 4))
                 for _ in range(size % 9)]
        return sv(n, items, kind)
    if mode == "sublattice-s":
        v = sv(n, [], kind)
        for gen in _generators(rng, n, mode, 1 + size % 3):
            v = v + expand(n, gen, kind)
    else:
        v = shadow(SignedEdgeSet(n, dict(_edges(rng, n, size))), kind)
    if cls == "perturbed":
        v = v + sv(n, [_unit(rng, n, mode)], kind)
    return v


def _verdict_json(tr, n: int, mode: str, v: SupportVector) -> tuple[bool, str]:
    with tr.span(SPAN[mode]):
        verdict = MODES[mode][0](v)
    tr.count("lattice.jobs")
    tr.count("lattice.members", verdict.ok)
    with tr.span("board.dumps"):
        text = dumps({"schema": "torq/1", "n": n, "mode": mode,
                      "ok": verdict.ok, "failed": verdict.failed})
    return verdict.ok, text


def _check_verdict(n: int, mode: str, cls: str, v: SupportVector, ok: bool,
                   text: str) -> None:
    obj = json.loads(text)
    expect((obj["n"], obj["mode"], obj["ok"]) == (n, mode, ok), f"verdict JSON {text}")
    if cls == "noise":
        want = hnf_oracle(n, MODES[mode][1], v)
    else:
        want = cls == "member"
    expect(ok == want, f"n={n} {mode} {cls}: verdict {ok}, want {want}")


def _parse_job(n: int, mode: str, cls: str, v: SupportVector) -> Job:
    text = json.dumps(v.to_json())

    def run(tr):
        with tr.span("lattice.from_json"):
            parsed = SupportVector.from_json(json.loads(text))
        return parsed, _verdict_json(tr, n, mode, parsed)

    def check(out):
        parsed, (ok, verdict_text) = out
        expect(parsed == v, f"n={n}: parsed vector differs from the input")
        _check_verdict(n, mode, cls, parsed, ok, verdict_text)

    return Job("job.lattice.parse", run, check)


def _build_job(rng: random.Random, n: int, mode: str, cls: str, size: int) -> Job:
    kind = MODES[mode][1]
    if mode == "sublattice-s":
        edges, gens = [], _generators(rng, n, mode, 1 + size % 3)
    elif mode == "queens" and size % 2:
        edges, gens = [], _generators(rng, n, mode, size)
    else:
        edges, gens = _edges(rng, n, size), []
    extra = [_unit(rng, n, mode)] if cls == "perturbed" else []

    def run(tr):
        with tr.span("lattice.build"):
            v = sv(n, extra, kind)
            for e, sign in edges:
                v = v + edge_shadow(n, e, kind).scaled(sign)
            for gen in gens:
                v = v + expand(n, gen, kind)
        return v, _verdict_json(tr, n, mode, v)

    def check(out):
        v, (ok, verdict_text) = out
        _check_verdict(n, mode, cls, v, ok, verdict_text)

    return Job("job.lattice.build", run, check)


def build(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for ns, parse_mix, build_mix in ((MAIN_NS, PARSE_MIX, BUILD_MIX),
                                     (ORACLE_NS, ORACLE_PARSE_MIX, ORACLE_BUILD_MIX)):
        for n in ns:
            for mode, cls, count in parse_mix:
                jobs += [_parse_job(n, mode, cls, _vector(rng, n, mode, cls, 4 + j % 17))
                         for j in range(count)]
            for mode, cls, count in build_mix:
                jobs += [_build_job(rng, n, mode, cls, 4 + j % 17) for j in range(count)]
    # Warm the oracle's per-board elimination tables during set-up.
    for n in ORACLE_NS:
        for kind in ("queens", "semi"):
            hnf_oracle(n, kind, sv(n, [], kind))
    rng.shuffle(jobs)
    return jobs
