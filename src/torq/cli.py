"""Command-line interface for the toroidal queens toolkit.

Subcommands: count, lattice, decompose, zsc, greedy, extend, monsky.
Results go to stdout as canonical JSON, stamped with the schema tag
(or CSV for greedy traces), or as the same text to the file named by
--out.  Exit codes: 0 success, 2 invalid input, 3 capacity, timeout or
out of memory, 4 verification failure.  Every randomized command
defaults to seed 0, never to wall clock, so identical invocations
produce byte-identical output.

The environment variable TORQ_MAX_EXHAUSTIVE, a positive integer,
overrides the exhaustive solver bounds.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from random import Random

import click

from . import decomp, greedy, lattice, solvers
from .board import SCHEMA, Part, TorusGraph, check_seed, check_side, dumps, square, vector_board
from .errors import CapacityError, PreconditionError, VerificationError


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise PreconditionError("out", str(ex)) from ex


def _emit_json(obj: dict, out: str | None) -> None:
    """Write obj, stamped with the schema tag, as one line of canonical JSON."""
    _emit(dumps({**obj, "schema": SCHEMA}) + "\n", out)


def _solver_bound() -> int | None:
    raw = os.environ.get("TORQ_MAX_EXHAUSTIVE")
    if not raw:
        return None
    try:
        bound = int(raw)
    except ValueError:
        bound = 0  # rejected below, with the same message
    if bound < 1:
        raise PreconditionError(
            "TORQ_MAX_EXHAUSTIVE", f"must be a positive integer, got {raw!r}"
        )
    return bound


def _read_vector(n: int, kind: str = "queens") -> lattice.SupportVector:
    """The support vector on stdin, which must have side n and this kind."""
    try:
        obj = json.load(sys.stdin)
    except (ValueError, RecursionError) as ex:  # an undecodable byte is a ValueError
        raise PreconditionError("stdin", f"malformed JSON: {ex}") from ex
    v = lattice.SupportVector.from_json(obj)
    lattice.check_vector(v, n, kind)
    return v


@click.group()
def cli() -> None:
    """Toroidal n-queens toolkit."""


#: count's --mode choices, in --help order, and their exact counters.
_COUNTERS = {
    "classical": solvers.count_classical,
    "toroidal": solvers.count_toroidal,
    "semiqueens": functools.partial(solvers.count_semiqueens, mode="toroidal"),
    "semiqueens-classical": functools.partial(solvers.count_semiqueens, mode="classical"),
}


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--mode", type=click.Choice(list(_COUNTERS)), default="toroidal")
@click.option("--out", type=str, default=None)
def count(n: int, mode: str, out: str | None) -> None:
    """Exact solution count for the chosen board."""
    bound = _solver_bound()
    _emit_json({"mode": mode, "n": n, "count": _COUNTERS[mode](n, bound=bound)}, out)


@cli.group(name="lattice")
def lattice_group() -> None:
    """Edge-lattice membership tests."""


#: lattice check's --mode choices, in --help order, their tests and vector kinds.
_MEMBERSHIP_TESTS = {
    "queens": (lattice.check_lattice_queens, "queens"),
    "semi": (lattice.check_lattice_semiqueens, "semi"),
    "sublattice-s": (lattice.check_sublattice_S, "queens"),
}


@lattice_group.command()
@click.option("--n", type=int, required=True)
@click.option("--ones", is_flag=True, help="Test the all-ones target.")
@click.option("--mode", type=click.Choice(list(_MEMBERSHIP_TESTS)), default="queens")
@click.option("--oracle", is_flag=True, help="Cross-check against the HNF oracle.")
@click.option("--out", type=str, default=None)
def check(n: int, ones: bool, mode: str, oracle: bool, out: str | None) -> None:
    """Membership verdict for a support vector (stdin JSON, or --ones)."""
    test, kind = _MEMBERSHIP_TESTS[mode]
    if ones:
        check_side(n)
        v = lattice.sv(n, [(p, c, 1) for p in vector_board(kind).parts for c in range(n)], kind)
    else:
        v = _read_vector(n, kind)
    verdict = test(v)
    result = {"n": n, "mode": mode, "ok": verdict.ok, "failed": verdict.failed}
    if oracle:
        # The one-part sublattice is exactly the set of S-supported
        # lattice members, so the queens-lattice oracle covers it too.
        member = lattice.hnf_oracle(n, kind, v)
        if mode == "sublattice-s":
            member = member and all(u.part is Part.S for u in v.entries)
        agrees = member == verdict.ok
        result["oracle_agrees"] = agrees
        if not agrees:
            raise VerificationError("membership test disagrees with the HNF oracle")
    _emit_json(result, out)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option(
    "--method", type=click.Choice(["bounded", "bidc", "leave"]), default="bounded"
)
@click.option("--radius", type=int, default=None, help="Leave radius (method=leave).")
@click.option(
    "--region", type=int, default=None,
    help="Square region radius for conversion to a matching pair."
)
@click.option("--out", type=str, default=None)
def decompose(
    n: int, method: str, radius: int | None, region: int | None, out: str | None
) -> None:
    """Decompose a support vector (stdin JSON) into signed edges."""
    if region is not None and region < 0:
        raise PreconditionError("region", f"must be >= 0, got {region}")
    v = _read_vector(n)
    if method == "bidc":
        result = decomp.bidc_reduce(v)
    elif method == "bounded":
        result = decomp.decompose_bounded(v)
    else:
        if radius is None:
            raise PreconditionError("radius", "--radius is required for method=leave")
        result = decomp.cover_leave(v, radius)
    obj = result.to_json()
    if region is not None:
        pos, neg = decomp.to_matching_pair(result.phi, square(region))
        obj["matching_pair"] = {
            "positive": [[e.x, e.y] for e in pos],
            "negative": [[e.x, e.y] for e in neg],
        }
    _emit_json(obj, out)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=str, default=None)
def zsc(n: int, seed: int, out: str | None) -> None:
    """A random valid zero-sum configuration, deterministic per seed."""
    if n <= 4:
        raise PreconditionError("n", f"a valid zero-sum configuration needs n >= 5, got {n}")
    check_seed(seed)
    rng = Random(seed)
    for _ in range(100_000):
        cfg = decomp.make_config(
            n, rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(n)
        )
        if cfg.valid:
            _emit_json({**cfg.to_json(), "seed": seed}, out)
            return
    raise CapacityError(f"no valid zero-sum configuration found for n={n}")


@cli.command(name="greedy")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--seeds", type=int, default=None, help="Campaign over this many seeds.")
@click.option("--b", type=float, default=0.05)
@click.option("--stop", type=float, default=0.9)
@click.option("--out", type=str, default=None)
def greedy_cmd(
    n: int, seed: int, seeds: int | None, b: float, stop: float, out: str | None
) -> None:
    """Random greedy matching: trace CSV, or campaign JSON with --seeds."""
    greedy.Envelope(b)  # rejects a bad --b before the run
    if seeds is not None:
        _emit_json(greedy.run_campaign(n, range(seed, seed + seeds), b, stop), out)
        return
    trace = greedy.run_greedy(TorusGraph(n), seed, stop)
    _emit(greedy.trace_to_csv(trace, b), out)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--timeout", type=float, default=60.0)
@click.option("--out", type=str, default=None)
def extend(n: int, seed: int, timeout: float, out: str | None) -> None:
    """Classical placement with six toroidal attacks, within the budget."""
    ext = solvers.extend_classical_search(n, budget_seconds=timeout, seed=seed)
    _emit_json(ext.to_json(), out)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--out", type=str, default=None)
def monsky(n: int, out: str | None) -> None:
    """Maximum partial toroidal solution vs. the closed form."""
    value = solvers.max_partial_toroidal(n, _solver_bound())
    closed = solvers.monsky_value(n)
    if value != closed:
        raise VerificationError(
            f"branch and bound found {value} but the closed form says {closed}"
        )
    _emit_json({"n": n, "max_partial": value, "closed_form": closed, "agrees": True}, out)


def main(argv: list[str] | None = None) -> int:
    """Dispatch, mapping exception classes to documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as ex:
        return int(ex.exit_code)
    except click.ClickException as ex:
        ex.show(file=sys.stderr)
        return 2
    except PreconditionError as ex:
        print(f"error: {ex.condition}: {ex}", file=sys.stderr)
        return 2
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except CapacityError as ex:
        print(f"capacity: {ex}", file=sys.stderr)
        return 3
    except MemoryError as ex:  # numpy's failed allocations included
        print(f"capacity: {str(ex) or 'out of memory'}", file=sys.stderr)
        return 3
    except VerificationError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
