"""Command-line interface: output formats, determinism, exit codes."""

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from unittest import mock

import click
from hypothesis import example, given, settings, strategies as st

from torq import decomp
from torq.board import Part, edge_at_centered
from torq.cli import cli, main
from torq.errors import CapacityError, PreconditionError
from torq.lattice import Generator, SignedEdgeSet, edge_shadow, expand, shadow, sv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(*args, stdin=None, env_extra=None):
    """Run torq in a subprocess; with bytes on stdin, its output is bytes."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "torq.cli", *args],
        input=stdin,
        capture_output=True,
        text=not isinstance(stdin, bytes),
        env=env,
        timeout=300,
    )


class TestCount:
    def test_toroidal_canonical_json(self):
        res = run_cli("count", "--n", "5")
        assert res.returncode == 0
        assert res.stdout == '{"count":10,"mode":"toroidal","n":5,"schema":"torq/1"}\n'

    def test_classical(self):
        res = run_cli("count", "--n", "8", "--mode", "classical")
        assert json.loads(res.stdout)["count"] == 92

    def test_semiqueens(self):
        res = run_cli("count", "--n", "3", "--mode", "semiqueens")
        assert json.loads(res.stdout)["count"] == 3

    def test_bound_env_var(self):
        res = run_cli("count", "--n", "5", "--mode", "classical",
                      env_extra={"TORQ_MAX_EXHAUSTIVE": "4"})
        assert res.returncode == 3
        res = run_cli("count", "--n", "5", "--mode", "classical",
                      env_extra={"TORQ_MAX_EXHAUSTIVE": "5"})
        assert res.returncode == 0
        # A bound below 1 is bad input, not a capacity limit.
        for cmd, raw in itertools.product(("count", "monsky"), ("abc", "-1", "0")):
            res = run_cli(cmd, "--n", "5", env_extra={"TORQ_MAX_EXHAUSTIVE": raw})
            assert res.returncode == 2 and res.stdout == "", (cmd, raw)
            assert res.stderr == (
                f"error: TORQ_MAX_EXHAUSTIVE: must be a positive integer, got {raw!r}\n"
            ), (cmd, raw)


class TestLatticeCheck:
    def test_all_ones_even_board(self):
        res = run_cli("lattice", "check", "--n", "6", "--ones")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["ok"] is False and obj["failed"] == "b"

    def test_stdin_vector_with_oracle(self):
        v = edge_shadow(7, edge_at_centered(7, 1, 2))
        res = run_cli("lattice", "check", "--n", "7", "--oracle",
                      stdin=json.dumps(v.to_json()))
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["ok"] is True and obj["oracle_agrees"] is True

    def test_sublattice_mode(self):
        v = sv(7, [])
        res = run_cli("lattice", "check", "--n", "7", "--mode", "sublattice-s",
                      "--oracle", stdin=json.dumps(v.to_json()))
        assert json.loads(res.stdout)["ok"] is True

    def test_malformed_stdin(self):
        res = run_cli("lattice", "check", "--n", "7", stdin="not json")
        assert res.returncode == 2

    def test_n_mismatch(self):
        v = sv(5, [])
        res = run_cli("lattice", "check", "--n", "7", stdin=json.dumps(v.to_json()))
        assert res.returncode == 2

    def test_vector_of_another_kind_names_the_kind(self):
        # The test must not drop a part it lacks (D under --mode semi),
        # and the oracle path must name the field too.
        queens = {"n": 5, "kind": "queens", "entries": [{"part": "D", "coord": 0, "weight": 1}]}
        semi = sv(5, [(Part.X, 0, 1)], "semi").to_json()
        for mode, vector in (("semi", queens), ("queens", semi), ("sublattice-s", semi)):
            for oracle in ((), ("--oracle",)):
                res = run_cli("lattice", "check", "--n", "5", "--mode", mode, *oracle,
                              stdin=json.dumps(vector))
                assert res.returncode == 2 and res.stdout == "", (mode, oracle, res.stderr)
                assert res.stderr.startswith("error: kind: "), (mode, oracle, res.stderr)


class TestDecompose:
    @staticmethod
    def member(n, edges):
        v = sv(n, [])
        for e in edges:
            v = v + edge_shadow(n, e)
        return v

    def test_bounded_is_exact(self):
        rng = random.Random(0)
        v = self.member(31, [edge_at_centered(31, rng.randrange(-9, 10),
                                              rng.randrange(-9, 10))
                             for _ in range(3)])
        res = run_cli("decompose", "--n", "31", stdin=json.dumps(v.to_json()))
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        phi = SignedEdgeSet.from_json(obj["phi"])
        assert shadow(phi) == v
        assert obj["size"] == phi.size()

    def test_leave_with_matching_pair(self):
        e = edge_at_centered(101, 1, 2)
        v = self.member(101, [e])
        res = run_cli("decompose", "--n", "101", "--method", "leave",
                      "--radius", "4", "--region", "101",
                      stdin=json.dumps(v.to_json()))
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        pair = obj["matching_pair"]
        acc = {}
        for x, y in pair["positive"]:
            acc[(x, y)] = acc.get((x, y), 0) + 1
        for x, y in pair["negative"]:
            acc[(x, y)] = acc.get((x, y), 0) - 1
        from torq.board import Edge

        assert shadow(SignedEdgeSet(101, {Edge(x, y): m for (x, y), m in acc.items()})) == v

    def test_leave_requires_radius(self):
        v = sv(31, [])
        res = run_cli("decompose", "--n", "31", "--method", "leave",
                      stdin=json.dumps(v.to_json()))
        assert res.returncode == 2

    def test_golden_stdout(self):
        # Pinned bytes for each method: a signed 3-edge member that the
        # exact-matching path cannot take (all four bounded phases run),
        # the shadow of a 5-edge matching that it does take, a sum of two
        # q-gens, and a two-edge leave with its matching pair.
        at = edge_at_centered
        bounded = (edge_shadow(31, at(31, -3, 0)) + edge_shadow(31, at(31, 2, -1))
                   - edge_shadow(31, at(31, 3, -1)))
        matching = self.member(31, [at(31, -4, 3), at(31, -2, -3), at(31, 0, 1),
                                    at(31, 3, 5), at(31, 6, -1)])
        qgens = (expand(31, Generator("q-gen", (2, 3, 5, 4)))
                 + expand(31, Generator("q-gen", (7, 1, 9, 12), -1)))
        leave = self.member(101, [at(101, 1, 2), at(101, -2, 1)])
        for name, v, args in (
            ("bounded", bounded, ()),
            ("matching", matching, ()),
            ("bidc", qgens, ("--method", "bidc")),
            ("leave", leave, ("--method", "leave", "--radius", "4", "--region", "101")),
        ):
            res = run_cli("decompose", "--n", str(v.n), *args, stdin=json.dumps(v.to_json()))
            assert res.returncode == 0, (name, res.stderr)
            with open(os.path.join(GOLDEN, f"decompose_{name}.json")) as fh:
                assert res.stdout == fh.read(), name

    def test_small_board_with_nothing_to_reduce(self):
        v = edge_shadow(3, edge_at_centered(3, 0, 0)).scaled(2)
        for target, phi in ((v, [{"mult": 2, "x": 0, "y": 0}]), (sv(3, []), [])):
            res = run_cli("decompose", "--n", "3", stdin=json.dumps(target.to_json()))
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["phi"]["entries"] == phi

    def test_semi_vector_names_the_kind(self):
        stdin = json.dumps({"n": 31, "kind": "semi", "entries": []})
        for args in ((), ("--method", "bidc"), ("--method", "leave", "--radius", "4"),
                     ("--region", "3")):
            res = run_cli("decompose", "--n", "31", *args, stdin=stdin)
            assert res.returncode == 2 and res.stdout == "", (args, res.stderr)
            assert res.stderr.startswith("error: kind: "), (args, res.stderr)

    def test_bidc_below_four_names_n(self):
        res = run_cli("decompose", "--n", "3", "--method", "bidc",
                      stdin=json.dumps({"n": 3, "kind": "queens", "entries": []}))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: n: reduction requires n >= 4\n"

    def test_non_member_rejected(self):
        obj = {"n": 31, "kind": "queens",
               "entries": [{"part": "X", "coord": 0, "weight": 1}]}
        res = run_cli("decompose", "--n", "31", stdin=json.dumps(obj))
        assert res.returncode == 2


class TestZsc:
    def test_deterministic_per_seed(self):
        a = run_cli("zsc", "--n", "13", "--seed", "7")
        b = run_cli("zsc", "--n", "13", "--seed", "7")
        assert a.returncode == 0 and a.stdout == b.stdout
        obj = json.loads(a.stdout)
        assert obj["valid"] is True and obj["seed"] == 7

    def test_seed_changes_output(self):
        a = run_cli("zsc", "--n", "101", "--seed", "0")
        b = run_cli("zsc", "--n", "101", "--seed", "1")
        assert a.stdout != b.stdout

    def test_small_sides_rejected_at_once(self):
        # Over every parameter set, no configuration is valid below
        # n = 5 and one is at n = 5, so zsc rejects n <= 4 before drawing.
        for n in range(1, 6):
            valid = any(
                decomp.make_config(n, *p).valid for p in itertools.product(range(n), repeat=4)
            )
            assert valid == (n == 5), n
        for n, code in ((4, 2), (5, 0)):
            err = io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
                  mock.patch("torq.decomp.make_config", wraps=decomp.make_config) as make):
                assert main(["zsc", "--n", str(n)]) == code
            assert make.called == (code == 0)
            assert err.getvalue().startswith("error: n: ") == (code == 2)


class TestGreedy:
    def test_trace_csv(self):
        res = run_cli("greedy", "--n", "25", "--stop", "0.5")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "i,Q,p,n2p4,eq,dmin,dmax,np3,ed,parity_disparity"
        assert len(lines) >= 10

    def test_campaign_json(self):
        res = run_cli("greedy", "--n", "51", "--seeds", "2", "--stop", "0.5")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["seeds"] == [0, 1]
        assert "inside_fraction_median" in obj["summary"]

    def test_out_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        res = run_cli("greedy", "--n", "25", "--stop", "0.5", "--out", str(path))
        assert res.returncode == 0 and res.stdout == ""
        assert path.read_text().startswith("i,Q,p,")

    def test_perfect_run_ends_at_p_zero(self):
        # Runs on T(5) and T(1) end in a perfect matching, at p = 0.
        for n in ("5", "1"):
            res = run_cli("greedy", "--n", n, "--stop", "1.0")
            assert res.returncode == 0, res.stderr
            last = [float(c) for c in res.stdout.strip().splitlines()[-1].split(",")]
            assert last[0] == int(n) and last[2] == 0.0  # i, p
            assert last[4] == last[8] == float("inf")  # eq, ed

    def test_perfect_campaign(self):
        res = run_cli("greedy", "--n", "5", "--seeds", "4", "--stop", "1.0")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["summary"]["inside_fraction_median"] == 1.0

    def test_golden_stdout(self):
        # Odd n, where the parity column moves; even n; and a campaign.
        for name, args in (
            ("greedy_n25.csv", ("--n", "25", "--stop", "1.0")),
            ("greedy_n24_seed3.csv", ("--n", "24", "--seed", "3", "--stop", "1.0")),
            ("greedy_campaign_n31.json", ("--n", "31", "--seeds", "3", "--stop", "0.8")),
        ):
            res = run_cli("greedy", *args)
            assert res.returncode == 0, (name, res.stderr)
            with open(os.path.join(GOLDEN, name)) as fh:
                assert res.stdout == fh.read(), name

    def test_bad_b_is_rejected_before_the_run(self):
        for seeds in ((), ("--seeds", "2")):
            err = io.StringIO()
            with (mock.patch("torq.greedy.run_greedy", side_effect=AssertionError("ran")),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                code = main(["greedy", "--n", "2001", "--b", "nan", *seeds])
            assert code == 2 and err.getvalue().startswith("error: b: "), (seeds, err.getvalue())

    def test_empty_campaign_is_rejected(self):
        # The last count is past sys.maxsize: too many seeds to run.
        for count in ("0", "-2", "99999999999999999999"):
            res = run_cli("greedy", "--n", "5", "--seeds", count)
            assert res.returncode == 2
            assert "seeds" in res.stderr and "Traceback" not in res.stderr


class TestMonsky:
    def test_agreement(self):
        res = run_cli("monsky", "--n", "7")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["max_partial"] == 7 and obj["agrees"] is True

    def test_capacity(self):
        res = run_cli("monsky", "--n", "25")
        assert res.returncode == 3


class TestExtend:
    # The answer is the 170th WSet at n=30, found at its first restart;
    # every WSet before it is refuted by exhausting its search, so the
    # answer does not depend on how fast the machine walks the WSets.
    PINNED = (
        '{"fixed_queens":[[0,1],[2,29],[13,7],[4,28],[3,9],[19,23],[24,15],'
        '[6,27],[5,8],[22,21],[26,11],[10,25]],"mode":"classical","n":30,'
        '"queens":[[0,1],[2,29],[13,7],[4,28],[3,9],[19,23],[24,15],[6,27],'
        '[5,8],[22,21],[26,11],[10,25],[20,18],[17,17],[1,24],[28,12],'
        '[8,13],[27,22],[18,10],[9,5],[12,14],[29,16],[25,4],[14,2],[15,26],'
        '[16,6],[11,19],[7,20],[23,0],[21,3]],"schema":"torq/1",'
        '"toroidal_attack_pairs":[[0,1],[2,3],[4,5],[6,7],[8,9],[10,11]]}\n'
    )

    def test_search_produces_valid_placement(self):
        res = run_cli("extend", "--n", "30", "--seed", "0", "--timeout", "180")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["mode"] == "classical" and len(obj["queens"]) == 30
        assert len(obj["fixed_queens"]) == 12
        assert len(obj["toroidal_attack_pairs"]) == 6
        assert res.stdout == self.PINNED


class TestErrors:
    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("count").returncode == 2

    def test_malformed_json_names_the_field(self):
        entry = {"part": "X", "coord": 0, "weight": 1.5}
        for args, stdin, field in (
            (("lattice", "check", "--n", "5"), {"n": 5}, "entries"),
            (("lattice", "check", "--n", "5"), [], "top level"),
            (("decompose", "--n", "31"), {"x": 0, "y": 1, "mult": 1}, "n"),
            (("lattice", "check", "--n", "5"),
             {"n": 5, "kind": "queens", "entries": [entry]}, "entries[0].weight"),
        ):
            res = run_cli(*args, stdin=json.dumps(stdin))
            assert res.returncode == 2 and res.stdout == "", (stdin, res.stderr)
            assert res.stderr.startswith(f"error: {field}: "), (stdin, res.stderr)
            assert "Traceback" not in res.stderr

    def test_unwritable_out_is_invalid_input(self, tmp_path):
        # A missing directory, and a directory in place of the file.
        for out, args in itertools.product(
            (tmp_path / "missing" / "x.json", tmp_path),
            (("count", "--n", "5"), ("greedy", "--n", "5")),
        ):
            res = run_cli(*args, "--out", str(out))
            assert res.returncode == 2 and res.stdout == "", (args, out, res.stderr)
            assert res.stderr.startswith("error: out: "), (args, out, res.stderr)
            assert str(out) in res.stderr

    def test_unreadable_stdin_is_malformed_json(self):
        # Nesting deeper than the recursion limit, and a byte that is not
        # UTF-8 under strict decoding.
        strict = {"PYTHONIOENCODING": "utf-8:strict"}
        for args, stdin in itertools.product(
            (("lattice", "check", "--n", "5"), ("decompose", "--n", "5")),
            (b"[" * 100_000, b'{"n": 5\xff}'),
        ):
            res = run_cli(*args, stdin=stdin, env_extra=strict)
            assert res.returncode == 2 and res.stdout == b"", (args, res.stderr)
            assert res.stderr.startswith(b"error: stdin: malformed JSON: "), (args, res.stderr)
            assert b"Traceback" not in res.stderr

    def test_mode_choices_keep_their_order(self):
        # --help and the invalid-choice message list them in this order.
        def modes(command):
            return next(list(p.type.choices) for p in command.params if p.name == "mode")

        assert modes(cli.commands["count"]) == [
            "classical", "toroidal", "semiqueens", "semiqueens-classical"
        ]
        assert modes(cli.commands["lattice"].commands["check"]) == [
            "queens", "semi", "sublattice-s"
        ]

    def test_out_of_memory_is_a_capacity_error(self):
        # numpy's failed allocations raise a MemoryError subclass.
        numpy_text = "Unable to allocate 400. GiB for an array"
        for ex, message in ((MemoryError(), "out of memory"),
                            (MemoryError(numpy_text), numpy_text)):
            err = io.StringIO()
            with (mock.patch("torq.greedy.run_greedy", side_effect=ex),
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                code = main(["greedy", "--n", "5"])
            assert (code, err.getvalue()) == (3, f"capacity: {message}\n")

    def test_precondition_names_the_field(self):
        for args, field in (
            (("count", "--n", "0"), "n"),
            (("monsky", "--n", "0"), "n"),
            (("greedy", "--n", "0"), "n"),
            (("extend", "--n", "0"), "n"),
            (("extend", "--n", "30", "--timeout", "nan"), "budget_seconds"),
            (("extend", "--n", "30", "--timeout", "-1"), "budget_seconds"),
            (("zsc", "--n", "0"), "n"),
            (("lattice", "check", "--n", "0", "--ones"), "n"),
            (("lattice", "check", "--n", "-2", "--ones"), "n"),
            (("lattice", "check", "--n", "16", "--ones", "--oracle"), "n"),
            (("decompose", "--n", "31", "--region", "-1"), "region"),
            (("greedy", "--n", "5", "--seeds", "0"), "seeds"),
            (("greedy", "--n", "5", "--b", "nan"), "b"),
            (("greedy", "--n", "5", "--b", "inf", "--seeds", "2"), "b"),
            (("greedy", "--n", "5", "--b", "-inf"), "b"),
            (("greedy", "--n", "5", "--seed", "-1"), "seed"),
            (("greedy", "--n", "5", "--seed", "-1", "--seeds", "2"), "seed"),
            (("extend", "--n", "36", "--seed", "-1"), "seed"),
            (("zsc", "--n", "11", "--seed", "-1"), "seed"),
            (("greedy", "--n", "5", "--stop", "nan"), "stop_fraction"),
            (("greedy", "--n", "5", "--stop", "0"), "stop_fraction"),
            (("greedy", "--n", "5", "--stop", "2"), "stop_fraction"),
            (("greedy", "--n", "5", "--stop", "nan", "--seeds", "2"), "stop_fraction"),
            (("extend", "--n", "29"), "case"),
        ):
            res = run_cli(*args)
            assert res.returncode == 2 and res.stdout == "", args
            assert res.stderr.startswith(f"error: {field}: "), (args, res.stderr)
            assert f"{field}: {field}:" not in res.stderr, (args, res.stderr)
        assert "n=29" in res.stderr


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 14) | st.floats() | st.text(max_size=8)
    | st.sampled_from(["n", "kind", "entries", "queens", "semi", "X", "S"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "kind", "entries", "part", "coord", "weight"]), inner, max_size=4
    ),
    max_leaves=12,
)


@st.composite
def vectors(draw):
    n = draw(st.integers(1, 13))
    entry = st.fixed_dictionaries({
        "part": st.sampled_from("XYSDQx"),
        "coord": st.integers(-2, n + 1),
        "weight": st.integers(-3, 3),
    })
    kind = draw(st.sampled_from(["queens", "semi"]) | st.text(max_size=6))
    return {"n": n, "kind": kind, "entries": draw(st.lists(entry, max_size=6))}


COMMANDS = [
    ("lattice", "check", "--mode", mode, *oracle)
    for mode in ("queens", "semi", "sublattice-s")
    for oracle in ((), ("--oracle",))
] + [
    ("lattice", "check", "--ones", "--mode", mode, *oracle)
    for mode in ("queens", "semi", "sublattice-s")
    for oracle in ((), ("--oracle",))
] + [
    ("decompose",),
    ("decompose", "--method", "bidc"),
    ("decompose", "--method", "leave", "--radius", "4"),
    ("decompose", "--region", "3"),
]


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES | vectors(), st.integers(-3, 13), st.sampled_from(COMMANDS))
@example({"n": 31, "kind": "semi", "entries": []}, 31, ("decompose",))
@example({}, 13, ("lattice", "check", "--ones", "--mode", "sublattice-s", "--oracle"))
@example({"n": 5, "kind": "queens", "entries": [{"part": "D", "coord": 0, "weight": 1}]},
         5, ("lattice", "check", "--mode", "semi", "--oracle"))
def test_stdin_input_never_crashes(obj, n, command):
    """Any JSON on stdin ends in success, invalid input or a capacity
    limit: never a traceback or a verification failure.  Invalid input
    is a PreconditionError, which names its field, or a click usage
    error, never a bare ValueError."""
    if isinstance(obj, dict) and type(obj.get("n")) is int:
        n = obj["n"]
    args = [*command, "--n", str(n)]
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch("sys.stdin", io.StringIO(json.dumps(obj))),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            cli.main(args=args, standalone_mode=False)
        except PreconditionError as ex:
            assert ex.condition, args
        except (click.UsageError, CapacityError):
            pass
