import argparse
import hashlib
import json
import signal
import sys
from contextlib import contextmanager

import pytest

from toursub import complete_finder, experiments, transitive_finder
from toursub.cli import build_parser, main
from toursub.core import parse_tournament, rotational_tournament
from toursub.subdivision import VerifyReport


def run(argv):
    return main(argv)


def test_gen_round_trip(tmp_path):
    out = tmp_path / "r21.txt"
    assert run(["gen", "--kind", "rotational", "--n", "21", "--out", str(out)]) == 0
    assert parse_tournament(out.read_text()) == rotational_tournament(21)


def test_gen_requires_seed_for_random(tmp_path):
    out = tmp_path / "r.txt"
    assert run(["gen", "--kind", "random", "--n", "10", "--out", str(out)]) == 1
    assert run(["gen", "--kind", "random", "--n", "10", "--seed", "3", "--out", str(out)]) == 0


def test_find_and_verify_chain(tmp_path):
    host = tmp_path / "t.txt"
    wit = tmp_path / "w.json"
    run(["gen", "--kind", "rotational", "--n", "21", "--out", str(host)])
    assert run(["find", "complete", "--input", str(host), "--k", "2",
                "--out", str(wit)]) == 0
    assert run(["verify", "--input", str(host), "--witness", str(wit),
                "--max-len", "3"]) == 0
    # corrupt the witness: reuse a branch vertex as an internal
    doc = json.loads(wit.read_text())
    if doc["paths"][0]["internals"]:
        doc["paths"][0]["internals"][0] = doc["branch"][0]
    else:
        doc["paths"][1]["internals"][0] = doc["branch"][0]
    wit.write_text(json.dumps(doc))
    assert run(["verify", "--input", str(host), "--witness", str(wit),
                "--max-len", "3"]) == 2


def test_verify_detects_host_mismatch(tmp_path):
    host = tmp_path / "t.txt"
    other = tmp_path / "o.txt"
    wit = tmp_path / "w.json"
    run(["gen", "--kind", "rotational", "--n", "21", "--out", str(host)])
    run(["gen", "--kind", "rotational", "--n", "23", "--out", str(other)])
    run(["find", "complete", "--input", str(host), "--k", "2", "--out", str(wit)])
    assert run(["verify", "--input", str(other), "--witness", str(wit)]) == 2


def test_find_precondition_exit_code(tmp_path):
    host = tmp_path / "t.txt"
    host.write_text(
        "tournament v1\n3\n-11\n0-1\n00-\n"
    )  # transitive: delta+ = 0
    assert run(["find", "complete", "--input", str(host), "--k", "2"]) == 1


def test_find_failure_trace_exit_code(tmp_path, capsys):
    host = tmp_path / "t.txt"
    run(["gen", "--kind", "transitive", "--n", "40", "--out", str(host)])
    # scaled one-subdivision on a host too small for its transitive chain
    code = run(["find", "onesub", "--input", str(host), "--k", "3",
                "--scale", "1/10000000"])
    assert code == 0  # transitive(40) has a 6-chain, so this one succeeds
    code = run(["find", "tt3", "--input", str(host), "--k", "12", "--scale", "1/1000"])
    assert code == 2
    out = capsys.readouterr().out
    assert "failure" in out


# (gen arguments, find arguments, expected failure) for each stage the two
# transitive finders report on a small host.  The whole stdout is pinned, so
# the key order inside "details" is part of the contract.
FIND_FAILURES = [
    (["--kind", "transitive", "--n", "40"], ["tt3", "--k", "12", "--scale", "1/1000"],
     {"stage": "nearly-regular", "reason": "need at least 120 vertices for k=12",
      "details": {"n": 40, "k": 12}}),
    (["--kind", "random", "--n", "3", "--seed", "0"], ["tt3", "--k", "4", "--scale", "1/12"],
     {"stage": "recursion-size", "reason": "fewer vertices than k",
      "details": {"n": 3, "k": 4}}),
    (["--kind", "random", "--n", "20", "--seed", "0"],
     ["onesub", "--k", "5", "--scale", "1/1000"],
     {"stage": "cross-pair-exhaustion", "reason": "no free midpoint for cross pair (1,1)",
      "details": {"x": 1, "y": 5}}),
    (["--kind", "random", "--n", "8", "--seed", "0"], ["onesub", "--k", "3", "--scale", "1/12"],
     {"stage": "base-transitive", "reason": "transitive chain of 5 < 6 vertices",
      "details": {"n": 8, "k": 3}}),
    (["--kind", "random", "--n", "3", "--seed", "0"], ["onesub", "--k", "4", "--scale", "1/12"],
     {"stage": "aux-graph-precondition",
      "reason": "ball of radius 1 around 0 has 3 vertices, bound 0.546",
      "details": {"vertex": 0, "radius": 1, "size": 3}}),
]


@pytest.mark.parametrize("gen_args, find_args, failure", FIND_FAILURES)
def test_find_failure_bytes(tmp_path, capsys, gen_args, find_args, failure):
    host = tmp_path / "t.txt"
    assert run(["gen", *gen_args, "--out", str(host)]) == 0
    capsys.readouterr()
    assert run(["find", find_args[0], "--input", str(host), *find_args[1:]]) == 2
    assert capsys.readouterr().out == json.dumps({"failure": failure}, indent=2) + "\n"


@contextmanager
def deadline(seconds):
    """Fail the test if the block still runs after ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random40(tmp_path):
    host = tmp_path / "r40.txt"
    assert run(["gen", "--kind", "random", "--n", "40", "--seed", "0", "--out", str(host)]) == 0
    return str(host)


def no_pattern(k):
    raise AssertionError(f"built a pattern of order {k}")


@pytest.mark.parametrize("finder, message", [
    ("complete", f"minimum out-degree 12 is below the required {2 * 10**400 + 147 * 10**350}.0"),
    ("tt3", f"40 vertices is below the required {150 * 10**400}"),
    ("onesub", "40 vertices is below the required inf"),
], ids=["complete", "tt3", "onesub"])
def test_a_huge_k_gets_its_gate_message(tmp_path, capsys, monkeypatch, finder, message):
    host = random40(tmp_path)
    # Built before the gate, a pattern of order 10^200 would never be done.
    monkeypatch.setattr(complete_finder, "pattern_complete_digraph", no_pattern)
    monkeypatch.setattr(transitive_finder, "pattern_transitive", no_pattern)
    capsys.readouterr()
    assert run(["find", finder, "--input", host, "--k", str(10**200)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("finder, k, scale", [("complete", "3", "1000000"), ("onesub", "4", "1000")])
def test_a_scale_past_the_float_range_reads_as_a_large_one(tmp_path, capsys, finder, k, scale):
    # complete: the gate message, formatted on a scaled run too, overflowed;
    # onesub: the aux graph tried every degree gap below its 2k^2 threshold.
    host = random40(tmp_path)
    outputs = []
    for s in (scale, "1e400"):
        capsys.readouterr()
        with deadline(30):
            assert run(["find", finder, "--input", host, "--k", k, "--scale", s]) == 2
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def test_oracle_exit_codes(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("tournament v1\n3\n-10\n0-1\n10-\n")  # cyclic triangle
    trans = tmp_path / "trans.txt"
    run(["gen", "--kind", "transitive", "--n", "4", "--out", str(trans)])
    assert run(["oracle", "--input", str(tri), "--pattern", "complete:2",
                "--max-len", "3"]) == 0
    assert run(["oracle", "--input", str(trans), "--pattern", "complete:2",
                "--max-len", "4"]) == 2
    assert run(["oracle", "--input", str(tri), "--pattern", "complete:2",
                "--max-len", "3", "--budget", "1"]) == 3


def test_oracle_witness_file(tmp_path):
    tri = tmp_path / "tri.txt"
    tri.write_text("tournament v1\n3\n-10\n0-1\n10-\n")
    wit = tmp_path / "w.json"
    assert run(["oracle", "--input", str(tri), "--pattern", "complete:2",
                "--max-len", "3", "--out", str(wit)]) == 0
    assert run(["verify", "--input", str(tri), "--witness", str(wit),
                "--max-len", "3"]) == 0


def test_a_deep_oracle_query_is_an_error_not_a_traceback(tmp_path, capsys):
    # The kernel recurses once per pattern edge: transitive:45 has 990 edges,
    # more than the interpreter's default recursion limit allows.
    host = tmp_path / "t.txt"
    run(["gen", "--kind", "transitive", "--n", "60", "--out", str(host)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default
    try:
        code = run(["oracle", "--input", str(host), "--pattern", "transitive:45",
                    "--max-len", "1"])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pattern with 45 vertices and 990 edges needs a deeper")
    assert captured.err.count("\n") == 1


def test_find_digraph_pattern(tmp_path):
    host = tmp_path / "t.txt"
    wit = tmp_path / "w.json"
    run(["gen", "--kind", "rotational", "--n", "31", "--out", str(host)])
    assert run(["find", "digraph", "--input", str(host),
                "--pattern", "edges:0>1", "--scale", "1/2",
                "--out", str(wit)]) == 0
    assert run(["verify", "--input", str(host), "--witness", str(wit)]) == 0


# sha256 of the witness of `find digraph --pattern complete:3 --scale 1/96`
# on random(60, seed 3), as written before --k was rejected for digraph.
DIGRAPH_WITNESS_SHA256 = "cc0e3fd1034d518b006138d74dcee96b4f8af23265ccea63d79724f1f8b00ddd"


def test_find_digraph_rejects_k(tmp_path, capsys):
    # The pattern alone sets a digraph run's order, so --k is a usage error
    # rather than an option that is silently ignored.
    host = tmp_path / "t.txt"
    wit = tmp_path / "w.json"
    run(["gen", "--kind", "random", "--n", "60", "--seed", "3", "--out", str(host)])
    argv = ["find", "digraph", "--input", str(host), "--pattern", "complete:3",
            "--scale", "1/96", "--out", str(wit)]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--k", "9"])
    assert exc.value.code == 1
    assert "find digraph takes no --k" in capsys.readouterr().err
    assert not wit.exists()
    assert run(argv) == 0
    assert hashlib.sha256(wit.read_bytes()).hexdigest() == DIGRAPH_WITNESS_SHA256


FIND_ARGS = {
    "complete": ["--k", "3", "--scale", "1/96"],
    "digraph": ["--pattern", "complete:3", "--scale", "1/96"],
    "tt3": ["--k", "3", "--scale", "1/12"],
    "onesub": ["--k", "3", "--scale", "1/12"],
}
SHARED_FINDERS = {
    "complete": "find_complete_subdivision_ex",
    "digraph": "find_digraph_subdivision_ex",
    "tt3": "find_tt_len3",
    "onesub": "find_one_subdivision",
}


def test_find_runs_each_finder_once_through_the_shared_run(tmp_path, monkeypatch):
    # ``find`` and the sweeps share ``experiments.run_finder``: a finder
    # rebound there is the one ``find`` calls, once, and the witness bytes
    # and exit code stay those of the unpatched run.
    host = tmp_path / "t.txt"
    run(["gen", "--kind", "random", "--n", "60", "--seed", "3", "--out", str(host)])

    def find(finder, out):
        code = run(["find", finder, "--input", str(host), *FIND_ARGS[finder], "--out", str(out)])
        return code, out.read_bytes()

    unpatched = {finder: find(finder, tmp_path / f"{finder}.json") for finder in FIND_ARGS}
    assert all(code == 0 for code, _ in unpatched.values())
    calls = []
    for name in SHARED_FINDERS.values():
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for finder in FIND_ARGS:
        calls.clear()
        assert find(finder, tmp_path / f"{finder}-patched.json") == unpatched[finder]
        assert calls == [SHARED_FINDERS[finder]]


@pytest.mark.parametrize("finder", ["complete", "tt3", "onesub"])
def test_find_without_k_reads_3(tmp_path, finder):
    host = tmp_path / "t.txt"
    run(["gen", "--kind", "random", "--n", "60", "--seed", "3", "--out", str(host)])
    assert FIND_ARGS[finder][:2] == ["--k", "3"]
    outs = []
    for argv in (FIND_ARGS[finder], FIND_ARGS[finder][2:]):
        outs.append(tmp_path / f"w{len(outs)}.json")
        assert run(["find", finder, "--input", str(host), *argv, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


SWEEP_ARGS = {
    "complete": ["--k", "3", "--n", "120", "--scale", "1/96"],
    "tt3": ["--k", "4", "--n", "170", "--scale", "1/12"],
    "onesub": ["--k", "3", "--n", "170", "--scale", "1/12"],
}


@pytest.mark.parametrize("finder", sorted(SWEEP_ARGS))
def test_experiment_soundness_sweep_csv(tmp_path, finder):
    out = tmp_path / "s.csv"
    code = run(["experiment", "soundness-sweep", "--finder", finder, *SWEEP_ARGS[finder],
                "--trials", "6", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"# schema: soundness-{finder}-v1")
    assert lines[1].startswith("# config:")
    assert lines[2].startswith("# generated:")
    assert lines[3].split(",")[0] == "instance"
    assert len(lines) == 4 + 6


def test_experiment_scan_dk_csv(tmp_path):
    out = tmp_path / "dk.csv"
    code = run(["experiment", "scan-dk", "--k", "2", "--n", "4..5",
                "--trials", "3", "--seed", "1", "--max-len", "4",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[3] == "n,seed,delta_plus,contains,nodes,millis"
    assert len(lines) == 4 + 6


def test_an_unsound_sweep_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "verify",
                        lambda *args, **caps: VerifyReport(False, ("planted",), 0, 0, 0))
    out = tmp_path / "s.csv"
    code = run(["experiment", "soundness-sweep", "--finder", "tt3", *SWEEP_ARGS["tt3"],
                "--trials", "2", "--seed", "1", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "2/2 witnesses; soundness violations: 2\n"
    assert captured.err == ("  UNSOUND: instance 0: ('planted',)\n"
                            "  UNSOUND: instance 1: ('planted',)\n")
    assert [line.split(",")[8] for line in out.read_text().splitlines()[4:]] == ["0", "0"]


SCAN_DK = ["scan-dk", "--k", "2", "--n", "4", "--trials", "3"]
SOUNDNESS_SWEEP = ["soundness-sweep", "--finder", "tt3", "--k", "2", "--trials", "2", "--n", "80"]


# Each experiment rejects the flags only the other one reads, instead of
# ignoring them; without them both runs exit 0.
@pytest.mark.parametrize("argv, flag, reader", [
    (SOUNDNESS_SWEEP + ["--max-len", "1"], "--max-len", "scan-dk"),
    (SOUNDNESS_SWEEP + ["--budget", "1"], "--budget", "scan-dk"),
    (SCAN_DK + ["--finder", "onesub"], "--finder", "soundness-sweep"),
    (SCAN_DK + ["--scale", "1/2"], "--scale", "soundness-sweep"),
    (SCAN_DK + ["--workers", "9"], "--workers", "soundness-sweep"),
])
def test_experiment_rejects_the_other_experiments_flags(tmp_path, capsys, argv, flag, reader):
    out = tmp_path / "e.csv"
    with pytest.raises(SystemExit) as exc:
        run(["experiment", *argv, "--out", str(out)])
    assert exc.value.code == 1
    message = f"experiment {argv[0]} takes no {flag}: only {reader} reads it"
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert run(["experiment", *argv[:-2], "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    pytest.param(["soundness-sweep", "--n", "abc"], id="n-not-a-number"),
    pytest.param(["scan-dk", "--k", "2", "--n", "5..4"], id="n-empty-range"),
    pytest.param(["scan-dk", "--k", "2", "--n", "4", "--trials", "-3"], id="scan-negative-trials"),
    pytest.param(["soundness-sweep", "--n", "30", "--trials", "-1"], id="sweep-negative-trials"),
])
def test_experiment_bad_argument_is_an_error(tmp_path, capsys, argv):
    out = tmp_path / "s.csv"
    assert run(["experiment", *argv, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["find", "digraph", "--input", "t.txt"], "find digraph requires --pattern"),
    (["find", "complete", "--input", "t.txt", "--scale", "abc"], "argument --scale"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["find", "complete", "--input", "t.txt", "--scale", "1/0"], "argument --scale"),
    (["experiment", "soundness-sweep", "--out", "s.csv", "--scale", "1/0"], "argument --scale"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    # argparse exits 2 on its own; 2 is the structured-negative code here.
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "usage: toursub" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["find", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def choices_of(command, dest):
    """The choices of argument ``dest`` of the ``command`` subparser."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in commands.choices[command]._actions if a.dest == dest)


# Each finder choice list is its table's keys, in order, so the help text
# and the invalid-choice message list the finders as before.
@pytest.mark.parametrize("command, table, expected", [
    ("find", experiments.VERIFY_CAPS, ["complete", "digraph", "tt3", "onesub"]),
    ("experiment", experiments.SWEEP_COLUMNS, ["complete", "tt3", "onesub"]),
])
def test_finder_choices_are_their_table_keys(command, table, expected):
    assert choices_of(command, "finder") == list(table) == expected


GOOD_WITNESS = {"pattern": {"k": 2, "edges": [[0, 1], [1, 0]]}, "branch": [0, 1],
                "paths": [{"from": 0, "to": 1, "internals": []},
                          {"from": 1, "to": 0, "internals": [11]}]}


@pytest.mark.parametrize("doc", [
    {"branch": [0, 1], "paths": []},
    dict(GOOD_WITNESS, branch=["0", 1], paths=[{"from": "0", "to": 1, "internals": []},
                                               {"from": 1, "to": "0", "internals": [11]}]),
    [GOOD_WITNESS],
    dict(GOOD_WITNESS, branch=[0, True]),
    dict(GOOD_WITNESS, pattern={"k": 2}),
    dict(GOOD_WITNESS, pattern={"k": "2", "edges": [[0, 1], [1, 0]]}),
    dict(GOOD_WITNESS, pattern={"k": 2, "edges": [[0, 1, 2]]}),
    dict(GOOD_WITNESS, paths=[{"from": 0, "to": 1}]),
    dict(GOOD_WITNESS, paths=[{"from": 0, "to": 1, "internals": [2.5]}]),
    dict(GOOD_WITNESS, paths=[[0, 1, []]]),
    dict(GOOD_WITNESS, host_hash=7),
    # raw text, not a value to dump: deeper than json.load can recurse
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
])
def test_verify_malformed_witness_is_an_error(tmp_path, capsys, doc):
    host = tmp_path / "t.txt"
    wit = tmp_path / "w.json"
    run(["gen", "--kind", "rotational", "--n", "21", "--out", str(host)])
    wit.write_text(json.dumps(GOOD_WITNESS))
    assert run(["verify", "--input", str(host), "--witness", str(wit)]) == 0
    wit.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run(["verify", "--input", str(host), "--witness", str(wit)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_input_file_is_an_error(tmp_path):
    missing = tmp_path / "missing.txt"
    assert run(["find", "complete", "--input", str(missing), "--k", "2"]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("not a tournament\n")
    assert run(["find", "complete", "--input", str(bad), "--k", "2"]) == 1


# Malformed host files and the message each must give.  The CLI reads the
# file line by line; blank lines (also whitespace-only, CRLF-terminated or
# cut by a form feed or U+2028) are skipped, and line-boundary characters
# inside a line split it, exactly as when the whole text is parsed.
MALFORMED_HOSTS = [
    ("", "missing 'tournament v1' header"),
    ("not a tournament\n", "missing 'tournament v1' header"),
    ("\n \n\t\ntournament v0\n1\n-\n", "missing 'tournament v1' header"),
    ("tournament v1\n", "bad vertex count line"),
    ("tournament v1\n+2\n-1\n0-\n", "bad vertex count line"),
    ("tournament v1\n0\n", "vertex count must be positive"),
    ("tournament v1\n2\n-1\n", "expected 2 matrix rows, found 1"),
    ("tournament v1\n2\n-1\n0-\n0-\n", "expected 2 matrix rows, found 3"),
    ("tournament v1\n2\n-1\x0c0-\x0c0-\n", "expected 2 matrix rows, found 3"),
    ("tournament v1\n2\n-10\n0-\n", "row 0 has length 3, expected 2"),
    ("tournament v1\n2\n-x\n0-\n", "bad character 'x' at (0,1)"),
    ("tournament v1\n2\n1-\n0-\n", "diagonal entry (0,0) must be '-'"),
    ("tournament v1\r\n2\r\n\r\n-1\r\n  \r\n1-\r\n", "both directions present between 0 and 1"),
    ("tournament v1\n2\n-1\x0c1-\n", "both directions present between 0 and 1"),
    ("tournament v1\n2\n\u2028-0\n0-\n\n", "orientation is not total"),
]


@pytest.mark.parametrize("text, message", MALFORMED_HOSTS)
def test_malformed_host_file_message(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text.encode())
    with pytest.raises(ValueError) as exc:
        parse_tournament(text)
    assert str(exc.value) == message
    for argv in (["find", "complete", "--k", "2"], ["find", "onesub", "--k", "2"]):
        assert run(argv + ["--input", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
