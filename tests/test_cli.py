import json

import pytest

from toursub import experiments
from toursub.cli import main
from toursub.core import parse_tournament, rotational_tournament


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


def test_find_digraph_pattern(tmp_path):
    host = tmp_path / "t.txt"
    wit = tmp_path / "w.json"
    run(["gen", "--kind", "rotational", "--n", "31", "--out", str(host)])
    assert run(["find", "digraph", "--input", str(host),
                "--pattern", "edges:0>1", "--scale", "1/2",
                "--out", str(wit)]) == 0
    assert run(["verify", "--input", str(host), "--witness", str(wit)]) == 0


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
