import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toursub._workers
import toursub.experiments
from toursub.cli import main
from toursub.core import format_tournament, parse_tournament
from toursub.experiments import (
    COMPLETE_COLUMNS,
    build_host,
    csv_body,
    instance_seed,
    rows_to_csv,
    stacked_clusters,
    stacked_triangles,
    sweep,
)


def test_instance_seed_deterministic_and_spread():
    a = instance_seed(1, 0)
    assert a == instance_seed(1, 0)
    seeds = {instance_seed(1, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert instance_seed(2, 0) != a


def test_build_host_kinds():
    for kind in ("random", "rotational", "blowup", "triangles_sparse",
                 "triangles_local", "clusters5"):
        t = build_host(kind, 60, 5)
        assert parse_tournament(format_tournament(t)) == t
        assert t.n >= 57
    with pytest.raises(ValueError):
        build_host("nope", 60, 5)


def test_structured_hosts_are_deterministic():
    assert stacked_triangles(20, 0.1, 2, 7) == stacked_triangles(20, 0.1, 2, 7)
    assert stacked_clusters(5, 12, 0.1, 1, 7) == stacked_clusters(5, 12, 0.1, 1, 7)


def test_sweep_complete_rows_and_soundness():
    rows, chains, bad = sweep(
        "complete", k=3, trials=12, n=150, scale=Fraction(1, 96), seed=3
    )
    assert bad == []
    assert [r["instance"] for r in rows] == list(range(12))
    assert all(set(COMPLETE_COLUMNS) <= set(r) for r in rows)
    outcomes = {r["outcome"] for r in rows}
    assert outcomes <= {"witness", "failure", "error"}
    assert any(r["outcome"] == "witness" for r in rows)
    for r in rows:
        if r["outcome"] == "witness":
            assert r["verify_ok"] == 1


def test_sweep_determinism_and_worker_independence():
    args = dict(k=3, trials=8, n=120, scale=Fraction(1, 96), seed=9)
    rows1, _, _ = sweep("complete", **args)
    rows2, _, _ = sweep("complete", **args)
    assert csv_body(rows1, COMPLETE_COLUMNS) == csv_body(rows2, COMPLETE_COLUMNS)
    rows3, _, _ = sweep("complete", **args, workers=2)
    assert csv_body(rows1, COMPLETE_COLUMNS) == csv_body(rows3, COMPLETE_COLUMNS)


def test_worker_pool_is_capped_by_jobs_and_cores(monkeypatch):
    # The sweep forks no more workers than it has jobs or cores, and one job
    # runs in this process.
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    args = dict(k=3, trials=2, n=60, scale=Fraction(1, 12), seed=4)
    serial, _, _ = sweep("tt3", **args)
    rows, _, _ = sweep("tt3", **args, workers=5000)
    assert rows == serial
    assert len(forks) == (2 if toursub._workers._usable_cores() >= 2 else 0)
    monkeypatch.setattr(toursub._workers, "_usable_cores", lambda: 64)
    forks.clear()
    rows, _, _ = sweep("tt3", **args, workers=5000)
    assert rows == serial
    assert len(forks) == 2
    rows, _, _ = sweep("tt3", **dict(args, trials=1), workers=5000)
    assert rows == serial[:1]
    assert len(forks) == 2


def test_a_dead_sweep_worker_gives_the_serial_rows(monkeypatch):
    parent, real = os.getpid(), toursub.experiments._instance
    monkeypatch.setattr(toursub.experiments, "_instance",
                        lambda *trial: real(*trial) if os.getpid() == parent else os._exit(3))
    monkeypatch.setattr(toursub._workers, "_usable_cores", lambda: 2)
    args = dict(k=3, trials=4, n=60, scale=Fraction(1, 12), seed=4)
    assert sweep("tt3", **args, workers=2) == sweep("tt3", **args)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_sweep_error_reads_the_same_on_two_workers(tmp_path, capsys):
    # The finder's ValueError is raised in the workers; the CLI must still
    # print it and exit 1, as it does on one worker.
    for workers in ("1", "2"):
        code = main(["experiment", "soundness-sweep", "--finder", "complete", "--k", "1",
                     "--trials", "4", "--n", "60", "--workers", workers,
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: k must be at least 2\n"


def test_cli_import_leaves_the_process_pool_unloaded():
    # The worker map is loaded by a sweep or a search past the probe, and
    # imports what it forks with only when it forks, so a CLI start pays
    # for none of it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import toursub.cli, sys; loaded = {'concurrent.futures', 'multiprocessing',"
            " 'pickle', 'select', 'signal', 'toursub._workers'} & set(sys.modules);"
            " assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), check=True)


def test_sweep_tt3_and_onesub():
    rows, chains, bad = sweep("tt3", k=4, trials=6, n=170, scale=Fraction(1, 12), seed=2)
    assert bad == [] and chains == []
    assert len(rows) == 6
    rows, chains, bad = sweep("onesub", k=3, trials=6, n=170, scale=Fraction(1, 12), seed=2)
    assert bad == [] and chains == []
    wit = [r for r in rows if r["outcome"] == "witness"]
    assert all(r["verify_ok"] == 1 for r in wit)


def test_csv_header_and_body():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    text = rows_to_csv("demo-v1", {"k": 3}, rows, ["a", "b"])
    lines = text.splitlines()
    assert lines[0] == "# schema: demo-v1"
    assert lines[1].startswith("# config: ")
    assert lines[2].startswith("# generated: ")
    assert lines[3] == "a,b"
    assert lines[4] == "1,x"
    # body is stable
    assert csv_body(rows, ["a", "b"]) == csv_body(rows, ["a", "b"])


def _benchmark_layers():
    """The ``LAYERS`` tuple of the benchmark's span tracer, read from its
    source without importing the benchmark."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no LAYERS")


def test_benchmark_layers_resolve():
    layers = _benchmark_layers()
    assert layers
    for layer in layers:
        module_name, func_name = layer.rsplit(".", 1)
        module = importlib.import_module(f"toursub.{module_name}")
        assert callable(getattr(module, func_name, None)), layer


def test_sweep_calls_finders_through_module_globals(monkeypatch):
    # The benchmark's tracer rebinds module attributes; the sweep must look
    # its finders up there at call time to be seen.
    calls = []
    real = toursub.experiments.find_tt_len3

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(toursub.experiments, "find_tt_len3", counting)
    rows, _, bad = sweep("tt3", k=3, trials=2, n=90, scale=Fraction(1, 12), seed=4)
    assert calls == [3, 3]
    assert bad == [] and len(rows) == 2
