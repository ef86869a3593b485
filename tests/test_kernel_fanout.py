"""The forked kernel search against the in-process one.

``toursub._kernel.search_subdivision`` folds the subtrees of branch vertex
0 from ``_workers.imap`` and must return the exact 4-tuple of
``pure.search_subdivision``.  Setting ``_PROBE_NODES`` to 0 sends every
query with a positive budget to the fan-out, and ``_usable_cores`` is
pinned to 2, so each call forks at most two workers.  No call may leave a
child process behind, and a dead worker or a failed fork must still give
the in-process answer.
"""

import os
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_differential import (
    NODE_CAP,
    TABLE_QUERIES,
    WORKLOAD_QUERIES,
    host_masks,
    hosts,
    patterns,
)

from toursub import _kernel, _workers, experiments
from toursub._kernel import pure
from toursub.core import blowup_cyclic_triangle, random_tournament, rotational_tournament
from toursub.experiments import sweep
from toursub.subdivision import parse_pattern


class FanOut:
    """Forces the fan-out and counts the maps that forked and those that
    fell back to computing their items in-process."""

    def __init__(self, monkeypatch):
        self.forked = self.fell_back = 0
        real = _workers._forked

        def spy(*args):
            self.forked += 1
            ok = yield from real(*args)
            self.fell_back += not ok
            return ok

        monkeypatch.setattr(_kernel, "_PROBE_NODES", 0)
        monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
        monkeypatch.setattr(_workers, "_forked", spy)

    def search(self, masks, pattern, max_len, exact_len, budget):
        args = (masks, pattern.k, list(pattern.edges), max_len, exact_len, budget)
        return _kernel.search_subdivision(*args), pure.search_subdivision(*args)


@pytest.fixture
def fan_out(monkeypatch):
    return FanOut(monkeypatch)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@given(hosts(), patterns, st.integers(1, 4), st.none() | st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_same_result_as_the_in_process_search(masks, pattern, max_len, exact_len, data):
    with pytest.MonkeyPatch.context() as mp:
        fan_out = FanOut(mp)
        got, want = fan_out.search(masks, pattern, max_len, exact_len, NODE_CAP)
        assert got == want
        budget = data.draw(st.integers(0, want[3]), label="budget")
        got, want = fan_out.search(masks, pattern, max_len, exact_len, budget)
        assert got == want
    assert not fan_out.fell_back


@pytest.mark.parametrize("spec, max_len, exact_len, nodes", TABLE_QUERIES)
def test_strided_budgets_on_table_queries(fan_out, spec, max_len, exact_len, nodes):
    masks = host_masks(blowup_cyclic_triangle(3))
    pattern = parse_pattern(spec)
    for budget in [*range(1, nodes, 97), nodes - 1, nodes, 10**9]:
        got, want = fan_out.search(masks, pattern, max_len, exact_len, budget)
        assert got == want, budget
    assert want == (pure.NOTFOUND, None, None, nodes)
    assert fan_out.forked and not fan_out.fell_back


def test_strided_budgets_on_a_find(fan_out):
    # blowup(4) complete:4 cap 3: a witness after 74,034 nodes, so the
    # budgets stop it before, at and after the root that finds it.
    t, spec, max_len, exact_len, status, nodes = WORKLOAD_QUERIES[4]
    pattern = parse_pattern(spec)
    for budget in [*range(1, nodes, 7919), nodes - 1, nodes]:
        got, want = fan_out.search(host_masks(t), pattern, max_len, exact_len, budget)
        assert got == want, budget
    assert (got[0], got[3]) == (status, nodes)
    assert fan_out.forked and not fan_out.fell_back


@pytest.mark.parametrize("t, spec, max_len, exact_len, status, nodes", WORKLOAD_QUERIES)
def test_workload_queries(fan_out, t, spec, max_len, exact_len, status, nodes):
    got, want = fan_out.search(host_masks(t), parse_pattern(spec), max_len, exact_len, 10**9)
    assert got == want
    assert (got[0], got[3]) == (status, nodes)
    assert (fan_out.forked, fan_out.fell_back) == (1, 0)


def test_no_child_is_left_behind(fan_out):
    find = (host_masks(rotational_tournament(11)), parse_pattern("complete:4"), 2, None)
    refute = (host_masks(blowup_cyclic_triangle(5)), parse_pattern("complete:4"), 2, None)
    stop = (host_masks(random_tournament(12, 0)), parse_pattern("transitive:5"), 2, 2)
    for query, budget, status in [(find, 10**9, pure.FOUND), (stop, 20_000, pure.BUDGET_EXCEEDED),
                                  (refute, 10**9, pure.NOTFOUND)]:
        got, want = fan_out.search(*query, budget)
        assert got == want
        assert got[0] == status
        assert_no_child_left()
    assert (fan_out.forked, fan_out.fell_back) == (3, 0)


def test_a_dead_worker_gives_the_in_process_answer(fan_out, monkeypatch):
    # The patched per-root search dies in the forked workers only.
    real = _kernel._search_root
    monkeypatch.setattr(_kernel, "_search_root",
                        lambda *args: os._exit(3) if _workers._in_worker else real(*args))
    t, spec, max_len, exact_len, status, nodes = WORKLOAD_QUERIES[2]
    got, want = fan_out.search(host_masks(t), parse_pattern(spec), max_len, exact_len, 10**9)
    assert got == want == (status, None, None, nodes)
    assert (fan_out.forked, fan_out.fell_back) == (1, 1)
    assert_no_child_left()


def test_a_failed_fork_gives_the_in_process_answer(fan_out, monkeypatch):
    # The first fork succeeds and the second fails: the first worker is reaped.
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            raise OSError("fork failed")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    t, spec, max_len, exact_len, status, nodes = WORKLOAD_QUERIES[2]
    got, want = fan_out.search(host_masks(t), parse_pattern(spec), max_len, exact_len, 10**9)
    assert got == want == (status, None, None, nodes)
    assert (fan_out.forked, fan_out.fell_back) == (1, 1) and len(forks) == 2
    assert_no_child_left()


def test_a_dead_worker_under_ignored_sigchld(monkeypatch):
    # With SIGCHLD ignored a dead child is reaped at once, so it can no
    # longer be killed or waited for.
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = list(_workers.imap(lambda x: os._exit(3) if _workers._in_worker and x == 1 else x,
                                 range(4), 2))
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert got == [0, 1, 2, 3]
    assert_no_child_left()


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(_kernel, "_PROBE_NODES", 0)


def search_blowup():
    t, spec, max_len, exact_len, status, nodes = WORKLOAD_QUERIES[2]
    pattern = parse_pattern(spec)
    got = _kernel.search_subdivision(host_masks(t), pattern.k, list(pattern.edges), max_len,
                                     exact_len, 10**9)
    assert got == (status, None, None, nodes)


def test_one_usable_core_forks_neither_the_search_nor_the_sweep(no_fork, monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 1)
    search_blowup()
    args = dict(k=3, trials=3, n=60, scale=Fraction(1, 12), seed=4)
    assert sweep("tt3", **args, workers=2) == sweep("tt3", **args)


def test_a_worker_does_not_fork_again(no_fork, monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
    monkeypatch.setattr(_workers, "_in_worker", True)
    search_blowup()


FORKS = []  # the os.fork calls of this process, while a test counts them


def query_job(*trial):
    """A sweep trial that runs the blowup(5) refutation (11,175 nodes, past
    the probe) and a three-item map.  Its row holds the forks its process
    made meanwhile, the answer, its pid and the pids the map ran on."""
    forks = len(FORKS)
    t, spec, max_len, exact_len, status, nodes = WORKLOAD_QUERIES[2]
    pattern = parse_pattern(spec)
    got = _kernel.search_subdivision(host_masks(t), pattern.k, list(pattern.edges), max_len,
                                     exact_len, 10**9)
    pids = list(_workers.imap(lambda item: os.getpid(), range(3), 2))
    return {"forks": len(FORKS) - forks, "got": got, "pid": os.getpid(), "pids": pids}, [], None


def test_a_query_in_a_sweep_worker_does_not_fork_again(monkeypatch):
    # Two sweep workers on two cores: a worker that forked for its own
    # query would run four searching processes.
    real_fork = os.fork
    FORKS.clear()
    monkeypatch.setattr(os, "fork", lambda: FORKS.append(1) or real_fork())
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
    monkeypatch.setattr(experiments, "_instance", query_job)
    rows, _, _ = sweep("tt3", k=3, trials=2, n=60, scale=Fraction(1, 12), seed=4, workers=2)
    assert len(FORKS) == 2
    t, spec, max_len, exact_len, status, nodes = WORKLOAD_QUERIES[2]
    for row in rows:
        assert row["forks"] == 0
        assert row["got"] == (status, None, None, nodes)
        assert row["pid"] != os.getpid() and row["pids"] == [row["pid"]] * 3
    assert_no_child_left()


def test_a_second_thread_keeps_the_search_in_process(no_fork, monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        search_blowup()
    finally:
        release.set()
        thread.join()


def test_small_queries_and_k0_stay_in_process(no_fork, monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cores", lambda: 2)
    masks = host_masks(random_tournament(6, 1))
    assert _kernel.search_subdivision(masks, 0, [], 2, None, 10) == (pure.FOUND, (), [], 0)
    monkeypatch.setattr(_kernel, "_PROBE_NODES", 1 << 12)
    # A search that ends inside the probe, and a budget no larger than it.
    pattern = parse_pattern("complete:4")
    masks = host_masks(rotational_tournament(11))
    assert _kernel.search_subdivision(masks, 4, list(pattern.edges), 2, None, 10**9)[::3] \
        == (pure.FOUND, 738)
    masks = host_masks(blowup_cyclic_triangle(5))
    assert _kernel.search_subdivision(masks, 4, list(pattern.edges), 2, None, 1 << 12) \
        == (pure.BUDGET_EXCEEDED, None, None, (1 << 12) + 1)


def test_standalone_differential_script():
    script = Path(__file__).resolve().parent / "fanout_differential.py"
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, str(script), "--queries", "60"],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True)
