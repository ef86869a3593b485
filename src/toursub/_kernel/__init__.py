"""The exact-search kernel: ``pure.py``, for hosts of any size, on every
usable core.

``search_subdivision`` returns the 4-tuple ``pure.search_subdivision``
returns, node count included, but searches the subtrees of branch vertex 0
in forked workers.  The split is exact.  ``pure`` clears its failed-state
table at every full branch map, and a lookup happens only after such a
clear, so the search below "branch vertex 0 = r", and the nodes it counts
from its level-0 node on, depend only on r.  The sequential search is
therefore a fold over r in ascending order: add each root's full count;
stop at the first root whose subtree finds a subdivision and return that
root's witness with the running sum; stop as soon as the running sum passes
the budget, which every budget stop reports as ``budget + 1``.  A root is
searched with the budget less the nodes of the roots folded before it is
handed out; that is at least its true remaining budget, so a root that runs
out of it also ends the sequential search.

A query first runs in-process under ``_PROBE_NODES`` nodes; a search that
ends under a smaller budget is the whole search, so small queries never
fork.  The search stays in-process on fewer than two usable cores, for
``k == 0``, inside a worker, while another thread is alive (forking a
threaded process can deadlock the child) and where ``os.fork`` is missing.
If a fork fails or a worker dies, the workers are reaped and the query is
searched in-process: a query never fails for want of a worker.
"""

import marshal
import os

from . import pure
from .pure import BUDGET_EXCEEDED, FOUND, NOTFOUND

_PROBE_NODES = 1 << 12  # nodes searched in-process before any fork
_in_worker = False  # set in forked workers, which never fork again


def backend_name() -> str:
    return "pure"


def available_backends() -> dict:
    """Name -> search callable, for benchmarks."""
    return {"pure": search_subdivision}


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def search_subdivision(out_masks, k, edges, max_len, exact_len, budget):
    """Returns (status, branch, internals-per-edge, nodes), as
    ``pure.search_subdivision`` does on the same arguments."""
    args = (out_masks, k, edges, max_len, exact_len)
    result = pure.search_subdivision(*args, min(budget, _PROBE_NODES))
    if result[0] != BUDGET_EXCEEDED or budget <= _PROBE_NODES:
        return result
    workers = min(_usable_cores(), len(out_masks))
    if workers >= 2 and k > 0 and not _in_worker and hasattr(os, "fork"):
        import threading  # not loaded at start-up on every platform

        if threading.active_count() == 1:
            folded = _fan_out(args, budget, workers)
            if folded is not None:
                return folded
    return pure.search_subdivision(*args, budget)


def _search_root(out_masks, k, edges, max_len, exact_len, budget, root):
    """The subtree of branch vertex 0 = ``root``, as a worker searches it."""
    return pure.search_subdivision(out_masks, k, edges, max_len, exact_len, budget,
                                   roots=1 << root)


def _send(fd, value):
    body = marshal.dumps(value)
    data = len(body).to_bytes(4, "little") + body
    while data:  # a signal handler can cut a write short
        data = data[os.write(fd, data):]


def _receive(fd):
    """The next message on ``fd``, or None at end of file."""
    head = _read_exact(fd, 4)
    if head is None:
        return None
    body = _read_exact(fd, int.from_bytes(head, "little"))
    return None if body is None else marshal.loads(body)


def _read_exact(fd, size):
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _serve(args, tasks, results):
    # A worker's loop: search each (root, budget) it is handed until its
    # task pipe closes.
    while True:
        task = _receive(tasks)
        if task is None:
            return
        root, budget = task
        _send(results, _search_root(*args, budget, root))


def _fan_out(args, budget, count):
    """The fold of the per-root searches over ``count`` forked workers, or
    None when a fork fails or a worker dies."""
    global _in_worker
    import select
    import signal

    n = len(args[0])
    pids, tasks, results, opened = [], [], [], []
    try:
        for _ in range(count):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            opened += (task_r, task_w, result_r, result_w)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _in_worker = True
                    for fd in opened:
                        if fd not in (task_r, result_w):
                            os.close(fd)
                    _serve(args, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            for fd in (task_r, result_w):
                os.close(fd)
                opened.remove(fd)
            tasks.append(task_w)
            results.append(result_r)

        folded, prefix = 0, 0  # roots folded so far, and their nodes
        next_root = 0
        busy, done = {}, {}  # result fd -> (worker, root); root -> result

        def dispatch(w):
            nonlocal next_root
            if next_root < n:
                _send(tasks[w], (next_root, budget - prefix))
                busy[results[w]] = (w, next_root)
                next_root += 1

        for w in range(count):
            dispatch(w)
        while busy:
            ready, _, _ = select.select(list(busy), [], [])
            for fd in ready:
                w, root = busy.pop(fd)
                result = _receive(fd)
                if result is None:
                    return None
                done[root] = result
                while folded in done:
                    status, branch, internals, nodes = done.pop(folded)
                    # A root that ran out of its budget counted past the true one.
                    if prefix + nodes > budget:
                        return BUDGET_EXCEEDED, None, None, budget + 1
                    if status == FOUND:
                        return FOUND, branch, internals, prefix + nodes
                    prefix += nodes
                    folded += 1
                if folded == n:
                    return NOTFOUND, None, None, prefix
                dispatch(w)
        return None
    except OSError:
        return None
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # already reaped, as under SIGCHLD = SIG_IGN
                pass
        for fd in opened:
            os.close(fd)
