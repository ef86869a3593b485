"""One order-keeping map on forked workers, for the oracle and the sweeps.

``imap(fn, items, workers)`` yields ``fn(item)`` for each item, in order,
from at most min(workers, items, usable cores) ``os.fork`` children with
one pipe pair each.  A child holds one item at a time, and the next item
is pulled only when a child is free and every result before it has been
yielded, so items that read the results folded so far are up to date.

It maps in-process, with no fork, for fewer than two items or usable
cores, inside a worker (``_in_worker``: a map inside a map never runs
more searching processes than cores), while another thread is alive
(forking a threaded process can deadlock the child) and where ``os.fork``
is missing.  Items and results cross as ``pickle`` messages.  A child
leaves only through ``os._exit``, and every child is SIGKILLed and reaped
when the map ends or its consumer stops.  If a fork fails or a child
dies, the items not yet yielded are computed in-process; a child whose
``fn`` raises dies, so the exception reaches the caller as it does on one
worker.
"""

import os
from contextlib import suppress
from itertools import chain, islice

_in_worker = False  # set in forked children, which never fork again


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def imap(fn, items, workers):
    """Yields ``fn(item)`` for each of ``items``, in order, from at most
    ``workers`` forked children (see the module docstring)."""
    items = iter(items)
    pending = []  # items handed out and not yet yielded, in order
    if workers >= 2 and not _in_worker and hasattr(os, "fork"):
        import threading  # not loaded at start-up on every platform

        if threading.active_count() == 1:
            pending = list(islice(items, min(workers, _usable_cores())))
    if len(pending) >= 2 and (yield from _forked(fn, pending, items)):
        return
    yield from map(fn, chain(pending, items))


def _forked(fn, pending, items):
    """Yields the results of ``pending`` and then of ``items`` from one
    child per pending item.  Returns True when every item is yielded, or
    False when a fork fails or a child dies; ``pending`` then holds the
    items not yet yielded."""
    global _in_worker
    import pickle
    import select
    import signal

    pids, opened = [], []
    busy = {}  # result fd -> (task fd, index of the child's item)
    done = {}  # index -> result, held until the items before it are yielded
    first = 0  # index of pending[0]
    try:
        for index, item in enumerate(pending):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            opened += (task_r, task_w, result_r, result_w)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _in_worker = True
                    # Only the parent holds the task pipe open, so a child
                    # whose parent dies reads end of file and leaves.
                    for fd in opened:
                        if fd not in (task_r, result_w):
                            os.close(fd)
                    while (body := _receive(task_r)) is not None:
                        _send(result_w, pickle.dumps(fn(pickle.loads(body))))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            for fd in (task_r, result_w):
                os.close(fd)
                opened.remove(fd)
            _send(task_w, pickle.dumps(item))
            busy[result_r] = (task_w, index)
        while busy:
            for fd in select.select(list(busy), [], [])[0]:
                task, index = busy.pop(fd)
                body = _receive(fd)
                if body is None:
                    return False
                done[index] = pickle.loads(body)
                while first in done:
                    del pending[0]
                    first += 1
                    yield done.pop(first - 1)
                for item in islice(items, 1):  # the next item, if any, for this child
                    pending.append(item)
                    _send(task, pickle.dumps(item))
                    busy[fd] = (task, first + len(pending) - 1)
        return True
    except OSError:
        return False
    finally:
        for pid in pids:
            with suppress(ProcessLookupError):  # already reaped, as under SIGCHLD = SIG_IGN
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for fd in opened:
            os.close(fd)


def _send(fd, body):
    data = len(body).to_bytes(4, "little") + body
    while data:  # a signal handler can cut a write short
        data = data[os.write(fd, data):]


def _receive(fd):
    """The body of the next message on ``fd``, or None at end of file."""
    head = _read_exact(fd, 4)
    return head and _read_exact(fd, int.from_bytes(head, "little"))


def _read_exact(fd, size):
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data if len(data) == size else None
