"""Check the forked kernel search and sweep against the in-process ones.

    PYTHONPATH=src python tests/fanout_differential.py [--queries 300] [--seed 0]

Needs only the standard library, so it also runs where pytest is not
installed.  It forces every query through the fan-out (no in-process probe,
two workers) and draws seeded random hosts of 0-10 vertices, patterns,
length caps and a budget inside each search tree.  It then draws a tenth as
many queries while a second thread is alive, when no query may fork.  It
also compares the CSV body of one two-worker sweep with the serial one.
It exits 1 on an answer that differs from ``pure.search_subdivision``, on
a sweep body that differs, on a fork beside a second thread, on any
warning (Python 3.12 warns when a threaded process forks) and on a child
process left behind.
"""

import argparse
import os
import random
import sys
import threading
import warnings
from fractions import Fraction

from toursub import _kernel, _workers
from toursub._kernel import pure
from toursub.experiments import SWEEP_COLUMNS, csv_body, sweep
from toursub.subdivision import parse_pattern

SPECS = ([f"complete:{k}" for k in range(1, 5)]
         + [f"transitive:{k}" for k in range(1, 6)]
         + [f"cycle:{k}" for k in range(2, 5)])
NODE_CAP = 4000


def random_query(rng):
    """(out_masks, k, edges, max_len, exact_len) of one drawn query."""
    n = rng.randint(0, 10)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                masks[i] |= 1 << j
            else:
                masks[j] |= 1 << i
    if rng.random() < 0.75:
        pattern = parse_pattern(rng.choice(SPECS))
        k, edges = pattern.k, list(pattern.edges)
    else:  # drawn edge order, and vertices with no edge at all
        k = rng.randint(1, 5)
        pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, 7)))
    exact_len = rng.choice([None, 1, 2, 3, 4])
    return masks, k, edges, rng.randint(1, 4), exact_len


def first_difference(rng, queries):
    """Searches ``queries`` drawn queries both ways, once unlimited and once
    at a budget inside the tree; the first difference, or None."""
    for i in range(queries):
        query = random_query(rng)
        nodes = pure.search_subdivision(*query, NODE_CAP)[3]
        for budget in (NODE_CAP, rng.randint(0, nodes)):
            want = pure.search_subdivision(*query, budget)
            got = _kernel.search_subdivision(*query, budget)
            if got != want:
                return f"query {i}: {query} at budget {budget}: {got} != {want}"
    return None


def sweep_difference():
    """The CSV bodies of one complete-finder sweep on one and two workers,
    if they differ, else None."""
    config = dict(k=3, trials=6, n=120, scale=Fraction(1, 96), seed=9)
    serial, forked = (csv_body(sweep("complete", **config, workers=w)[0], SWEEP_COLUMNS["complete"])
                      for w in (1, 2))
    return None if forked == serial else f"two-worker sweep body differs:\n{forked}\n!=\n{serial}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    _kernel._PROBE_NODES = 0
    _workers._usable_cores = lambda: 2
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    os.fork = fork
    rng = random.Random(args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problems = [first_difference(rng, args.queries), sweep_difference()]
        single = len(forks)
        # A second thread keeps every query in-process.
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            problems.append(first_difference(rng, args.queries // 10 + 1))
        finally:
            release.set()
            thread.join()
    problems += [
        "no query fanned out" if not single else None,
        "a query forked while a second thread was alive" if len(forks) > single else None,
        *(f"warning: {w.message}" for w in caught),
    ]
    try:
        problems.append(f"a child process was left behind: {os.waitpid(-1, os.WNOHANG)}")
    except ChildProcessError:
        pass
    problems = [p for p in problems if p]
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"{args.queries} queries ({single} forks) matched the in-process search")
    return 0


if __name__ == "__main__":
    sys.exit(main())
