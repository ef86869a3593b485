#!/usr/bin/env python3
"""Benchmark host generation and the degree pass: best-of-repeat time per
call for random tournaments, every sweep host kind at n = 240, and
``universe_degrees`` with its memo cold and hit.

    python benchmarks/bench_hosts.py [--repeat 3]
"""

import argparse
import time
from itertools import cycle

from toursub.core import random_tournament, universe_degrees
from toursub.experiments import SWEEP_KINDS, build_host

RANDOM_SIZES = (80, 135, 240, 375, 540, 1350)
SWEEP_N = 240
SEED = 7
CALLS = 200  # calls per timed repeat; the largest hosts take fewer


def per_call(fn, calls, repeat):
    """Best over ``repeat`` runs of ``calls`` back-to-back calls, per call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls


def workloads():
    """(label, zero-argument call, calls per timed repeat) for every row."""
    for n in RANDOM_SIZES:
        yield (f"random_tournament({n})", lambda n=n: random_tournament(n, SEED),
               max(1, CALLS * 80 // n))
    for kind in SWEEP_KINDS:
        yield (f"build_host({kind}, {SWEEP_N})", lambda kind=kind: build_host(kind, SWEEP_N, SEED),
               CALLS)
    host = random_tournament(SWEEP_N, SEED)
    full = host.full_mask
    # Two universes in turn miss the one-entry memo on every call.
    cold = cycle((full, full & ~1))
    yield (f"universe_degrees({SWEEP_N}), cold memo", lambda: universe_degrees(host, next(cold)),
           CALLS)
    yield f"universe_degrees({SWEEP_N}), memo hit", lambda: universe_degrees(host, full), CALLS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'workload':44} {'time':>12}")
    for label, fn, calls in workloads():
        print(f"{label:44} {per_call(fn, calls, args.repeat) * 1e6:>10.1f}us")


if __name__ == "__main__":
    main()
