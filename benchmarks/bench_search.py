#!/usr/bin/env python3
"""Benchmark the exact-search kernel: compiled extension vs pure Python.

Both backends run the identical search (same candidate order, same node
counts), so the timing difference is pure interpreter overhead.

    python benchmarks/bench_search.py [--repeat 3]
"""

import argparse
import time

from toursub._kernel import available_backends
from toursub.core import (
    blowup_cyclic_triangle,
    random_tournament,
    rotational_tournament,
)
from toursub.subdivision import parse_pattern

WORKLOADS = [
    # refutations: the search must exhaust its tree to prove non-containment
    ("random(14) transitive:5 exact 2 [refute]", random_tournament(14, 1), "transitive:5", 2, 2),
    ("blowup(5) complete:4 cap 2 [refute]", blowup_cyclic_triangle(5), "complete:4", 2, None),
    ("rotational(11) complete:4 cap 2 [refute]", rotational_tournament(11), "complete:4", 2, None),
    # searches that succeed after real backtracking
    ("blowup(4) complete:4 cap 3 [find]", blowup_cyclic_triangle(4), "complete:4", 3, None),
    ("random(13) complete:4 cap 3 [find]", random_tournament(13, 0), "complete:4", 3, None),
]

HEAVY_WORKLOADS = [
    ("random(16) transitive:6 exact 2 [refute]", random_tournament(16, 3), "transitive:6", 2, 2),
]


def run(search, host, pattern, max_len, exact_len):
    masks = [host.out_mask(v) for v in host.vertices()]
    return search(masks, pattern.k, list(pattern.edges), max_len, exact_len, 10**9)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--heavy", action="store_true",
                        help="include the multi-second refutation workload")
    args = parser.parse_args()

    backends = available_backends()
    if "compiled" not in backends:
        print("compiled kernel not built; only the pure backend will run")

    workloads = WORKLOADS + (HEAVY_WORKLOADS if args.heavy else [])
    print(f"{'workload':44} " + " ".join(f"{name:>12}" for name in backends)
          + "      nodes  speedup")
    for label, host, spec, max_len, exact_len in workloads:
        pattern = parse_pattern(spec)
        times = {}
        nodes = None
        results = {}
        for name, search in backends.items():
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                out = run(search, host, pattern, max_len, exact_len)
                best = min(best, time.perf_counter() - t0)
            times[name] = best
            results[name] = out
            nodes = out[3]
        assert len(set(map(str, results.values()))) == 1, "backend results or node counts diverged"
        cols = " ".join(f"{times[n] * 1000:>10.2f}ms" for n in backends)
        speed = (times["pure"] / times["compiled"]) if "compiled" in times else 1.0
        print(f"{label:44} {cols} {nodes:>10}  {speed:>6.1f}x")


if __name__ == "__main__":
    main()
