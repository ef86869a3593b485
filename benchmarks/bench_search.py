#!/usr/bin/env python3
"""Benchmark the exact-search kernel: best-of-repeat time and node count per
workload.

    python benchmarks/bench_search.py [--repeat 3]
"""

import argparse
import time

from toursub._kernel import search_subdivision
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

    workloads = WORKLOADS + (HEAVY_WORKLOADS if args.heavy else [])
    print(f"{'workload':44} {'time':>12}      nodes")
    for label, host, spec, max_len, exact_len in workloads:
        pattern = parse_pattern(spec)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            out = run(search_subdivision, host, pattern, max_len, exact_len)
            best = min(best, time.perf_counter() - t0)
        print(f"{label:44} {best * 1000:>10.2f}ms {out[3]:>10}")


if __name__ == "__main__":
    main()
