"""Exact brute-force subdivision search on small hosts.

This is the independent ground truth the constructive finders are checked
against: a NotFound answer (within the node budget) is a proof that no
subdivision exists under the given length caps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from . import _kernel
from .core import Tournament
from .subdivision import PatternDigraph, Subdivision

__all__ = [
    "OracleQuery",
    "OracleOutcome",
    "oracle_subdivision",
    "exhaustive_tournaments",
    "scan_d_lower",
]

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class OracleQuery:
    pattern: PatternDigraph
    max_len: int = 3
    exact_len: Optional[int] = None
    node_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.exact_len is not None and self.exact_len < 1:
            raise ValueError("exact_len must be at least 1")


@dataclass(frozen=True)
class OracleOutcome:
    """status is one of found / not_found / budget_exceeded."""

    status: str
    subdivision: Optional[Subdivision]
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def exact(self) -> bool:
        """True when the answer is a proof (budget not exhausted)."""
        return self.status != "budget_exceeded"


def oracle_subdivision(t: Tournament, query: OracleQuery) -> OracleOutcome:
    """Decide whether ``t`` contains a subdivision of the query pattern with
    every path length within the caps.  Exact for any answer other than
    budget_exceeded."""
    pattern = query.pattern
    try:
        status, branch, internals, nodes = _kernel.search_subdivision(
            [t.out_mask(v) for v in t.vertices()],
            pattern.k,
            list(pattern.edges),
            query.max_len,
            query.exact_len,
            query.node_budget,
        )
    except RecursionError:
        # The kernel recurses once per branch vertex and once per path or
        # path vertex placed, so a large pattern outgrows the stack limit.
        raise ValueError(
            f"pattern with {pattern.k} vertices and {len(pattern.edges)} edges needs a "
            f"deeper search than the recursion limit ({sys.getrecursionlimit()}) allows"
        ) from None
    if status == _kernel.BUDGET_EXCEEDED:
        return OracleOutcome("budget_exceeded", None, nodes)
    if status == _kernel.NOTFOUND:
        return OracleOutcome("not_found", None, nodes)
    paths = {edge: tuple(chain) for edge, chain in zip(pattern.edges, internals)}
    sub = Subdivision(pattern=pattern, branch=tuple(branch), paths=paths)
    return OracleOutcome("found", sub, nodes)


def exhaustive_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^C(n,2) labeled tournaments on n vertices (n <= 5)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > 5:
        raise ValueError("exhaustive enumeration is limited to n <= 5")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for code in range(1 << len(pairs)):
        out = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if (code >> idx) & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
        yield Tournament(out)


# Columns of the rows scan_d_lower returns, in CSV order.
SCAN_DK_COLUMNS = ["n", "seed", "delta_plus", "contains", "nodes", "millis"]


def scan_d_lower(k, n_values, trials, seed, max_len=3, budget=DEFAULT_BUDGET):
    """Containment scan used as empirical evidence about d(k).

    For each n: exhaustive over all labeled tournaments when n <= 5 and
    trials == 0, otherwise ``trials`` seeded random samples.  Yields rows
    (n, seed, delta_plus, contains, nodes, millis); `contains` refers to a
    complete-digraph subdivision within ``max_len``.  Sampled rows are
    evidence, not certificates.
    """
    import time

    from .core import random_tournament
    from .experiments import instance_seed
    from .subdivision import pattern_complete_digraph

    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    pattern = pattern_complete_digraph(k)
    rows = []
    for n in n_values:
        if trials == 0:
            if n > 5:
                raise ValueError("exhaustive scan needs n <= 5")
            hosts = ((-1, t) for t in exhaustive_tournaments(n))
        else:
            hosts = (
                (instance_seed(seed, (n << 20) + i), None) for i in range(trials)
            )
        for s, maybe_t in hosts:
            t = maybe_t if maybe_t is not None else random_tournament(n, s)
            start = time.perf_counter()
            outcome = oracle_subdivision(
                t, OracleQuery(pattern, max_len=max_len, node_budget=budget)
            )
            millis = (time.perf_counter() - start) * 1000.0
            rows.append(
                {
                    "n": n,
                    "seed": s,
                    "delta_plus": min(t.out_degree(v) for v in t.vertices()),
                    "contains": int(outcome.found),
                    "nodes": outcome.nodes,
                    "millis": round(millis, 3),
                }
            )
    return rows
