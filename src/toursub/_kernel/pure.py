"""Pure-Python exact subdivision search (reference implementation).

Backtracks over injective branch assignments (ascending host order, no
symmetry assumptions) and then over per-edge directed paths, always expanding
the most constrained remaining pattern edge (the first in edge order on a
tie).  Vertex sets are Python-int bitmasks, so this works for any host size.

A node is one branch placement or one path vertex (or direct edge) placed;
every node is counted before its subtree is searched, and the count is
checked against the budget there.  The masks a path search needs for an
edge (out-neighbours of its tail, in-neighbours of its head, their meet,
the direct edge) depend only on its two branch vertices, so they are
computed when the larger of its ends is placed, not at every path search.

Failed embedding states are recorded (nogood recording; Dechter,
Artificial Intelligence 41, 1990).  Under a fixed branch map the search
below an embedding state depends only on its pending edges and ``used``:
the per-edge masks are fixed, the pick is the first minimum of estimates
taken from the free vertices, candidates run in ascending order, and a
path search reads only ``out``, ``head_in`` and ``used``.  So a state that
failed once fails again after the same number of nodes, which the table
stores.  A revisit adds them, stopping at ``budget + 1`` if they pass the
budget, as the node-by-node search does, with nothing found before.  A
state is never its own descendant (each step drops a pending edge) and a
success returns before any record, so the result and node count are those
of the search without the table.  The table is cleared at each full
branch map and when it holds ``_TABLE_LIMIT`` entries.

NotFound is exact: when the search exhausts without exceeding the node
budget, no subdivision within the length caps exists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

NOTFOUND = 0
FOUND = 1
BUDGET_EXCEEDED = 2
_TABLE_LIMIT = 1 << 16  # failed states kept before the table is cleared


class _Budget(Exception):
    pass


def search_subdivision(
    out_masks: Sequence[int],
    k: int,
    edges: Sequence[Tuple[int, int]],
    max_len: int,
    exact_len: Optional[int],
    budget: int,
) -> Tuple[int, Optional[Tuple[int, ...]], Optional[List[Tuple[int, ...]]], int]:
    """Returns (status, branch, internals-per-edge, nodes)."""
    n = len(out_masks)
    full = (1 << n) - 1
    out = list(out_masks)
    inm = [full & ~out[v] & ~(1 << v) for v in range(n)]
    m = len(edges)
    lo_len = exact_len if exact_len is not None else 1
    hi_len = exact_len if exact_len is not None else max_len
    len1 = lo_len <= 1 <= hi_len
    len2 = lo_len <= 2 <= hi_len
    longer = hi_len >= 3
    long_lengths = range(max(3, lo_len), hi_len + 1)
    # The edges checked when branch vertex i is placed: those whose larger
    # end is i, in edge order.
    level: List[List[Tuple[int, int, int]]] = [[] for _ in range(k)]
    for ei, (a, b) in enumerate(edges):
        level[max(a, b)].append((ei, a, b))
    all_edges = list(range(m))

    branch = [-1] * k
    internals: List[Tuple[int, ...]] = [()] * m
    used = 0
    nodes = 0
    # Per-edge masks under the current branch map, set when the edge's
    # larger end is placed; ``direct`` and ``both`` are 0 where length 1 or 2
    # is not allowed.
    tail_out = [0] * m
    head_in = [0] * m
    both = [0] * m
    direct = [0] * m
    # One buffer per edge: the path searches of later edges run inside
    # this edge's ``extend`` and must not overwrite its prefix.
    chains = [[0] * max(hi_len, 1) for _ in range(m)]
    # (pending mask << n) | used -> nodes counted below that failed state.
    failed: Dict[int, int] = {}

    def long_path(x: int, y: int, pool: int) -> bool:
        # Necessary condition only: distinctness of internals is ignored.
        layer = out[x] & pool
        for length in range(3, hi_len + 1):
            nxt = 0
            while layer:
                low = layer & -layer
                nxt |= out[low.bit_length() - 1]
                layer ^= low
            layer = nxt & pool
            if not layer:
                return False
            if length >= lo_len and layer & inm[y]:
                return True
        return False

    def assign_branch(i: int) -> bool:
        nonlocal used, nodes
        checks = level[i]
        cands = full & ~used
        while cands:
            bit = cands & -cands
            cands ^= bit
            nodes += 1
            if nodes > budget:
                raise _Budget
            branch[i] = bit.bit_length() - 1
            used |= bit
            pool = full & ~used
            for _, a, b in checks:
                x = branch[a]
                y = branch[b]
                if len1 and (out[x] >> y) & 1:
                    continue
                if len2 and out[x] & inm[y] & pool:
                    continue
                if not (longer and long_path(x, y, pool)):
                    break
            else:
                for ei, a, b in checks:
                    ox = out[branch[a]]
                    iy = inm[branch[b]]
                    tail_out[ei] = ox
                    head_in[ei] = iy
                    both[ei] = ox & iy if len2 else 0
                    direct[ei] = 1 if len1 and (ox >> branch[b]) & 1 else 0
                if i < k - 1:
                    if assign_branch(i + 1):
                        return True
                else:
                    failed.clear()
                    if embed_edges(all_edges, (1 << m) - 1):
                        return True
            branch[i] = -1
            used ^= bit
        return False

    def embed_edges(pending: List[int], pmask: int) -> bool:
        nonlocal used, nodes
        if not pending:
            return True
        key = (pmask << n) | used
        seen = failed.get(key)
        if seen is not None:
            nodes += seen
            if nodes > budget:
                nodes = budget + 1
                raise _Budget
            return False
        start = nodes
        free = full & ~used
        if longer:
            est = [direct[e] + (both[e] & free).bit_count()
                   + min((tail_out[e] & free).bit_count(), (head_in[e] & free).bit_count())
                   for e in pending]
        else:
            est = [direct[e] + (both[e] & free).bit_count() for e in pending]
        best = min(est)
        if best:
            j = est.index(best)
            pick = pending[j]
            rest = pending[:j] + pending[j + 1:]
            rmask = pmask ^ (1 << pick)
            if direct[pick]:
                nodes += 1
                if nodes > budget:
                    raise _Budget
                internals[pick] = ()
                if embed_edges(rest, rmask):
                    return True
            cands = both[pick] & free
            while cands:
                bit = cands & -cands
                cands ^= bit
                nodes += 1
                if nodes > budget:
                    raise _Budget
                used |= bit
                internals[pick] = (bit.bit_length() - 1,)
                if embed_edges(rest, rmask):
                    return True
                used ^= bit
            for length in long_lengths:
                if extend(0, length - 2, tail_out[pick], pick, rest, rmask):
                    return True
        if len(failed) >= _TABLE_LIMIT:
            failed.clear()
        failed[key] = nodes - start
        return False

    def extend(depth: int, last: int, reach: int, pick: int, rest: List[int],
               rmask: int) -> bool:
        # Places internal ``depth`` (of ``last + 1``) among ``reach``, the
        # out-neighbours of the previous path vertex.
        nonlocal used, nodes
        cands = reach & ~used
        if depth == last:
            cands &= head_in[pick]
        chain = chains[pick]
        while cands:
            bit = cands & -cands
            cands ^= bit
            nodes += 1
            if nodes > budget:
                raise _Budget
            z = bit.bit_length() - 1
            chain[depth] = z
            used |= bit
            if depth == last:
                internals[pick] = tuple(chain[:depth + 1])
                if embed_edges(rest, rmask):
                    return True
            elif extend(depth + 1, last, out[z], pick, rest, rmask):
                return True
            used ^= bit
        return False

    try:
        found = assign_branch(0) if k > 0 else embed_edges(all_edges, (1 << m) - 1)
    except _Budget:
        return BUDGET_EXCEEDED, None, None, nodes
    if found:
        return FOUND, tuple(branch), list(internals), nodes
    return NOTFOUND, None, None, nodes
