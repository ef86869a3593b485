# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled exact subdivision search for hosts with at most 64 vertices.

Shares ``pure.search_subdivision``'s candidate order and node accounting,
with single-word bitmask state, so the two backends return the same result
and node count and are cross-checkable.
"""

from libc.stdlib cimport malloc, free

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil
    int __builtin_ctzll(unsigned long long) nogil

NOTFOUND = 0
FOUND = 1
BUDGET_EXCEEDED = 2

cdef int R_BUDGET = -2


cdef struct Ctx:
    int n, k, m, lo_len, hi_len, hi_cap
    unsigned long long full, used
    long long nodes, budget
    unsigned long long *outm
    unsigned long long *inm
    int *eu
    int *ev
    int *branch
    int *plen
    int *pbuf


cdef inline int tick(Ctx *c) nogil:
    c.nodes += 1
    if c.nodes > c.budget:
        return R_BUDGET
    return 0


cdef bint path_feasible(Ctx *c, int x, int y, unsigned long long pool) nogil:
    cdef unsigned long long layer, nxt, rest
    cdef int length, z
    if c.lo_len <= 1 and 1 <= c.hi_len and (c.outm[x] >> y) & 1ULL:
        return True
    if c.lo_len <= 2 and 2 <= c.hi_len and (c.outm[x] & c.inm[y] & pool):
        return True
    if c.hi_len < 3:
        return False
    layer = c.outm[x] & pool
    for length in range(3, c.hi_len + 1):
        nxt = 0
        rest = layer
        while rest:
            z = __builtin_ctzll(rest)
            rest &= rest - 1
            nxt |= c.outm[z]
        layer = nxt & pool
        if layer == 0:
            return False
        if length >= c.lo_len and (layer & c.inm[y]):
            return True
    return False


cdef long long edge_options(Ctx *c, int ei, unsigned long long free) nogil:
    cdef int x = c.branch[c.eu[ei]]
    cdef int y = c.branch[c.ev[ei]]
    cdef long long est = 0
    cdef int a, b
    if c.lo_len <= 1 and 1 <= c.hi_len and (c.outm[x] >> y) & 1ULL:
        est += 1
    if c.lo_len <= 2 and 2 <= c.hi_len:
        est += __builtin_popcountll(c.outm[x] & c.inm[y] & free)
    if c.hi_len >= 3:
        a = __builtin_popcountll(c.outm[x] & free)
        b = __builtin_popcountll(c.inm[y] & free)
        est += a if a < b else b
    return est


cdef int extend(Ctx *c, int pick, int depth, int total, int prev, int remaining,
                int x, int y):
    cdef unsigned long long free_now, cands, low
    cdef int z, r
    free_now = c.full & ~c.used
    if depth == total - 1:
        cands = c.outm[prev] & c.inm[y] & free_now
    else:
        cands = c.outm[prev] & free_now
    while cands:
        z = __builtin_ctzll(cands)
        cands &= cands - 1
        r = tick(c)
        if r == R_BUDGET:
            return R_BUDGET
        c.pbuf[pick * c.hi_cap + depth] = z
        c.used |= 1ULL << z
        if depth == total - 1:
            c.plen[pick] = total
            r = embed_edges(c, remaining - 1)
            if r != 0:
                if r == 1:
                    return 1
                c.used &= ~(1ULL << z)
                c.plen[pick] = -1
                return r
            c.plen[pick] = -1
        else:
            r = extend(c, pick, depth + 1, total, z, remaining, x, y)
            if r != 0:
                if r == 1:
                    return 1
                c.used &= ~(1ULL << z)
                return r
        c.used &= ~(1ULL << z)
    return 0


cdef int embed_edges(Ctx *c, int remaining):
    cdef unsigned long long free
    cdef int ei, pick, x, y, length, r
    cdef long long est, best
    if remaining == 0:
        return 1
    free = c.full & ~c.used
    pick = -1
    best = -1
    for ei in range(c.m):
        if c.plen[ei] >= 0:
            continue
        est = edge_options(c, ei, free)
        if est == 0:
            return 0
        if best < 0 or est < best:
            best = est
            pick = ei
    x = c.branch[c.eu[pick]]
    y = c.branch[c.ev[pick]]

    if c.lo_len <= 1 and 1 <= c.hi_len and (c.outm[x] >> y) & 1ULL:
        r = tick(c)
        if r == R_BUDGET:
            return R_BUDGET
        c.plen[pick] = 0
        r = embed_edges(c, remaining - 1)
        if r != 0:
            if r == 1:
                return 1
            c.plen[pick] = -1
            return r
        c.plen[pick] = -1

    length = 2 if c.lo_len < 2 else c.lo_len
    while length <= c.hi_len:
        r = extend(c, pick, 0, length - 1, x, remaining, x, y)
        if r != 0:
            return r
        length += 1
    return 0


cdef int assign_branch(Ctx *c, int i):
    cdef int h, j, a, b, r
    cdef bint ok
    cdef unsigned long long pool
    for h in range(c.n):
        if (c.used >> h) & 1ULL:
            continue
        r = tick(c)
        if r == R_BUDGET:
            return R_BUDGET
        c.branch[i] = h
        c.used |= 1ULL << h
        pool = c.full & ~c.used
        ok = True
        for j in range(c.m):
            a = c.eu[j]
            b = c.ev[j]
            if a <= i and b <= i and (a == i or b == i):
                if not path_feasible(c, c.branch[a], c.branch[b], pool):
                    ok = False
                    break
        if ok:
            if i == c.k - 1:
                r = embed_edges(c, c.m)
            else:
                r = assign_branch(c, i + 1)
            if r != 0:
                if r == 1:
                    return 1
                c.branch[i] = -1
                c.used &= ~(1ULL << h)
                return r
        c.branch[i] = -1
        c.used &= ~(1ULL << h)
    return 0


def search_subdivision(out_masks, int k, edges, int max_len, exact_len, budget):
    """Single-word twin of the pure-Python search; n must be <= 64."""
    cdef int n = len(out_masks)
    if n > 64:
        raise ValueError("compiled kernel handles at most 64 vertices")
    cdef Ctx c
    cdef int m = len(edges)
    cdef int i, status, r
    c.n = n
    c.k = k
    c.m = m
    c.lo_len = exact_len if exact_len is not None else 1
    c.hi_len = exact_len if exact_len is not None else max_len
    c.hi_cap = c.hi_len if c.hi_len > 1 else 1
    c.full = ((1ULL << (n - 1)) << 1) - 1 if n > 0 else 0
    c.used = 0
    c.nodes = 0
    c.budget = budget
    c.outm = <unsigned long long *> malloc(n * sizeof(unsigned long long))
    c.inm = <unsigned long long *> malloc(n * sizeof(unsigned long long))
    c.eu = <int *> malloc((m if m else 1) * sizeof(int))
    c.ev = <int *> malloc((m if m else 1) * sizeof(int))
    c.branch = <int *> malloc((k if k else 1) * sizeof(int))
    c.plen = <int *> malloc((m if m else 1) * sizeof(int))
    c.pbuf = <int *> malloc((m * c.hi_cap if m else 1) * sizeof(int))
    if (c.outm == NULL or c.inm == NULL or c.eu == NULL or c.ev == NULL
            or c.branch == NULL or c.plen == NULL or c.pbuf == NULL):
        free(c.outm); free(c.inm); free(c.eu); free(c.ev)
        free(c.branch); free(c.plen); free(c.pbuf)
        raise MemoryError
    try:
        for i in range(n):
            c.outm[i] = out_masks[i]
            c.inm[i] = c.full & ~c.outm[i] & ~(1ULL << i)
        for i in range(m):
            c.eu[i] = edges[i][0]
            c.ev[i] = edges[i][1]
        for i in range(k):
            c.branch[i] = -1
        for i in range(m):
            c.plen[i] = -1

        if k > 0:
            r = assign_branch(&c, 0)
        else:
            r = embed_edges(&c, m)

        if r == R_BUDGET:
            return BUDGET_EXCEEDED, None, None, c.nodes
        if r == 1:
            branch = tuple(c.branch[i] for i in range(k))
            internals = []
            for i in range(m):
                internals.append(tuple(c.pbuf[i * c.hi_cap + j] for j in range(c.plen[i])))
            return FOUND, branch, internals, c.nodes
        return NOTFOUND, None, None, c.nodes
    finally:
        free(c.outm); free(c.inm); free(c.eu); free(c.ev)
        free(c.branch); free(c.plen); free(c.pbuf)
