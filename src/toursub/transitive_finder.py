"""Transitive-tournament subdivisions: the length-3 recursion and the
1-subdivision pipeline.

The length-3 finder embeds short paths on a nearly-regular branch set and,
when stuck, splits off the common in/out neighbourhoods of the stuck pair
and recurses on both sides.  The 1-subdivision finder clusters vertices
whose out-neighbourhoods are nearly equal (the auxiliary graph), separates
that graph into small components with a BFS ball separator, recurses on two
component families of a degree-ordered split, and joins the halves with
exact 2-paths.

Both recurse on universe masks (``universe``, ``uni``) of the host they were
given, with degrees counted inside the mask, so every vertex a stage returns
is a host vertex and every vertex set it hands on is a host bitmask.
``bits_of(uni)`` is ascending, so lowest-index tie-breaks pick what they
would on ``induced(t, bits_of(uni))``.  Only the aux graph and the ball
separator keep local 0..n-1 ids and sets: a host-wide mask per component
of their 10^5-vertex graphs would be built bit by bit.

Failures: every stage raises a ``StageFailure``, and ``find_tt_len3`` and
``find_one_subdivision`` each turn it into the run's ``FailureTrace`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .core import Tournament, _try_short_path, bits_of, first_window, mask_of, universe_degrees
from .errors import FailureTrace, InfeasibleSize, StageFailure
from .params import FinderParams, fixed
from .subdivision import Subdivision, pattern_transitive

__all__ = [
    "NearlyRegularSet",
    "find_nearly_regular",
    "find_nearly_regular_k",
    "find_tt_len3",
    "build_aux_graph",
    "BallDecomposition",
    "ball_decomposition",
    "ComponentPartition",
    "partition_components",
    "transitive_chain",
    "find_one_subdivision",
]

RATIO_BOUND = 4
DEGREE_WINDOW_FACTOR = 10  # (C, m, k) window half-width is 10k


# ---------------------------------------------------------------------------
# nearly-regular sets


@dataclass(frozen=True)
class NearlyRegularSet:
    """Vertices with out/in-degree ratio in [1, C], one inequality side for
    all of them; the k-variant pins in-degrees to a 10k-wide window."""

    vertices: Tuple[int, ...]
    ratio_bound: int
    side: str  # "out" for d- <= d+ <= C d-, "in" for the reverse chain
    m: Optional[int] = None


def _ratio_set(t: Tournament, uni: int) -> Tuple[List[int], List[int]]:
    """Vertices satisfying each side chain (overlap allowed when d+ = d-)."""
    vertices, degrees = universe_degrees(t, uni)
    top = len(vertices) - 1  # d+ + d- for every vertex
    # 0 < d- <= d+ <= C d- and 0 < d+ <= d- <= C d+ as ranges of d+ = top - d-.
    out_lo, out_hi = -(-top // 2), min(top - 1, RATIO_BOUND * top // (RATIO_BOUND + 1))
    in_lo, in_hi = max(1, -(-top // (RATIO_BOUND + 1))), top // 2
    out_side = [v for v, d in zip(vertices, degrees) if out_lo <= d <= out_hi]
    in_side = [v for v, d in zip(vertices, degrees) if in_lo <= d <= in_hi]
    return out_side, in_side


def find_nearly_regular(t: Tournament, universe: Optional[int] = None) -> NearlyRegularSet:
    """The larger side-homogeneous half of the bounded-ratio vertex set of
    the subtournament on ``universe`` (default: all of ``t``).

    The ratio set has at least |T|/5 vertices for every tournament our
    generators produce; a violation raises, so callers can surface it.
    """
    uni = t.full_mask if universe is None else universe
    n = uni.bit_count()
    if n < 10:
        raise StageFailure("nearly-regular extraction needs at least 10 vertices",
                           stage="nearly-regular")
    out_side, in_side = _ratio_set(t, uni)
    ratio_count = len(set(out_side) | set(in_side))
    if 5 * ratio_count < n:
        raise StageFailure(
            f"bounded-ratio set has {ratio_count} < n/5 vertices; "
            "host is too lopsided for the nearly-regular argument",
            stage="nearly-regular",
        )
    if len(out_side) >= len(in_side):
        return NearlyRegularSet(tuple(out_side), RATIO_BOUND, "out")
    return NearlyRegularSet(tuple(in_side), RATIO_BOUND, "in")


def find_nearly_regular_k(t: Tournament, k: int, universe: Optional[int] = None) -> NearlyRegularSet:
    """k nearly-regular vertices of the subtournament on ``universe`` with
    in-degrees inside one width-10k window (lowest window first, lowest
    indices within it)."""
    if k < 1:
        raise ValueError("k must be positive")
    uni = t.full_mask if universe is None else universe
    n = uni.bit_count()
    if n < DEGREE_WINDOW_FACTOR * k:
        raise StageFailure(f"need at least {DEGREE_WINDOW_FACTOR * k} vertices for k={k}",
                           stage="nearly-regular")
    base_set = find_nearly_regular(t, uni)
    width = DEGREE_WINDOW_FACTOR * k
    in_degrees = [n - 1 - (t.out_mask(v) & uni).bit_count() for v in base_set.vertices]
    window = first_window(base_set.vertices, in_degrees, 0, width, k)
    if window is None:
        raise StageFailure(f"no width-{width} in-degree window holds {k} nearly-regular vertices",
                           stage="nearly-regular")
    start, chosen = window
    return NearlyRegularSet(
        vertices=tuple(chosen),
        ratio_bound=base_set.ratio_bound,
        side=base_set.side,
        m=start + width // 2,
    )


# ---------------------------------------------------------------------------
# length-<=3 transitive subdivisions


def find_tt_len3(
    t: Tournament,
    k: int,
    params: Optional[FinderParams] = None,
) -> Union[Subdivision, FailureTrace]:
    """Subdivision of the transitive tournament on k vertices with every
    path of length at most 3."""
    if k < 1:
        raise ValueError("k must be positive")
    params = (params or FinderParams(k=k)).rescaled(k)
    if params.paper_faithful and t.n < params.tt3_min_size:
        raise InfeasibleSize(
            f"{t.n} vertices is below the required {fixed(params.tt3_min_size, 0)}"
        )
    try:
        return _tt3_recurse(t, t.full_mask, k)
    except StageFailure as exc:
        return FailureTrace.from_error(exc)


def _tt3_recurse(t: Tournament, uni: int, k: int) -> Subdivision:
    n = uni.bit_count()
    if n < k:
        raise StageFailure("fewer vertices than k", stage="recursion-size", n=n, k=k)
    if k <= 2:
        branch = tuple(islice(bits_of(uni), k))
        if k == 2 and not t.has_edge(*branch):
            branch = branch[::-1]
        return Subdivision(pattern_transitive(k), branch, {(0, 1): ()} if k == 2 else {})

    try:
        near = find_nearly_regular_k(t, k, uni)
    except StageFailure as exc:
        exc.details.update(n=n, k=k)
        raise

    # Branch order: non-increasing out-degree inside the branch set, so
    # forward host edges double as length-1 paths wherever possible.
    used = mask_of(near.vertices)
    sigma = sorted(near.vertices, key=lambda v: (-(t.out_mask(v) & used).bit_count(), v))
    paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for i in range(k):
        for j in range(i + 1, k):
            x, y = sigma[i], sigma[j]
            internals = () if t.has_edge(x, y) else _try_short_path(t, x, y, uni & ~used)
            if internals is None:
                return _tt3_split(t, uni, k, x, y, used)
            used |= mask_of(internals)
            paths[(i, j)] = internals
    return Subdivision(pattern_transitive(k), tuple(sigma), paths)


def _tt3_split(t: Tournament, uni: int, k: int, x: int, y: int, used: int) -> Subdivision:
    """Stuck-pair split: among still-available vertices the common
    in-neighbourhood B of (x, y) sends every edge to the common
    out-neighbourhood A, so a transitive subdivision in B followed by one in
    A concatenates across the B -> A orientation."""
    avail = uni & ~used
    a_mask = t.out_mask(x) & t.out_mask(y) & avail
    b_mask = t.in_mask(x) & t.in_mask(y) & avail
    for a in bits_of(a_mask):
        if t.out_mask(a) & b_mask:
            # An A -> B edge would have made a 3-path; the greedy search was
            # exhaustive, so this cannot happen.
            raise RuntimeError("stuck state was not maximal: found an A -> B edge")

    k_big = -(-3 * k // 5)  # ceil(3k/5)
    k_small = k - k_big
    a_size = a_mask.bit_count()
    b_size = b_mask.bit_count()
    # The bigger target goes to the bigger side; B always precedes A in the
    # transitive order because every edge runs B -> A.
    kb, ka = (k_big, k_small) if b_size >= a_size else (k_small, k_big)
    if b_size < kb or a_size < ka or kb < 1 or ka < 1:
        raise StageFailure("stuck-pair split leaves a side too small", stage="recursion-size",
                           A=a_size, B=b_size, need_A=ka, need_B=kb)
    first = _tt3_recurse(t, b_mask, kb)
    second = _tt3_recurse(t, a_mask, ka)
    return _join(first, second, lambda u, v, hx, hy: ())


def _join(first: Subdivision, second: Subdivision,
          cross: Callable[[int, int, int, int], Tuple[int, ...]]) -> Subdivision:
    """``first`` followed by ``second`` as one transitive subdivision: the
    second half's pattern indices shift past the first's, and each cross pair
    (u, v) of branch vertices (hx, hy) gets the internals ``cross(u, v, hx, hy)``,
    asked in (u, v) order."""
    shift = len(first.branch)
    paths = dict(first.paths)
    for (u, v), internals in second.paths.items():
        paths[(u + shift, v + shift)] = internals
    for u, hx in enumerate(first.branch):
        for v, hy in enumerate(second.branch):
            paths[(u, shift + v)] = cross(u, v, hx, hy)
    branch = first.branch + second.branch
    return Subdivision(pattern_transitive(len(branch)), branch, paths)


# ---------------------------------------------------------------------------
# auxiliary graph and the ball separator


def build_aux_graph(
    t: Tournament,
    k: int,
    params: Optional[FinderParams] = None,
    universe: Optional[int] = None,
) -> List[List[int]]:
    """Adjacency lists of the undirected graph that joins x to y when their
    out-neighbourhood symmetric difference inside ``universe`` (default: all
    of ``t``) is below the (scaled) 2k^2 threshold.  Graph vertex i is the
    universe's i-th lowest vertex.

    Only pairs that can pass are compared.  |N+(x) ^ N+(y)| is at least the
    out-degree gap g = |d+(x) - d+(y)|, has the parity of g, and is at least
    1 (the x-y edge puts one endpoint in it), so it is at least 2 when g = 0.
    Vertices are bucketed by out-degree and only bucket pairs with
    g < threshold (and g = 0 only when the threshold exceeds 2) are XORed.
    Each adjacency list comes out ascending, as a full double loop over
    x < y would leave it.
    """
    params = (params or FinderParams(k=k)).rescaled(k)
    # An integer is below a rational exactly when it is below its ceiling.
    threshold = math.ceil(params.aux_threshold)
    uni = t.full_mask if universe is None else universe
    vertices, degrees = universe_degrees(t, uni)
    rows = [t.out_mask(v) & uni for v in vertices]
    adj: List[List[int]] = [[] for _ in rows]
    buckets: Dict[int, List[int]] = {}
    for v, d in enumerate(degrees):
        buckets.setdefault(d, []).append(v)
    # Two out-degrees inside the universe differ by less than its size.
    for dx, xs in buckets.items():
        for gap in range(0 if threshold > 2 else 1, min(threshold, len(rows))):
            ys = buckets.get(dx + gap)
            if ys is None:
                continue
            for i, x in enumerate(xs):
                rx = rows[x]
                for y in (xs[i + 1:] if gap == 0 else ys):
                    if (rx ^ rows[y]).bit_count() < threshold:
                        adj[x].append(y)
                        adj[y].append(x)
    for nbrs in adj:
        nbrs.sort()
    return adj


@dataclass(frozen=True)
class BallDecomposition:
    removed: frozenset
    components: Tuple[frozenset, ...]
    bound: float


def ball_decomposition(adj: Sequence[Sequence[int]]) -> BallDecomposition:
    """Remove sparse BFS levels of the undirected graph with adjacency lists
    ``adj`` (vertices 0..n-1) until every component has at most
    n / (5 ln n) vertices; the removed set obeys the same bound.

    Requires every explored ball interior to stay below the bound (checked
    as the BFS runs); its ``aux-graph-precondition`` StageFailure carries the
    violating vertex and radius.
    Natural logarithm throughout.

    Each BFS stops at the first level that is sparse relative to the grown
    ball; the ball interior then splits off as a finished component, so every
    vertex is explored a bounded number of times and million-vertex sparse
    graphs decompose quickly.

    A start with an empty adjacency list becomes a singleton component with
    no BFS: its BFS would stop at radius 1 having found nothing, and its
    one-vertex ball passes the size check exactly when the bound is at
    least 1 (n >= 13), so below that the BFS runs and raises as before.
    """
    n = len(adj)
    if n < 2:
        return BallDecomposition(frozenset(), (frozenset(range(n)),) if n else (), float(n))
    bound = n / (5.0 * math.log(n))
    log_factor = 5.0 * math.log(n)
    radius_cap = 10.0 * math.log(n) ** 2
    ALIVE, REMOVED, DONE = 0, 1, 2
    state = [ALIVE] * n
    removed: List[int] = []
    components: List[frozenset] = []
    # Every alive vertex is eventually either finalized by a BFS that
    # exhausts its (small) component, or split off inside a ball interior.
    pending = list(range(n - 1, -1, -1))
    singletons_fit = bound >= 1
    while pending:
        start = pending.pop()
        if state[start] != ALIVE:
            continue
        if singletons_fit and not adj[start]:
            state[start] = DONE
            components.append(frozenset((start,)))
            continue
        level = [start]
        seen = {start}
        ball = [start]
        r = 0
        while True:
            r += 1
            if r > radius_cap:
                break
            nxt = []
            for v in level:
                for w in adj[v]:
                    if state[w] == ALIVE and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if log_factor * len(nxt) < len(ball):
                break
            ball.extend(nxt)
            level = nxt
        if r > radius_cap or len(ball) > bound:
            raise StageFailure(
                f"ball of radius {r - 1} around {start} has {len(ball)} vertices,"
                f" bound {bound:.3f}",
                stage="aux-graph-precondition", vertex=start, radius=r - 1, size=len(ball),
            )
        if not nxt:
            # The BFS exhausted a small component: it is finished.
            for v in ball:
                state[v] = DONE
            components.append(frozenset(ball))
            continue
        # Remove the sparse level; the ball interior becomes a finished
        # component and the exterior is re-examined from the level's
        # still-alive neighbours.
        for v in nxt:
            state[v] = REMOVED
            removed.append(v)
        for v in ball:
            state[v] = DONE
        components.append(frozenset(ball))
        for v in nxt:
            for w in adj[v]:
                if state[w] == ALIVE:
                    pending.append(w)
    if len(removed) > bound:
        raise RuntimeError("removed-set bound violated despite per-step discipline")
    return BallDecomposition(frozenset(removed), tuple(components), bound)


# ---------------------------------------------------------------------------
# component partition for the 1-subdivision recursion


@dataclass(frozen=True)
class ComponentPartition:
    """Host bitmasks throughout: A1 is the top half of ``order`` (the
    component vertices by out-degree, highest first), A2 the rest; the X and
    Y families keep their components in input order, and each cap is the
    family's union met with A1 (X) or A2 (Y)."""

    order: Tuple[int, ...]
    a1: int
    a2: int
    x_family: Tuple[int, ...]
    y_family: Tuple[int, ...]
    x_cap_a1: int
    y_cap_a2: int
    m: int
    lower_bound: float


def partition_components(
    t: Tournament,
    components: Sequence[int],
    universe: Optional[int] = None,
) -> ComponentPartition:
    """Split the components (disjoint vertex masks of the subtournament on
    ``universe``, default all of ``t``) into two families, one capturing many
    vertices of the top half of the out-degree order, the other many of the
    bottom half; both intersections reach (1 - 1/(2 ln n)) m / 4."""
    uni = t.full_mask if universe is None else universe
    members = reduce(or_, components, 0)
    m = members.bit_count()
    if m == 0:
        raise ValueError("no component vertices to partition")
    vertices, degrees = universe_degrees(t, uni)
    sigma = [v for _, v in sorted((-d, v) for v, d in zip(vertices, degrees) if members >> v & 1)]
    a1 = mask_of(sigma[:m // 2])
    a2 = members & ~a1
    lower = (1.0 - 1.0 / (2.0 * math.log(max(uni.bit_count(), 3)))) * m / 4.0

    c1 = [(c & a1).bit_count() for c in components]
    c2 = [(c & a2).bit_count() for c in components]
    fam1 = [i for i in range(len(components)) if c1[i] >= c2[i]]
    fam2 = [i for i in range(len(components)) if c1[i] < c2[i]]
    mass1, mass2 = sum(c1[i] for i in fam1), sum(c2[i] for i in fam2)
    quarter = m / 4.0

    def grow(base, extra, weight):
        """(base grown by ``extra``'s components while its weight stays at
        most m/4, the rest); maximality gives the lower bound."""
        mass = sum(weight[i] for i in base)
        chosen, rest = [], []
        for i in extra:
            if mass + weight[i] <= quarter:
                chosen.append(i)
                mass += weight[i]
            else:
                rest.append(i)
        return sorted(base + chosen), rest

    if mass1 >= quarter and mass2 >= quarter:
        x_idx, y_idx = fam1, fam2
    elif mass1 < quarter:
        x_idx, y_idx = grow(fam1, fam2, c1)  # X grows with majority-A2 components
    else:
        y_idx, x_idx = grow(fam2, fam1, c2)  # Y grows with majority-A1 components
    x_family = tuple(components[i] for i in x_idx)
    y_family = tuple(components[i] for i in y_idx)
    return ComponentPartition(tuple(sigma), a1, a2, x_family, y_family,
                              reduce(or_, x_family, 0) & a1, reduce(or_, y_family, 0) & a2,
                              m, lower)


# ---------------------------------------------------------------------------
# 1-subdivisions


def transitive_chain(t: Tournament, universe: Optional[int] = None,
                     length: Optional[int] = None) -> List[int]:
    """Greedy transitive subtournament: repeatedly take a maximum-out-degree
    vertex (the lowest one among ties) and descend into its
    out-neighbourhood (at least log2 n long).

    With ``length``, the chain stops after that many picks.  A pick reads
    only the set the earlier picks left, so the first picks do not depend on
    later steps: the answer is the full chain's first ``length`` vertices,
    or the whole chain when it is shorter.

    Each pick is one ``universe_degrees`` count of the current set, and
    ``_onesub_base`` asks for at most k + C(k,2) <= 6 picks.  An unbounded
    chain on a near-transitive host makes hundreds of picks, each a fresh
    count (0.9 s on transitive(2000), 2 vCPUs); no program path asks for one.
    """
    cur = t.full_mask if universe is None else universe
    length = t.n if length is None else length
    chain = []
    while cur and len(chain) < length:
        vertices, degrees = universe_degrees(t, cur)
        v = vertices[degrees.index(max(degrees))]
        chain.append(v)
        cur &= t.out_mask(v)
    return chain


def find_one_subdivision(
    t: Tournament,
    k: int,
    params: Optional[FinderParams] = None,
) -> Union[Subdivision, FailureTrace]:
    """1-subdivision of the transitive tournament on k vertices: every
    pattern edge becomes a directed path of length exactly 2."""
    if k < 2:
        raise ValueError("k must be at least 2")
    params = (params or FinderParams(k=k)).rescaled(k)
    if params.paper_faithful and t.n < params.onesub_min_size:
        raise InfeasibleSize(
            f"{t.n} vertices is below the required {fixed(params.onesub_min_size, 0)}"
        )
    try:
        return _onesub_recurse(t, t.full_mask, k, params)
    except StageFailure as exc:
        return FailureTrace.from_error(exc)


def _onesub_base(t: Tournament, uni: int, k: int) -> Subdivision:
    """Place branch and internal vertices along a transitive chain.

    A 1-subdivision of T_k needs k + k(k-1)/2 chain vertices.  In chain
    order, branch vertex v - 1 is followed by the midpoints of the edges
    (u, v), u < v, at v(v+1)/2 + u, and then by branch vertex v at v(v+3)/2;
    every chain edge points forward, so each u -> mid -> v is a 2-path.
    Only those first ``need`` vertices are placed, and the chain's first
    picks do not depend on its later ones, so the chain is built only that
    far; a shorter one is the whole chain, whose length the failure reports.
    """
    need = k + k * (k - 1) // 2
    chain = transitive_chain(t, uni, need)
    if len(chain) < need:
        raise StageFailure(f"transitive chain of {len(chain)} < {need} vertices",
                           stage="base-transitive", n=uni.bit_count(), k=k)
    branch = tuple(chain[v * (v + 3) // 2] for v in range(k))
    pattern = pattern_transitive(k)
    paths = {(u, v): (chain[v * (v + 1) // 2 + u],) for u, v in pattern.edges}
    return Subdivision(pattern, branch, paths)


def _onesub_recurse(t: Tournament, uni: int, k: int, params: FinderParams) -> Subdivision:
    if k <= 3:
        return _onesub_base(t, uni, k)

    decomp = ball_decomposition(build_aux_graph(t, k, params, uni))
    verts = universe_degrees(t, uni)[0]  # the aux graph's listing, from the memo
    comps = [mask_of(map(verts.__getitem__, c)) for c in decomp.components]
    part = partition_components(t, comps, uni)

    k_first = -(-k // 2)  # ceil(k/2): top half of the degree order
    k_second = k // 2
    left, right = part.x_cap_a1, part.y_cap_a2
    if left.bit_count() < k_first or right.bit_count() < k_second:
        raise StageFailure("component split leaves a side too small", stage="recursion-size",
                           left=left.bit_count(), right=right.bit_count(), k=k)
    first = _onesub_recurse(t, left, k_first, params.rescaled(k_first))
    second = _onesub_recurse(t, right, k_second, params.rescaled(k_second))

    # Join: every cross pair gets a fresh midpoint from the whole universe.
    used = 0
    for sub in (first, second):
        used |= mask_of(sub.branch)
        used |= mask_of(w for internals in sub.paths.values() for w in internals)
    # Cross pairs sit in different aux-graph components with the first-half
    # vertex earlier in the degree order, so their 2-path candidate pool is
    # at least (threshold - 2) / 2 before exclusions.
    margin = (params.aux_threshold - 2) / 2

    def midpoint(u: int, v: int, hx: int, hy: int) -> Tuple[int]:
        nonlocal used
        pool = t.out_mask(hx) & t.in_mask(hy) & uni
        if pool.bit_count() < margin:
            raise RuntimeError(
                f"cross pair ({u},{v}) has {pool.bit_count()} midpoints, below the "
                f"guaranteed {float(margin):.1f}"
            )
        cands = pool & ~used
        if not cands:
            raise StageFailure(f"no free midpoint for cross pair ({u},{v})",
                               stage="cross-pair-exhaustion", x=hx, y=hy)
        z = (cands & -cands).bit_length() - 1
        used |= 1 << z
        return (z,)

    return _join(first, second, midpoint)
