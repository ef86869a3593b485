"""Constructive pipeline for complete-digraph subdivisions in tournaments.

The driver alternates three moves until it can finish: peel low out-degree
vertices, pick a degree-balanced branch set and greedily embed the needed
short paths (dichotomy: either enough paths embed or a structured cut
appears), and shrink each cut with Hall-violator repair until its expansion
into the source side is certified by a half-matching.  The certified cut
chain then supplies disjoint 3-paths for whatever pairs the greedy left over.

Everything operates on the root tournament via vertex bitmasks; witnesses
come out in root coordinates and are checked by ``subdivision.verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import Cut, Tournament, _try_short_path, bits_of, first_window, mask_of, universe_degrees
from .errors import (
    CutInvalid,
    FailureTrace,
    InfeasibleDegree,
    InsufficientOutNeighbours,
    StageFailure,
    TooSmall,
)
from .matching import HalfMatching, HallViolator, half_matching
from .params import FinderParams
from .subdivision import (
    PathWitness,
    PatternDigraph,
    Subdivision,
    pattern_complete_digraph,
)

__all__ = [
    "BalancedSet",
    "find_balanced_set",
    "GreedyPartial",
    "greedy_partial_subdivision",
    "maximize_len2",
    "derive_cut",
    "validate_cut",
    "minimize_cut",
    "peel_low_outdegree",
    "embed_via_cut_chain",
    "find_complete_subdivision",
    "find_complete_subdivision_ex",
    "find_digraph_subdivision",
    "find_digraph_subdivision_ex",
    "DEFAULT_DIGRAPH_DEGREE_FACTOR",
]

# Minimum-out-degree factor for general digraph patterns (delta+ >= C * edges).
# The source only asserts existence of such a constant; this default is a
# deliberately generous engineering choice, not a derived value.
DEFAULT_DIGRAPH_DEGREE_FACTOR = 8


# ---------------------------------------------------------------------------
# balanced branch sets


@dataclass(frozen=True)
class BalancedSet:
    """k vertices whose in-degrees sit in one pigeonhole window above the
    alpha-dependent floor."""

    vertices: Tuple[int, ...]
    m: int
    alpha: Fraction
    slack: Fraction
    window: Tuple[int, int]


def find_balanced_set(
    t: Tournament,
    params: FinderParams,
    universe: Optional[int] = None,
) -> BalancedSet:
    """Pigeonhole a width-slack in-degree window holding k vertices, lowest
    window first, lowest vertex indices within it."""
    uni = t.full_mask if universe is None else universe
    size = uni.bit_count()
    k = params.k
    alpha = params.alpha_for(size)
    if alpha < 1:
        raise TooSmall(
            f"size {size} gives alpha {float(alpha):.3f} < 1 "
            f"(need at least {float(params.balanced_min_size):.1f})",
            stage="balanced-set", universe=size,
        )
    # An integer reaches a rational exactly when it reaches its ceiling.
    floor = math.ceil(params.deg_floor(alpha))
    width = params.window_width
    vertices, out_degrees = universe_degrees(t, uni)
    in_degrees = [size - 1 - d for d in out_degrees]
    reach = sum(d >= floor for d in in_degrees)
    if reach < k:
        raise TooSmall(f"only {reach} vertices reach the in-degree floor",
                       stage="balanced-set", universe=size)
    window = first_window(vertices, in_degrees, max(0, floor), width, k)
    if window is None:
        raise TooSmall(f"no width-{width} in-degree window holds {k} vertices",
                       stage="balanced-set", universe=size)
    start, chosen = window
    chosen_degrees = [size - 1 - (t.out_mask(v) & uni).bit_count() for v in chosen]
    dmin, dmax = min(chosen_degrees), max(chosen_degrees)
    return BalancedSet(
        vertices=tuple(chosen),
        m=(dmin + dmax) // 2,
        alpha=alpha,
        slack=params.slack,
        window=(start, start + width - 1),
    )


# ---------------------------------------------------------------------------
# greedy embedding and the dichotomy


@dataclass
class GreedyPartial:
    """Mutable embedding state over a fixed branch set.

    ``paths`` maps host pairs (x, y) to internal-vertex tuples of the
    embedded x -> y path; direct edges of the branch set are implicit.
    """

    universe: int
    branch: Tuple[int, ...]
    paths: Dict[Tuple[int, int], Tuple[int, ...]] = field(default_factory=dict)
    used: int = 0
    swaps: int = 0

    def __post_init__(self):
        if not self.used:
            self.used = mask_of(self.branch)

    @property
    def l1(self) -> int:
        return sum(1 for p in self.paths.values() if len(p) == 1)

    @property
    def l2(self) -> int:
        return sum(1 for p in self.paths.values() if len(p) == 2)

    def avail(self) -> int:
        return self.universe & ~self.used


def maximize_len2(
    t: Tournament,
    state: GreedyPartial,
    failed: Tuple[int, int],
) -> bool:
    """One exchange round for a stuck pair: if some z in N+(x) & N-(y) sits
    inside an embedded 3-path whose own pair re-embeds without z, reroute
    that pair and embed (x, y) as the 2-path x-z-y.

    Mutates ``state`` and returns True iff the stuck pair got embedded; each
    success strictly increases the number of 2-paths, so the driver's
    fail/retry loop terminates.
    """
    x, y = failed
    w_all = t.out_mask(x) & t.in_mask(y) & state.universe
    for z in bits_of(w_all):
        owner = None
        for pair, internals in state.paths.items():
            if len(internals) == 2 and z in internals:
                owner = pair
                break
        if owner is None:
            continue
        old = state.paths[owner]
        used_wo = state.used & ~mask_of(old)
        re_avail = state.universe & ~used_wo & ~(1 << z)
        redo = _try_short_path(t, owner[0], owner[1], re_avail)
        if redo is None:
            continue
        state.paths[failed] = (z,)
        state.paths[owner] = redo
        state.used = used_wo | (1 << z) | mask_of(redo)
        state.swaps += 1
        return True
    return False


def _needed_pairs(
    t: Tournament, pattern: PatternDigraph, branch: Sequence[int]
) -> List[Tuple[int, int]]:
    """Host pairs requiring a genuine path: pattern edges whose host
    orientation points the wrong way."""
    b = tuple(sorted(branch))
    need = set()
    for u, v in pattern.edges:
        hu, hv = b[u], b[v]
        if not t.has_edge(hu, hv):
            need.add((hu, hv))
    return sorted(need)


def greedy_partial_subdivision(
    t: Tournament,
    balanced: BalancedSet,
    params: FinderParams,
    pairs: Optional[List[Tuple[int, int]]] = None,
    universe: Optional[int] = None,
) -> Tuple[GreedyPartial, Optional[Cut]]:
    """Embed needed pairs one at a time as 2-paths (preferred) or 3-paths.

    On a stuck pair, run the 2-path-maximizing exchange to a fixpoint; at a
    genuine fixpoint either the partial is already large enough
    (4(l1+l2) + 6*slack > m) or the stuck pair yields a disconnecting cut
    whose source side is big.  May raise CutInvalid under scaled parameters.

    Returns (state, cut): ``cut`` is None when every pair embedded or the
    partial is large enough, else the stuck pair's validated cut.
    Paths stay inside ``universe`` (default: the whole host); ``pairs``
    defaults to the pairs the complete pattern needs on the branch set.
    """
    universe = t.full_mask if universe is None else universe
    branch = tuple(sorted(balanced.vertices))
    if mask_of(branch) & ~universe:
        raise ValueError("branch vertices must lie inside the universe")
    if pairs is None:
        pairs = _needed_pairs(t, pattern_complete_digraph(len(branch)), branch)
    todo = sorted(pairs)
    state = GreedyPartial(universe=universe, branch=branch)

    swap_cap = len(todo) + 1
    idx = 0
    while idx < len(todo):
        x, y = todo[idx]
        found = _try_short_path(t, x, y, state.avail())
        if found is not None:
            state.paths[(x, y)] = found
            state.used |= mask_of(found)
            idx += 1
            continue
        if state.swaps >= swap_cap:
            raise RuntimeError("exchange loop exceeded its l1 potential bound")
        if maximize_len2(t, state, (x, y)):
            idx += 1
            continue
        # Fixpoint with a genuinely stuck pair: dichotomy.
        if 4 * (state.l1 + state.l2) + 6 * params.slack > balanced.m:
            return state, None
        cut = derive_cut(t, state, (x, y))
        validate_cut(cut, params.k)
        return state, cut
    return state, None


# ---------------------------------------------------------------------------
# cut derivation and Hall-violator repair


def derive_cut(t: Tournament, state: GreedyPartial, failed: Tuple[int, int]) -> Cut:
    """The stuck-pair cut: U = V(partial) + (N-(x) minus N-(y)), source
    N-(y) minus U, sink N+(x) minus V(partial), inside the working universe."""
    x, y = failed
    uni = state.universe
    vs = state.used  # branch plus internals
    u_mask = (vs | (t.in_mask(x) & ~t.in_mask(y))) & uni
    s_mask = t.in_mask(y) & uni & ~u_mask
    sink_mask = t.out_mask(x) & uni & ~vs
    if (u_mask | s_mask | sink_mask) != uni or (u_mask & s_mask) or (s_mask & sink_mask) or (u_mask & sink_mask):
        raise RuntimeError("cut sets do not partition the universe; greedy failure was not genuine")
    for s in bits_of(s_mask):
        if sink_mask & ~t.out_mask(s):
            raise RuntimeError(f"edge into source vertex {s} from the sink side")
    return Cut(cut=u_mask, source=s_mask, sink=sink_mask)


def validate_cut(cut: Cut, k: int) -> None:
    """Size requirements from the dichotomy: |S| >= |U| + k and sink >= k."""
    ns, nu, nw = cut.source.bit_count(), cut.cut.bit_count(), cut.sink.bit_count()
    if ns < nu + k:
        raise CutInvalid("source smaller than cut + k", ns, nu, nw)
    if nw < k:
        raise CutInvalid("sink smaller than k", ns, nu, nw)


def minimize_cut(t: Tournament, cut: Cut) -> Cut:
    """Shrink (U, S) by the violator replacement until the half-matching
    certificate succeeds; returns the cut with its certificate.

    Each failed certificate yields X with |N+(X) & S| < |X|/2; replacing U by
    (U minus X) + (N+(X) & S) and S by S minus N+(X) strictly shrinks U while
    keeping |S| >= |U| and growing the sink by X, so the loop terminates.

    The sink needs no size check here: the driver repairs only cuts that
    passed ``validate_cut`` (sink of at least k vertices), its lift to the
    working universe adds the peeled vertices to U and leaves the sink as it
    was, and the repair only grows the sink.
    """
    u, s = cut.cut, cut.source
    for _ in range(u.bit_count() + s.bit_count() + 1):
        res = half_matching(t.out_mask, u, s)
        if isinstance(res, HalfMatching):
            rest = (cut.cut | cut.source | cut.sink) & ~u & ~s
            for v in bits_of(s):
                if rest & ~t.out_mask(v):
                    raise RuntimeError(f"repair broke the source orientation at vertex {v}")
            return Cut(cut=u, source=s, sink=rest, m_prime=res.first, m_dprime=res.second)
        assert isinstance(res, HallViolator)
        x, nx = res.vertices, 0
        for v in bits_of(x):
            nx |= t.out_mask(v) & s
        new_u = (u & ~x) | nx
        if new_u.bit_count() >= u.bit_count():
            raise RuntimeError("violator replacement failed to shrink the cut")
        u = new_u
        s &= ~nx
        if s.bit_count() < u.bit_count():
            raise RuntimeError("repair broke the |S| >= |U| invariant")
    raise RuntimeError("cut repair exceeded its potential bound")


# ---------------------------------------------------------------------------
# peeling and the cut chain


def peel_low_outdegree(
    t: Tournament,
    params: FinderParams,
    universe: Optional[int] = None,
) -> Tuple[List[int], int]:
    """Repeatedly remove a vertex of out-degree below the peel threshold in
    the current subtournament (minimum degree first, then lowest index),
    stopping at k removals; returns (peeled, remaining-mask)."""
    cur = t.full_mask if universe is None else universe
    if cur >> t.n:
        raise ValueError("the universe must lie inside the host")
    peeled: List[int] = []
    thr = math.ceil(params.peel_threshold)  # exact for the integer degrees
    while len(peeled) < params.k and cur:
        vertices, degrees = universe_degrees(t, cur)
        d, v = min(zip(degrees, vertices))
        if d >= thr:
            break
        peeled.append(v)
        cur &= ~(1 << v)
    return peeled, cur


def embed_via_cut_chain(
    t: Tournament,
    pairs: Sequence[Tuple[int, int]],
    chain: Sequence[Cut],
) -> List[PathWitness]:
    """Internally disjoint 3-paths x -> u -> s -> y for the given branch
    pairs, routing through the certified cuts of the chain.

    Requires every pair source to have at least 2*len(pairs) out-neighbours
    in the union of the stage cuts.
    """
    ell = len(pairs)
    if ell == 0:
        return []
    u_all = 0
    u1_mask = 0
    u2_mask = 0
    m1: Dict[int, int] = {}
    m2: Dict[int, int] = {}
    for st in chain:
        u_all |= st.cut
        u1_mask |= mask_of(st.m_prime)
        u2_mask |= mask_of(st.m_dprime)
        m1.update(st.m_prime)
        m2.update(st.m_dprime)

    nbr = {}
    for x, _ in pairs:
        if x in nbr:
            continue
        nbr[x] = t.out_mask(x) & u_all
        have = nbr[x].bit_count()
        if have < 2 * ell:
            raise InsufficientOutNeighbours(x, have, 2 * ell)

    first = [j for j in range(ell) if (nbr[pairs[j][0]] & u1_mask).bit_count() >= ell]
    second = [j for j in range(ell) if j not in first]

    witnesses: Dict[int, PathWitness] = {}
    taken = 0
    s_used = set()
    for name, half, u_mask, m in (("first", first, u1_mask, m1), ("second", second, u2_mask, m2)):
        # Partners of sources the first half already took (none at its start).
        blocked = mask_of(u for u, s in m.items() if s in s_used)
        for j in half:
            x, y = pairs[j]
            cands = nbr[x] & u_mask & ~taken & ~blocked
            if not cands:
                raise RuntimeError(f"distinct-representative pick ran dry on the {name} half")
            u = (cands & -cands).bit_length() - 1
            taken |= 1 << u
            s = m[u]
            if s in s_used:
                raise RuntimeError("source vertex reused across matching halves")
            s_used.add(s)
            witnesses[j] = PathWitness(x, y, (u, s))
    return [witnesses[j] for j in range(ell)]


# ---------------------------------------------------------------------------
# drivers


def _assemble(
    t: Tournament,
    pattern: PatternDigraph,
    branch: Tuple[int, ...],
    path_map: Dict[Tuple[int, int], Tuple[int, ...]],
) -> Subdivision:
    paths = {}
    for u, v in pattern.edges:
        hu, hv = branch[u], branch[v]
        if (hu, hv) in path_map:
            paths[(u, v)] = PathWitness(hu, hv, path_map[(hu, hv)])
        elif t.has_edge(hu, hv):
            paths[(u, v)] = PathWitness(hu, hv, ())
        else:
            raise RuntimeError(f"no path and no direct edge for pattern edge ({u},{v})")
    return Subdivision(pattern=pattern, branch=branch, paths=paths)


def _directed_triangle(t: Tournament) -> Optional[Tuple[int, int, int]]:
    for a in t.vertices():
        for b in bits_of(t.out_mask(a)):
            w = t.out_mask(b) & t.in_mask(a)
            if w:
                return (a, b, (w & -w).bit_length() - 1)
    return None


def _run_pattern_driver(
    t: Tournament,
    pattern: PatternDigraph,
    params: FinderParams,
) -> Tuple[Union[Subdivision, FailureTrace], Tuple[Cut, ...]]:
    """Shared driver: returns (outcome, certified cut chain).  A stage
    failure propagates at scale 1 and becomes the run's FailureTrace on a
    scaled run; the cuts certified before it are still returned."""
    chain: List[Cut] = []
    try:
        outcome = _embed_pattern(t, pattern, params, chain)
    except StageFailure as exc:
        if params.paper_faithful:
            raise
        outcome = FailureTrace.from_error(exc)
    return outcome, tuple(chain)


def _embed_pattern(
    t: Tournament,
    pattern: PatternDigraph,
    params: FinderParams,
    chain: List[Cut],
) -> Subdivision:
    """Branch-set search, dichotomy, cut chain, completion.  Appends each
    certified cut to ``chain`` as it is made."""
    k = pattern.k
    universe = t.full_mask

    for _round in range(t.n + 1):
        uni_size = universe.bit_count()
        if uni_size < k:
            raise TooSmall("working tournament shrank below k", stage="iterate", size=uni_size)
        peeled, kept = peel_low_outdegree(t, params, universe)
        if len(peeled) == k:
            # Terminal: k low-out-degree vertices become the branch set and
            # every needed pair routes through the cut chain.
            branch, path_map = tuple(sorted(peeled)), {}
            break

        balanced = find_balanced_set(t, params, kept)
        state, cut = greedy_partial_subdivision(
            t, balanced, params, _needed_pairs(t, pattern, balanced.vertices), universe=kept)
        if cut is None:
            branch, path_map = state.branch, state.paths
            break

        # Lift the cut from the peeled subtournament back to the full working
        # universe: peeled leftovers join the cut side.
        certified = minimize_cut(t, replace(cut, cut=cut.cut | mask_of(peeled)))
        chain.append(certified)
        next_universe = universe & ~certified.cut & ~certified.source
        if next_universe.bit_count() >= universe.bit_count():
            raise RuntimeError("cut stage failed to shrink the working tournament")
        universe = next_universe
    else:
        raise RuntimeError("stage iteration exceeded the vertex-count bound")

    # Pairs the greedy left over (all of them after a low-out-degree peel)
    # route through the cut chain.
    remaining = [p for p in _needed_pairs(t, pattern, branch) if p not in path_map]
    if remaining:
        for w in embed_via_cut_chain(t, remaining, chain):
            path_map[(w.from_v, w.to_v)] = w.internals
    return _assemble(t, pattern, branch, path_map)


def find_complete_subdivision(
    t: Tournament,
    k: int,
    params: Optional[FinderParams] = None,
) -> Union[Subdivision, FailureTrace]:
    outcome, _ = find_complete_subdivision_ex(t, k, params)
    return outcome


def find_complete_subdivision_ex(
    t: Tournament,
    k: int,
    params: Optional[FinderParams] = None,
) -> Tuple[Union[Subdivision, FailureTrace], Tuple[Cut, ...]]:
    """Complete-digraph subdivision with every path of length at most 3 and
    every edge subdivided at most twice; also returns the certified cut
    chain, for certification tests and sweeps."""
    if k < 2:
        raise ValueError("k must be at least 2")
    params = (params or FinderParams(k=k)).rescaled(k)
    min_out = min(universe_degrees(t, t.full_mask)[1], default=0)

    if k == 2:
        # A single directed cycle is the whole job; delta+ >= 1 forces a
        # directed triangle.
        if min_out < 1:
            raise InfeasibleDegree("k=2 needs minimum out-degree at least 1")
        tri = _directed_triangle(t)
        if tri is None:
            raise RuntimeError("delta+ >= 1 tournament without a directed triangle")
        a, b, c = tri
        # a -> b is an edge of the triangle; b -> c -> a covers the return.
        branch = (a, b) if a < b else (b, a)
        return _assemble(t, pattern_complete_digraph(2), branch, {(b, a): (c,)}), ()

    if params.paper_faithful and min_out < params.min_out_degree:
        raise InfeasibleDegree(
            f"minimum out-degree {min_out} is below the required "
            f"{float(params.min_out_degree):.1f}"
        )
    return _run_pattern_driver(t, pattern_complete_digraph(k), params)


def find_digraph_subdivision(
    t: Tournament,
    pattern: PatternDigraph,
    params: Optional[FinderParams] = None,
) -> Union[Subdivision, FailureTrace]:
    outcome, _ = find_digraph_subdivision_ex(t, pattern, params)
    return outcome


def find_digraph_subdivision_ex(
    t: Tournament,
    pattern: PatternDigraph,
    params: Optional[FinderParams] = None,
) -> Tuple[Union[Subdivision, FailureTrace], Tuple[Cut, ...]]:
    """Same driver generalized to an arbitrary pattern digraph: only the
    pattern's edges are embedded, each subdivided at most twice."""
    if pattern.isolated_vertices():
        raise ValueError(f"pattern has isolated vertices: {sorted(pattern.isolated_vertices())}")
    params = (params or FinderParams(k=pattern.k)).rescaled(pattern.k)
    if pattern.k == 2 and len(pattern.edges) == 1 and t.n >= 2:
        # A single pattern edge is just a host edge.
        (u, v) = pattern.edges[0]
        a, b = (0, 1) if t.has_edge(0, 1) else (1, 0)
        branch = [0, 0]
        branch[u], branch[v] = a, b
        return _assemble(t, pattern, tuple(branch), {}), ()
    min_out = min(universe_degrees(t, t.full_mask)[1], default=0)
    factor = DEFAULT_DIGRAPH_DEGREE_FACTOR
    if params.paper_faithful and min_out < factor * len(pattern.edges):
        raise InfeasibleDegree(
            f"minimum out-degree {min_out} below {factor} * {len(pattern.edges)} edges"
        )
    return _run_pattern_driver(t, pattern, params)
