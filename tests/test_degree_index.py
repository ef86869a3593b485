"""The universe degree lists, the degree-indexed aux graph, the bucket-queue
transitive chain, the shared degree-window pigeonhole, the ratio set and
the component partition against the implementations they replaced.

The reference functions below are the per-bit degree loop, the per-pair aux
graph, the rescanning chain, the two window loops that rescanned every
degree once per window, the ratio set's chained comparisons, and the
component partition with list membership.  Each new routine must return
exactly what its reference returns: the same vertices and degrees, the same
adjacency lists in the same order, the same chain, the same branch set or
the same ``TooSmall``, the same sides, the same families.
"""

import math
import random
from fractions import Fraction

import pytest
from conftest import adjacency
from hypothesis import given, settings
from hypothesis import strategies as st

from toursub import transitive_finder
from toursub.complete_finder import BalancedSet, find_balanced_set
from toursub.core import (
    bits_of,
    first_window,
    mask_of,
    rotational_tournament,
    transitive_tournament,
    universe_degrees,
)
from toursub.errors import TooSmall
from toursub.experiments import SWEEP_KINDS, build_host, sweep
from toursub.params import FinderParams
from toursub.transitive_finder import (
    DEGREE_WINDOW_FACTOR,
    RATIO_BOUND,
    NearlyRegularSet,
    _ratio_set,
    build_aux_graph,
    find_nearly_regular,
    find_nearly_regular_k,
    partition_components,
    transitive_chain,
)

# --- references --------------------------------------------------------------


def reference_universe_degrees(t, uni):
    return [(v, (t.out_mask(v) & uni).bit_count()) for v in bits_of(uni)]


def reference_ratio_set(t, uni):
    n = uni.bit_count()
    out_side, in_side = [], []
    for v in bits_of(uni):
        dp = (t.out_mask(v) & uni).bit_count()
        dm = n - 1 - dp
        if dp == 0 or dm == 0:
            continue
        if dm <= dp <= RATIO_BOUND * dm:
            out_side.append(v)
        if dp <= dm <= RATIO_BOUND * dp:
            in_side.append(v)
    return out_side, in_side


def reference_aux_graph(t, k, params):
    threshold = math.ceil(params.aux_threshold)
    rows = [t.out_mask(v) for v in t.vertices()]
    return adjacency(t.n, [(x, y) for x in range(t.n) for y in range(x + 1, t.n)
                           if (rows[x] ^ rows[y]).bit_count() < threshold])


def reference_chain(t, universe=None):
    cur = t.full_mask if universe is None else universe
    chain = []
    while cur:
        best = None
        for v in bits_of(cur):
            d = (t.out_mask(v) & cur).bit_count()
            if best is None or d > best[0]:
                best = (d, v)
        chain.append(best[1])
        cur &= t.out_mask(best[1])
    return chain


def reference_balanced_set(t, params, universe=None):
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
    floor = math.ceil(params.deg_floor(alpha))
    width = params.window_width
    degs = {}
    for v in bits_of(uni):
        d = (t.in_mask(v) & uni).bit_count()
        if d >= floor:
            degs[v] = d
    if len(degs) < k:
        raise TooSmall(f"only {len(degs)} vertices reach the in-degree floor",
                       stage="balanced-set", universe=size)
    top = max(degs.values())
    start = max(0, floor)
    while start <= top:
        members = sorted(v for v, d in degs.items() if start <= d < start + width)
        if len(members) >= k:
            chosen = tuple(members[:k])
            dmin = min(degs[v] for v in chosen)
            dmax = max(degs[v] for v in chosen)
            return BalancedSet(
                vertices=chosen,
                m=(dmin + dmax) // 2,
                alpha=alpha,
                slack=params.slack,
                window=(start, start + width - 1),
            )
        start += width
    raise TooSmall(f"no width-{width} in-degree window holds {k} vertices",
                   stage="balanced-set", universe=size)


def reference_nearly_regular_k(t, k):
    if k < 1:
        raise ValueError("k must be positive")
    if t.n < DEGREE_WINDOW_FACTOR * k:
        raise TooSmall(f"need at least {DEGREE_WINDOW_FACTOR * k} vertices for k={k}",
                       stage="nearly-regular")
    base_set = transitive_finder.find_nearly_regular(t)
    width = DEGREE_WINDOW_FACTOR * k
    start = 0
    while start < t.n:
        members = [v for v in base_set.vertices if start <= t.n - 1 - t.out_degree(v) < start + width]
        if len(members) >= k:
            return NearlyRegularSet(
                vertices=tuple(sorted(members)[:k]),
                ratio_bound=base_set.ratio_bound,
                side=base_set.side,
                m=start + width // 2,
            )
        start += width
    raise TooSmall(f"no width-{width} in-degree window holds {k} nearly-regular vertices",
                   stage="nearly-regular")


def reference_partition(t, components):
    """The component partition as it was, with ``in`` tests on lists;
    returns the families as index lists (x side, y side)."""
    comp_list = [sorted(c) for c in components]
    members = sorted(v for c in comp_list for v in c)
    m = len(members)
    sigma = sorted(members, key=lambda v: (-t.out_degree(v), v))
    a1 = frozenset(sigma[:len(sigma) // 2])
    c1 = [len(a1.intersection(c)) for c in comp_list]
    c2 = [len(c) - c1[i] for i, c in enumerate(comp_list)]
    fam1 = [i for i in range(len(comp_list)) if 2 * c1[i] >= len(comp_list[i])]
    fam2 = [i for i in range(len(comp_list)) if i not in fam1]
    mass1 = sum(c1[i] for i in fam1)
    mass2 = sum(c2[i] for i in fam2)
    quarter = m / 4.0
    if mass1 >= quarter and mass2 >= quarter:
        return "balanced", fam1, fam2
    if mass1 < quarter:
        chosen = []
        mass = mass1
        for i in fam2:
            if mass + c1[i] <= quarter:
                chosen.append(i)
                mass += c1[i]
        return "grow-x", fam1 + chosen, [i for i in fam2 if i not in chosen]
    chosen = []
    mass = mass2
    for i in fam1:
        if mass + c2[i] <= quarter:
            chosen.append(i)
            mass += c2[i]
    return "grow-y", [i for i in fam1 if i not in chosen], fam2 + chosen


def reference_first_window(degrees, start, width, k):
    """Scan the windows from ``start`` up, rescanning every degree."""
    top = max(degrees.values(), default=start - 1)
    lo = start
    while lo <= top:
        members = sorted(v for v, d in degrees.items() if lo <= d < lo + width)
        if len(members) >= k:
            return lo, members[:k]
        lo += width
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except TooSmall as exc:
        return ("TooSmall", str(exc), exc.stage, exc.details)


# --- strategies --------------------------------------------------------------

HOST_KINDS = SWEEP_KINDS + ("transitive",)


def make_host(kind, n, seed):
    return transitive_tournament(n) if kind == "transitive" else build_host(kind, n, seed)


@st.composite
def hosts(draw, min_n=1, max_n=200):
    return make_host(draw(st.sampled_from(HOST_KINDS)), draw(st.integers(min_n, max_n)),
                     draw(st.integers(0, 2**16)))


@st.composite
def universes(draw, t):
    """None (the whole host), the empty set, one vertex, or a random subset
    of a drawn density."""
    shape = draw(st.sampled_from(["none", "empty", "single", "subset", "subset"]))
    if shape == "none":
        return None
    if shape == "empty":
        return 0
    if shape == "single":
        return 1 << draw(st.integers(0, t.n - 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    keep = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return sum(1 << v for v in t.vertices() if rng.random() < keep)


# Symmetric-difference thresholds 1..6 as integers (2 and 3 are the parity
# boundary for equal-degree pairs) and just above an integer, plus a few
# larger ones that compare many degree buckets.
@st.composite
def aux_params(draw):
    k = draw(st.integers(1, 6))
    ceiling = draw(st.one_of(st.integers(1, 6), st.integers(1, 6), st.integers(7, 40)))
    below = draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3),
                                  Fraction(1, 2), Fraction(99, 100)]))
    params = FinderParams(k, (ceiling - below) / (2 * k * k))
    assert math.ceil(params.aux_threshold) == ceiling
    return k, params


# --- universe degrees --------------------------------------------------------


@st.composite
def degree_universes(draw, t):
    """The empty set, one vertex, the whole host, or a random subset that
    always holds the host's top vertex (the leading bit of ``bin``)."""
    shape = draw(st.sampled_from(["empty", "single", "full", "subset", "subset"]))
    if shape == "empty":
        return 0
    if shape == "single":
        return 1 << draw(st.integers(0, t.n - 1))
    if shape == "full":
        return t.full_mask
    rng = random.Random(draw(st.integers(0, 2**32)))
    keep = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return mask_of(v for v in t.vertices() if rng.random() < keep) | 1 << (t.n - 1)


@given(hosts(max_n=300).flatmap(lambda t: st.tuples(st.just(t), degree_universes(t))))
@settings(max_examples=400, deadline=None)
def test_universe_degrees_matches_per_bit_reference(t_universe):
    t, uni = t_universe
    vertices, degrees = universe_degrees(t, uni)
    assert list(zip(vertices, degrees)) == reference_universe_degrees(t, uni)
    assert len(vertices) == len(degrees) == uni.bit_count()


def test_universe_degrees_small_cases():
    t = transitive_tournament(70)  # out-degree of v is 69 - v
    assert universe_degrees(t, 0) == ([], [])
    assert universe_degrees(t, 1) == ([0], [0])
    assert universe_degrees(t, 1 << 69) == ([69], [0])
    assert universe_degrees(t, t.full_mask) == (list(range(70)), list(range(69, -1, -1)))
    assert universe_degrees(t, 1 << 64 | 1 << 63 | 1) == ([0, 63, 64], [2, 1, 0])


# --- ratio set ---------------------------------------------------------------


@given(hosts(max_n=300).flatmap(lambda t: st.tuples(st.just(t), degree_universes(t))))
@settings(max_examples=300, deadline=None)
def test_ratio_set_matches_chained_comparison_reference(t_universe):
    # The ranges of d+ must cut where the chained comparisons do, for every
    # universe size: the small ones put the ends at d+ = 0 and d- = 0.
    t, uni = t_universe
    assert _ratio_set(t, uni) == reference_ratio_set(t, uni)


def test_ratio_set_on_every_transitive_size():
    # A transitive host has every out-degree 0..n-1 once, so each size
    # checks each value of d+.
    for n in range(1, 120):
        t = transitive_tournament(n)
        assert _ratio_set(t, t.full_mask) == reference_ratio_set(t, t.full_mask)


# --- aux graph ---------------------------------------------------------------


@given(hosts(), aux_params())
@settings(max_examples=300, deadline=None)
def test_aux_graph_matches_per_pair_reference(t, k_params):
    k, params = k_params
    assert build_aux_graph(t, k, params) == reference_aux_graph(t, k, params)


@pytest.mark.parametrize("kind", HOST_KINDS)
@pytest.mark.parametrize("threshold", [Fraction(3, 2), 2, Fraction(5, 2), 3, Fraction(7, 2)])
def test_aux_graph_at_the_parity_boundary(kind, threshold):
    # A threshold in (1, 2] joins only pairs whose difference is 1, so their
    # degrees are one apart; from ceiling 3 on, equal-degree pairs may join.
    # The sweep's k=4 at scale 1/16 has threshold exactly 2.
    k = 4
    params = FinderParams(k, Fraction(threshold) / (2 * k * k))
    for n, seed in [(61, 1), (200, 2)]:
        t = make_host(kind, n, seed)
        g = build_aux_graph(t, k, params)
        assert g == reference_aux_graph(t, k, params)
        if math.ceil(threshold) == 2:
            # |N+x ^ N+y| = 1: the degrees differ by exactly one.
            assert all(abs(t.out_degree(x) - t.out_degree(y)) == 1
                       for x in t.vertices() for y in g[x])


def test_aux_graph_on_rotational_host_at_sweep_threshold_is_empty():
    # Every pair of a regular host has equal degrees, hence a difference >= 2.
    g = build_aux_graph(rotational_tournament(421), 4, FinderParams(4, Fraction(1, 16)))
    assert all(not nbrs for nbrs in g)


# --- transitive chain --------------------------------------------------------


@given(hosts().flatmap(lambda t: st.tuples(st.just(t), universes(t))))
@settings(max_examples=300, deadline=None)
def test_chain_matches_rescanning_reference(t_universe):
    t, universe = t_universe
    assert transitive_chain(t, universe) == reference_chain(t, universe)


@pytest.mark.parametrize("kind", HOST_KINDS)
def test_chain_on_sweep_sized_hosts(kind):
    # Stacked, rotational and blow-up hosts of sweep size give chains of
    # hundreds of vertices; random ones descend in a few halvings.
    for n, seed in [(420, 43), (560, 44)]:
        t = make_host(kind, n, seed)
        assert transitive_chain(t) == reference_chain(t)


def test_chain_small_cases():
    t = transitive_tournament(30)
    assert transitive_chain(t) == reference_chain(t) == list(range(30))
    assert transitive_chain(t, 0) == []
    assert transitive_chain(t, 1 << 17) == [17]
    one = transitive_tournament(1)
    assert transitive_chain(one) == reference_chain(one) == [0]


# --- degree windows ----------------------------------------------------------


@given(st.dictionaries(st.integers(0, 60), st.integers(0, 40), max_size=40),
       st.integers(0, 20), st.integers(1, 12), st.integers(1, 6))
@settings(max_examples=500, deadline=None)
def test_first_window_matches_rescanning_reference(degrees, start, width, k):
    vertices = sorted(degrees)
    assert first_window(vertices, [degrees[v] for v in vertices], start, width, k) == \
        reference_first_window(degrees, start, width, k)


SCALES = [Fraction(1, 96), Fraction(1, 16), Fraction(1, 8), Fraction(3, 7), Fraction(1, 2), Fraction(1)]


@given(hosts(max_n=160).flatmap(lambda t: st.tuples(st.just(t), universes(t))),
       st.integers(2, 5), st.sampled_from(SCALES))
@settings(max_examples=300, deadline=None)
def test_balanced_set_matches_window_loop_reference(t_universe, k, scale):
    t, universe = t_universe
    params = FinderParams(k, scale)
    assert outcome(find_balanced_set, t, params, universe) == \
        outcome(reference_balanced_set, t, params, universe)


def test_balanced_set_no_window_is_too_small():
    # Transitive in-degrees are all distinct, so width-1 windows hold one
    # vertex each.
    t = transitive_tournament(80)
    params = FinderParams(3, Fraction(1, 96))
    assert params.window_width == 1
    expected = ("TooSmall", "no width-1 in-degree window holds 3 vertices",
                "balanced-set", {"universe": 80})
    assert outcome(find_balanced_set, t, params) == expected
    assert outcome(reference_balanced_set, t, params) == expected


@given(hosts(), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_nearly_regular_k_matches_window_loop_reference(t, k):
    assert outcome(find_nearly_regular_k, t, k) == outcome(reference_nearly_regular_k, t, k)


def test_nearly_regular_k_no_window_is_too_small(monkeypatch):
    # From a real host the pigeonhole always finds a window: the larger side
    # of the ratio set holds n/10 vertices inside a 0.3 n in-degree span.  A
    # base set spread one vertex per width-20 window reaches the other path.
    t = transitive_tournament(100)  # in-degree of v is v
    spread = NearlyRegularSet(tuple(range(0, 100, 20)), 4, "out")
    monkeypatch.setattr(transitive_finder, "find_nearly_regular",
                        lambda _t, _universe=None: spread)
    expected = ("TooSmall", "no width-20 in-degree window holds 2 nearly-regular vertices",
                "nearly-regular", {})
    assert outcome(find_nearly_regular_k, t, 2) == expected
    assert outcome(reference_nearly_regular_k, t, 2) == expected
    monkeypatch.undo()
    assert find_nearly_regular(t) != spread


# --- component partition -----------------------------------------------------


@st.composite
def component_lists(draw, t):
    """Disjoint non-empty vertex lists over a random subset of the host."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    vertices = [v for v in t.vertices() if rng.random() < 0.8] or [0]
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, len(vertices)), min(len(vertices) - 1,
                                                          draw(st.integers(0, 30)))))
    bounds = [0] + cuts + [len(vertices)]
    return [vertices[a:b] for a, b in zip(bounds, bounds[1:])]


def assert_same_partition(t, components):
    part = partition_components(t, [mask_of(c) for c in components])
    _, x_idx, y_idx = reference_partition(t, components)
    comp_list = [sorted(c) for c in components]
    assert part.x_family == tuple(mask_of(comp_list[i]) for i in sorted(x_idx))
    assert part.y_family == tuple(mask_of(comp_list[i]) for i in sorted(y_idx))
    assert part.x_cap_a1 == mask_of(v for i in x_idx for v in comp_list[i] if part.a1 >> v & 1)
    assert part.y_cap_a2 == mask_of(v for i in y_idx for v in comp_list[i] if part.a2 >> v & 1)


@given(hosts(min_n=2, max_n=120).flatmap(lambda t: st.tuples(st.just(t), component_lists(t))))
@settings(max_examples=300, deadline=None)
def test_partition_matches_list_membership_reference(t_components):
    assert_same_partition(*t_components)


def test_partition_reference_cases_cover_every_branch():
    # Hand-made components reaching each branch of the partition.
    t = transitive_tournament(12)  # out-degree order 0, 1, ..., 11: A1 = {0..5}
    cases = {
        "balanced": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]],
        "grow-x": [[0, 1, 6, 7, 8], [2, 3, 9, 10, 11], [4], [5]],
        "grow-y": [[6, 7, 0, 1, 2], [8, 9, 3, 4, 5], [10], [11]],
    }
    for branch, comps in cases.items():
        assert reference_partition(t, comps)[0] == branch
        assert_same_partition(t, comps)


def test_partition_grows_a_side_up_to_exactly_m_over_4():
    # m = 12, so a side may grow to an A1 (or A2) mass of exactly 3.
    t = transitive_tournament(12)  # A1 = {0..5}
    cases = {
        "grow-x": ([[0, 1], [2, 6, 7], [3, 4, 5, 8, 9, 10, 11]], [0, 1], [2]),
        "grow-y": ([[6, 7], [0, 1, 8], [2, 3, 4, 5, 9, 10, 11]], [2], [0, 1]),
    }
    for branch, (comps, x_idx, y_idx) in cases.items():
        assert reference_partition(t, comps) == (branch, x_idx, y_idx)
        assert_same_partition(t, comps)


def test_partition_of_sweep_decompositions(monkeypatch):
    # The components the onesub sweep partitions (k=4 at scale 1/16, one
    # host of each kind where the ball separator succeeds).
    seen = []
    original = transitive_finder.partition_components

    def spy(t, components, universe=None):
        seen.append((t, [list(bits_of(c)) for c in components], universe))
        return original(t, components, universe)

    monkeypatch.setattr(transitive_finder, "partition_components", spy)
    sweep("onesub", 4, 6, 560, Fraction(1, 16), 44)
    monkeypatch.undo()
    assert len(seen) >= 3
    for t, components, universe in seen:
        assert universe == t.full_mask  # k=4 splits once, at the top level
        assert_same_partition(t, components)
