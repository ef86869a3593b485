import random
from fractions import Fraction

import pytest
from conftest import assert_certified_cut
from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.complete_finder import (
    BalancedSet,
    GreedyPartial,
    _needed_pairs,
    derive_cut,
    embed_via_cut_chain,
    find_balanced_set,
    find_complete_subdivision,
    find_complete_subdivision_ex,
    find_digraph_subdivision,
    greedy_partial_subdivision,
    maximize_len2,
    minimize_cut,
    peel_low_outdegree,
    validate_cut,
)
from toursub.core import (
    Cut,
    Tournament,
    bits_of,
    blowup_cyclic_triangle,
    mask_of,
    random_tournament,
    rotational_tournament,
    transitive_tournament,
)
from toursub.errors import FailureTrace, InfeasibleDegree, StageFailure
from toursub.experiments import SWEEP_KINDS, build_host
from toursub.params import FinderParams
from toursub.subdivision import PatternDigraph, pattern_complete_digraph, verify


def free_balanced(vertices):
    """Branch set wrapper for driving the greedy directly in tests (the huge
    m forces the cut arm whenever the greedy gets stuck)."""
    return BalancedSet(
        vertices=tuple(vertices), m=10**6, alpha=Fraction(1), slack=Fraction(1), window=(0, 0)
    )


# --- balanced sets ------------------------------------------------------------


def test_balanced_set_on_regular_host():
    t = rotational_tournament(15)
    params = FinderParams(3, Fraction(1, 16))
    bal = find_balanced_set(t, params)
    assert bal.vertices == (0, 1, 2)
    assert bal.m == 7
    assert bal.window == (7, 7)
    assert bal.alpha >= 1


def test_balanced_set_too_small_at_paper_scale():
    with pytest.raises(StageFailure) as info:
        find_balanced_set(transitive_tournament(10), FinderParams(3))
    assert info.value.stage == "balanced-set"


def test_balanced_set_invariants_on_random_host():
    t = random_tournament(400, 2)
    params = FinderParams(3, Fraction(1, 8))
    bal = find_balanced_set(t, params)
    assert len(bal.vertices) == 3
    floor = params.deg_floor(bal.alpha)
    for v in bal.vertices:
        d = t.n - 1 - t.out_degree(v)
        assert d >= floor
        assert abs(d - bal.m) <= params.slack or abs(d - bal.m) <= params.window_width
        assert bal.window[0] <= d <= bal.window[1]


# --- greedy and the exchange step ----------------------------------------------


def test_greedy_completes_on_cyclic_triangle():
    t = Tournament([0b010, 0b100, 0b001])
    state, cut = greedy_partial_subdivision(
        t, free_balanced((0, 1)), FinderParams(2, Fraction(1)))
    assert cut is None
    assert state.paths == {(1, 0): (2,)}
    assert state.l1 == 1 and state.swaps == 0


# Hand-built 8-vertex host: the pair (2,1) is stuck until the exchange step
# reroutes (1,0) off its internal vertex 4 (see the path map asserted below).
ONE_SWAP_HOST = Tournament([46, 44, 152, 240, 227, 196, 135, 3])


def test_one_swap_exchange():
    state, cut = greedy_partial_subdivision(
        ONE_SWAP_HOST, free_balanced((0, 1, 2)), FinderParams(3, Fraction(1))
    )
    assert cut is None
    assert state.swaps == 1
    assert state.paths == {(1, 0): (3, 6), (2, 0): (7,), (2, 1): (4,)}
    assert state.l1 == 2 and state.l2 == 1


def test_exchange_noop_without_blocking_three_path():
    # (1,0) embeds as a 2-path, so nothing is available to swap with later.
    t = transitive_tournament(4)
    state = GreedyPartial(universe=t.full_mask, branch=(0, 3))
    assert maximize_len2(t, state, (3, 0)) is False
    assert state.swaps == 0 and state.paths == {}


def test_two_swap_chain_host():
    # Frozen from a randomized search: two separate stuck pairs, each
    # resolved by one exchange, and the greedy still completes.
    t = random_tournament(11, 122716)
    state, cut = greedy_partial_subdivision(
        t, free_balanced((0, 2, 5, 6)), FinderParams(4, Fraction(1))
    )
    assert cut is None
    assert state.swaps == 2
    # every recorded path is a real directed path with fresh internals
    seen = set()
    for (x, y), internals in state.paths.items():
        hops = (x, *internals, y)
        for a, b in zip(hops, hops[1:]):
            assert t.has_edge(a, b)
        for w in internals:
            assert w not in seen
            seen.add(w)


def test_swap_counter_bounded_by_pairs():
    for seed in range(30):
        t = random_tournament(12, seed)
        state, cut = greedy_partial_subdivision(
            t, free_balanced((0, 1, 2)), FinderParams(3, Fraction(1))
        )
        if cut is None:
            assert state.swaps <= 3 + 1


def test_greedy_keeps_internals_inside_its_universe():
    # Take away the internals an unrestricted run used: the restricted run
    # must route every path through what is left.
    params = FinderParams(3, Fraction(1))
    restricted_runs = 0
    for seed in range(20):
        t = random_tournament(20, seed)
        bal = free_balanced((0, 1, 2))
        full, _ = greedy_partial_subdivision(t, bal, params)
        taken = mask_of(v for internals in full.paths.values() for v in internals)
        if not taken:
            continue
        universe = t.full_mask & ~taken
        state, _ = greedy_partial_subdivision(t, bal, params, universe=universe)
        assert state.universe == universe
        for internals in state.paths.values():
            assert not mask_of(internals) & ~universe
        restricted_runs += bool(state.paths)
    assert restricted_runs


def test_greedy_rejects_a_branch_vertex_outside_its_universe():
    t = random_tournament(12, 0)
    with pytest.raises(ValueError):
        greedy_partial_subdivision(t, free_balanced((0, 1, 2)), FinderParams(3, Fraction(1)),
                                   universe=t.full_mask & ~(1 << 2))


@pytest.mark.parametrize("extra", [1 << 12, 1 << 40])
def test_peel_rejects_a_universe_outside_the_host(extra):
    # The 12-vertex host has no vertex 12 or 40.
    t = random_tournament(12, 0)
    with pytest.raises(ValueError, match="universe must lie inside the host"):
        peel_low_outdegree(t, FinderParams(3, Fraction(1)), universe=0b111 | extra)


# --- cut derivation -------------------------------------------------------------


def test_derive_cut_on_transitive_host():
    # Branch {0, 9} with the impossible return pair (9, 0): the formulas give
    # U = everything, so both the source and the sink come out empty and the
    # size validation rejects the cut.
    t = transitive_tournament(10)
    state = GreedyPartial(universe=t.full_mask, branch=(0, 9))
    cut = derive_cut(t, state, (9, 0))
    assert cut.cut == mask_of(range(10))
    assert cut.source == 0 and cut.sink == 0
    with pytest.raises(StageFailure) as info:
        validate_cut(cut, 2)
    assert info.value.stage == "derive-cut"


def test_greedy_propagates_cut_invalid():
    t = transitive_tournament(10)
    with pytest.raises(StageFailure) as info:
        greedy_partial_subdivision(t, free_balanced((0, 9)), FinderParams(2, Fraction(1, 2)))
    assert info.value.stage == "derive-cut"


def _cut_outcomes(count=5):
    """Harvest genuine greedy cuts from the stacked-triangle family."""
    from toursub.experiments import stacked_triangles

    params = FinderParams(3, Fraction(1, 96))
    found = []
    for seed in range(60):
        t = stacked_triangles(70, 0.05, 2, seed)
        bal = find_balanced_set(t, params)
        try:
            _, cut = greedy_partial_subdivision(t, bal, params)
        except (StageFailure, RuntimeError):
            continue
        if cut is not None:
            found.append((t, cut))
            if len(found) >= count:
                break
    return found


def test_cut_outcome_orientation_checked_exhaustively():
    # Any greedy cut must have every source-to-sink edge oriented forward.
    outcomes = _cut_outcomes(3)
    assert outcomes
    for t, cut in outcomes:
        for s in bits_of(cut.source):
            for w in bits_of(cut.sink):
                assert t.has_edge(s, w)


# --- cut repair -----------------------------------------------------------------


MINCUT_HOST = Tournament([10, 12, 9, 48, 39, 7])


def test_minimize_cut_violator_replacement():
    # U = {0,1,2} reaches only {3} inside S = {3,4}: the violator replacement
    # swaps U for {3}, and the certificate then matches 3 -> 4.
    cut = Cut(cut=mask_of({0, 1, 2}), source=mask_of({3, 4}), sink=mask_of({5}))
    cert = minimize_cut(MINCUT_HOST, cut)
    assert cert.cut == mask_of({3})
    assert cert.source == mask_of({4})
    assert cert.m_prime == {3: 4} and cert.m_dprime == {}


def test_minimize_cut_fixpoint_when_expanding():
    t = transitive_tournament(4)  # 0 -> everything
    cut = Cut(cut=mask_of({1}), source=mask_of({2}), sink=mask_of({3}))
    cert = minimize_cut(t, cut)
    assert cert.cut == mask_of({1}) and cert.source == mask_of({2})
    assert cert.m_prime == {1: 2}


def test_minimize_cut_certificate_is_sound():
    outcomes = _cut_outcomes(5)
    assert outcomes
    for t, cut in outcomes:
        assert_certified_cut(t, minimize_cut(t, cut))


def test_minimize_cut_repartitions_the_input_cut():
    # The driver shrinks its universe by the repaired cut and source, so the
    # repair must split exactly the input's vertices into three disjoint sets.
    outcomes = _cut_outcomes(5)
    assert outcomes
    for t, cut in outcomes:
        cert = minimize_cut(t, cut)
        assert not (cert.cut & cert.source or cert.cut & cert.sink or cert.source & cert.sink)
        assert cert.cut | cert.source | cert.sink == cut.cut | cut.source | cut.sink


# --- peeling --------------------------------------------------------------------


def test_peel_transitive_order():
    params = FinderParams(3, Fraction(1, 93))  # peel threshold exactly 1
    assert params.peel_threshold == 1
    peeled, rest = peel_low_outdegree(transitive_tournament(5), params)
    assert peeled == [4, 3, 2]
    assert rest == mask_of({0, 1})


def test_peel_strict_threshold_on_regular_host():
    params = FinderParams(3, Fraction(5, 93))  # threshold exactly 5
    assert params.peel_threshold == 5
    peeled, rest = peel_low_outdegree(rotational_tournament(11), params)
    assert peeled == []
    assert rest == rotational_tournament(11).full_mask


def reference_peel(t, params, universe=None):
    """Rescan the whole current set for each pick: the lowest out-degree
    below the rational threshold, then the lowest index."""
    cur = t.full_mask if universe is None else universe
    peeled = []
    while len(peeled) < params.k:
        degs = [((t.out_mask(v) & cur).bit_count(), v) for v in bits_of(cur)]
        low = [dv for dv in degs if dv[0] < params.peel_threshold]
        if not low:
            break
        peeled.append(min(low)[1])
        cur &= ~(1 << peeled[-1])
    return peeled, cur


def params_with_peel_threshold(k, threshold):
    params = FinderParams(k, threshold / FinderParams(k).peel_threshold)
    assert params.peel_threshold == threshold
    return params


@pytest.mark.parametrize("k, offset", [(3, Fraction(1, 2)), (4, Fraction(5, 2)), (5, Fraction(7, 3))])
def test_peel_matches_rational_reference(k, offset):
    # A threshold a fraction above the host's minimum out-degree: the
    # minimum-degree vertex is peeled only if each integer degree is
    # compared exactly, not against the threshold rounded down.
    t = random_tournament(150, k)
    params = params_with_peel_threshold(k, min(t.out_degree(v) for v in t.vertices()) + offset)
    peeled, cur = reference_peel(t, params)
    assert peeled
    assert peel_low_outdegree(t, params) == (peeled, cur)


PEEL_HOST_KINDS = SWEEP_KINDS + ("transitive",)


@st.composite
def peel_cases(draw):
    """A host of a sweep kind (or transitive), a universe over it (the whole
    host, empty, one vertex or a random subset), k, and a peel threshold at
    an integer or a fraction above one, spanning the host's degrees."""
    kind = draw(st.sampled_from(PEEL_HOST_KINDS))
    n = draw(st.integers(1, 120))
    seed = draw(st.integers(0, 2**16))
    t = transitive_tournament(n) if kind == "transitive" else build_host(kind, n, seed)
    shape = draw(st.sampled_from(["none", "empty", "single", "subset", "subset"]))
    if shape == "none":
        universe = None
    elif shape == "empty":
        universe = 0
    elif shape == "single":
        universe = 1 << draw(st.integers(0, t.n - 1))  # build_host may round n
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        keep = draw(st.sampled_from([0.1, 0.5, 0.9]))
        universe = mask_of(v for v in t.vertices() if rng.random() < keep)
    k = draw(st.integers(1, 8))
    above = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(99, 100)]))
    # A positive scale needs a positive threshold: 0 becomes 1/2.
    threshold = draw(st.integers(0, n)) + above or Fraction(1, 2)
    return t, universe, params_with_peel_threshold(k, threshold)


@given(peel_cases())
@settings(max_examples=400, deadline=None)
def test_peel_matches_rescanning_reference(case):
    t, universe, params = case
    assert peel_low_outdegree(t, params, universe) == reference_peel(t, params, universe)


def test_peel_disjunction_on_random_host():
    t = random_tournament(60, 9)
    # Threshold (16 + 144) * scale: 10 peels nothing, 20 peels two and then
    # every degree reaches it, 40 peels k vertices.
    for scale, peeled_count in [(Fraction(1, 16), 0), (Fraction(1, 8), 2), (Fraction(1, 4), 4)]:
        params = FinderParams(4, scale)
        threshold = params.peel_threshold
        peeled, rest = peel_low_outdegree(t, params)
        assert len(peeled) == peeled_count
        # Replay: each peeled vertex is below the threshold inside the set it
        # was removed from, and removing them leaves ``rest``.
        cur = t.full_mask
        for v in peeled:
            assert cur >> v & 1
            assert (t.out_mask(v) & cur).bit_count() < threshold
            cur &= ~(1 << v)
        assert cur == rest
        if len(peeled) < params.k:
            assert all((t.out_mask(v) & rest).bit_count() >= threshold for v in bits_of(rest))


# --- chain embedding --------------------------------------------------------------


EMBED_ONE = Tournament([22, 20, 24, 3, 8])
EMBED_TWO_MASKS = None


def _two_pair_host():
    masks = [0] * 9
    fwd = {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
           (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
           (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
           (6, 7), (6, 8), (7, 8)}
    back = {(7, 0), (7, 1), (7, 2), (8, 0), (8, 1), (8, 2)}
    for a, b in fwd | back:
        masks[a] |= 1 << b
    return Tournament(masks)


def test_embed_single_pair():
    chain = (Cut(cut=mask_of({2, 4}), source=mask_of({3}), sink=mask_of({0, 1}),
                 m_prime={2: 3}, m_dprime={4: 3}),)
    wits = embed_via_cut_chain(EMBED_ONE, [(0, 1)], chain)
    assert wits == [(2, 3)]


def test_embed_two_pairs_sharing_source():
    t = _two_pair_host()
    chain = (Cut(cut=mask_of({3, 4, 5, 6}), source=mask_of({7, 8}),
                 sink=mask_of({0, 1, 2}), m_prime={3: 7, 5: 8}, m_dprime={4: 7, 6: 8}),)
    pairs = [(0, 1), (0, 2)]
    wits = embed_via_cut_chain(t, pairs, chain)
    assert wits == [(3, 7), (5, 8)]
    # disjoint internals, valid hops
    used = set()
    for (x, y), internals in zip(pairs, wits):
        for z in internals:
            assert z not in used
            used.add(z)
        hops = (x, *internals, y)
        for a, b in zip(hops, hops[1:]):
            assert t.has_edge(a, b)


def test_embed_insufficient_out_neighbours():
    chain = (Cut(cut=mask_of({2}), source=mask_of({3}), sink=mask_of({0, 1}),
                 m_prime={2: 3}),)
    with pytest.raises(StageFailure) as info:
        embed_via_cut_chain(EMBED_ONE, [(0, 1)], chain)
    assert info.value.stage == "cut-chain-embedding"
    assert info.value.details == {"vertex": 0, "have": 1, "need": 2}


# --- drivers ----------------------------------------------------------------------


def test_k2_is_a_directed_cycle():
    for t in (rotational_tournament(7), blowup_cyclic_triangle(3), random_tournament(25, 4)):
        sub = find_complete_subdivision(t, 2)
        rep = verify(t, sub, max_len=3)
        assert rep.valid
        assert all(len(p) <= 2 for p in sub.paths.values())


def test_k2_needs_positive_out_degree():
    with pytest.raises(InfeasibleDegree):
        find_complete_subdivision(transitive_tournament(6), 2)


def test_k_below_two_rejected():
    with pytest.raises(ValueError):
        find_complete_subdivision(rotational_tournament(7), 1)


def test_paper_scale_degree_gate():
    with pytest.raises(InfeasibleDegree):
        find_complete_subdivision(rotational_tournament(201), 3)  # delta+ = 100 < 1047


def test_k3_scaled_on_blowup():
    t = blowup_cyclic_triangle(4)
    sub = find_complete_subdivision(t, 3, FinderParams(3, Fraction(1, 32)))
    rep = verify(t, sub, max_len=3)
    assert rep.valid
    assert rep.span >= 6
    assert all(len(p) <= 2 for p in sub.paths.values())


def test_k3_scaled_soundness_across_hosts():
    params = FinderParams(3, Fraction(1, 4))
    for seed in range(12):
        t = random_tournament(260, seed)
        out, _ = find_complete_subdivision_ex(t, 3, params)
        assert not isinstance(out, FailureTrace)
        rep = verify(t, out, max_len=3)
        assert rep.valid
        assert all(len(p) <= 2 for p in out.paths.values())


def test_chain_stages_are_certified_on_structured_hosts():
    from toursub.experiments import stacked_triangles

    params = FinderParams(3, Fraction(1, 96))
    saw_nonempty = False
    for seed in range(10):
        t = stacked_triangles(60, 0.05, 2, seed)
        out, chain = find_complete_subdivision_ex(t, 3, params)
        for st in chain:
            assert_certified_cut(t, st)
            saw_nonempty |= bool(st.cut)
        if not isinstance(out, FailureTrace):
            assert verify(t, out, max_len=3).valid
    assert saw_nonempty


def test_failed_scaled_run_returns_its_certified_cuts():
    # A key-job sweep host (complete k=3, seed 22, instance 25) whose run
    # certifies seven cuts before the dichotomy rejects a cut: the chain
    # still comes back with the failure trace.
    from toursub.experiments import build_host, instance_seed

    t = build_host("triangles_sparse", 240, instance_seed(22, 25))
    out, chain = find_complete_subdivision_ex(t, 3, FinderParams(3, Fraction(1, 96)))
    assert isinstance(out, FailureTrace) and out.stage == "derive-cut"
    assert [c.cut.bit_count() for c in chain] == [0, 1, 1, 3, 1, 0, 0]
    for st in chain:
        assert_certified_cut(t, st)


def test_failure_trace_only_on_scaled_runs():
    from toursub.experiments import stacked_triangles

    t = stacked_triangles(40, 0.0, 2, 1)
    out = find_complete_subdivision(t, 3, FinderParams(3, Fraction(1, 96)))
    assert isinstance(out, FailureTrace)
    assert out.stage in {"derive-cut", "balanced-set", "cut-chain-embedding"}


# --- general digraph patterns -------------------------------------------------------


def test_digraph_single_edge():
    t = transitive_tournament(2)
    sub = find_digraph_subdivision(t, PatternDigraph(2, ((0, 1),)), FinderParams(2, Fraction(1, 2)))
    assert verify(t, sub, max_len=3).valid


def test_digraph_cycle_on_cyclic_triangle():
    t = Tournament([0b010, 0b100, 0b001])
    pattern = PatternDigraph(3, ((0, 1), (1, 2), (2, 0)))
    sub = find_digraph_subdivision(t, pattern, FinderParams(3, Fraction(1, 100)))
    rep = verify(t, sub, max_len=3)
    assert rep.valid
    assert all(p == () for p in sub.paths.values())


def test_digraph_rejects_isolated_vertices():
    with pytest.raises(ValueError):
        find_digraph_subdivision(rotational_tournament(7), PatternDigraph(3, ((0, 1),)))


def test_digraph_agrees_with_complete_finder():
    pattern = pattern_complete_digraph(3)
    params = FinderParams(3, Fraction(1, 4))
    for seed in range(20):
        t = random_tournament(250, seed + 1000)
        a = find_complete_subdivision(t, 3, params)
        b = find_digraph_subdivision(t, pattern, params)
        ok_a = not isinstance(a, FailureTrace) and verify(t, a, max_len=3).valid
        ok_b = not isinstance(b, FailureTrace) and verify(t, b, max_len=3).valid
        assert ok_a and ok_b


def test_reversed_pairs_cover_each_unordered_pair_once():
    t = random_tournament(15, 3)
    pairs = _needed_pairs(t, pattern_complete_digraph(4), (2, 5, 9, 11))
    assert len(pairs) == 6
    for x, y in pairs:
        assert t.has_edge(y, x) and not t.has_edge(x, y)


# --- paper-scale runs ----------------------------------------------------------------


def test_paper_scale_success_on_qualifying_hosts():
    """Hosts that genuinely meet the scale-1 degree gate must never fail."""
    from toursub.subdivision import min_span

    host = rotational_tournament(2095)  # delta+ = 1047 = 2*9 + 147*7
    assert FinderParams(3).min_out_degree <= 1047
    sub = find_complete_subdivision(host, 3)
    rep = verify(host, sub, max_len=3)
    assert rep.valid
    assert rep.span >= min_span(pattern_complete_digraph(3))
    assert all(len(p) <= 2 for p in sub.paths.values())

    host4 = rotational_tournament(3593)  # delta+ = 1796 = 2*16 + 147*12
    sub4 = find_complete_subdivision(host4, 4)
    rep4 = verify(host4, sub4, max_len=3)
    assert rep4.valid
    assert rep4.span >= min_span(pattern_complete_digraph(4))
    assert all(len(p) <= 2 for p in sub4.paths.values())


def test_span_never_below_lower_bound_in_sweeps():
    from toursub.subdivision import min_span

    bound = min_span(pattern_complete_digraph(3))
    params = FinderParams(3, Fraction(1, 4))
    for seed in range(10):
        t = random_tournament(240, seed + 500)
        out = find_complete_subdivision(t, 3, params)
        if not isinstance(out, FailureTrace):
            rep = verify(t, out, max_len=3)
            assert rep.valid and rep.span >= bound


def test_spec_sized_rotational_run():
    # rotational(201), k=3, scale 1/16: succeeds and the span bound holds.
    from toursub.subdivision import min_span

    host = rotational_tournament(201)
    out = find_complete_subdivision(host, 3, FinderParams(3, Fraction(1, 16)))
    assert not isinstance(out, FailureTrace)
    rep = verify(host, out, max_len=3)
    assert rep.valid and rep.span >= min_span(pattern_complete_digraph(3))
