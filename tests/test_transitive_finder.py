import math
from fractions import Fraction

import pytest
from conftest import adjacency

from toursub.core import (
    Tournament,
    bits_of,
    mask_of,
    random_tournament,
    rotational_tournament,
    transitive_tournament,
)
from toursub.errors import BallTooLarge, FailureTrace, TooSmall
from toursub.experiments import SWEEP_KINDS, build_host
from toursub.params import FinderParams
from toursub.subdivision import verify
from toursub.transitive_finder import (
    _onesub_base,
    ball_decomposition,
    build_aux_graph,
    find_nearly_regular,
    find_nearly_regular_k,
    find_one_subdivision,
    find_tt_len3,
    partition_components,
    transitive_chain,
)


def cyclic_triangle():
    return Tournament([0b010, 0b100, 0b001])


# --- nearly-regular sets ---------------------------------------------------------


def test_nearly_regular_on_regular_host():
    nr = find_nearly_regular(rotational_tournament(21))
    assert len(nr.vertices) == 21  # ratio exactly 1 everywhere
    assert nr.ratio_bound == 4


def test_nearly_regular_on_transitive_host():
    # positions p with max-ratio <= 4 solve 19-p <= 4p and p <= 4(19-p).
    nr = find_nearly_regular(transitive_tournament(20))
    t = transitive_tournament(20)
    full = {v for v in range(20) if 0 < v < 19 and
            max((19 - v) / v, v / (19 - v)) <= 4}
    assert full == set(range(4, 16))
    assert len(full) == 12 >= 20 / 5
    assert set(nr.vertices) <= full
    assert len(nr.vertices) >= 2  # at least n/10
    for v in nr.vertices:
        dp, dm = t.out_degree(v), t.n - 1 - t.out_degree(v)
        if nr.side == "out":
            assert dm <= dp <= 4 * dm
        else:
            assert dp <= dm <= 4 * dp


def test_nearly_regular_on_random_host():
    t = random_tournament(100, 3)
    nr = find_nearly_regular(t)
    assert len(nr.vertices) >= 10
    for v in nr.vertices:
        dp, dm = t.out_degree(v), t.n - 1 - t.out_degree(v)
        chain = dm <= dp <= 4 * dm if nr.side == "out" else dp <= dm <= 4 * dp
        assert chain


def test_nearly_regular_needs_ten_vertices():
    with pytest.raises(TooSmall):
        find_nearly_regular(transitive_tournament(9))


def test_nearly_regular_k_on_regular_host():
    nr = find_nearly_regular_k(rotational_tournament(31), 3)
    assert len(nr.vertices) == 3
    assert nr.m == 15  # width-30 window starting at 0
    assert nr.side in ("out", "in")


def test_nearly_regular_k_too_small():
    with pytest.raises(TooSmall):
        find_nearly_regular_k(random_tournament(29, 0), 3)


def test_nearly_regular_k_window_bound():
    t = random_tournament(500, 4)
    nr = find_nearly_regular_k(t, 5)
    assert len(nr.vertices) == 5
    degs = [t.n - 1 - t.out_degree(v) for v in nr.vertices]
    assert max(degs) - min(degs) < 50
    assert all(abs(d - nr.m) <= 10 * 5 for d in degs)


# --- length-<=3 transitive subdivisions -------------------------------------------


def test_tt3_identity_embedding_on_transitive_host():
    for k in (2, 3, 5):
        t = transitive_tournament(10 * k)
        out = find_tt_len3(t, k, FinderParams(k, Fraction(1, 300)))
        assert not isinstance(out, FailureTrace)
        rep = verify(t, out, max_len=3)
        assert rep.valid


def test_tt3_single_edge_on_cyclic_triangle():
    out = find_tt_len3(cyclic_triangle(), 2, FinderParams(2, Fraction(1, 100)))
    assert not isinstance(out, FailureTrace)
    assert verify(cyclic_triangle(), out, max_len=3).valid


def test_tt3_paper_scale_size_gate():
    from toursub.errors import InfeasibleSize

    with pytest.raises(InfeasibleSize):
        find_tt_len3(rotational_tournament(101), 3)  # needs 1350 vertices


def test_tt3_rescales_params_built_for_another_k():
    # Like the other entry points, tt3 gates a k=5 run at k=5's size even
    # when handed params built for k=3 (whose 1350-vertex gate this host meets).
    from toursub.errors import InfeasibleSize

    host = random_tournament(1350, 0)
    for params in (FinderParams(3), FinderParams(5)):
        with pytest.raises(InfeasibleSize, match="below the required 3750"):
            find_tt_len3(host, 5, params)


def test_tt3_soundness_sweep():
    for k in (3, 4, 5, 6):
        for seed in range(8):
            t = random_tournament(max(80, 10 * k * k), seed)
            out = find_tt_len3(t, k, FinderParams(k, Fraction(1, 12)))
            if not isinstance(out, FailureTrace):
                assert verify(t, out, max_len=3).valid


def test_tt3_split_recursion_still_sound():
    # Hosts with scarce back-routes force the stuck-pair split.
    from toursub.experiments import stacked_triangles

    import toursub.transitive_finder as tf

    splits = {"n": 0}
    original = tf._tt3_split

    def spy(*args, **kwargs):
        splits["n"] += 1
        return original(*args, **kwargs)

    tf._tt3_split = spy
    try:
        for seed in range(10):
            t = stacked_triangles(60, 0.05, 2, seed)
            out = find_tt_len3(t, 5, FinderParams(5, Fraction(1, 12)))
            if not isinstance(out, FailureTrace):
                assert verify(t, out, max_len=3).valid
    finally:
        tf._tt3_split = original
    assert splits["n"] >= 1


# --- auxiliary graph ----------------------------------------------------------------


def test_aux_graph_transitive_three():
    g = build_aux_graph(transitive_tournament(3), 1)  # threshold 2
    assert sorted(g[0]) == [1]
    assert sorted(g[1]) == [0, 2]
    assert sorted(g[2]) == [1]


def test_aux_graph_regular_host_large_threshold():
    g = build_aux_graph(rotational_tournament(5), 10)
    assert all(len(g[v]) == 4 for v in range(5))


def test_aux_graph_matches_direct_recomputation():
    t = random_tournament(200, 6)
    k = 3
    g = build_aux_graph(t, k)
    outs = {v: {w for w in t.vertices() if t.has_edge(v, w)} for v in t.vertices()}
    for x in range(200):
        for y in range(x + 1, 200):
            expected = len(outs[x] ^ outs[y]) < 2 * k * k
            assert (y in g[x]) == expected


@pytest.mark.parametrize("k, scale", [(7, Fraction(51, 50)), (8, Fraction(79, 100))])
def test_aux_graph_fractional_threshold(k, scale):
    # Thresholds 99.96 and 101.12 sit where the symmetric differences of
    # random(200) rows fall and join about half of the pairs; the integer
    # ceiling the builder compares against decides each pair exactly.
    t = random_tournament(200, 6)
    params = FinderParams(k, scale)
    g = build_aux_graph(t, k, params)
    for x in range(200):
        for y in range(x + 1, 200):
            expected = (t.out_mask(x) ^ t.out_mask(y)).bit_count() < params.aux_threshold
            assert (y in g[x]) == expected


# --- ball separator -------------------------------------------------------------------


def test_ball_decomposition_disjoint_edges():
    g = adjacency(100, [(2 * i, 2 * i + 1) for i in range(50)])
    out = ball_decomposition(g)
    assert out.removed == frozenset()
    assert all(len(c) == 2 for c in out.components)
    assert out.bound == pytest.approx(100 / (5 * math.log(100)))


def test_ball_decomposition_complete_graph():
    g = adjacency(100, [(i, j) for i in range(100) for j in range(i + 1, 100)])
    with pytest.raises(BallTooLarge) as info:
        ball_decomposition(g)
    assert info.value.radius == 1
    assert info.value.size == 100


def test_ball_decomposition_short_path_violates_precondition():
    # A 200-vertex path cannot be decomposed into pieces of size
    # <= 200/(5 ln 200) ~ 7.5 by removing <= 7 vertices, so the ball
    # precondition must fail.
    g = adjacency(200, [(i, i + 1) for i in range(199)])
    with pytest.raises(BallTooLarge):
        ball_decomposition(g)


def test_ball_decomposition_long_path():
    n = 100_000
    g = adjacency(n, [(i, i + 1) for i in range(n - 1)])
    out = ball_decomposition(g)
    bound = n / (5 * math.log(n))
    assert len(out.removed) <= bound
    assert all(len(c) <= bound for c in out.components)
    assert out.removed
    # removing the set really disconnects into exactly these components
    total = sum(len(c) for c in out.components)
    assert total + len(out.removed) == n


def test_ball_decomposition_components_are_exact():
    g = adjacency(3000, [(i, i + 1) for i in range(2999) if (i + 1) % 9])
    try:
        out = ball_decomposition(g)
    except BallTooLarge:
        pytest.skip("instance misses the precondition")
    alive = set(range(3000)) - set(out.removed)
    seen = set()
    comps = []
    for v in sorted(alive):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for w in g[x]:
                if w in alive and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    assert sorted(map(sorted, comps)) == sorted(map(sorted, out.components))


# --- component partition ------------------------------------------------------------


def test_partition_two_clean_components():
    t = transitive_tournament(20)
    # component A = top half of the degree order, B = bottom half
    comps = [mask_of(range(10)), mask_of(range(10, 20))]
    part = partition_components(t, comps)
    assert part.x_cap_a1 and part.y_cap_a2
    assert part.x_cap_a1.bit_count() >= part.lower_bound
    assert part.y_cap_a2.bit_count() >= part.lower_bound


def test_partition_bounds_under_random_stress():
    import random as _r

    rng = _r.Random(5)
    for trial in range(40):
        n = rng.randrange(60, 200)
        t = random_tournament(n, trial)
        bound = n / (5 * math.log(n))
        vertices = list(range(n))
        rng.shuffle(vertices)
        drop = rng.randrange(0, int(bound))
        vertices = vertices[: n - drop]
        comps = []
        i = 0
        while i < len(vertices):
            size = rng.randrange(1, max(2, int(bound)))
            comps.append(sorted(vertices[i : i + size]))
            i += size
        part = partition_components(t, [mask_of(c) for c in comps])
        assert part.x_cap_a1.bit_count() >= part.lower_bound
        assert part.y_cap_a2.bit_count() >= part.lower_bound
        # families partition the components
        all_comps = sorted(tuple(bits_of(f)) for f in part.x_family + part.y_family)
        assert all_comps == sorted(map(tuple, map(sorted, comps)))


# --- transitive chains and 1-subdivisions ----------------------------------------------


def test_transitive_chain_on_transitive_host():
    assert transitive_chain(transitive_tournament(10)) == list(range(10))


def test_transitive_chain_log_guarantee():
    for seed in range(10):
        t = random_tournament(128, seed)
        chain = transitive_chain(t)
        assert len(chain) >= 7  # floor(log2 128)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                assert t.has_edge(chain[i], chain[j])


def test_onesub_base_case_layout():
    t = transitive_tournament(6)
    out = find_one_subdivision(t, 3, FinderParams(3, Fraction(1, 10**7)))
    assert not isinstance(out, FailureTrace)
    assert out.branch == (0, 2, 5)
    assert out.paths[(0, 1)].internals == (1,)
    assert out.paths[(0, 2)].internals == (3,)
    assert out.paths[(1, 2)].internals == (4,)
    assert verify(t, out, max_len=2, exact_len=2).valid


def test_onesub_base_layout_for_every_k():
    # One chain layout for every k: on the transitive host it uses exactly
    # k + k(k-1)/2 vertices; on seeded sweep hosts it succeeds whenever the
    # chain is long enough and raises TooSmall otherwise.
    for k in range(2, 9):
        need = k + k * (k - 1) // 2
        t = transitive_tournament(need)
        assert verify(t, _onesub_base(t, t.full_mask, k), max_len=2, exact_len=2).valid
        with pytest.raises(TooSmall):
            _onesub_base(t, t.full_mask & ~1, k)
        witnesses = 0
        for kind in SWEEP_KINDS:
            for seed in range(2):
                t = build_host(kind, 120, seed)
                if len(transitive_chain(t)) < need:
                    with pytest.raises(TooSmall):
                        _onesub_base(t, t.full_mask, k)
                    continue
                out = _onesub_base(t, t.full_mask, k)
                assert verify(t, out, max_len=2, exact_len=2).valid
                witnesses += 1
        assert witnesses >= 10


def test_onesub_k2_on_three_vertices():
    t = transitive_tournament(3)
    out = find_one_subdivision(t, 2, FinderParams(2, Fraction(1, 10**7)))
    assert not isinstance(out, FailureTrace)
    assert out.branch == (0, 2)
    assert out.paths[(0, 1)].internals == (1,)


def test_onesub_recursive_soundness():
    for k in (4, 5):
        for seed in range(6):
            t = random_tournament(420, seed + 10)
            out = find_one_subdivision(t, k, FinderParams(k, Fraction(1, 16)))
            if not isinstance(out, FailureTrace):
                rep = verify(t, out, max_len=2, exact_len=2)
                assert rep.valid


def test_onesub_dense_aux_graph_fails_cleanly():
    t = random_tournament(60, 2)
    out = find_one_subdivision(t, 10, FinderParams(10, Fraction(1, 4)))
    assert isinstance(out, FailureTrace)
    assert out.stage == "aux-graph-precondition"


def test_onesub_paper_scale_size_gate():
    from toursub.errors import InfeasibleSize

    with pytest.raises(InfeasibleSize):
        find_one_subdivision(rotational_tournament(1001), 4)


def test_onesub_rejects_k_below_two():
    with pytest.raises(ValueError):
        find_one_subdivision(rotational_tournament(7), 1)


def test_tt3_paper_scale_success():
    host = random_tournament(1350, 77)  # meets the 150 k^2 gate for k = 3
    out = find_tt_len3(host, 3)
    assert not isinstance(out, FailureTrace)
    assert verify(host, out, max_len=3).valid


def test_tt3_spec_sized_instance():
    host = random_tournament(2000, 11)
    out = find_tt_len3(host, 6, FinderParams(6, Fraction(1, 20)))
    if not isinstance(out, FailureTrace):
        assert verify(host, out, max_len=3).valid
