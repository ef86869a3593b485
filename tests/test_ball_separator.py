"""The ball separator against a frozen copy of its BFS-for-every-start form.

``ball_decomposition`` makes a start vertex with no neighbours a singleton
component without a BFS, but only when the size bound is at least 1; below
that (n <= 12) the BFS runs and its size check raises.  These tests pin that
the shortcut changes nothing: the same components in the same order, the
same removed set and bound, or the same failure.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjacency
from toursub.errors import StageFailure
from toursub.transitive_finder import BallDecomposition, ball_decomposition


def reference_ball_decomposition(adj):
    """``ball_decomposition`` as it was before the isolated-start shortcut:
    one BFS from every alive start vertex."""
    n = len(adj)
    if n < 2:
        return BallDecomposition(frozenset(), (frozenset(range(n)),) if n else (), float(n))
    bound = n / (5.0 * math.log(n))
    log_factor = 5.0 * math.log(n)
    radius_cap = 10.0 * math.log(n) ** 2
    ALIVE, REMOVED, DONE = 0, 1, 2
    state = [ALIVE] * n
    removed = []
    components = []
    pending = list(range(n - 1, -1, -1))
    while pending:
        start = pending.pop()
        if state[start] != ALIVE:
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
            for v in ball:
                state[v] = DONE
            components.append(frozenset(ball))
            continue
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


def outcome(decompose, adj):
    """The decomposition's fields, or the failure's reason, stage and details."""
    try:
        out = decompose(adj)
    except StageFailure as exc:
        return ("failure", str(exc), exc.stage, exc.details)
    return ("ok", out.components, out.removed, out.bound)


def assert_matches_reference(adj):
    got = outcome(ball_decomposition, adj)
    assert got == outcome(reference_ball_decomposition, adj)
    return got


def test_edgeless_graphs_match_the_reference():
    for n in range(41):
        got = assert_matches_reference(adjacency(n))
        if 2 <= n <= 12:
            # The bound is below 1, so even a lone vertex is too big a ball.
            assert got == (
                "failure", f"ball of radius 0 around 0 has 1 vertices, bound {n / (5 * math.log(n)):.3f}",
                "aux-graph-precondition", {"vertex": 0, "radius": 0, "size": 1})
        elif n >= 13:
            assert got[1] == tuple(frozenset((v,)) for v in range(n))


@st.composite
def clustered_graphs(draw):
    """Graphs on up to 160 vertices: a few clusters (paths, stars or
    cliques on random vertex sets), some stray edges, and the rest isolated."""
    n = draw(st.integers(0, 160))
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 6))):
            members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 24),
                                    unique=True))
            shape = draw(st.sampled_from(("path", "star", "clique")))
            if shape == "path":
                edges += zip(members, members[1:])
            elif shape == "star":
                edges += [(members[0], v) for v in members[1:]]
            else:
                edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=8)) if u != v]
    return adjacency(n, {tuple(sorted(e)) for e in edges})


@given(clustered_graphs())
@settings(max_examples=400, deadline=None)
def test_clustered_graphs_match_the_reference(adj):
    assert_matches_reference(adj)


@st.composite
def long_path_graphs(draw):
    """Graphs large enough (n >= 1500, so the bound exceeds 5 ln n) for the
    BFS to remove sparse levels: a few long paths among isolated vertices."""
    n = draw(st.integers(1500, 2500))
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(0, n - 2))
        end = min(n - 1, start + draw(st.integers(1, 400)))
        edges += [(i, i + 1) for i in range(start, end)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=20)) if u != v]
    return adjacency(n, {tuple(sorted(e)) for e in edges})


@given(long_path_graphs())
@settings(max_examples=60, deadline=None)
def test_long_path_graphs_match_the_reference(adj):
    assert_matches_reference(adj)


def test_sparse_removals_match_the_reference():
    # Long paths beside isolated vertices: the BFS removes sparse levels and
    # re-examines their neighbours, interleaved with the singleton starts.
    n = 3000
    adj = adjacency(n, [(i, i + 1) for i in range(n - 1) if i % 600 < 400])
    got = assert_matches_reference(adj)
    assert got[0] == "ok" and got[2]
