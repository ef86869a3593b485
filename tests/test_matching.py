import random
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.matching import HalfMatching, HallViolator, half_matching, hall_half_condition


def test_two_lefts_one_right():
    res = half_matching(["u1", "u2"], ["v"], {"u1": ["v"], "u2": ["v"]})
    assert isinstance(res, HalfMatching)
    assert sorted(res.edges) == [("u1", "v"), ("u2", "v")]


def test_three_lefts_one_right_violator():
    res = half_matching(["u1", "u2", "u3"], ["v"], {u: ["v"] for u in ("u1", "u2", "u3")})
    assert isinstance(res, HallViolator)
    assert res.vertices == {"u1", "u2", "u3"}


def test_empty_left_succeeds():
    res = half_matching([], ["v"], {})
    assert isinstance(res, HalfMatching)
    assert res.edges == ()


def test_isolated_left_vertex():
    res = half_matching(["u"], ["v"], {"u": []})
    assert isinstance(res, HallViolator)
    assert res.vertices == {"u"}


@st.composite
def bipartite(draw):
    nl = draw(st.integers(1, 9))
    nr = draw(st.integers(1, 9))
    adj = {}
    for u in range(nl):
        adj[u] = sorted(draw(st.sets(st.integers(0, nr - 1), max_size=nr)))
    return list(range(nl)), list(range(nr)), adj


@given(bipartite())
@settings(max_examples=120, deadline=None)
def test_half_matching_iff_hall_condition(instance):
    left, right, adj = instance
    res = half_matching(left, right, adj)
    cond = hall_half_condition(left, adj)
    if isinstance(res, HalfMatching):
        assert cond
        # left saturated exactly once, right used at most twice, edges legal
        lefts = [u for u, _ in res.edges]
        assert sorted(lefts) == sorted(left)
        from collections import Counter

        right_use = Counter(v for _, v in res.edges)
        assert all(c <= 2 for c in right_use.values())
        assert all(v in adj[u] for u, v in res.edges)
    else:
        assert not cond
        # the violator really violates
        union = set()
        for u in res.vertices:
            union.update(adj[u])
        assert 2 * len(union) < len(res.vertices)


def test_random_regression_corpus():
    rng = random.Random(42)
    for _ in range(200):
        nl = rng.randrange(1, 13)
        nr = rng.randrange(1, 13)
        adj = {
            u: sorted(rng.sample(range(nr), rng.randrange(0, nr + 1)))
            for u in range(nl)
        }
        res = half_matching(list(range(nl)), list(range(nr)), adj)
        assert isinstance(res, HalfMatching) == hall_half_condition(list(range(nl)), adj)


def reference_half_matching(left, right, adj):
    """The recursive Kuhn search ``half_matching`` replaced: the same slots
    in the same order, so the same matching or violator."""
    left = list(left)
    right_pos = {r: i for i, r in enumerate(right)}
    nbrs = []
    for u in left:
        row = set()
        for r in adj.get(u, ()):
            if r in right_pos:
                row.update((2 * right_pos[r], 2 * right_pos[r] + 1))
        nbrs.append(sorted(row))
    match_left = [-1] * len(left)
    match_right = {}

    def try_augment(u, visited):
        for slot in nbrs[u]:
            if slot in visited:
                continue
            visited.add(slot)
            owner = match_right.get(slot, -1)
            if owner == -1 or try_augment(owner, visited):
                match_left[u] = slot
                match_right[slot] = u
                return True
        return False

    unmatched = [u for u in range(len(left)) if not try_augment(u, set())]
    if not unmatched:
        return HalfMatching(tuple((left[u], right[match_left[u] // 2]) for u in range(len(left))))
    seen_left, seen_slots, frontier = set(unmatched), set(), list(unmatched)
    while frontier:
        for slot in nbrs[frontier.pop()]:
            if slot not in seen_slots:
                seen_slots.add(slot)
                owner = match_right.get(slot, -1)
                if owner != -1 and owner not in seen_left:
                    seen_left.add(owner)
                    frontier.append(owner)
    return HallViolator(frozenset(left[u] for u in seen_left))


@given(bipartite())
@settings(max_examples=300, deadline=None)
def test_half_matching_matches_recursive_reference(instance):
    assert half_matching(*instance) == reference_half_matching(*instance)


def test_long_augmenting_chain_has_no_recursion_limit():
    # Left vertex 3000 can only reach right 0, and freeing a slot of right 0
    # shifts every earlier left vertex along the chain: an augmenting path
    # of about 3000 steps, past the interpreter's default recursion limit.
    adj = {i: [i // 2, i // 2 + 1] for i in range(3000)}
    adj[3000] = [0]
    res = half_matching(range(3001), range(1502), adj)
    assert isinstance(res, HalfMatching)
    assert [u for u, _ in res.edges] == list(range(3001))
    assert all(v in adj[u] for u, v in res.edges)
    assert max(Counter(v for _, v in res.edges).values()) == 2
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        assert res == reference_half_matching(range(3001), range(1502), adj)
    finally:
        sys.setrecursionlimit(limit)
