import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.core import bits_of, mask_of
from toursub.matching import HalfMatching, HallViolator, half_matching, hall_half_condition


def check_half_matching(row, left, right, res):
    """The two halves cover ``left`` once between them, each half is
    one-to-one into ``right`` along rows, and a right vertex's partner in
    ``second`` is above its partner in ``first``."""
    first, second = res.first, res.second
    assert mask_of(first) | mask_of(second) == left
    assert not mask_of(first) & mask_of(second)
    for half in (first, second):
        assert len(set(half.values())) == len(half)
        for u, r in half.items():
            assert right >> r & 1 and row(u) >> r & 1
    lower = {r: u for u, r in first.items()}
    assert all(lower[r] < u for u, r in second.items())


def test_two_lefts_one_right():
    rows = {0: 0b100, 1: 0b100}
    assert half_matching(rows.__getitem__, 0b11, 0b100) == HalfMatching({0: 2}, {1: 2})


def test_three_lefts_one_right_violator():
    rows = {0: 0b1000, 1: 0b1000, 2: 0b1000}
    assert half_matching(rows.__getitem__, 0b111, 0b1000) == HallViolator(0b111)


def test_empty_left_succeeds():
    assert half_matching({}.__getitem__, 0, 0b1) == HalfMatching({}, {})


def test_isolated_left_vertex():
    rows = {0: 0}
    assert half_matching(rows.__getitem__, 0b1, 0b10) == HallViolator(0b1)


def test_results_are_in_host_ids():
    # Non-contiguous host bits on both sides: the halves and the violator
    # name host vertices, not positions in the sides.
    rows = {3: 1 << 1, 7: 1 << 1 | 1 << 9, 12: 1 << 9}
    left, right = mask_of((3, 7, 12)), mask_of((1, 9))
    assert half_matching(rows.__getitem__, left, right) == HalfMatching({3: 1, 12: 9}, {7: 1})
    rows = {3: 1 << 1, 5: 1 << 9, 7: 1 << 1, 12: 1 << 1 | 1 << 4}
    res = half_matching(rows.__getitem__, mask_of((3, 5, 7, 12)), right)
    assert res == HallViolator(mask_of((3, 7, 12)))


@st.composite
def bipartite(draw):
    """Disjoint left and right sides scattered over 24 host ids, and a row
    per left vertex that also holds noise bits outside the right side."""
    ids = draw(st.permutations(range(24)))
    nl = draw(st.integers(1, 9))
    nr = draw(st.integers(1, 9))
    left_ids, right_ids = ids[:nl], ids[nl:nl + nr]
    right = mask_of(right_ids)
    rows = {
        u: mask_of(draw(st.sets(st.sampled_from(right_ids), max_size=nr)))
        | draw(st.integers(0, 2**24 - 1)) & ~right
        for u in left_ids
    }
    return rows.__getitem__, mask_of(left_ids), right


@given(bipartite())
@settings(max_examples=120, deadline=None)
def test_half_matching_iff_hall_condition(instance):
    row, left, right = instance
    res = half_matching(row, left, right)
    cond = hall_half_condition(row, left, right)
    if isinstance(res, HalfMatching):
        assert cond
        check_half_matching(row, left, right, res)
    else:
        assert not cond
        # the violator really violates
        x = res.vertices
        assert x and not x & ~left
        union = 0
        for u in bits_of(x):
            union |= row(u) & right
        assert 2 * union.bit_count() < x.bit_count()


def test_random_regression_corpus():
    rng = random.Random(42)
    for _ in range(200):
        nl = rng.randrange(1, 13)
        nr = rng.randrange(1, 13)
        # left vertex u is host u, right vertex r is host 12 + r
        rows = [
            mask_of(12 + r for r in rng.sample(range(nr), rng.randrange(0, nr + 1)))
            for u in range(nl)
        ]
        left, right = (1 << nl) - 1, ((1 << nr) - 1) << 12
        res = half_matching(rows.__getitem__, left, right)
        assert isinstance(res, HalfMatching) == hall_half_condition(rows.__getitem__, left, right)


def reference_half_matching(row, left, right):
    """The recursive Kuhn search over side positions that ``half_matching``
    replaced: the same slots in the same order, so the same matching or
    violator.  A matching is split as ``half_matching`` splits it."""
    left_ids, right_ids = list(bits_of(left)), list(bits_of(right))
    right_pos = {r: i for i, r in enumerate(right_ids)}
    nbrs = []
    for u in left_ids:
        slots = set()
        for r in bits_of(row(u) & right):
            slots.update((2 * right_pos[r], 2 * right_pos[r] + 1))
        nbrs.append(sorted(slots))
    match_left = [-1] * len(left_ids)
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

    unmatched = [u for u in range(len(left_ids)) if not try_augment(u, set())]
    if not unmatched:
        by_target = {}
        for u in range(len(left_ids)):
            by_target.setdefault(right_ids[match_left[u] // 2], []).append(left_ids[u])
        first, second = {}, {}
        for r, partners in sorted(by_target.items()):
            partners.sort()
            first[partners[0]] = r
            if len(partners) > 1:
                second[partners[1]] = r
        return HalfMatching(first, second)
    seen_left, seen_slots, frontier = set(unmatched), set(), list(unmatched)
    while frontier:
        for slot in nbrs[frontier.pop()]:
            if slot not in seen_slots:
                seen_slots.add(slot)
                owner = match_right.get(slot, -1)
                if owner != -1 and owner not in seen_left:
                    seen_left.add(owner)
                    frontier.append(owner)
    return HallViolator(mask_of(left_ids[u] for u in seen_left))


@given(bipartite())
@settings(max_examples=300, deadline=None)
def test_half_matching_matches_recursive_reference(instance):
    assert half_matching(*instance) == reference_half_matching(*instance)


def test_long_augmenting_chain_has_no_recursion_limit():
    # Left vertex 3000 can only reach right 0, and freeing a slot of right 0
    # shifts every earlier left vertex along the chain: an augmenting path
    # of about 3000 steps, past the interpreter's default recursion limit.
    # Left vertex i is host i, right vertex r is host 3001 + r.
    rows = [1 << (3001 + i // 2) | 1 << (3002 + i // 2) for i in range(3000)] + [1 << 3001]
    left, right = (1 << 3001) - 1, ((1 << 1502) - 1) << 3001
    res = half_matching(rows.__getitem__, left, right)
    assert isinstance(res, HalfMatching)
    check_half_matching(rows.__getitem__, left, right, res)
    assert res.second  # some right vertex is used twice
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        assert res == reference_half_matching(rows.__getitem__, left, right)
    finally:
        sys.setrecursionlimit(limit)
