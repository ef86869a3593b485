"""Half-matchings: saturate the left side using each right vertex at most twice.

Implemented by duplicating every right vertex and running an augmenting-path
maximum matching.  When the left side cannot be saturated, the alternating
forest of the failed search yields a violator set X with |N(X)| < |X|/2,
which is exactly what the cut-minimizing violator replacement consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple, Union

__all__ = ["HalfMatching", "HallViolator", "half_matching", "hall_half_condition"]


@dataclass(frozen=True)
class HalfMatching:
    """One edge per left vertex; every right vertex used at most twice."""

    edges: Tuple[Tuple[Hashable, Hashable], ...]


@dataclass(frozen=True)
class HallViolator:
    """A left subset X with |N(X)| < |X|/2."""

    vertices: frozenset


def half_matching(
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    adj: Dict[Hashable, Iterable[Hashable]],
) -> Union[HalfMatching, HallViolator]:
    left = list(left)
    right = list(right)
    right_pos = {r: i for i, r in enumerate(right)}
    # Duplicate right vertices: slot 2*i and 2*i+1 both stand for right[i].
    nbrs: List[List[int]] = []
    for u in left:
        row = []
        for r in adj.get(u, ()):
            i = right_pos.get(r)
            if i is not None:
                row.append(2 * i)
                row.append(2 * i + 1)
        nbrs.append(sorted(set(row)))

    match_left = [-1] * len(left)  # left index -> right slot
    match_right: Dict[int, int] = {}  # right slot -> left index

    def try_augment(root: int) -> bool:
        """Kuhn's augmenting-path search from ``root``, depth first with an
        explicit stack, trying each vertex's slots in ascending order."""
        visited = set()
        stack = [(root, iter(nbrs[root]))]
        via: List[int] = []  # via[d]: the slot frame d took towards frame d+1
        while stack:
            for slot in stack[-1][1]:
                if slot in visited:
                    continue
                visited.add(slot)
                via.append(slot)
                owner = match_right.get(slot, -1)
                if owner == -1:
                    for (u, _), s in zip(stack, via):
                        match_left[u] = s
                        match_right[s] = u
                    return True
                stack.append((owner, iter(nbrs[owner])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
        return False

    unmatched = []
    for u in range(len(left)):
        if not try_augment(u):
            unmatched.append(u)

    if not unmatched:
        edges = tuple((left[u], right[match_left[u] // 2]) for u in range(len(left)))
        return HalfMatching(edges=edges)

    # Alternating forest from every unmatched left vertex: reachable lefts X
    # satisfy |N_dup(X)| <= |X| - |unmatched| < |X|, hence |N(X)| < |X|/2.
    seen_left = set(unmatched)
    seen_slots = set()
    frontier = list(unmatched)
    while frontier:
        u = frontier.pop()
        for slot in nbrs[u]:
            if slot in seen_slots:
                continue
            seen_slots.add(slot)
            owner = match_right.get(slot, -1)
            if owner != -1 and owner not in seen_left:
                seen_left.add(owner)
                frontier.append(owner)
    return HallViolator(vertices=frozenset(left[u] for u in seen_left))


def hall_half_condition(
    left: Sequence[Hashable],
    adj: Dict[Hashable, Iterable[Hashable]],
) -> bool:
    """Brute-force check that every X subset of left has |N(X)| >= |X|/2.

    Enumerates all 2^|left| subsets (neighbourhood unions built bottom-up as
    bitmasks); intended as the independent oracle for |left| up to ~20.
    """
    left = list(left)
    if not left:
        return True
    right_ids: Dict[Hashable, int] = {}
    row = []
    for u in left:
        mask = 0
        for r in adj.get(u, ()):
            if r not in right_ids:
                right_ids[r] = len(right_ids)
            mask |= 1 << right_ids[r]
        row.append(mask)
    n = len(left)
    union = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        union[s] = union[s ^ low] | row[low.bit_length() - 1]
        if 2 * union[s].bit_count() < s.bit_count():
            return False
    return True
