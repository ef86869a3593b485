"""Half-matchings: saturate the left side using each right vertex at most twice.

Both sides are host vertex bitmasks, and ``row(u) & right`` is the
neighbourhood of a left vertex u.  Right vertex r is duplicated into the
slots 2r and 2r+1, and an augmenting-path maximum matching runs on the
slots.  A saturating matching comes back split into two one-to-one matchings
(left -> right): each right vertex's lower partner goes in ``first``, its
other partner in ``second``.  When the left side cannot be saturated, the
alternating forest of the failed search yields a violator mask X with
|N(X)| < |X|/2, which is exactly what the cut-minimizing violator
replacement consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from .core import bits_of, mask_of

__all__ = ["HalfMatching", "HallViolator", "half_matching", "hall_half_condition"]


@dataclass(frozen=True)
class HalfMatching:
    """Two one-to-one matchings (left -> right) that together use every left
    vertex once and every right vertex at most twice."""

    first: Dict[int, int]
    second: Dict[int, int]


@dataclass(frozen=True)
class HallViolator:
    """A left subset X, as a host mask, with |N(X)| < |X|/2."""

    vertices: int


def half_matching(row: Callable[[int], int], left: int, right: int) -> Union[HalfMatching, HallViolator]:
    # Slots 2r and 2r+1 both stand for right vertex r.
    nbrs = {u: [slot for r in bits_of(row(u) & right) for slot in (2 * r, 2 * r + 1)] for u in bits_of(left)}
    match_right: Dict[int, int] = {}  # slot -> left vertex

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
                        match_right[s] = u
                    return True
                stack.append((owner, iter(nbrs[owner])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
        return False

    unmatched = [u for u in nbrs if not try_augment(u)]

    if not unmatched:
        # Sorted by (right, left), a right vertex's lower partner comes first.
        first: Dict[int, int] = {}
        second: Dict[int, int] = {}
        last = -1
        for r, u in sorted((slot >> 1, u) for slot, u in match_right.items()):
            (second if r == last else first)[u] = r
            last = r
        return HalfMatching(first, second)

    # Alternating forest from every unmatched left vertex: reachable lefts X
    # satisfy |N_dup(X)| <= |X| - |unmatched| < |X|, hence |N(X)| < |X|/2.
    seen_left = mask_of(unmatched)
    seen_slots = set()
    frontier = unmatched
    while frontier:
        u = frontier.pop()
        for slot in nbrs[u]:
            if slot in seen_slots:
                continue
            seen_slots.add(slot)
            owner = match_right.get(slot, -1)
            if owner != -1 and not seen_left >> owner & 1:
                seen_left |= 1 << owner
                frontier.append(owner)
    return HallViolator(seen_left)


def hall_half_condition(row: Callable[[int], int], left: int, right: int) -> bool:
    """Brute-force check that every X subset of left has |N(X)| >= |X|/2,
    where N(u) = ``row(u) & right``.

    Enumerates all 2^|left| subsets (neighbourhood unions built bottom-up as
    bitmasks); intended as the independent oracle for |left| up to ~20.
    """
    rows = [row(u) & right for u in bits_of(left)]
    union = [0] * (1 << len(rows))
    for s in range(1, len(union)):
        low = s & -s
        union[s] = union[s ^ low] | rows[low.bit_length() - 1]
        if 2 * union[s].bit_count() < s.bit_count():
            return False
    return True
