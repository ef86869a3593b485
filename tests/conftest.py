"""Shared test helpers."""

from toursub.core import mask_of
from toursub.matching import hall_half_condition


def assert_certified_cut(t, cut):
    """The split half-matching of a certified cut proves that U expands into
    S: its halves are disjoint and cover U, each half is one-to-one, every
    matched edge is a host edge into S, and a cut of at most 12 vertices
    also passes the exhaustive Hall check."""
    first, second = mask_of(cut.m_prime), mask_of(cut.m_dprime)
    assert first | second == cut.cut
    assert not first & second
    for matching in (cut.m_prime, cut.m_dprime):
        assert len(set(matching.values())) == len(matching)
        for u, s in matching.items():
            assert t.has_edge(u, s)
            assert cut.source >> s & 1
    if cut.cut.bit_count() <= 12:
        assert hall_half_condition(t.out_mask, cut.cut, cut.source)
