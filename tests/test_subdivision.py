import json

import pytest

from toursub.core import Tournament, transitive_tournament
from toursub.subdivision import (
    PatternDigraph,
    Subdivision,
    dump_witness,
    min_span,
    parse_pattern,
    pattern_complete_digraph,
    pattern_transitive,
    verify,
    witness_from_json,
    witness_to_json,
)


def cyclic_triangle():
    return Tournament([0b010, 0b100, 0b001])


def k2_witness():
    pattern = pattern_complete_digraph(2)
    return Subdivision(
        pattern=pattern,
        branch=(0, 1),
        paths={
            (0, 1): (),
            (1, 0): (2,),
        },
    )


# --- patterns ---------------------------------------------------------------


def test_pattern_builders():
    assert set(pattern_complete_digraph(2).edges) == {(0, 1), (1, 0)}
    assert set(pattern_transitive(3).edges) == {(0, 1), (0, 2), (1, 2)}
    assert len(pattern_complete_digraph(3).edges) == 6
    with pytest.raises(ValueError):
        pattern_complete_digraph(0)
    with pytest.raises(ValueError):
        pattern_transitive(0)


def test_pattern_validation():
    with pytest.raises(ValueError):
        PatternDigraph(2, ((0, 0),))
    with pytest.raises(ValueError):
        PatternDigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        PatternDigraph(2, ((0, 5),))
    assert PatternDigraph(3, ((0, 1),)).isolated_vertices() == {2}


def test_parse_pattern():
    assert parse_pattern("complete:3") == pattern_complete_digraph(3)
    assert parse_pattern("transitive:4") == pattern_transitive(4)
    assert set(parse_pattern("cycle:3").edges) == {(0, 1), (1, 2), (2, 0)}
    assert set(parse_pattern("edges:0>1,2>0").edges) == {(0, 1), (2, 0)}
    with pytest.raises(ValueError):
        parse_pattern("weird:2")


# --- verify ------------------------------------------------------------------


def test_verify_k2_on_triangle():
    rep = verify(cyclic_triangle(), k2_witness(), max_len=3)
    assert rep.valid
    assert rep.l1 == 1 and rep.l2 == 0 and rep.span == 3


def test_verify_exact_len_rejects_direct_edge():
    rep = verify(cyclic_triangle(), k2_witness(), max_len=3, exact_len=2)
    assert not rep.valid
    assert any("length 1" in v for v in rep.violations)


def test_verify_one_subdivision_of_t3():
    # Host vertices 0..5 in transitive order; branch 0,2,5 with midpoints
    # 1, 3, 4 realize every pattern edge as a path of length exactly 2.
    t = transitive_tournament(6)
    sub = Subdivision(
        pattern=pattern_transitive(3),
        branch=(0, 2, 5),
        paths={
            (0, 1): (1,),
            (0, 2): (3,),
            (1, 2): (4,),
        },
    )
    rep = verify(t, sub, max_len=2, exact_len=2)
    assert rep.valid
    assert rep.l1 == 3 and rep.span == 6


def test_verify_collects_all_violations():
    t = transitive_tournament(5)
    sub = Subdivision(
        pattern=pattern_transitive(3),
        branch=(0, 0, 4),  # collision
        paths={
            (0, 1): (3,),
            # (0, 2) missing entirely
            (1, 2): (3,),  # reuses 3, and hops 3->4 ok, 0->3 ok
        },
    )
    rep = verify(t, sub, max_len=3)
    assert not rep.valid
    text = "\n".join(rep.violations)
    assert "collision" in text
    assert "no path" in text
    assert "reused" in text


def test_verify_detects_missing_hop_and_bad_direction():
    t = transitive_tournament(4)
    sub = Subdivision(
        pattern=pattern_transitive(2),
        branch=(3, 0),
        paths={(0, 1): (2,)},  # 3->2 is not an edge
    )
    rep = verify(t, sub, max_len=3)
    assert not rep.valid
    assert any("missing edge hop" in v for v in rep.violations)


def test_verify_length_cap():
    t = transitive_tournament(6)
    sub = Subdivision(
        pattern=pattern_transitive(2),
        branch=(0, 5),
        paths={(0, 1): (1, 2, 3)},
    )
    assert verify(t, sub, max_len=4).valid
    rep = verify(t, sub, max_len=3)
    assert not rep.valid and any("> cap" in v for v in rep.violations)


@pytest.mark.parametrize("key", [(0, 5), (5, 0), (-1, 0), (0, -2)])
def test_verify_is_total_on_a_path_keyed_outside_the_branch(key):
    # Read through the branch map, (-1, 0) would be the missing hop 1 -> 0
    # and (0, -2) the degenerate hop 0 -> 0; (0, 5) and (5, 0) index past it.
    sub = k2_witness()
    sub = Subdivision(sub.pattern, sub.branch, {**sub.paths, key: ()})
    rep = verify(cyclic_triangle(), sub, max_len=3)
    assert not rep.valid
    assert rep.violations == (f"path for {key} is not a pattern edge",)


class CountingEdges(tuple):
    """Pattern edges that count the membership tests made on them."""

    lookups = 0

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


def test_verify_makes_no_membership_scan_of_the_pattern_edges():
    # A scan of the edge tuple per path made verifying m paths O(m^2):
    # transitive:300, 44,850 direct edges, took 28 s.
    k = 60
    edges = CountingEdges(pattern_transitive(k).edges)
    sub = Subdivision(PatternDigraph(k, edges), tuple(range(k)), {e: () for e in edges})
    assert verify(transitive_tournament(k), sub, max_len=1).valid
    assert edges.lookups == 0


def test_counts_match_recomputation():
    sub = k2_witness()
    lens = [len(p) + 1 for p in sub.paths.values()]
    assert sub.l1 == lens.count(2)
    assert sub.l2 == lens.count(3)
    assert sub.l1 + sub.l2 <= len(sub.pattern.edges)


# --- min_span ----------------------------------------------------------------


def test_min_span():
    assert min_span(pattern_complete_digraph(3)) == 6
    assert min_span(pattern_complete_digraph(2)) == 3
    assert min_span(pattern_complete_digraph(4)) == 10
    assert min_span(pattern_transitive(5)) == 5


def test_span_at_least_min_span_for_valid_witness():
    rep = verify(cyclic_triangle(), k2_witness(), max_len=3)
    assert rep.span >= min_span(pattern_complete_digraph(2))


# --- witness serialization -----------------------------------------------------


def test_witness_json_round_trip():
    t = cyclic_triangle()
    sub = k2_witness()
    doc = witness_to_json(t, sub)
    assert set(doc) == {"pattern", "branch", "paths", "host_hash"}
    back, host_hash = witness_from_json(doc)
    assert back == sub
    assert host_hash == doc["host_hash"]
    # dump is stable json
    again = json.loads(dump_witness(t, sub))
    assert again == doc


def test_witness_json_rejects_bad_docs():
    t = cyclic_triangle()
    doc = witness_to_json(t, k2_witness())
    bad = json.loads(json.dumps(doc))
    bad["branch"] = [0, 0]
    with pytest.raises(ValueError):
        witness_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["paths"][0]["from"] = 2
    with pytest.raises(ValueError):
        witness_from_json(bad)
