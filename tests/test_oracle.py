import sys

import pytest

from toursub.core import (
    Tournament,
    blowup_cyclic_triangle,
    random_tournament,
    rotational_tournament,
    transitive_tournament,
)
from toursub.oracle import (
    OracleQuery,
    exhaustive_tournaments,
    oracle_subdivision,
    scan_d_lower,
)
from toursub.subdivision import (
    min_span,
    parse_pattern,
    pattern_complete_digraph,
    pattern_transitive,
    verify,
)


def cyclic_triangle():
    return Tournament([0b010, 0b100, 0b001])


def is_transitive(t):
    return sorted(t.out_degree(v) for v in t.vertices()) == list(range(t.n))


# --- basic queries ------------------------------------------------------------


def test_acyclic_host_has_no_double_connection():
    for n in (2, 4, 6):
        out = oracle_subdivision(
            transitive_tournament(n), OracleQuery(pattern_complete_digraph(2), max_len=n)
        )
        assert out.status == "not_found"
        assert out.exact


def test_triangle_contains_k2():
    out = oracle_subdivision(cyclic_triangle(), OracleQuery(pattern_complete_digraph(2)))
    assert out.found
    rep = verify(cyclic_triangle(), out.subdivision, max_len=3)
    assert rep.valid


def test_transitive6_has_one_subdivision_of_t3():
    q = OracleQuery(pattern_transitive(3), max_len=2, exact_len=2)
    out = oracle_subdivision(transitive_tournament(6), q)
    assert out.found
    rep = verify(transitive_tournament(6), out.subdivision, max_len=2, exact_len=2)
    assert rep.valid and rep.span == 6


def test_budget_exceeded_arm():
    q = OracleQuery(pattern_complete_digraph(3), max_len=3, node_budget=5)
    out = oracle_subdivision(random_tournament(12, 0), q)
    assert out.status == "budget_exceeded"
    assert not out.exact
    assert out.nodes >= 5


def test_found_witnesses_always_verify():
    pats = [pattern_complete_digraph(2), pattern_complete_digraph(3), pattern_transitive(3)]
    for seed in range(10):
        t = random_tournament(9, seed)
        for pat in pats:
            out = oracle_subdivision(t, OracleQuery(pat, max_len=3))
            if out.found:
                assert verify(t, out.subdivision, max_len=3).valid


# --- exhaustive enumeration ----------------------------------------------------


def test_exhaustive_counts():
    assert len(list(exhaustive_tournaments(1))) == 1
    assert len(list(exhaustive_tournaments(3))) == 8
    with pytest.raises(ValueError):
        list(exhaustive_tournaments(6))


def test_exactly_two_cyclic_triangles():
    q = OracleQuery(pattern_complete_digraph(2), max_len=3)
    cyclic = sum(1 for t in exhaustive_tournaments(3) if oracle_subdivision(t, q).found)
    assert cyclic == 2


def test_k2_found_iff_not_transitive_n4():
    q4 = OracleQuery(pattern_complete_digraph(2), max_len=4)
    for t in exhaustive_tournaments(4):
        assert oracle_subdivision(t, q4).found == (not is_transitive(t))


def test_no_k3_below_span_bound():
    assert min_span(pattern_complete_digraph(3)) == 6
    q = OracleQuery(pattern_complete_digraph(3), max_len=4)
    for t in exhaustive_tournaments(4):
        assert not oracle_subdivision(t, q).found


def test_oracle_on_a_host_past_one_machine_word():
    t = random_tournament(70, 1)  # 70 vertices: out-masks wider than 64 bits
    out = oracle_subdivision(t, OracleQuery(pattern_complete_digraph(2), max_len=3))
    assert out.found


def test_complete8_cap3_runs_under_the_default_recursion_limit():
    # The pure search nests about one frame per pattern edge plus the path
    # extensions: complete:8 has 56 edges, and its witness on rotational(81)
    # takes 90 nodes and about 130 frames.
    t = rotational_tournament(81)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default
    try:
        out = oracle_subdivision(t, OracleQuery(parse_pattern("complete:8"), max_len=3))
    finally:
        sys.setrecursionlimit(limit)
    assert out.found
    assert verify(t, out.subdivision, max_len=3).valid


# --- scan -----------------------------------------------------------------------


def test_scan_d_lower_smoke():
    rows = scan_d_lower(2, [4], trials=5, seed=1, max_len=4)
    assert len(rows) == 5
    assert all(set(r) == {"n", "seed", "delta_plus", "contains", "nodes", "millis"} for r in rows)
    # delta+ >= 1 forces a directed triangle on such small hosts
    for r in rows:
        if r["delta_plus"] >= 1:
            assert r["contains"] == 1


# --- finder cross-check ----------------------------------------------------------


def test_finder_witnesses_confirmed_by_oracle_on_small_hosts():
    """Whenever a constructive finder returns a witness on a host with at
    most 12 vertices, the exact search must also report containment."""
    from fractions import Fraction

    from toursub.complete_finder import find_complete_subdivision
    from toursub.errors import FailureTrace, InfeasibleDegree
    from toursub.params import FinderParams

    confirmed = 0
    for seed in range(30):
        t = random_tournament(10 + seed % 3, seed)
        try:
            sub = find_complete_subdivision(t, 2)
        except InfeasibleDegree:
            continue
        assert verify(t, sub, max_len=3).valid
        out = oracle_subdivision(t, OracleQuery(pattern_complete_digraph(2), max_len=3))
        assert out.found
        confirmed += 1

    t = blowup_cyclic_triangle(4)
    sub = find_complete_subdivision(t, 3, FinderParams(3, Fraction(1, 32)))
    assert not isinstance(sub, FailureTrace)
    out = oracle_subdivision(t, OracleQuery(pattern_complete_digraph(3), max_len=3))
    assert out.found
    confirmed += 1
    assert confirmed >= 20


def test_scan_exhaustive_mode():
    rows = scan_d_lower(2, [3], trials=0, seed=0, max_len=3)
    assert len(rows) == 8
    # d(2) = 1 in miniature: non-containing hosts all have delta+ = 0
    assert max(r["delta_plus"] for r in rows if not r["contains"]) == 0
    assert all(r["contains"] for r in rows if r["delta_plus"] >= 1)


def test_scan_small_range_rates():
    rows = scan_d_lower(3, range(6, 11), trials=20, seed=1, max_len=3)
    assert len(rows) == 100
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r["contains"])
    assert set(by_n) == set(range(6, 11))
    # containment can only become easier as hosts grow; just sanity-check
    # that the small end is not trivially full
    assert sum(by_n[6]) <= len(by_n[6])


def test_single_vertex_pattern_and_host():
    t1 = Tournament([0])
    out = oracle_subdivision(t1, OracleQuery(pattern_transitive(1), max_len=1))
    assert out.found
    assert out.subdivision.branch == (0,)
    out = oracle_subdivision(
        rotational_tournament(5), OracleQuery(pattern_transitive(1), max_len=3)
    )
    assert out.found


def _naive_contains(t, pattern, max_len, exact_len=None):
    """Independent decision procedure for cross-checking the search kernel:
    explicit vertex sets, fixed edge order, no bitmasks, no constrainedness
    heuristics."""
    from itertools import permutations

    edges = list(pattern.edges)
    lengths = [exact_len] if exact_len else list(range(1, max_len + 1))

    def paths_for(x, y, free):
        for length in lengths:
            if length == 1:
                if t.has_edge(x, y):
                    yield ()
                continue

            def rec(prefix, prev):
                if len(prefix) == length - 1:
                    if t.has_edge(prev, y):
                        yield tuple(prefix)
                    return
                for z in sorted(free - set(prefix)):
                    if t.has_edge(prev, z):
                        yield from rec(prefix + [z], z)

            yield from rec([], x)

    def embed(i, free, branch):
        if i == len(edges):
            return True
        u, v = edges[i]
        for internals in paths_for(branch[u], branch[v], free):
            if embed(i + 1, free - set(internals), branch):
                return True
        return False

    for branch in permutations(range(t.n), pattern.k):
        if embed(0, set(range(t.n)) - set(branch), branch):
            return True
    return False


def test_oracle_against_independent_reference():
    checks = 0
    for seed in range(24):
        n = 6 + seed % 3
        t = random_tournament(n, seed * 7 + 1)
        for pat, max_len, exact in [
            (pattern_complete_digraph(2), 3, None),
            (pattern_complete_digraph(3), 3, None),
            (pattern_complete_digraph(3), 2, None),
            (pattern_transitive(3), 2, 2),
            (pattern_transitive(4), 2, 2),
        ]:
            got = oracle_subdivision(t, OracleQuery(pat, max_len=max_len, exact_len=exact)).found
            assert got == _naive_contains(t, pat, max_len, exact)
            checks += 1
    assert checks == 120


def test_two_chain_one_subdivision_iff_three_vertices():
    # A 1-subdivision of the 2-chain is exactly a 2-path, and every
    # tournament on >= 3 vertices has one.
    q = OracleQuery(pattern_transitive(2), max_len=2, exact_len=2)
    for n in (2, 3, 4, 5):
        for t in exhaustive_tournaments(n):
            assert oracle_subdivision(t, q).found == (n >= 3)
