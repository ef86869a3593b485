"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Every tolerance is exact; success *rates* of the scaled finder
sweeps are printed for information only, never asserted.
"""

import math
import random as _random
from fractions import Fraction

import pytest
from conftest import adjacency, assert_certified_cut

from toursub.complete_finder import find_complete_subdivision
from toursub.core import (
    blowup_cyclic_triangle,
    mask_of,
    random_tournament,
    rotational_tournament,
    transitive_tournament,
)
from toursub.errors import BallTooLarge, InfeasibleDegree
from toursub.experiments import (
    COMPLETE_COLUMNS,
    TT_COLUMNS,
    csv_body,
    instance_seed,
    sweep,
)
from toursub.matching import HalfMatching, half_matching, hall_half_condition
from toursub.oracle import OracleQuery, exhaustive_tournaments, oracle_subdivision, scan_d_lower
from toursub.subdivision import (
    pattern_complete_digraph,
    pattern_transitive,
    verify,
)
from toursub.transitive_finder import ball_decomposition, find_nearly_regular


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _is_transitive(t):
    return sorted(t.out_degree(v) for v in t.vertices()) == list(range(t.n))


def test_acceptance_1_d2_equals_one_exhaustively():
    """d(2) = 1 over all labeled tournaments on 3..5 vertices."""
    k2 = pattern_complete_digraph(2)
    checked = 0
    finder_runs = 0
    for n in (3, 4, 5):
        for t in exhaustive_tournaments(n):
            checked += 1
            found = oracle_subdivision(t, OracleQuery(k2, max_len=n)).found
            assert found == (not _is_transitive(t))
            delta = min(t.out_degree(v) for v in t.vertices())
            if delta >= 1:
                finder_runs += 1
                sub = find_complete_subdivision(t, 2)
                rep = verify(t, sub, max_len=3)
                assert rep.valid
                assert all(len(p.internals) <= 2 for p in sub.paths.values())
            else:
                with pytest.raises(InfeasibleDegree):
                    find_complete_subdivision(t, 2)
    assert checked == 8 + 64 + 1024
    _report(1, f"oracle matched transitivity on {checked} hosts; "
               f"finder embedded a double connection on all {finder_runs} with delta+ >= 1")


def test_acceptance_2_span_lower_bound():
    """No host on <= 5 vertices contains a complete-3 subdivision; the
    6-vertex transitive host contains a 1-subdivision of the 3-chain."""
    k3 = pattern_complete_digraph(3)
    for n in (3, 4, 5):
        for t in exhaustive_tournaments(n):
            out = oracle_subdivision(t, OracleQuery(k3, max_len=n))
            assert out.status == "not_found"
    t6 = transitive_tournament(6)
    out = oracle_subdivision(t6, OracleQuery(pattern_transitive(3), max_len=2, exact_len=2))
    assert out.found
    rep = verify(t6, out.subdivision, max_len=2, exact_len=2)
    assert rep.valid
    _report(2, "complete-3 needs 6 vertices (exhaustive through n=5); "
               "transitive(6) holds an exact-length-2 witness")


def test_acceptance_3_low_degree_count_bound():
    """1000 seeded random tournaments, every threshold: at most 2l+1
    vertices of in-degree (out-degree) at most l."""
    base = 1003
    for i in range(1000):
        seed = instance_seed(base, i)
        n = 5 + seed % 196  # n in [5, 200]
        t = random_tournament(n, seed)
        ins = sorted(t.n - 1 - t.out_degree(v) for v in t.vertices())
        outs = sorted(t.out_degree(v) for v in t.vertices())
        for degs in (ins, outs):
            count = 0
            idx = 0
            for bound in range(n):
                while idx < n and degs[idx] <= bound:
                    idx += 1
                count = idx
                assert count <= 2 * bound + 1
            idx = 0
    _report(3, "1000 hosts x all thresholds, both degree directions")


def test_acceptance_4_half_matching_equivalence():
    """2000 random bipartite instances: augmenting-path half-matching
    succeeds iff the brute-force subset condition holds."""
    rng = _random.Random(77)
    successes = 0
    for _ in range(2000):
        nl = rng.randrange(1, 13)
        nr = rng.randrange(1, 13)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        # left vertex u is host u, right vertex v is host 12 + v
        rows = [
            mask_of(12 + v for v in range(nr) if rng.random() < density)
            for u in range(nl)
        ]
        left, right = (1 << nl) - 1, ((1 << nr) - 1) << 12
        res = half_matching(rows.__getitem__, left, right)
        brute = hall_half_condition(rows.__getitem__, left, right)
        assert isinstance(res, HalfMatching) == brute
        if isinstance(res, HalfMatching):
            successes += 1
            assert mask_of(res.first) | mask_of(res.second) == left
            assert not mask_of(res.first) & mask_of(res.second)
            for half in (res.first, res.second):
                assert len(set(half.values())) == len(half)  # so each right is used at most twice
                assert all(rows[u] >> v & 1 for u, v in half.items())
    _report(4, f"2000 instances, {successes} saturations, equivalence exact")


def test_acceptance_5_cut_chain_certificates():
    """Every cut-chain stage from a 100-run scaled sweep is certified:
    exhaustive expansion check for cuts of size <= 12, stored half-matching
    splits validated for all of them."""
    from toursub.experiments import build_host

    rows, chains, bad = sweep(
        "complete", k=3, trials=100, n=210, scale=Fraction(1, 96), seed=55
    )
    assert bad == []
    assert chains, "sweep produced no cut-chain stages to certify"
    nonempty = [c for _, c in chains if c.cut]
    assert nonempty, "sweep produced only empty cut sets"
    checked_exhaustively = 0
    for instance, rec in chains:
        host = build_host(rows[instance]["kind"], 210, rows[instance]["seed"])
        assert_certified_cut(host, rec)
        if 0 < rec.cut.bit_count() <= 12:
            checked_exhaustively += 1
    _report(5, f"{len(chains)} stages from 100 runs ({len(nonempty)} nonempty cuts, "
               f"{checked_exhaustively} certified by full subset enumeration)")


def test_acceptance_6_finder_soundness_sweeps():
    """Scaled sweeps of all three finders: every returned witness verifies
    at its promised cap; rates are reported, never asserted."""
    lines = []

    total_rows, chains, bad = sweep(
        "complete", k=2, trials=100, n=240, scale=Fraction(1, 96), seed=21
    )
    assert bad == []
    wit = sum(1 for r in total_rows if r["outcome"] == "witness")
    assert all(r["verify_ok"] == 1 for r in total_rows if r["outcome"] == "witness")
    lines.append(f"complete k=2: {wit}/100")

    rows, chains, bad = sweep(
        "complete", k=3, trials=100, n=240, scale=Fraction(1, 96), seed=22
    )
    assert bad == []
    wit = sum(1 for r in rows if r["outcome"] == "witness")
    lines.append(f"complete k=3: {wit}/100")

    for k in (2, 3, 4, 5, 6):
        rows, _, bad = sweep(
            "tt3", k=k, trials=100, n=max(80, 15 * k * k), scale=Fraction(1, 12), seed=30 + k
        )
        assert bad == []
        wit = sum(1 for r in rows if r["outcome"] == "witness")
        lines.append(f"tt3 k={k}: {wit}/100")

    for k in (2, 3, 4):
        rows, _, bad = sweep(
            "onesub", k=k, trials=100, n=140 * k, scale=Fraction(1, 16), seed=40 + k
        )
        assert bad == []
        wit = sum(1 for r in rows if r["outcome"] == "witness")
        lines.append(f"onesub k={k}: {wit}/100")

    _report(6, "all witnesses verified at their caps; rates: " + ", ".join(lines))


def test_acceptance_7_nearly_regular_extraction():
    """500 random + structured hosts: the bounded-ratio set has at least
    n/5 vertices and the returned homogeneous side at least n/10."""
    base = 1007
    hosts = []
    for i in range(350):
        seed = instance_seed(base, i)
        hosts.append(random_tournament(10 + seed % 291, seed))
    for i in range(50):
        hosts.append(rotational_tournament(11 + 2 * (instance_seed(base, 1000 + i) % 140)))
    for i in range(50):
        hosts.append(transitive_tournament(10 + instance_seed(base, 2000 + i) % 291))
    for i in range(50):
        hosts.append(blowup_cyclic_triangle(4 + instance_seed(base, 3000 + i) % 97))
    assert len(hosts) == 500
    for t in hosts:
        n = t.n
        ratio_count = 0
        for v in t.vertices():
            dp, dm = t.out_degree(v), t.n - 1 - t.out_degree(v)
            if dp and dm and max(dp / dm, dm / dp) <= 4:
                ratio_count += 1
        assert 5 * ratio_count >= n
        nr = find_nearly_regular(t)
        assert 10 * len(nr.vertices) >= n
        for v in nr.vertices:
            dp, dm = t.out_degree(v), t.n - 1 - t.out_degree(v)
            if nr.side == "out":
                assert dm <= dp <= 4 * dm
            else:
                assert dp <= dm <= 4 * dp
    _report(7, "500 hosts, ratio set >= n/5 and homogeneous side >= n/10 everywhere")


def _sparse_graph(seed):
    """Sparse graph passing the ball precondition outright: every component
    (tiny clique, star or path) stays below the n/(5 ln n) bound.  At these
    sizes the level-removal threshold exceeds the bound, so qualifying
    graphs are exactly the pre-decomposed ones; the giant paths in the test
    body cover the removal machinery."""
    rng = _random.Random(seed)
    n = rng.randrange(1200, 3200)
    bound = n / (5 * math.log(n))
    cap = max(3, int(0.9 * bound))
    edges = []
    vertices = list(range(n))
    rng.shuffle(vertices)
    i = 0
    while i < len(vertices):
        shape = rng.choice(("path", "path", "star", "clique", "isolated"))
        size = 1 if shape == "isolated" else rng.randrange(2, cap)
        chunk = vertices[i : i + size]
        i += size
        if len(chunk) < 2:
            continue
        if shape == "clique":
            for a in range(len(chunk)):
                for b in range(a + 1, len(chunk)):
                    edges.append((chunk[a], chunk[b]))
        elif shape == "star":
            for b in chunk[1:]:
                edges.append((chunk[0], b))
        else:
            for a, b in zip(chunk, chunk[1:]):
                edges.append((a, b))
    return adjacency(n, edges)


def test_acceptance_8_ball_separator_bounds():
    """200 sparse graphs: the decomposition obeys both n/(5 ln n) bounds;
    complete graphs are rejected with a ball witness."""
    removals = 0
    for i in range(198):
        g = _sparse_graph(instance_seed(1008, i))
        out = ball_decomposition(g)
        bound = len(g) / (5 * math.log(len(g)))
        assert len(out.removed) <= bound
        assert all(len(c) <= bound for c in out.components)
        assert len(out.removed) + sum(len(c) for c in out.components) == len(g)
        removals += len(out.removed)
    # two connected giants exercise sustained level removal
    for maker in (
        lambda: adjacency(300_000, [(i, i + 1) for i in range(299_999)]),
        lambda: adjacency(300_000, [(i, (i + 1) % 300_000) for i in range(300_000)]),
    ):
        g = maker()
        out = ball_decomposition(g)
        bound = len(g) / (5 * math.log(len(g)))
        assert 0 < len(out.removed) <= bound
        assert all(len(c) <= bound for c in out.components)
        removals += len(out.removed)
    for size in (60, 100):
        g = adjacency(size, [(i, j) for i in range(size) for j in range(i + 1, size)])
        with pytest.raises(BallTooLarge):
            ball_decomposition(g)
    _report(8, f"200 qualifying graphs decomposed ({removals} vertices removed in total); "
               "complete graphs rejected")


def test_acceptance_9_blowup_remark_at_checked_size():
    """Blow-up remark at its checked size: the 12-vertex cyclic-triangle
    blow-up (three transitive classes of 4, A -> B -> C -> A) contains no
    complete-4 subdivision once every path is capped at length 2.

    Why: with four branch vertices, two of them, x before y, share a class.
    Each class is transitive, so a vertex beats every later vertex of its
    class; every edge leaving the class goes forward within it or into the
    next class, and no edge from the next class leads back.  Hence no path of
    length <= 2 runs from y to x, and the pattern edge y -> x cannot be
    realised.  Raising the cap to 3 (one step around the triangle of classes
    and back) removes the obstruction, so the cap, not the host's size, is
    what fails.

    The remark does not hold for complete-3: with one branch vertex per class
    no two share a class, every needed midpoint pool is nonempty, and the
    oracle exhibits such a witness at cap 2.  That correction is checked too.
    The finder-soundness clause is unchanged.
    """
    from toursub.params import FinderParams

    s = 4
    t = blowup_cyclic_triangle(s)
    sub = find_complete_subdivision(t, 3, FinderParams(3, Fraction(1, 32)))
    rep = verify(t, sub, max_len=3)
    assert rep.valid, "finder soundness clause failed"

    out = oracle_subdivision(t, OracleQuery(pattern_complete_digraph(4), max_len=2))
    assert out.status == "not_found", (
        "blowup_cyclic_triangle(4) holds a complete-4 subdivision with all "
        "paths of length <= 2"
    )

    # the obstruction itself, without the oracle: within a class, no path of
    # length 1 or 2 runs from a later vertex back to an earlier one
    for c in range(3):
        members = range(c * s, (c + 1) * s)
        for x in members:
            for y in members:
                if x < y:
                    assert not t.has_edge(y, x), (y, x)
                    assert t.out_mask(y) & t.in_mask(x) == 0, (y, x)

    out3 = oracle_subdivision(t, OracleQuery(pattern_complete_digraph(4), max_len=3))
    assert out3.found, "complete-4 should embed once paths may have length 3"
    assert verify(t, out3.subdivision, max_len=3).valid

    # corrected k=3 statement: one branch vertex per class gives a witness
    out_k3 = oracle_subdivision(t, OracleQuery(pattern_complete_digraph(3), max_len=2))
    assert out_k3.found, "complete-3 should embed at cap 2 with one branch vertex per class"
    assert verify(t, out_k3.subdivision, max_len=2).valid
    _report(9, f"no complete-4 witness at cap 2 ({out.nodes} oracle nodes, same-class "
               f"paths checked directly); complete-4 found at cap 3 and complete-3 "
               f"at cap 2, both verified")


def test_acceptance_10_sweep_determinism():
    """Identical configs reproduce identical CSV bodies."""
    args = dict(k=3, trials=25, n=180, scale=Fraction(1, 96), seed=71)
    rows1, _, _ = sweep("complete", **args)
    rows2, _, _ = sweep("complete", **args)
    assert csv_body(rows1, COMPLETE_COLUMNS) == csv_body(rows2, COMPLETE_COLUMNS)

    targs = dict(k=4, trials=25, n=240, scale=Fraction(1, 12), seed=72)
    trows1, _, _ = sweep("tt3", **targs)
    trows2, _, _ = sweep("tt3", **targs)
    assert csv_body(trows1, TT_COLUMNS) == csv_body(trows2, TT_COLUMNS)

    # scan-dk repeats identically apart from the wall-clock column
    scan1 = scan_d_lower(2, [4], trials=10, seed=5, max_len=4)
    scan2 = scan_d_lower(2, [4], trials=10, seed=5, max_len=4)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "millis"} for r in rows]
    assert strip(scan1) == strip(scan2)
    _report(10, "complete and tt3 sweep bodies byte-identical; scan rows identical "
                "up to the timing column")
