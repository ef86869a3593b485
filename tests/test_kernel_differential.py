"""The pure search kernel against a frozen copy of its earlier form.

``reference_search`` below is the pure kernel before its per-node cost was
cut and before it recorded failed embedding states, kept verbatim.  The
kernel must return the identical ``(status, branch, internals, nodes)``
tuple on every input, a budget stop included: the same branch and candidate
order, the same most-constrained edge (the first on a tie) and the same
node at which each count is taken.  A revisited failed state adds the nodes
of its first visit at once, so budget stops inside such skips are tested on
symmetric hosts, where states recur, at strided budgets on two refutations,
and with the table cleared after every one or three records.  At path
lengths up to 2 the branch placements that fail a check are counted in
bulk, so budget stops inside those counts are tested on a refutation whose
branch maps die at the branch level, and on hosts wider than a machine
word.
"""

import importlib.util
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toursub._kernel import pure, search_subdivision
from toursub.core import (
    blowup_cyclic_triangle,
    random_tournament,
    rotational_tournament,
)
from toursub.subdivision import PatternDigraph, parse_pattern

# --- the frozen reference -------------------------------------------------------

NOTFOUND = 0
FOUND = 1
BUDGET_EXCEEDED = 2


class _Budget(Exception):
    pass


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_search(
    out_masks: Sequence[int],
    k: int,
    edges: Sequence[Tuple[int, int]],
    max_len: int,
    exact_len: Optional[int],
    budget: int,
) -> Tuple[int, Optional[Tuple[int, ...]], Optional[List[Tuple[int, ...]]], int]:
    """Returns (status, branch, internals-per-edge, nodes)."""
    n = len(out_masks)
    full = (1 << n) - 1
    out = list(out_masks)
    inm = [full & ~out[v] & ~(1 << v) for v in range(n)]
    m = len(edges)
    lo_len = exact_len if exact_len is not None else 1
    hi_len = exact_len if exact_len is not None else max_len

    branch = [-1] * k
    internals: List[Optional[Tuple[int, ...]]] = [None] * m
    state = {"used": 0, "nodes": 0}

    def tick():
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise _Budget

    def path_feasible(x: int, y: int, pool: int) -> bool:
        # Necessary condition only: distinctness of internals is ignored.
        if lo_len <= 1 <= hi_len and (out[x] >> y) & 1:
            return True
        if lo_len <= 2 <= hi_len and out[x] & inm[y] & pool:
            return True
        if hi_len < 3:
            return False
        layer = out[x] & pool
        for length in range(3, hi_len + 1):
            nxt = 0
            for z in _bits(layer):
                nxt |= out[z]
            layer = nxt & pool
            if not layer:
                return False
            if length >= lo_len and layer & inm[y]:
                return True
        return False

    def assign_branch(i: int) -> bool:
        for h in range(n):
            if (state["used"] >> h) & 1:
                continue
            tick()
            branch[i] = h
            state["used"] |= 1 << h
            pool = full & ~state["used"]
            ok = True
            for a, b in edges:
                if a <= i and b <= i and (a == i or b == i):
                    if not path_feasible(branch[a], branch[b], pool):
                        ok = False
                        break
            if ok:
                if i == k - 1:
                    if embed_edges(m):
                        return True
                elif assign_branch(i + 1):
                    return True
            branch[i] = -1
            state["used"] &= ~(1 << h)
        return False

    def edge_options(ei: int, free: int) -> int:
        x = branch[edges[ei][0]]
        y = branch[edges[ei][1]]
        est = 0
        if lo_len <= 1 <= hi_len and (out[x] >> y) & 1:
            est += 1
        if lo_len <= 2 <= hi_len:
            est += (out[x] & inm[y] & free).bit_count()
        if hi_len >= 3:
            a = (out[x] & free).bit_count()
            b = (inm[y] & free).bit_count()
            est += a if a < b else b
        return est

    def embed_edges(remaining: int) -> bool:
        if remaining == 0:
            return True
        free = full & ~state["used"]
        pick = -1
        best = -1
        for ei in range(m):
            if internals[ei] is not None:
                continue
            est = edge_options(ei, free)
            if est == 0:
                return False
            if best < 0 or est < best:
                best = est
                pick = ei
        x = branch[edges[pick][0]]
        y = branch[edges[pick][1]]

        if lo_len <= 1 <= hi_len and (out[x] >> y) & 1:
            tick()
            internals[pick] = ()
            if embed_edges(remaining - 1):
                return True
            internals[pick] = None

        chain = [0] * max(hi_len, 1)

        def extend(depth: int, total: int, prev: int) -> bool:
            # depth internals placed so far out of ``total``.
            free_now = full & ~state["used"]
            if depth == total - 1:
                cands = out[prev] & inm[y] & free_now
            else:
                cands = out[prev] & free_now
            for z in _bits(cands):
                tick()
                chain[depth] = z
                state["used"] |= 1 << z
                if depth == total - 1:
                    internals[pick] = tuple(chain[:total])
                    if embed_edges(remaining - 1):
                        return True
                    internals[pick] = None
                elif extend(depth + 1, total, z):
                    return True
                state["used"] &= ~(1 << z)
            return False

        for length in range(max(2, lo_len), hi_len + 1):
            if extend(0, length - 1, x):
                return True
        return False

    try:
        found = assign_branch(0) if k > 0 else embed_edges(m)
    except _Budget:
        return BUDGET_EXCEEDED, None, None, state["nodes"]
    if found:
        return (
            FOUND,
            tuple(branch),
            [tuple(t) for t in internals],  # type: ignore[arg-type]
            state["nodes"],
        )
    return NOTFOUND, None, None, state["nodes"]


# --- inputs ---------------------------------------------------------------------

# The budget of a drawn query: a longer search is cut at this node, which
# both kernels must reach in the same state.
NODE_CAP = 4000


def masks_from_bits(n: int, bits: int) -> List[int]:
    """Out-masks of the tournament whose pair (i, j), i < j, in row-major
    order points i -> j when its bit of ``bits`` is set."""
    out = [0] * n
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits >> pos) & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
            pos += 1
    return out


def host_masks(t):
    return [t.out_mask(v) for v in t.vertices()]


@st.composite
def hosts(draw):
    n = draw(st.integers(0, 10))
    return masks_from_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


@st.composite
def edge_patterns(draw):
    # Drawn edge order, and vertices with no edge at all.
    k = draw(st.integers(1, 5))
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    if not pairs:
        return PatternDigraph(k, ())
    return PatternDigraph(k, tuple(draw(st.lists(st.sampled_from(pairs), unique=True,
                                                 max_size=7))))


PATTERN_SPECS = ([f"complete:{k}" for k in range(1, 5)]
                 + [f"transitive:{k}" for k in range(1, 6)]
                 + [f"cycle:{k}" for k in range(2, 5)])
patterns = st.sampled_from(PATTERN_SPECS).map(parse_pattern) | edge_patterns()


def run_both(masks, pattern, max_len, exact_len, budget):
    args = (masks, pattern.k, list(pattern.edges), max_len, exact_len, budget)
    return reference_search(*args), pure.search_subdivision(*args)


@given(hosts(), patterns, st.integers(1, 4), st.none() | st.integers(1, 4), st.data())
@settings(max_examples=400, deadline=None)
def test_same_result_as_the_reference(masks, pattern, max_len, exact_len, data):
    ref, got = run_both(masks, pattern, max_len, exact_len, NODE_CAP)
    assert got == ref
    # Stop the same search at a node position inside its tree.
    budget = data.draw(st.integers(0, ref[3]), label="budget")
    ref, got = run_both(masks, pattern, max_len, exact_len, budget)
    assert got == ref


@pytest.mark.parametrize("n, seed, spec, max_len, exact_len", [
    (7, 15, "complete:3", 3, None),  # found after backtracking over long paths
    (7, 0, "complete:3", 4, 3),
    (7, 2, "cycle:4", 4, 4),
    (7, 2, "transitive:4", 2, 2),
    (7, 2, "complete:4", 2, None),
    (7, 4, "transitive:5", 3, None),  # found
    (7, 3, "transitive:5", 1, None),  # cap 1: only direct edges admit a placement
    (8, 3, "transitive:5", 3, 1),
    (7, 2, "cycle:4", 4, 2),  # the last branch vertex is a head and a tail
])
def test_every_budget_stops_at_the_same_node(n, seed, spec, max_len, exact_len):
    masks = host_masks(random_tournament(n, seed))
    pattern = parse_pattern(spec)
    total = run_both(masks, pattern, max_len, exact_len, NODE_CAP)[0][3]
    for budget in range(total + 2):
        ref, got = run_both(masks, pattern, max_len, exact_len, budget)
        assert got == ref, budget


@pytest.mark.parametrize("t", [random_tournament(70, 0), rotational_tournament(71)])
@pytest.mark.parametrize("spec, max_len, exact_len", [
    ("transitive:3", 2, 2),
    ("complete:3", 2, None),
    ("complete:3", 1, None),  # every placement of branch vertex 1 is rejected
    ("complete:5", 2, None),
])
def test_hosts_wider_than_a_machine_word(t, spec, max_len, exact_len):
    masks = host_masks(t)
    pattern = parse_pattern(spec)
    ref, got = run_both(masks, pattern, max_len, exact_len, NODE_CAP)
    assert got == ref
    total = ref[3]
    for budget in range(0, total, total // 7 + 1):
        ref, got = run_both(masks, pattern, max_len, exact_len, budget)
        assert got == ref, budget


# blowup(5) complete:4 cap 2 is refuted at the branch level: 10,260 of its
# 11,175 nodes are rejected placements, counted in bulk.
@pytest.mark.parametrize("search, stride", [(pure.search_subdivision, 37),
                                            (search_subdivision, 997)], ids=["pure", "fanned"])
def test_budget_stops_inside_bulk_counts(search, stride):
    pattern = parse_pattern("complete:4")
    args = (host_masks(blowup_cyclic_triangle(5)), pattern.k, list(pattern.edges), 2, None)
    nodes = 11_175
    assert search(*args, 10**9) == search(*args, nodes) == (NOTFOUND, None, None, nodes)
    for budget in [*range(0, nodes, stride), nodes - 1]:
        assert search(*args, budget) == (BUDGET_EXCEEDED, None, None, budget + 1), budget


# --- the oracle workload queries ------------------------------------------------

# (host, pattern, max_len, exact_len, status, nodes), as run by the oracle
# benchmark workload; the first two refutations are checked for their counts
# only, since the reference takes seconds on them.
WORKLOAD_QUERIES = [
    (random_tournament(12, 0), "transitive:5", 2, 2, NOTFOUND, 153_331),
    (random_tournament(13, 0), "transitive:5", 2, 2, NOTFOUND, 227_288),
    (blowup_cyclic_triangle(5), "complete:4", 2, None, NOTFOUND, 11_175),
    (rotational_tournament(11), "complete:4", 2, None, FOUND, 738),
    (blowup_cyclic_triangle(4), "complete:4", 3, None, FOUND, 74_034),
    (random_tournament(13, 0), "complete:4", 3, None, FOUND, 39),
]


@pytest.mark.parametrize("t, spec, max_len, exact_len, status, nodes", WORKLOAD_QUERIES)
def test_workload_node_counts_are_pinned(t, spec, max_len, exact_len, status, nodes):
    pattern = parse_pattern(spec)
    args = (host_masks(t), pattern.k, list(pattern.edges), max_len, exact_len, 10**9)
    got = pure.search_subdivision(*args)
    assert (got[0], got[3]) == (status, nodes)
    if nodes < 100_000:
        assert got == reference_search(*args)


# --- the README's search table ----------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
STATUS_NAMES = {NOTFOUND: "not_found", FOUND: "found"}


def bench_search_workloads():
    """The (label, host, spec, max_len, exact_len) workloads of
    ``benchmarks/bench_search.py``."""
    spec = importlib.util.spec_from_file_location("bench_search", ROOT / "benchmarks" / "bench_search.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def readme_search_rows():
    """Label, status and node count of every README table row with a
    status column."""
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and len(cells) > 2 and cells[1] in STATUS_NAMES.values():
            rows[cells[0].rstrip("\\*")] = (cells[1], int(cells[2].replace(",", "")))
    return rows


def test_readme_search_table_is_the_kernels_answer():
    # A workload among the pinned oracle queries reads its pinned answer;
    # only the others are searched.
    answers = {(tuple(host_masks(t)), spec, max_len, exact_len): (STATUS_NAMES[status], nodes)
               for t, spec, max_len, exact_len, status, nodes in WORKLOAD_QUERIES}
    expected = {}
    for label, host, spec, max_len, exact_len in bench_search_workloads():
        key = (tuple(host_masks(host)), spec, max_len, exact_len)
        if key not in answers:
            pattern = parse_pattern(spec)
            status, _, _, nodes = search_subdivision(
                host_masks(host), pattern.k, list(pattern.edges), max_len, exact_len, 10**9)
            answers[key] = (STATUS_NAMES[status], nodes)
        expected[label] = answers[key]
    assert readme_search_rows() == expected


# --- the failed-state table -------------------------------------------------------


def relabeled(masks: List[int], perm: List[int]) -> List[int]:
    """Out-masks of the copy in which vertex v is called perm[v]."""
    out = [0] * len(masks)
    for v, mask in enumerate(masks):
        for w in _bits(mask):
            out[perm[v]] |= 1 << perm[w]
    return out


@st.composite
def symmetric_hosts(draw):
    # Blow-ups and rotational tournaments have many automorphisms, so
    # embedding states recur and the table hits; on random hosts it rarely
    # does.
    t = draw(st.sampled_from([blowup_cyclic_triangle(2), blowup_cyclic_triangle(3)]
                             + [rotational_tournament(n) for n in range(5, 10, 2)]))
    return relabeled(host_masks(t), draw(st.permutations(range(t.n))))


# Patterns large enough for a search to revisit states.
larger_patterns = st.sampled_from([s for s in PATTERN_SPECS if int(s.split(":")[1]) >= 3])


@given(symmetric_hosts(), larger_patterns.map(parse_pattern), st.integers(2, 4),
       st.none() | st.integers(2, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_same_result_as_the_reference_on_symmetric_hosts(masks, pattern, max_len,
                                                        exact_len, data):
    ref, got = run_both(masks, pattern, max_len, exact_len, NODE_CAP)
    assert got == ref
    budget = data.draw(st.integers(0, ref[3]), label="budget")
    ref, got = run_both(masks, pattern, max_len, exact_len, budget)
    assert got == ref


# Refutations on blowup(3) whose searches revisit failed states: 69 hits on
# the first; on the second, 768 hits that skip 972 nodes.
TABLE_QUERIES = [
    ("transitive:4", 2, 2, 2_259),
    ("complete:3", 3, 3, 4_746),
]


@pytest.mark.parametrize("spec, max_len, exact_len, nodes", TABLE_QUERIES)
def test_table_queries_stop_at_the_same_node(spec, max_len, exact_len, nodes):
    masks = host_masks(blowup_cyclic_triangle(3))
    pattern = parse_pattern(spec)
    args = (masks, pattern.k, list(pattern.edges), max_len, exact_len)
    for budget in (nodes, 10**9):
        assert pure.search_subdivision(*args, budget) == reference_search(*args, budget) \
            == (NOTFOUND, None, None, nodes)
    # The reference counts one node at a time, so on a refutation of ``nodes``
    # nodes every smaller budget stops it at ``budget + 1``.  Many of the
    # strided budgets fall inside the node ranges that table hits skip.
    for budget in range(0, nodes, 7 if nodes < 3000 else 17):
        assert pure.search_subdivision(*args, budget) == (BUDGET_EXCEEDED, None, None,
                                                          budget + 1), budget


@pytest.mark.parametrize("limit", [1, 3])
@pytest.mark.parametrize("spec, max_len, exact_len, nodes", TABLE_QUERIES)
def test_a_cleared_table_gives_the_same_result(monkeypatch, limit, spec, max_len,
                                              exact_len, nodes):
    monkeypatch.setattr(pure, "_TABLE_LIMIT", limit)
    masks = host_masks(blowup_cyclic_triangle(3))
    pattern = parse_pattern(spec)
    for budget in [*range(0, nodes, 149), nodes - 1, nodes, 10**9]:
        ref, got = run_both(masks, pattern, max_len, exact_len, budget)
        assert got == ref, budget
