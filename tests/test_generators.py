"""Host generators, ``induced`` and the bit transpose against per-bit
references.

The reference functions below are the per-bit implementations the row-wise
ones replaced.  Each generator must build the same out-rows from the same
seed, drawing the same random numbers in the same order, and ``induced``
and ``_transpose`` must return the same rows.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.core import (
    _CHUNK_LANES,
    Tournament,
    _transpose,
    bits_of,
    blowup_cyclic_triangle,
    format_tournament,
    induced,
    parse_tournament,
    random_tournament,
    rotational_tournament,
)
from toursub.experiments import SWEEP_KINDS, build_host, stacked_clusters, stacked_triangles

# --- per-bit reference -------------------------------------------------------


def reference_random_tournament(n, seed):
    rng = random.Random(seed)
    out = [0] * n
    for i in range(n - 1):
        width = n - 1 - i
        row = rng.getrandbits(width) if width else 0
        out[i] |= row << (i + 1)
        back = ~row & ((1 << width) - 1)
        for off in bits_of(back):
            out[i + 1 + off] |= 1 << i
    return Tournament(out)


def reference_blowup_cyclic_triangle(s):
    out = []
    for v in range(3 * s):
        c, p = divmod(v, s)
        within = 0
        for q in range(p + 1, s):
            within |= 1 << (c * s + q)
        out.append(within | (((1 << s) - 1) << (((c + 1) % 3) * s)))
    return Tournament(out)


def reference_stacked(width, layers, flip, reach, seed, forward_within):
    rng = random.Random(seed)
    n = width * layers
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            li, lj = i // width, j // width
            if li == lj:
                if forward_within(i % width, j % width):
                    out[i] |= 1 << j
                else:
                    out[j] |= 1 << i
            elif lj - li <= reach and rng.random() < flip:
                out[j] |= 1 << i
            else:
                out[i] |= 1 << j
    return Tournament(out)


def reference_stacked_triangles(layers, flip, reach, seed):
    return reference_stacked(3, layers, flip, reach, seed, lambda p, q: (q - p) % 3 == 1)


def reference_stacked_clusters(width, layers, flip, reach, seed):
    rot = rotational_tournament(width)
    return reference_stacked(width, layers, flip, reach, seed, rot.has_edge)


def reference_build_host(kind, n, seed):
    if kind == "random":
        return reference_random_tournament(n, seed)
    if kind == "rotational":
        return rotational_tournament(n | 1)
    if kind == "blowup":
        return reference_blowup_cyclic_triangle(max(1, n // 3))
    if kind == "triangles_sparse":
        return reference_stacked_triangles(max(2, n // 3), 0.05, 2, seed)
    if kind == "triangles_local":
        return reference_stacked_triangles(max(2, n // 3), 0.15, 1, seed)
    return reference_stacked_clusters(5, max(2, n // 5), 0.1, 1, seed)


def reference_transpose(rows, n):
    return [sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)]


def reference_induced(t, vertices):
    sub = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(sub)}
    out = []
    for v in sub:
        row = 0
        for w in sub:
            if t.has_edge(v, w):
                row |= 1 << pos[w]
        out.append(row)
    return Tournament(out)


# --- transpose -----------------------------------------------------------------

# The smallest n whose ceil(n/8)**2 lanes fill more than one SWAR chunk.
TWO_CHUNKS = 8 * math.isqrt(_CHUNK_LANES) + 1
# 8-row blocks, 64-bit lanes and the chunk boundary, each from both sides.
BOUNDARY_N = [7, 8, 9, 63, 64, 65, TWO_CHUNKS - 1, TWO_CHUNKS, TWO_CHUNKS + 1]


@st.composite
def bit_matrices(draw):
    n = draw(st.integers(1, 150))
    row = st.one_of(st.just(0), st.just((1 << n) - 1), st.integers(0, (1 << n) - 1))
    return draw(st.lists(row, min_size=n, max_size=n)), n


@given(bit_matrices())
@settings(max_examples=300, deadline=None)
def test_transpose_matches_reference(case):
    rows, n = case
    assert list(_transpose(rows, n)) == reference_transpose(rows, n)


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_transpose_matches_reference_at_boundaries(n):
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(n - 2)] + [0, (1 << n) - 1]
    assert list(_transpose(rows, n)) == reference_transpose(rows, n)


# --- generators ----------------------------------------------------------------

FLIPS = st.sampled_from([0, 0.05, 0.15, 1])
SEEDS = st.integers()


@given(st.integers(1, 80), SEEDS)
@settings(max_examples=300, deadline=None)
def test_random_tournament_matches_reference(n, seed):
    t = random_tournament(n, seed)
    assert t == reference_random_tournament(n, seed)
    assert parse_tournament(format_tournament(t)) == t


@pytest.mark.parametrize("n", sorted(BOUNDARY_N + [127, 128, 129, 257, 600]))
def test_random_tournament_matches_reference_across_lanes_and_chunks(n):
    assert random_tournament(n, n) == reference_random_tournament(n, n)


def test_random_tournament_peaks_under_one_byte_per_entry():
    # The upper rows, their columns and the result are n/8 bytes each per
    # row; the transpose's byte matrix is another n**2/8, and its SWAR
    # temporaries are chunk-sized.
    n = 1350
    tracemalloc.start()
    try:
        random_tournament(n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * n ** 2


@given(st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_blowup_matches_reference(s):
    assert blowup_cyclic_triangle(s) == reference_blowup_cyclic_triangle(s)


@given(st.integers(1, 30), FLIPS, st.integers(0, 3), SEEDS)
@settings(max_examples=300, deadline=None)
def test_stacked_triangles_match_reference(layers, flip, reach, seed):
    t = stacked_triangles(layers, flip, reach, seed)
    assert t == reference_stacked_triangles(layers, flip, reach, seed)
    assert parse_tournament(format_tournament(t)) == t


@given(st.sampled_from([1, 3, 5, 7]), st.integers(1, 16), FLIPS, st.integers(0, 3), SEEDS)
@settings(max_examples=300, deadline=None)
def test_stacked_clusters_match_reference(width, layers, flip, reach, seed):
    t = stacked_clusters(width, layers, flip, reach, seed)
    assert t == reference_stacked_clusters(width, layers, flip, reach, seed)
    assert parse_tournament(format_tournament(t)) == t


@given(st.sampled_from(SWEEP_KINDS), st.integers(1, 120), SEEDS)
@settings(max_examples=300, deadline=None)
def test_build_host_matches_reference(kind, n, seed):
    assert build_host(kind, n, seed) == reference_build_host(kind, n, seed)


# --- induced -------------------------------------------------------------------


@st.composite
def hosts_and_subsets(draw):
    n = draw(st.integers(1, 60))
    t = random_tournament(n, draw(st.integers(0, 2**32)))
    sub = draw(st.lists(st.integers(0, n - 1), min_size=1))
    return t, sub


@given(hosts_and_subsets())
@settings(max_examples=300, deadline=None)
def test_induced_matches_reference(case):
    t, sub = case
    assert induced(t, sub) == reference_induced(t, sub)


@given(hosts_and_subsets(), st.data())
@settings(max_examples=200, deadline=None)
def test_nested_induced_composes_labels(case, data):
    t, sub = case
    inner = induced(t, sub)
    sub2 = data.draw(st.lists(st.integers(0, inner.n - 1), min_size=1))
    nested = induced(inner, sub2)
    assert nested == reference_induced(reference_induced(t, sub), sub2)
    # Vertex i of ``inner`` is the i-th lowest vertex of ``sub``, so indexing
    # the sorted list composes the two calls into one direct call.
    outer = sorted(set(sub))
    assert nested == induced(t, [outer[i] for i in sub2])


def test_induced_single_vertex_and_whole_host():
    t = random_tournament(70, 3)
    single = induced(t, [64])
    assert single == Tournament([0])
    assert induced(t, range(70)) == t


def test_induced_errors():
    t = random_tournament(5, 0)
    for bad in ([5], [-1], [0, 5]):
        with pytest.raises(ValueError, match="^vertex out of range$"):
            induced(t, bad)
    with pytest.raises(ValueError, match="^induced subtournament needs at least one vertex$"):
        induced(t, [])
