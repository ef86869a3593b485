"""The one-entry degree memo behind ``universe_degrees``.

A host keeps the last universe it counted, so consecutive finder stages on
one universe share one row-popcount pass.  The memo must answer exactly what
a fresh count would, across interleaved universes and hosts, and no stage
may mutate the lists it shares.
"""

from contextlib import suppress
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_degree_index import degree_universes, hosts, reference_universe_degrees

from toursub import core
from toursub.complete_finder import (
    find_balanced_set,
    find_complete_subdivision_ex,
    peel_low_outdegree,
)
from toursub.core import random_tournament, universe_degrees
from toursub.errors import StageFailure
from toursub.experiments import SWEEP_KINDS, build_host
from toursub.params import FinderParams
from toursub.transitive_finder import (
    ball_decomposition,
    build_aux_graph,
    find_nearly_regular_k,
    partition_components,
    transitive_chain,
)


def test_full_host_is_counted_once_per_round(monkeypatch):
    # Peel removes nothing from this host, so the minimum out-degree check,
    # the first round's peel and the balanced set all rank the full host.
    t = random_tournament(240, 5)
    params = FinderParams(3, Fraction(1, 96))
    assert peel_low_outdegree(t, params.rescaled(3))[0] == []
    t = random_tournament(240, 5)  # a host with no memo yet

    counted = []
    count = core._count_degrees

    def counting(rows, uni):
        counted.append(uni)
        return count(rows, uni)

    monkeypatch.setattr(core, "_count_degrees", counting)
    find_complete_subdivision_ex(t, 3, params)
    assert counted.count(t.full_mask) == 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_interleaved_universes_and_hosts_match_reference(data):
    hosts_ = [data.draw(hosts(max_n=150)) for _ in range(2)]
    pools = [[data.draw(degree_universes(t)) for _ in range(3)] for t in hosts_]
    for _ in range(data.draw(st.integers(1, 12))):
        h = data.draw(st.integers(0, 1))
        t, uni = hosts_[h], data.draw(st.sampled_from(pools[h]))
        vertices, degrees = universe_degrees(t, uni)
        assert list(zip(vertices, degrees)) == reference_universe_degrees(t, uni)


def _stages(t, uni):
    """Every stage that reads ``universe_degrees``, on ``uni``."""
    params = FinderParams(3, Fraction(1, 96))
    k4 = FinderParams(4, Fraction(1, 16))
    vertices = universe_degrees(t, uni)[0]

    def partition():
        decomp = ball_decomposition(build_aux_graph(t, 4, k4, uni))
        comps = [core.mask_of(vertices[v] for v in c) for c in decomp.components]
        partition_components(t, comps, uni)

    return [
        lambda: peel_low_outdegree(t, params, uni),
        lambda: find_balanced_set(t, params, uni),
        lambda: find_nearly_regular_k(t, 3, uni),
        lambda: build_aux_graph(t, 4, k4, uni),
        partition,
        lambda: transitive_chain(t, uni),
    ]


@pytest.mark.parametrize("kind", SWEEP_KINDS)
@pytest.mark.parametrize("keep", [2, 4])
def test_no_stage_mutates_the_shared_lists(kind, keep):
    t = build_host(kind, 240, 11)
    uni = core.mask_of(v for v in t.vertices() if v % 4 < keep)  # half or all of it
    reference = reference_universe_degrees(t, uni)
    expected = ([v for v, _ in reference], [d for _, d in reference])
    for stage in _stages(t, uni):
        shared = universe_degrees(t, uni)
        with suppress(StageFailure, ValueError):
            stage()
        assert shared == expected
        assert universe_degrees(t, uni) == expected
