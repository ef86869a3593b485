"""The universe form of the transitive stages against a renumbered copy.

A subtournament is a universe mask over its host.  Each stage called with a
universe must return what it returns on ``induced(t, bits_of(universe))``
(the 0-vertex tournament for the empty universe), with the copy's vertex i
read as the universe's i-th lowest vertex.
"""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toursub.core import Tournament, bits_of, induced, mask_of, transitive_tournament
from toursub.errors import StageFailure
from toursub.experiments import SWEEP_KINDS, build_host
from toursub.params import FinderParams
from toursub.transitive_finder import (
    NearlyRegularSet,
    build_aux_graph,
    find_nearly_regular,
    find_nearly_regular_k,
    partition_components,
    transitive_chain,
)


@st.composite
def hosts_and_universes(draw):
    """(host, universe, sorted universe vertices, the renumbered copy)."""
    kind = draw(st.sampled_from(SWEEP_KINDS + ("transitive",)))
    n = draw(st.integers(1, 160))
    seed = draw(st.integers(0, 2**16))
    t = transitive_tournament(n) if kind == "transitive" else build_host(kind, n, seed)
    shape = draw(st.sampled_from(["empty", "single", "whole", "subset", "subset", "subset"]))
    if shape == "empty":
        uni = 0
    elif shape == "single":
        uni = 1 << draw(st.integers(0, t.n - 1))
    elif shape == "whole":
        uni = t.full_mask
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        keep = draw(st.sampled_from([0.1, 0.5, 0.9]))
        uni = sum(1 << v for v in t.vertices() if rng.random() < keep)
    verts = list(bits_of(uni))
    return t, uni, verts, induced(t, verts) if verts else Tournament([])


def outcome(fn, *args):
    try:
        return fn(*args)
    except StageFailure as exc:
        return ("StageFailure", str(exc), exc.stage, exc.details)
    except ValueError as exc:
        return ("ValueError", str(exc))


def lift_set(result, verts):
    if isinstance(result, NearlyRegularSet):
        return replace(result, vertices=tuple(verts[v] for v in result.vertices))
    return result


def lift_partition(part, verts):
    if isinstance(part, tuple):  # an error outcome
        return part

    def lift(vs):
        return mask_of(verts[v] for v in bits_of(vs))

    return replace(
        part,
        order=tuple(verts[v] for v in part.order),
        a1=lift(part.a1),
        a2=lift(part.a2),
        x_family=tuple(map(lift, part.x_family)),
        y_family=tuple(map(lift, part.y_family)),
        x_cap_a1=lift(part.x_cap_a1),
        y_cap_a2=lift(part.y_cap_a2),
    )


CASES = hosts_and_universes()


@given(CASES)
@settings(max_examples=200, deadline=None)
def test_nearly_regular_on_a_universe(case):
    t, uni, verts, sub = case
    assert outcome(find_nearly_regular, t, uni) == lift_set(outcome(find_nearly_regular, sub), verts)


@given(CASES, st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_nearly_regular_k_on_a_universe(case, k):
    t, uni, verts, sub = case
    assert outcome(find_nearly_regular_k, t, k, uni) == \
        lift_set(outcome(find_nearly_regular_k, sub, k), verts)


@given(CASES, st.integers(1, 6),
       st.sampled_from([Fraction(1, 96), Fraction(1, 16), Fraction(1, 4), Fraction(1)]))
@settings(max_examples=200, deadline=None)
def test_aux_graph_on_a_universe(case, k, scale):
    # Graph vertices are ranks inside the universe on both sides.
    t, uni, verts, sub = case
    params = FinderParams(k, scale)
    g = build_aux_graph(t, k, params, uni)
    assert len(g) == len(verts)
    assert g == build_aux_graph(sub, k, params)


@given(CASES, st.data())
@settings(max_examples=200, deadline=None)
def test_partition_on_a_universe(case, data):
    t, uni, verts, sub = case
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    members = [v for v in verts if rng.random() < 0.8]
    rng.shuffle(members)
    cuts = sorted(rng.sample(range(1, len(members)),
                             min(max(len(members) - 1, 0), data.draw(st.integers(0, 30)))))
    bounds = [0] + cuts + [len(members)]
    components = [members[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    pos = {v: i for i, v in enumerate(verts)}
    local = [mask_of(pos[v] for v in c) for c in components]
    assert outcome(partition_components, t, [mask_of(c) for c in components], uni) == \
        lift_partition(outcome(partition_components, sub, local), verts)


@given(CASES)
@settings(max_examples=200, deadline=None)
def test_chain_on_a_universe(case):
    t, uni, verts, sub = case
    assert transitive_chain(t, uni) == [verts[v] for v in transitive_chain(sub)]
