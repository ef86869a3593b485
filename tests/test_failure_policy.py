"""The scale-1 failure policy of the finders.

Every finder turns a stage failure into its run's FailureTrace through
``FailureTrace.from_error``.  The transitive finders do so at every scale;
the complete driver re-raises at scale 1, where its thresholds are proved.
A stage is forced to fail here because no host that meets the scale-1 gates
makes one fail.
"""

import tracemalloc
from fractions import Fraction

import pytest

from toursub import complete_finder, transitive_finder
from toursub.core import random_tournament, rotational_tournament
from toursub.errors import FailureTrace, InfeasibleDegree, StageFailure
from toursub.params import FinderParams


def _raise_stage_failure(*args, **kwargs):
    raise StageFailure("forced stage failure", stage="nearly-regular")


def test_tt3_returns_a_trace_at_scale_1(monkeypatch):
    monkeypatch.setattr(transitive_finder, "find_nearly_regular_k", _raise_stage_failure)
    outcome = transitive_finder.find_tt_len3(random_tournament(1350, 0), 3)
    assert outcome == FailureTrace(stage="nearly-regular", reason="forced stage failure",
                                   details={"n": 1350, "k": 3})


def test_complete_driver_raises_at_scale_1(monkeypatch):
    monkeypatch.setattr(complete_finder, "find_balanced_set", _raise_stage_failure)
    with pytest.raises(StageFailure, match="forced stage failure"):
        complete_finder.find_complete_subdivision(rotational_tournament(2095), 3)


def _traced_peak(fn, *args):
    """(what ``fn(*args)`` returns or raises, its traced peak in bytes)."""
    tracemalloc.start()
    try:
        try:
            outcome = fn(*args)
        except InfeasibleDegree as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("finder, trace", [
    (complete_finder.find_complete_subdivision,
     FailureTrace("iterate", "working tournament shrank below k", {"size": 40})),
    (transitive_finder.find_tt_len3,
     FailureTrace("recursion-size", "fewer vertices than k", {"n": 40, "k": 1000})),
])
def test_an_order_past_the_host_builds_no_pattern(finder, trace):
    # A pattern of order 1000 has about 10^6 edges, some 90-170 MiB.
    outcome, peak = _traced_peak(finder, random_tournament(40, 0), 1000,
                                 FinderParams(1000, Fraction(1, 100)))
    assert outcome == trace
    assert peak < 1 << 20


def test_the_scale_1_gate_runs_before_the_pattern_is_built():
    outcome, peak = _traced_peak(complete_finder.find_complete_subdivision,
                                 random_tournament(40, 0), 1000)
    assert str(outcome) == "minimum out-degree 12 is below the required 28140716.0"
    assert peak < 1 << 20
