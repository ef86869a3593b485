"""The scale-1 failure policy of the finders.

Every finder turns a stage failure into its run's FailureTrace through
``FailureTrace.from_error``.  The transitive finders do so at every scale;
the complete driver re-raises at scale 1, where its thresholds are proved.
A stage is forced to fail here because no host that meets the scale-1 gates
makes one fail.
"""

import pytest

from toursub import complete_finder, transitive_finder
from toursub.core import random_tournament, rotational_tournament
from toursub.errors import FailureTrace, TooSmall


def _raise_too_small(*args, **kwargs):
    raise TooSmall("forced stage failure", stage="nearly-regular")


def test_tt3_returns_a_trace_at_scale_1(monkeypatch):
    monkeypatch.setattr(transitive_finder, "find_nearly_regular_k", _raise_too_small)
    outcome = transitive_finder.find_tt_len3(random_tournament(1350, 0), 3)
    assert outcome == FailureTrace(stage="nearly-regular", reason="forced stage failure",
                                   details={"n": 1350, "k": 3})


def test_complete_driver_raises_at_scale_1(monkeypatch):
    monkeypatch.setattr(complete_finder, "find_balanced_set", _raise_too_small)
    with pytest.raises(TooSmall, match="forced stage failure"):
        complete_finder.find_complete_subdivision(rotational_tournament(2095), 3)
