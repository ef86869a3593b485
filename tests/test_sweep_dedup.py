"""A sweep computes one trial per seedless host kind and relabels it for the
kind's later indices; rows, cut chains and violations must equal a sweep
that computes every trial."""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

import toursub._workers
import toursub.experiments as experiments
from toursub.core import Cut
from toursub.experiments import (
    SEEDLESS_KINDS,
    SWEEP_COLUMNS,
    SWEEP_KINDS,
    TT_KINDS,
    build_host,
    csv_body,
    sweep,
)
from toursub.params import FinderParams

TRIALS = 13  # past two kind cycles, so each seedless kind repeats
CONFIGS = {
    "complete": dict(k=3, n=150, scale=Fraction(1, 96), seed=3),
    "tt3": dict(k=3, n=90, scale=Fraction(1, 12), seed=4),
    "onesub": dict(k=3, n=170, scale=Fraction(1, 12), seed=2),
}
FINDERS = {
    "complete": "find_complete_subdivision_ex",
    "tt3": "find_tt_len3",
    "onesub": "find_one_subdivision",
}


def kinds_of(finder):
    kinds = SWEEP_KINDS if finder == "complete" else TT_KINDS
    return [kinds[i % len(kinds)] for i in range(TRIALS)]


def every_trial(finder, k, n, scale, seed):
    """The reference sweep: ``_instance`` on every trial, in order."""
    params = FinderParams(k, Fraction(str(scale)))
    rows, chains, bad = [], [], []
    for i, kind in enumerate(kinds_of(finder)):
        row, chain, violations = experiments._instance(finder, params, str(scale), n, seed,
                                                       (i, kind))
        rows.append(row)
        chains += [(i, c) for c in chain]
        if violations:
            bad.append(f"instance {i}: {violations}")
    return rows, chains, bad


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(toursub._workers, "_usable_cores", lambda: 2)


@pytest.mark.parametrize("n", [60, 121, 240])
def test_seedless_kinds_are_the_kinds_whose_host_ignores_the_seed(n):
    for kind in sorted(set(SWEEP_KINDS) | set(TT_KINDS)):
        same = build_host(kind, n, 1) == build_host(kind, n, 2)
        assert same == (kind in SEEDLESS_KINDS), kind


@pytest.mark.parametrize("finder", sorted(CONFIGS))
def test_a_sweep_builds_one_finder_params(finder, monkeypatch):
    built = []
    real = experiments.FinderParams
    monkeypatch.setattr(experiments, "FinderParams",
                        lambda *args, **kwargs: built.append(1) or real(*args, **kwargs))
    sweep(finder, trials=TRIALS, **CONFIGS[finder])
    assert len(built) == 1


# sha256 of the CSV body of an 8-trial sweep at the float scale 0.1, whose
# rows read "0.1" and whose finders run at Fraction(1, 10).
FLOAT_SCALE_BODIES = {
    "complete": (120, "109044350e1e6a0c76de9296e1c6697580fa8fa03963068f65646c0c82c4e675"),
    "tt3": (90, "28126610f0ba2d1f5a0b461503651f7eb1569ab676d1de270f39d953c10718ad"),
    "onesub": (170, "2a18c6213646cb28ce5f481cf5e8ad75c228f0691e98f5eb83a977a47890c763"),
}


@pytest.mark.parametrize("finder", sorted(FLOAT_SCALE_BODIES))
def test_a_float_scale_sweep_body(finder):
    n, digest = FLOAT_SCALE_BODIES[finder]
    rows, _, _ = sweep(finder, k=3, trials=8, n=n, scale=0.1, seed=5)
    assert rows[0]["scale"] == "0.1"
    assert hashlib.sha256(csv_body(rows, SWEEP_COLUMNS[finder]).encode()).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("finder", sorted(CONFIGS))
def test_a_deduplicated_sweep_equals_every_trial(finder, workers, two_cores):
    config = CONFIGS[finder]
    assert sweep(finder, trials=TRIALS, **config, workers=workers) == every_trial(finder, **config)


@pytest.mark.parametrize("finder", sorted(CONFIGS))
def test_each_seedless_kind_runs_the_finder_once(finder, monkeypatch):
    calls = []
    real = getattr(experiments, FINDERS[finder])
    monkeypatch.setattr(experiments, FINDERS[finder],
                        lambda t, *args: calls.append(t.n) or real(t, *args))
    sweep(finder, trials=TRIALS, **CONFIGS[finder])
    kinds = kinds_of(finder)
    seeded = sum(kind not in SEEDLESS_KINDS for kind in kinds)
    assert len(calls) == seeded + len(SEEDLESS_KINDS & set(kinds)) == 11


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("finder", sorted(CONFIGS))
def test_a_copied_trial_gets_its_own_violation_and_chain_index(finder, workers, two_cores,
                                                                monkeypatch):
    real_verify = experiments.verify
    real_complete = experiments.find_complete_subdivision_ex

    def planted_stage(t, *args):
        # One more chain stage on every complete trial, seedless ones too.
        outcome, chain = real_complete(t, *args)
        return outcome, (*chain, Cut(cut=0, source=0, sink=0))

    monkeypatch.setattr(experiments, "verify", lambda *args, **caps: replace(
        real_verify(*args, **caps), valid=False, violations=("planted",)))
    monkeypatch.setattr(experiments, "find_complete_subdivision_ex", planted_stage)
    config = CONFIGS[finder]
    rows, chains, bad = sweep(finder, trials=TRIALS, **config, workers=workers)
    assert (rows, chains, bad) == every_trial(finder, **config)
    kinds = kinds_of(finder)
    copies = [i for i, kind in enumerate(kinds) if kind in SEEDLESS_KINDS and kind in kinds[:i]]
    witnesses = [i for i, row in enumerate(rows) if row["outcome"] == "witness"]
    assert copies and set(copies) <= set(witnesses)
    assert bad == [f"instance {i}: ('planted',)" for i in witnesses]
    if finder == "complete":
        assert sorted({i for i, _ in chains}) == list(range(TRIALS))
