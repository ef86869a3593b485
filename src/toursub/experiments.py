"""Sweep harness: seeded host families, finder sweeps, CSV artifacts.

Reproducibility contract: all randomness flows from one base seed through
``instance_seed`` (a splitmix64 step keyed by instance index), so sweeps are
byte-identical for a fixed config regardless of worker count.  CSV bodies are
deterministic except for scan-dk's ``millis`` column, which is wall time; in
the header only the ``# generated`` line is.
"""

from __future__ import annotations

import csv
import io
import json
import random
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .complete_finder import find_complete_subdivision_ex, find_digraph_subdivision_ex
from .core import (
    Cut,
    Tournament,
    blowup_cyclic_triangle,
    random_tournament,
    rotational_tournament,
)
from .errors import FailureTrace, ToursubError
from .params import FinderParams
from .subdivision import PatternDigraph, Subdivision, VerifyReport, verify
from .transitive_finder import find_one_subdivision, find_tt_len3

__all__ = [
    "instance_seed",
    "stacked_triangles",
    "stacked_clusters",
    "build_host",
    "SEEDLESS_KINDS",
    "SWEEP_KINDS",
    "VERIFY_CAPS",
    "run_finder",
    "SWEEP_COLUMNS",
    "sweep",
    "rows_to_csv",
    "write_csv",
    "csv_body",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def instance_seed(base: int, index: int) -> int:
    """Per-instance seed: splitmix64 finalizer of base + (index+1) * gamma."""
    z = (base + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# ---------------------------------------------------------------------------
# host families


def _stack(block: Sequence[int], layers: int, flip: float, reach: int, seed: int) -> Tournament:
    """``layers`` copies of the tournament with out-rows ``block``, stacked
    transitively (layer 0 on top); a lower vertex beats an upper one only
    within ``reach`` layers, with probability ``flip``.

    Each row starts as its block row plus every lower layer.  Only the pairs
    within ``reach`` draw from the rng, one ``random()`` each, row by row and
    left to right, and only the drawn flips are then reversed."""
    rand = random.Random(seed).random
    width = len(block)
    n = width * layers
    full = (1 << n) - 1
    out = [b << lo | below for lo in range(0, n, width)
           for below in (full >> (lo + width) << (lo + width),) for b in block]
    band = max(reach, 0) * width
    for lo in range(width, n, width):  # lo: the first vertex below the layer
        span = min(n, lo + band) - lo
        # Pair (lo - width + x // span, lo + x % span) draws x-th in its layer.
        for x in [x for x in range(width * span) if rand() < flip]:
            i, j = divmod(x, span)
            i += lo - width
            j += lo
            out[i] ^= 1 << j
            out[j] |= 1 << i
    return Tournament(out)


# The cyclic triangle 0 -> 1 -> 2 -> 0 as out-rows.
_TRIANGLE = (0b010, 0b100, 0b001)


def stacked_triangles(layers: int, flip: float, reach: int, seed: int) -> Tournament:
    """Cyclic triangles stacked transitively (layer 0 on top); a lower vertex
    beats an upper one only within ``reach`` layers, with probability
    ``flip``.  Sparse flips keep backward routes scarce, which is what drives
    the finder into its cut iteration."""
    return _stack(_TRIANGLE, layers, flip, reach, seed)


def stacked_clusters(width: int, layers: int, flip: float, reach: int, seed: int) -> Tournament:
    """Rotational clusters of odd ``width`` stacked transitively with
    short-range flips; wider clusters give occasional larger cut sets."""
    rot = rotational_tournament(width)
    return _stack([rot.out_mask(v) for v in rot.vertices()], layers, flip, reach, seed)


def build_host(kind: str, n: int, seed: int) -> Tournament:
    """Instantiate a sweep host of roughly n vertices."""
    if kind == "random":
        return random_tournament(n, seed)
    if kind == "rotational":
        return rotational_tournament(n | 1)
    if kind == "blowup":
        return blowup_cyclic_triangle(max(1, n // 3))
    if kind == "triangles_sparse":
        return stacked_triangles(max(2, n // 3), 0.05, 2, seed)
    if kind == "triangles_local":
        return stacked_triangles(max(2, n // 3), 0.15, 1, seed)
    if kind == "clusters5":
        return stacked_clusters(5, max(2, n // 5), 0.1, 1, seed)
    raise ValueError(f"unknown sweep host kind {kind!r}")


# The kinds whose hosts ignore the seed: every trial of such a kind builds
# the same host, so a sweep computes only its first one (see ``sweep``).
SEEDLESS_KINDS = frozenset({"rotational", "blowup"})

SWEEP_KINDS = (
    "random",
    "triangles_sparse",
    "rotational",
    "triangles_local",
    "blowup",
    "clusters5",
)

TT_KINDS = ("random", "rotational", "blowup", "random", "triangles_sparse", "random")


# ---------------------------------------------------------------------------
# sweeps


# Verify cap of each finder's witnesses: paths of length at most 3, or
# exactly 2 for the 1-subdivision finder.
VERIFY_CAPS = {
    "complete": {"max_len": 3},
    "digraph": {"max_len": 3},
    "tt3": {"max_len": 3},
    "onesub": {"max_len": 2, "exact_len": 2},
}


def run_finder(
    finder: str, host: Tournament, params: FinderParams, pattern: Optional[PatternDigraph] = None,
) -> Tuple[Union[Subdivision, FailureTrace], Tuple[Cut, ...], Optional[VerifyReport]]:
    """Run the complete, digraph, tt3 or onesub finder on ``host`` at
    ``params.k`` (the digraph finder on ``pattern``).  Returns (outcome,
    certified cut chain, empty for tt3 and onesub, ``verify`` report at the
    finder's ``VERIFY_CAPS``, None for a ``FailureTrace``)."""
    # Finders and verify are looked up as module globals at call time, so
    # instrumentation that rebinds them sees every run.
    chain: Tuple[Cut, ...] = ()
    if finder == "complete":
        outcome, chain = find_complete_subdivision_ex(host, params.k, params)
    elif finder == "digraph":
        outcome, chain = find_digraph_subdivision_ex(host, pattern, params)
    elif finder == "tt3":
        outcome = find_tt_len3(host, params.k, params)
    elif finder == "onesub":
        outcome = find_one_subdivision(host, params.k, params)
    else:
        raise ValueError(f"unknown finder {finder!r}")
    if isinstance(outcome, FailureTrace):
        return outcome, chain, None
    return outcome, chain, verify(host, outcome, **VERIFY_CAPS[finder])


TT_COLUMNS = [
    "instance", "kind", "n", "seed", "k", "scale", "outcome", "stage",
    "verify_ok", "l1", "l2", "span",
]

COMPLETE_COLUMNS = TT_COLUMNS + ["chain_stages", "max_cut"]

SWEEP_COLUMNS = {"complete": COMPLETE_COLUMNS, "tt3": TT_COLUMNS, "onesub": TT_COLUMNS}


def _instance(finder: str, params: FinderParams, scale: str, n: int, base_seed: int,
              trial: Tuple[int, str]) -> Tuple[dict, Sequence[Cut], Tuple[str, ...]]:
    """One sweep trial, ``trial`` = (index, host kind): (csv row, certified
    cuts of the cut chain, the first three soundness violations, empty when
    the witness verifies).  ``scale`` is the row's scale text."""
    index, kind = trial
    seed = instance_seed(base_seed, index)
    host = build_host(kind, n, seed)
    row = {
        "instance": index, "kind": kind, "n": host.n, "seed": seed, "k": params.k,
        "scale": scale, "outcome": "", "stage": "", "verify_ok": "",
        "l1": "", "l2": "", "span": "",
    }
    if finder == "complete":
        row["chain_stages"] = row["max_cut"] = 0  # also on an error row
    try:
        outcome, chain, report = run_finder(finder, host, params)
    except ToursubError as exc:
        row["outcome"] = "error"
        row["stage"] = type(exc).__name__
        return row, (), ()
    if chain:
        row["chain_stages"] = len(chain)
        row["max_cut"] = max(c.cut.bit_count() for c in chain)
    if report is None:
        row["outcome"] = "failure"
        row["stage"] = outcome.stage
        return row, chain, ()
    row["outcome"] = "witness"
    row["verify_ok"] = int(report.valid)
    row["l1"] = report.l1
    row["l2"] = report.l2
    row["span"] = report.span
    return row, chain, report.violations[:3]


def sweep(
    finder: str,
    k: int,
    trials: int,
    n: int,
    scale: Fraction,
    seed: int,
    workers: int = 1,
) -> Tuple[List[dict], List[Tuple[int, Cut]], List[str]]:
    """Run one finder (complete, tt3 or onesub) across a seeded host mix.

    Returns (csv rows, (instance, certified cut) pairs of every cut chain,
    soundness violations); the violations list must come back empty.  Only
    the complete finder builds cut chains.  A trial of a seedless kind is
    computed once per sweep, at the kind's first index, and relabelled with
    each later index and its instance seed.
    """
    if finder not in SWEEP_COLUMNS:
        raise ValueError(f"unknown sweep finder {finder!r}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    kinds = SWEEP_KINDS if finder == "complete" else TT_KINDS
    kind_of = [kinds[i % len(kinds)] for i in range(trials)]
    first = {kind: kinds.index(kind) for kind in SEEDLESS_KINDS.intersection(kinds)}
    source = [first.get(kind, i) for i, kind in enumerate(kind_of)]  # the trial each row copies
    computed = [i for i, s in enumerate(source) if s == i]
    trial = partial(_instance, finder, FinderParams(k, scale), str(scale), n, seed)
    jobs = [(i, kind_of[i]) for i in computed]
    from . import _workers  # loaded by a sweep only, not at every CLI start

    # list() runs the map to its end, where it reaps its workers.
    results = dict(zip(computed, list(_workers.imap(trial, jobs, workers))))
    rows, chains, bad = [], [], []
    for i, s in enumerate(source):
        row, chain, violations = results[s]
        if s != i:
            row = dict(row, instance=i, seed=instance_seed(seed, i))
        rows.append(row)
        chains += [(i, c) for c in chain]
        if violations:
            bad.append(f"instance {i}: {violations}")
    return rows, chains, bad


# ---------------------------------------------------------------------------
# CSV artifacts


def csv_body(rows: List[dict], columns: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buf.getvalue()


def rows_to_csv(schema: str, config: Dict, rows: List[dict], columns: Sequence[str]) -> str:
    header = [
        f"# schema: {schema}",
        "# config: " + json.dumps(config, sort_keys=True, default=str),
        "# generated: " + datetime.now(timezone.utc).isoformat(),
    ]
    return "\n".join(header) + "\n" + csv_body(rows, columns)


def write_csv(path, schema, config, rows, columns) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(schema, config, rows, columns))
