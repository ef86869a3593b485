"""Sweep harness: seeded host families, finder sweeps, CSV artifacts.

Reproducibility contract: all randomness flows from one base seed through
``instance_seed`` (a splitmix64 step keyed by instance index), so sweeps are
byte-identical for a fixed config regardless of worker count.  CSV bodies are
deterministic; the ``# generated`` header line is the only timestamped field.
"""

from __future__ import annotations

import csv
import io
import json
import random
from datetime import datetime, timezone
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complete_finder import find_complete_subdivision_ex
from .core import (
    Cut,
    Tournament,
    blowup_cyclic_triangle,
    random_tournament,
    rotational_tournament,
)
from .errors import FailureTrace, ToursubError
from .params import FinderParams
from .subdivision import verify
from .transitive_finder import find_one_subdivision, find_tt_len3

__all__ = [
    "instance_seed",
    "stacked_triangles",
    "stacked_clusters",
    "build_host",
    "SWEEP_KINDS",
    "VERIFY_CAPS",
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
    rng = random.Random(seed)
    width = len(block)
    n = width * layers
    full = (1 << n) - 1
    out = [b << lo | full >> (lo + width) << (lo + width) for lo in range(0, n, width) for b in block]
    band = max(reach, 0) * width
    for lo in range(width, n, width):  # lo: the first vertex below the layer
        hi = min(n, lo + band)
        flips = [(i, j) for i in range(lo - width, lo) for j in range(lo, hi) if rng.random() < flip]
        for i, j in flips:
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

TT_COLUMNS = [
    "instance", "kind", "n", "seed", "k", "scale", "outcome", "stage",
    "verify_ok", "l1", "l2", "span",
]

COMPLETE_COLUMNS = TT_COLUMNS + ["chain_stages", "max_cut"]

SWEEP_COLUMNS = {"complete": COMPLETE_COLUMNS, "tt3": TT_COLUMNS, "onesub": TT_COLUMNS}


def _instance(args) -> Tuple[dict, List[Tuple[int, Cut]], Optional[str]]:
    """One sweep trial: (csv row, (index, certified cut) pairs of the cut
    chain, soundness violation or None)."""
    finder, index, kind, n, k, scale_str, base_seed = args
    seed = instance_seed(base_seed, index)
    host = build_host(kind, n, seed)
    params = FinderParams(k=k, scale=Fraction(scale_str))
    row = {
        "instance": index, "kind": kind, "n": host.n, "seed": seed, "k": k,
        "scale": scale_str, "outcome": "", "stage": "", "verify_ok": "",
        "l1": "", "l2": "", "span": "",
    }
    chains: List[Tuple[int, Cut]] = []
    try:
        # Finders are looked up as module globals at call time, so
        # instrumentation that rebinds them sees every call.
        if finder == "complete":
            row["chain_stages"] = row["max_cut"] = 0  # also on an error row
            outcome, chain = find_complete_subdivision_ex(host, k, params)
            chains = [(index, c) for c in chain]
            row["chain_stages"] = len(chain)
            row["max_cut"] = max((c.cut.bit_count() for c in chain), default=0)
        elif finder == "tt3":
            outcome = find_tt_len3(host, k, params)
        else:
            outcome = find_one_subdivision(host, k, params)
    except ToursubError as exc:
        row["outcome"] = "error"
        row["stage"] = type(exc).__name__
        return row, chains, None
    if isinstance(outcome, FailureTrace):
        row["outcome"] = "failure"
        row["stage"] = outcome.stage
        return row, chains, None
    report = verify(host, outcome, **VERIFY_CAPS[finder])
    row["outcome"] = "witness"
    row["verify_ok"] = int(report.valid)
    row["l1"] = report.l1
    row["l2"] = report.l2
    row["span"] = report.span
    return row, chains, (None if report.valid else f"instance {index}: {report.violations[:3]}")


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
    the complete finder builds cut chains.
    """
    if finder not in SWEEP_COLUMNS:
        raise ValueError(f"unknown sweep finder {finder!r}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    kinds = SWEEP_KINDS if finder == "complete" else TT_KINDS
    jobs = [
        (finder, i, kinds[i % len(kinds)], n, k, str(scale), seed)
        for i in range(trials)
    ]
    from . import _workers  # loaded by a sweep only, not at every CLI start

    results = list(_workers.imap(_instance, jobs, workers))  # in job order
    rows = [r for r, _, _ in results]
    chains = [c for _, cs, _ in results for c in cs]
    bad = [b for _, _, b in results if b]
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


SCAN_DK_COLUMNS = ["n", "seed", "delta_plus", "contains", "nodes", "millis"]
