"""Pattern digraphs, subdivision witnesses, and the witness verifier.

Every finder and the exact oracle produce :class:`Subdivision` values; the
single :func:`verify` below is the ground truth they are all checked against.
It never aborts: all violated clauses are collected into the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .core import Tournament, tournament_hash

__all__ = [
    "PatternDigraph",
    "pattern_complete_digraph",
    "pattern_transitive",
    "parse_pattern",
    "Subdivision",
    "VerifyReport",
    "verify",
    "min_span",
    "witness_to_json",
    "witness_from_json",
]


@dataclass(frozen=True)
class PatternDigraph:
    """A digraph to be embedded as a subdivision: k vertices, ordered edges."""

    k: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("pattern needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < self.k and 0 <= v < self.k):
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.k * (self.k - 1)

    def isolated_vertices(self) -> frozenset:
        touched = set()
        for u, v in self.edges:
            touched.add(u)
            touched.add(v)
        return frozenset(range(self.k)) - touched


def pattern_complete_digraph(k: int) -> PatternDigraph:
    """All k(k-1) ordered pairs."""
    if k < 1:
        raise ValueError("k must be positive")
    return PatternDigraph(k, tuple((u, v) for u in range(k) for v in range(k) if u != v))


def pattern_transitive(k: int) -> PatternDigraph:
    """The k(k-1)/2 forward pairs of a linear order."""
    if k < 1:
        raise ValueError("k must be positive")
    return PatternDigraph(k, tuple((u, v) for u in range(k) for v in range(u + 1, k)))


def parse_pattern(spec: str) -> PatternDigraph:
    """Parse a CLI pattern spec: complete:K, transitive:K, cycle:K or
    edges:0>1,1>2,..."""
    kind, _, arg = spec.partition(":")
    if kind == "complete":
        return pattern_complete_digraph(int(arg))
    if kind == "transitive":
        return pattern_transitive(int(arg))
    if kind == "cycle":
        k = int(arg)
        if k < 2:
            raise ValueError("cycle needs k >= 2")
        return PatternDigraph(k, tuple((i, (i + 1) % k) for i in range(k)))
    if kind == "edges":
        pairs = []
        for item in arg.split(","):
            a, _, b = item.partition(">")
            pairs.append((int(a), int(b)))
        k = max(max(u, v) for u, v in pairs) + 1
        return PatternDigraph(k, tuple(pairs))
    raise ValueError(f"unknown pattern spec {spec!r}")


@dataclass(frozen=True)
class Subdivision:
    """A branch map plus one directed path per pattern edge.  ``paths`` maps
    each pattern edge (u, v) to the internal vertices of its path from
    ``branch[u]`` to ``branch[v]``; a direct host edge maps to ``()``.  The
    path's ends are the branch vertices by definition, so they are not stored."""

    pattern: PatternDigraph
    branch: Tuple[int, ...]
    paths: Dict[Tuple[int, int], Tuple[int, ...]]

    @property
    def l1(self) -> int:
        """Number of paths of length 2."""
        return sum(1 for p in self.paths.values() if len(p) == 1)

    @property
    def l2(self) -> int:
        """Number of paths of length 3."""
        return sum(1 for p in self.paths.values() if len(p) == 2)

    @property
    def span(self) -> int:
        return len(self.branch) + sum(len(p) for p in self.paths.values())


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: Tuple[str, ...]
    l1: int
    l2: int
    span: int

    def __bool__(self) -> bool:
        return self.valid


def verify(
    t: Tournament,
    sub: Subdivision,
    max_len: int,
    exact_len: Optional[int] = None,
) -> VerifyReport:
    """Check a subdivision witness against its host tournament.

    Collects every violation: branch collisions, wrong/missing paths, broken
    hops, reused internal vertices and length-cap breaches.  ``exact_len``
    switches from "length at most max_len" to "length exactly exact_len"
    (the 1-subdivision regime when exact_len=2).
    """
    bad = []
    k = sub.pattern.k
    if len(sub.branch) != k:
        bad.append(f"branch has {len(sub.branch)} vertices, pattern needs {k}")
    branch_set = set()
    for i, v in enumerate(sub.branch):
        if not (0 <= v < t.n):
            bad.append(f"branch vertex {i} -> {v} out of range")
        elif v in branch_set:
            bad.append(f"branch collision: host vertex {v} used twice")
        branch_set.add(v)

    pattern_edges = set(sub.pattern.edges)
    for edge in sub.pattern.edges:
        if edge not in sub.paths:
            bad.append(f"pattern edge {edge} has no path")
    for edge in sub.paths:
        if edge not in pattern_edges:
            bad.append(f"path for {edge} is not a pattern edge")

    seen_internal: Dict[int, Tuple[int, int]] = {}
    for edge in sorted(sub.paths):
        internals = sub.paths[edge]
        length = len(internals) + 1
        if exact_len is not None:
            if length != exact_len:
                bad.append(f"path {edge} has length {length}, cap is exactly {exact_len}")
        elif length > max_len:
            bad.append(f"path {edge} has length {length} > cap {max_len}")
        for w in internals:
            if not (0 <= w < t.n):
                bad.append(f"path {edge}: internal {w} out of range")
                continue
            if w in branch_set:
                bad.append(f"path {edge}: internal {w} is a branch vertex")
            if w in seen_internal and seen_internal[w] != edge:
                bad.append(f"internal {w} reused by {seen_internal[w]} and {edge}")
            seen_internal[w] = edge
        if len(set(internals)) != len(internals):
            bad.append(f"path {edge} repeats an internal vertex")
        u, v = edge
        if not (0 <= u < len(sub.branch) and 0 <= v < len(sub.branch)):
            continue  # reported above: not a pattern edge, or a short branch map
        hops = (sub.branch[u], *internals, sub.branch[v])
        for a, b in zip(hops, hops[1:]):
            if not (0 <= a < t.n and 0 <= b < t.n):
                continue
            if a == b:
                bad.append(f"path {edge}: degenerate hop at {a}")
            elif not t.has_edge(a, b):
                bad.append(f"path {edge}: missing edge hop {a} -> {b}")

    return VerifyReport(
        valid=not bad,
        violations=tuple(bad),
        l1=sub.l1,
        l2=sub.l2,
        span=sub.span,
    )


def min_span(pattern: PatternDigraph) -> int:
    """Lower bound on the vertex count of any subdivision of ``pattern``.

    In a tournament one direction of every complete-pattern pair must be
    subdivided, giving k(k-1)/2 + k; other patterns get the trivial bound k.
    """
    if pattern.is_complete:
        k = pattern.k
        return k * (k - 1) // 2 + k
    return pattern.k


def witness_to_json(t: Tournament, sub: Subdivision) -> dict:
    """Witness document: pattern, branch map, per-edge internals, host hash."""
    paths = []
    for (u, v), internals in sorted(sub.paths.items()):
        paths.append({"from": sub.branch[u], "to": sub.branch[v], "internals": list(internals)})
    return {
        "pattern": {"k": sub.pattern.k, "edges": [list(e) for e in sub.pattern.edges]},
        "branch": list(sub.branch),
        "paths": paths,
        "host_hash": tournament_hash(t),
    }


def _vertex(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"witness {what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"witness {what} must be a list, got {value!r}")
    return value


def witness_from_json(doc) -> Tuple[Subdivision, str]:
    """Reconstruct a subdivision and the recorded host hash.

    Path endpoints are host vertices; the pattern edge each path realizes is
    recovered through the (injective) branch map.  A document of any other
    shape raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("witness must be a JSON object")
    pattern_doc = doc.get("pattern")
    if not isinstance(pattern_doc, dict):
        raise ValueError("witness has no 'pattern' object")
    edges = []
    for edge in _list(pattern_doc.get("edges"), "pattern.edges"):
        if not isinstance(edge, list) or len(edge) != 2:
            raise ValueError(f"witness pattern edge must be a pair, got {edge!r}")
        edges.append((_vertex(edge[0], "pattern edge"), _vertex(edge[1], "pattern edge")))
    pattern = PatternDigraph(_vertex(pattern_doc.get("k"), "pattern.k"), tuple(edges))
    branch = tuple(_vertex(v, "branch entry") for v in _list(doc.get("branch"), "branch"))
    inverse = {v: i for i, v in enumerate(branch)}
    if len(inverse) != len(branch):
        raise ValueError("branch map is not injective")
    paths = {}
    for entry in _list(doc.get("paths"), "paths"):
        if not isinstance(entry, dict):
            raise ValueError(f"witness path must be an object, got {entry!r}")
        from_v = _vertex(entry.get("from"), "path 'from'")
        to_v = _vertex(entry.get("to"), "path 'to'")
        internals = tuple(_vertex(w, "path internal")
                          for w in _list(entry.get("internals"), "path internals"))
        u = inverse.get(from_v)
        v = inverse.get(to_v)
        if u is None or v is None:
            raise ValueError(f"path endpoints {from_v},{to_v} not in branch")
        if (u, v) in paths:
            raise ValueError(f"duplicate path for pattern edge ({u},{v})")
        paths[(u, v)] = internals
    host_hash = doc.get("host_hash", "")
    if not isinstance(host_hash, str):
        raise ValueError(f"witness host_hash must be a string, got {host_hash!r}")
    return Subdivision(pattern, branch, paths), host_hash


def dump_witness(t: Tournament, sub: Subdivision) -> str:
    return json.dumps(witness_to_json(t, sub), indent=2, sort_keys=True) + "\n"
