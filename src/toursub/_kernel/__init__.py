"""Search kernel selection: compiled extension when available, else pure Python.

The backend parity tests call both backends directly through
``available_backends``.  Hosts with more than 64 vertices always use the
pure backend.
"""

from __future__ import annotations

from . import pure

NOTFOUND = pure.NOTFOUND
FOUND = pure.FOUND
BUDGET_EXCEEDED = pure.BUDGET_EXCEEDED

try:
    from . import _speedups as _compiled
except ImportError:
    _compiled = None

BACKEND = "compiled" if _compiled is not None else "pure"


def backend_name() -> str:
    return BACKEND


def available_backends() -> dict:
    """Name -> search callable, for benchmarks and parity tests."""
    backends = {"pure": pure.search_subdivision}
    if _compiled is not None:
        backends["compiled"] = _compiled.search_subdivision
    return backends


def search_subdivision(out_masks, k, edges, max_len, exact_len, budget):
    if _compiled is not None and len(out_masks) <= 64:
        return _compiled.search_subdivision(out_masks, k, edges, max_len, exact_len, budget)
    return pure.search_subdivision(out_masks, k, edges, max_len, exact_len, budget)
