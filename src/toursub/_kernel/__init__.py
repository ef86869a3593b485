"""The exact-search kernel: ``pure.py``, for hosts of any size, on every
usable core.

``search_subdivision`` returns the 4-tuple ``pure.search_subdivision``
returns, node count included.  A query first runs in-process under
``_PROBE_NODES`` nodes; a search that ends there, or a budget no larger,
is the whole search, so small queries never fork.  A longer search is
folded from the subtrees of branch vertex 0, which ``_workers.imap``
searches on every usable core.

The split is exact.  ``pure`` clears its failed-state table at every full
branch map, and a lookup happens only after such a clear, so the search
below "branch vertex 0 = r", and the nodes it counts from its level-0 node
on, depend only on r.  The sequential search is therefore a fold over r in
ascending order: add each root's full count; stop at the first root whose
subtree finds a subdivision and return that root's witness with the
running sum; stop as soon as the running sum passes the budget, which
every budget stop reports as ``budget + 1``.  The roots are pulled lazily:
a root is searched with the budget less the nodes of the roots folded
before it is handed out.  That is at least its true remaining budget, so a
root that runs out of it also ends the sequential search.
"""

from contextlib import closing
from functools import partial

from . import pure
from .pure import BUDGET_EXCEEDED, FOUND, NOTFOUND

_PROBE_NODES = 1 << 12  # nodes searched in-process before any fork


def backend_name() -> str:
    return "pure"


def available_backends() -> dict:
    """Name -> search callable, for benchmarks."""
    return {"pure": search_subdivision}


def search_subdivision(out_masks, k, edges, max_len, exact_len, budget):
    """Returns (status, branch, internals-per-edge, nodes), as
    ``pure.search_subdivision`` does on the same arguments."""
    args = (out_masks, k, edges, max_len, exact_len)
    result = pure.search_subdivision(*args, min(budget, _PROBE_NODES))
    if result[0] != BUDGET_EXCEEDED or budget <= _PROBE_NODES:
        return result
    from .. import _workers  # loaded past the probe only, not at every start

    prefix = 0  # nodes of the roots folded so far
    tasks = ((root, budget - prefix) for root in range(len(out_masks)))
    with closing(_workers.imap(partial(_search_root, args), tasks, len(out_masks))) as folded:
        for status, branch, internals, nodes in folded:
            # A root that ran out of its budget counted past the true one.
            if prefix + nodes > budget:
                return BUDGET_EXCEEDED, None, None, budget + 1
            if status == FOUND:
                return FOUND, branch, internals, prefix + nodes
            prefix += nodes
    return NOTFOUND, None, None, prefix


def _search_root(args, task):
    """The subtree of branch vertex 0 = ``root``, under ``budget`` nodes."""
    root, budget = task
    return pure.search_subdivision(*args, budget, roots=1 << root)
