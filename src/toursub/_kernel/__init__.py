"""The exact-search kernel: ``pure.py``, for hosts of any size."""

from .pure import BUDGET_EXCEEDED, FOUND, NOTFOUND, search_subdivision


def backend_name() -> str:
    return "pure"


def available_backends() -> dict:
    """Name -> search callable, for benchmarks."""
    return {"pure": search_subdivision}
