"""Exception types and the structured failure value returned by scaled runs."""

from __future__ import annotations

from dataclasses import dataclass, field


class ToursubError(Exception):
    """Base class for all package errors."""


class InfeasibleDegree(ToursubError):
    """Host minimum out-degree is below the finder's precondition."""


class InfeasibleSize(ToursubError):
    """Host vertex count is below the finder's precondition."""


class StageFailure(ToursubError):
    """A threshold miss that ends a finder run at a named stage.

    The one failure protocol: a stage raises it, and each public finder
    catches it in one place and converts it once into the run's
    FailureTrace through ``FailureTrace.from_error``.  Only the
    complete-digraph driver re-raises instead, at scale 1, where its
    thresholds are guaranteed; the transitive finders convert at every scale.
    """

    stage = ""

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.reason = reason
        self.details = details


class TooSmall(StageFailure):
    """Tournament or working set too small for the stage that raises it."""

    def __init__(self, reason: str, stage: str, **details):
        super().__init__(reason, **details)
        self.stage = stage


class CutInvalid(StageFailure):
    """Derived cut fails a size/orientation requirement (scaled runs)."""

    stage = "derive-cut"

    def __init__(self, reason: str, source_size: int, cut_size: int, sink_size: int):
        super().__init__(reason, source=source_size, cut=cut_size, sink=sink_size)

    def __str__(self) -> str:
        d = self.details
        return f"{self.reason} (|S|={d['source']}, |U|={d['cut']}, |sink|={d['sink']})"


class InsufficientOutNeighbours(StageFailure):
    """A branch vertex lacks the out-neighbours needed by the path embedding."""

    stage = "cut-chain-embedding"

    def __init__(self, vertex: int, have: int, need: int):
        super().__init__(f"vertex {vertex} has {have} out-neighbours, needs {need}",
                         vertex=vertex, have=have, need=need)
        self.vertex = vertex
        self.have = have
        self.need = need


class BallTooLarge(StageFailure):
    """A BFS ball exceeds the separator procedure's size precondition."""

    stage = "aux-graph-precondition"

    def __init__(self, vertex: int, radius: int, size: int, bound: float):
        super().__init__(
            f"ball of radius {radius} around {vertex} has {size} vertices,"
            f" bound {bound:.3f}",
            vertex=vertex, radius=radius, size=size,
        )
        self.vertex = vertex
        self.radius = radius
        self.size = size
        self.bound = bound


@dataclass(frozen=True)
class FailureTrace:
    """Structured non-result for best-effort (scaled) finder runs."""

    stage: str
    reason: str
    details: dict = field(default_factory=dict)

    @classmethod
    def from_error(cls, exc: StageFailure) -> "FailureTrace":
        """The trace of a stage failure: its stage, reason and details."""
        return cls(stage=exc.stage, reason=exc.reason, details=dict(exc.details))

    def to_json(self) -> dict:
        return {"stage": self.stage, "reason": self.reason, "details": dict(self.details)}
