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

    The one failure protocol: a stage raises it with its reason, its stage
    name and the sizes behind the miss, and each public finder catches it in
    one place and converts it once into the run's FailureTrace through
    ``FailureTrace.from_error``.  Only the complete-digraph driver re-raises
    instead, at scale 1, where its thresholds are guaranteed; the transitive
    finders convert at every scale.
    """

    def __init__(self, reason: str, stage: str, **details):
        super().__init__(reason)
        self.reason = reason
        self.stage = stage
        self.details = details


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
