"""Threshold arithmetic shared by the finders.

All degree/size thresholds are kept as exact rationals and compared directly
against integer counts, so scaled desk runs never hit float boundary noise.
The one irrational ingredient, k^(7/4), is replaced by its exact integer
ceiling (the smallest t with t^4 >= k^7), which only strengthens the
requirements it appears in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Union

__all__ = ["ceil_k74", "fixed", "FinderParams"]


def ceil_k74(k: int) -> int:
    """Smallest integer t with t**4 >= k**7."""
    if k < 0:
        raise ValueError("k must be non-negative")
    target = k**7
    t = math.isqrt(math.isqrt(target))  # the fourth root, rounded down
    return t if t**4 == target else t + 1


def fixed(x: Union[Fraction, int], places: int) -> str:
    """``x`` with ``places`` decimals as ``f"{float(x):.{places}f}"`` writes
    it, or, past the float range, ``x`` rounded to ``places`` decimals."""
    try:
        return f"{float(x):.{places}f}"
    except OverflowError:
        digits = str(round(x * 10**places))
        return f"{digits[:-places]}.{digits[-places:]}" if places else digits


@dataclass(frozen=True)
class FinderParams:
    """Degree/size thresholds for a target order k, optionally rescaled.

    ``scale`` multiplies every threshold coherently; 1 reproduces the source
    constants, smaller values allow desk-size experiments where only
    soundness (never the success guarantee) is preserved.  The thresholds
    that take no argument are computed once per instance and cached.
    """

    k: int
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not isinstance(self.scale, Fraction):
            # Read through str, so a float scale is its shortest decimal:
            # 0.1 is 1/10, not the binary fraction nearest it.
            object.__setattr__(self, "scale", Fraction(str(self.scale)))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def paper_faithful(self) -> bool:
        return self.scale == 1

    @cached_property
    def k74(self) -> int:
        return ceil_k74(self.k)

    @cached_property
    def slack(self) -> Fraction:
        """Degree window half-width / additive slack term (scaled k^(7/4))."""
        return self.scale * self.k74

    @cached_property
    def window_width(self) -> int:
        return max(1, math.ceil(self.slack))

    @cached_property
    def peel_threshold(self) -> Fraction:
        """Out-degree peel bound: k^2 + 12 k^(7/4), scaled."""
        return self.scale * (self.k**2 + 12 * self.k74)

    @cached_property
    def min_out_degree(self) -> Fraction:
        """Host minimum out-degree required at scale 1: 2k^2 + 147 k^(7/4)."""
        return self.scale * (2 * self.k**2 + 147 * self.k74)

    @cached_property
    def balanced_min_size(self) -> Fraction:
        """Smallest size admitting a balanced set (the alpha >= 1 point)."""
        return self.scale * (2 * self.k**2 + 24 * self.k74)

    def alpha_for(self, size: int) -> Fraction:
        """Exact alpha solving size = scale * (2 a k^2 + (20 a + 4) k^(7/4)):
        with scale p/q, (q size - 4p k^(7/4)) / (p (2k^2 + 20 k^(7/4)))."""
        p, q = self.scale.numerator, self.scale.denominator
        return Fraction(q * size - 4 * p * self.k74, p * (2 * self.k**2 + 20 * self.k74))

    def deg_floor(self, alpha: Union[Fraction, int]) -> Fraction:
        """In-degree floor for balanced-set candidates: alpha k^2 + 2 k^(7/4)."""
        return self.scale * (alpha * self.k**2 + 2 * self.k74)

    def balanced_floor(self, size: int) -> int:
        """``ceil(deg_floor(alpha_for(size)))``, the least integer in-degree
        that reaches the floor, in integer arithmetic.  With scale p/q and
        D = 2k^2 + 20 k^(7/4), alpha is (q size - 4p k^(7/4)) / (p D), so the
        floor is (k^2 (q size - 4p k^(7/4)) + 2p k^(7/4) D) / (q D)."""
        p, q = self.scale.numerator, self.scale.denominator
        k2, k74 = self.k**2, self.k74
        d = 2 * k2 + 20 * k74
        return -(-(k2 * (q * size - 4 * p * k74) + 2 * p * k74 * d) // (q * d))

    @cached_property
    def tt3_min_size(self) -> Fraction:
        """Transitive-subdivision size gate: 150 k^2, scaled."""
        return self.scale * 150 * self.k**2

    @cached_property
    def aux_threshold(self) -> Fraction:
        """Out-neighbourhood symmetric-difference threshold: 2 k^2, scaled."""
        return self.scale * 2 * self.k**2

    @cached_property
    def onesub_min_size(self) -> float:
        """1-subdivision size gate: 1e7 k^2 ln^3 k, scaled (float: ln is
        transcendental; the gate is only an admission check).  A size past
        the float range reads as infinity."""
        if self.k < 2:
            return 0.0
        try:
            return float(self.scale) * 1e7 * self.k**2 * math.log(self.k) ** 3
        except OverflowError:
            return math.inf

    def rescaled(self, k: int) -> "FinderParams":
        """The same scale for order k (``self`` when k already matches)."""
        return self if k == self.k else FinderParams(k=k, scale=self.scale)
