"""Relative (multiplicity m) version of the ball bound.

When every boundary point of a region sees at most m chords (a quotient or
orbifold situation), the sharp comparison object is the ball B0 of volume
m*V divided by an m-fold symmetry: the bound on the boundary area becomes
area(B0)/m, and the extremal chord measure is B0's scaled by 1/m.  The
quotient divides both sides of each chord identity by m, so its equality
cases are B0's own (chordmeasure.ball_moments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spaceform import ModelParams, ball_from_volume, max_ball_volume

__all__ = [
    "RelativeCase",
    "relative_bound",
]


@dataclass(frozen=True)
class RelativeCase:
    """Model parameters, multiplicity m >= 1, and per-sheet volume V.

    The total volume m*V must fit in the hemisphere.  For kappa < 0 the
    theory additionally needs a smallness condition on the max chord length
    (negbound.smallness_ok), which this case does not carry.
    """

    params: ModelParams
    m: int
    V: float

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"multiplicity must be an integer >= 1, got {self.m!r}")
        if not (self.V > 0.0 and math.isfinite(self.V)):
            raise ValueError(f"volume must be positive and finite, got {self.V!r}")
        if self.m * self.V > max_ball_volume(self.params) * (1 + 1e-12):
            raise ValueError(
                f"total volume m*V = {self.m * self.V} exceeds the hemisphere volume "
                f"{max_ball_volume(self.params)}"
            )


def relative_bound(case: RelativeCase) -> float:
    """(1/m) * boundary area of the ball of volume m*V."""
    ball0 = ball_from_volume(case.params, case.m * case.V)
    return ball0.area / case.m
