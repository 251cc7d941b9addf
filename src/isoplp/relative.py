"""Relative (multiplicity m) version of the ball bound.

When every boundary point of a region sees at most m chords (a quotient or
orbifold situation), the sharp comparison object is the ball B0 of volume
m*V divided by an m-fold symmetry: the bound on the boundary area becomes
area(B0)/m, and the extremal chord measure is the ball's scaled by 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chordmeasure import DiscreteMeasure, discretize_ball_measure, integrate
from .spaceform import ModelParams, ball_from_volume, max_ball_volume

__all__ = [
    "RelativeCase",
    "RelativeEqualityReport",
    "relative_bound",
    "orbifold_measure",
    "verify_relative_equality",
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


def orbifold_measure(case: RelativeCase, n_nodes: int) -> DiscreteMeasure:
    """Chord measure of the quotient model: ball measure of B0, masses / m."""
    ball0 = ball_from_volume(case.params, case.m * case.V)
    return discretize_ball_measure(ball0, n_nodes).scaled(1.0 / case.m)


@dataclass(frozen=True)
class RelativeEqualityReport:
    """Relative residuals of the three m-version chord identities."""

    f1_residual: float
    f2_residual: float
    f3_residual: float

    @property
    def max_abs(self) -> float:
        return max(abs(self.f1_residual), abs(self.f2_residual), abs(self.f3_residual))

    def passed(self, tol: float = 1e-7) -> bool:
        return self.max_abs <= tol


def verify_relative_equality(case: RelativeCase, n_nodes: int) -> RelativeEqualityReport:
    """Check that the quotient measure achieves equality in the three identities.

    With A_R = area(B0)/m the exact statements are
        integral F1 = m A_R^2,  integral F2 = m A_R V,  integral F3 = m V^2;
    returned residuals are relative to the right-hand sides.
    """
    params = case.params
    measure = orbifold_measure(case, n_nodes)
    a_r = relative_bound(case)
    rhs1 = case.m * a_r * a_r
    rhs2 = case.m * a_r * case.V
    rhs3 = case.m * case.V * case.V
    return RelativeEqualityReport(
        f1_residual=(integrate(measure, "F1", params) - rhs1) / rhs1,
        f2_residual=(integrate(measure, "F2", params) - rhs2) / rhs2,
        f3_residual=(integrate(measure, "F3", params) - rhs3) / rhs3,
    )
