"""Chord measures of metric balls in model spaces.

A chord of a ball is an oriented geodesic segment with both endpoints on the
boundary; it is described by its length ell and the two boundary angles
alpha, beta in [0, pi/2).  For a round ball the measure concentrates on the
curve alpha = beta, ell = chord_length(alpha), with angle marginal
area * delta_weight(n, alpha) d(alpha).  Against it, F1..F4 integrate to the
ball's moments A^2, A V, V^2 and omega_{n-1} V (Croke's three identities and
Santalo's formula); this module is the one owner of both.

Measures are discrete here: finitely many weighted atoms, produced either by
quadrature in the angle variable (which also regularizes the integrable n=2
endpoint singularity of the length density) or by seeded Monte Carlo
sampling.  The quadrature is spaceform's angle rule, Gauss-Legendre graded
toward the chord curve's boundary layer; the LP's angle grid, its curve
lengths and its marginal masses are read off these atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _philox
from .spaceform import (
    BallGeometry,
    ModelParams,
    _angle_rule,
    candle,
    candle_anti,
    candle_anti2,
    candle_prime,
    chord_T,
    chord_T_prime,
    chord_length,
    delta_weight,
    sphere_volume,
)

__all__ = [
    "DiscreteMeasure",
    "ball_chord_density",
    "ball_moments",
    "discretize_ball_measure",
    "sample_chords",
    "chord_functional",
    "chord_functional_factors",
    "integrate",
]

_SAMPLE_BLOCK = 1 << 14  # atoms per elementwise block of sample_chords


@dataclass
class DiscreteMeasure:
    """Finitely supported measure on chords, stored as parallel arrays."""

    ell: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        self.ell = np.atleast_1d(np.asarray(self.ell, dtype=float))
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        self.mass = np.atleast_1d(np.asarray(self.mass, dtype=float))
        sizes = {self.ell.size, self.alpha.size, self.beta.size, self.mass.size}
        if len(sizes) != 1:
            raise ValueError(f"atom arrays must share a length, got sizes {sorted(sizes)}")
        if not np.all(np.isfinite(self.ell)) or np.any(self.ell < 0):
            raise ValueError("chord lengths must be finite and >= 0")
        for name, ang in (("alpha", self.alpha), ("beta", self.beta)):
            if np.any(ang < 0) or np.any(ang > math.pi / 2):
                raise ValueError(f"{name} must lie in [0, pi/2]")
        if np.any(self.mass < 0) or not np.all(np.isfinite(self.mass)):
            raise ValueError("masses must be finite and >= 0")

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    @property
    def size(self) -> int:
        return int(self.mass.size)


def ball_chord_density(ball: BallGeometry, ell) -> float | np.ndarray:
    """Length density of the chord measure of a round ball.

    rho(ell) = area * omega_{n-2} * T * T' * (1 - T^2)^((n-3)/2) on (0, 2r).
    For n = 2 the right endpoint is an integrable singularity (returned as
    inf); where the density vanishes the continuous extension 0 is used.
    """
    params = ball.params
    n, kappa, r = params.n, params.kappa, ball.radius
    arr = np.asarray(ell, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr <= 0) or np.any(arr >= 2.0 * r):
        raise ValueError("density is defined on the open interval (0, 2r)")
    T = chord_T(kappa, r, arr)
    Tp = chord_T_prime(kappa, r, arr)
    with np.errstate(divide="ignore"):
        val = ball.area * sphere_volume(n - 2) * T * Tp * (1.0 - T * T) ** ((n - 3) / 2.0)
    out = np.where(T >= 1.0, math.inf if n == 2 else 0.0, val)
    return float(out) if scalar else out


def discretize_ball_measure(ball: BallGeometry, n_nodes: int) -> DiscreteMeasure:
    """Quadrature discretization of the ball's chord measure; the atoms ascend in ell.

    The ball's angle rule in the boundary angle alpha on (0, pi/2) (the
    substituted variable in which every curve integrand is smooth), with atom
    lengths ell = chord_length(alpha) and masses w * area * delta_weight(alpha).
    This is the one place that turns the angle rule into atoms.
    """
    params = ball.params
    alpha, w = _angle_rule(params.kappa, ball.radius, n_nodes)
    ell = chord_length(params.kappa, ball.radius, alpha)  # first, to reject a radius at the hemisphere
    if alpha[-1] >= math.pi / 2.0:
        raise ValueError(
            f"radius {ball.radius!r} is too close to the hemisphere radius {params.hemisphere_radius!r}: "
            f"the last of {n_nodes} angle nodes rounds to pi/2"
        )
    mass = w * ball.area * delta_weight(params.n, alpha)
    order = np.argsort(ell)
    return DiscreteMeasure(ell[order], alpha[order], alpha[order], mass[order])


def ball_moments(ball: BallGeometry) -> tuple[float, float, float, float]:
    """(A^2, A V, V^2, omega_{n-1} V): the integrals of F1..F4 against the ball's own chord measure."""
    area, volume = ball.area, ball.volume
    return area ** 2, area * volume, volume ** 2, sphere_volume(ball.params.n - 1) * volume


def sample_chords(ball: BallGeometry, n_samples: int, seed: int) -> DiscreteMeasure:
    """Monte Carlo draw from the normalized chord measure.

    Philox uniforms keyed by the seed (numpy's Philox stream), so sample i
    depends only on (seed, i).  Angles follow the delta_weight marginal via
    inverse transform alpha = arcsin(u^(1/(n-1))), taken in place on the
    uniforms, and lengths ell = chord_length(alpha), both elementwise in
    blocks of _SAMPLE_BLOCK atoms, so no temporary grows with n_samples.
    ell and alpha are the sample's only arrays of n_samples values: every
    atom carries mass total/n_samples, one value broadcast as a read-only view.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    params = ball.params
    n = params.n
    alpha = _philox.uniform(seed, n_samples)
    ell = np.empty(n_samples)
    for i in range(0, n_samples, _SAMPLE_BLOCK):
        block = alpha[i : i + _SAMPLE_BLOCK]
        block **= 1.0 / (n - 1)
        np.arcsin(block, out=block)
        ell[i : i + _SAMPLE_BLOCK] = chord_length(params.kappa, ball.radius, block)
    total = ball.area * sphere_volume(n - 2) / (n - 1)
    mass = np.broadcast_to(total / n_samples, (n_samples,))
    return DiscreteMeasure(ell, alpha, alpha, mass)


def chord_functional_factors(params: ModelParams, k: int, ell, cos_a, cos_b, dell: bool = False):
    """F_k at chords (ell, alpha, beta), given cos(alpha), cos(beta), as (ell factor, p, q).

    F_k = ell factor * p / q, where p / q is its angle factor:
    F1 = candle(ell) * 1 / (cos a cos b), F2 = candle_anti(ell) * (sec a + sec b) / 2,
    F3 = candle_anti2(ell) and F4 = ell, which have no angle factor (p = q = None)
    and read no cosine.  With dell the ell factor is its derivative.  This is
    the one definition of F1..F4: chord_functional evaluates it, and the LP
    keeps the ell factor and p / q as its separable rows.  p and q stay apart
    so that chord_functional rounds F1 as one division, candle / (cos a cos b).
    """
    if k == 4:
        ell = np.asarray(ell, dtype=float)
        return (np.ones_like(ell) if dell else ell), None, None
    if k not in (1, 2, 3):
        raise ValueError(f"unknown functional F{k}; expected F1, F2, F3 or F4")
    # each entry is the ell-derivative of the next, so F_k' steps its ell factor one
    # down; the names are read at call time, so a rebinding of them takes effect
    ladder = (candle_prime, candle, candle_anti, candle_anti2)
    factor = np.asarray(ladder[k - dell](params, ell))
    if k == 1:
        return factor, 1.0, cos_a * cos_b
    if k == 2:
        return factor, 1.0 / cos_a + 1.0 / cos_b, 2.0
    return factor, None, None


def chord_functional(params: ModelParams, k: int, ell, cos_a, cos_b, dell: bool = False):
    """F_k at chords (ell, alpha, beta) given cos(alpha), cos(beta); its ell-derivative if dell.

    chord_functional_factors multiplied out.  Arguments broadcast, so an ell
    column against an angle grid evaluates each factor once.  These are the
    terms a certificate (a, b, c, d) weights.
    """
    factor, p, q = chord_functional_factors(params, k, ell, cos_a, cos_b, dell)
    return factor if p is None else factor * p / q


class SingularAtomError(ValueError):
    """An atom with positive mass sits where the integrand is infinite."""


def _sec_sum_checked(measure: DiscreteMeasure) -> None:
    # only pi/2 itself, whose cosine is the rounding residue 6e-17; below it the secant is finite
    bad = (measure.alpha >= math.pi / 2) | (measure.beta >= math.pi / 2)
    bad &= measure.mass > 0
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularAtomError(
            f"atom {idx} has a boundary angle at pi/2 with positive mass; "
            "the secant-weighted integrand is infinite there"
        )


def integrate(measure: DiscreteMeasure, functional: str, params: ModelParams) -> float:
    """Integrate one of the chord functionals "F1".."F4" (see chord_functional)."""
    if functional not in ("F1", "F2", "F3", "F4"):
        raise ValueError(f"unknown functional {functional!r}; expected F1, F2, F3 or F4")
    k = int(functional[1])
    cosines = (None, None)  # F3 and F4 have no angle factor
    if k <= 2:
        _sec_sum_checked(measure)
        cosines = (np.cos(measure.alpha), np.cos(measure.beta))
    return float(np.dot(measure.mass, chord_functional(params, k, measure.ell, *cosines)))
