"""Inequalities available below a negative curvature bound.

For curvature <= -1 the dual certificate has a negative coefficient, so the
linear-programming route needs extra structure: a smallness condition on
the manifold, a combined quadratic inequality in the three chord
functionals (tight on the model ball), and a candle-comparison inequality
whose failure for the complex-hyperbolic candle is reproduced here by a
deterministic grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import _paper_coefficients
from .chordmeasure import DiscreteMeasure, ball_moments, integrate
from .spaceform import (
    CurvatureSpectrum,
    ModelParams,
    _conjugate_radius,
    _panel_count,
    _panel_rule,
    ball_from_radius,
    candle,
    candle_from_spectrum,
)

__all__ = [
    "SmallnessCheck",
    "CounterexampleResult",
    "CH2_SPECTRUM",
    "smallness_ok",
    "conjecture_residual",
    "conjecture_rhs",
    "hyp2_lemma_residual",
    "hyp2_rhs",
    "normalizers",
    "question1_margin",
    "ch2_counterexample_search",
]

# Complex hyperbolic plane (real dimension 4) normalized so the sectional
# curvature ranges over [-9/4, -9/16].
CH2_SPECTRUM = CurvatureSpectrum((-9.0 / 4.0, -9.0 / 16.0, -9.0 / 16.0))


@dataclass(frozen=True)
class SmallnessCheck:
    ok: bool
    margin: float
    product: float


def smallness_ok(kappa: float, L: float, r: float) -> SmallnessCheck:
    """tanh(L sqrt(-kappa)) * tanh(r sqrt(-kappa)) <= 1/2, with its margin.

    kappa < 0 is the curvature bound, L the maximal geodesic length and r the
    comparison radius; ValueError otherwise.  The product is invariant under
    (kappa, L, r) -> (lam^2 kappa, L/lam, r/lam).
    """
    if not (kappa < 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be negative and finite, got {kappa}")
    if not (L > 0.0 and r > 0.0):
        raise ValueError("L and r must be positive")
    rt = math.sqrt(-kappa)
    product = math.tanh(L * rt) * math.tanh(r * rt)
    return SmallnessCheck(ok=product <= 0.5, margin=0.5 - product, product=product)


def _weighted_terms(n: int, r, values) -> tuple:
    """(a v1, b v2, c v3) with the paper's kappa = -1 certificate coefficients of
    dimension n at radius r (a number or an array), skipping zero coefficients;
    values(k) gives v_k, the term of the functional F_k."""
    a, b, c, _ = _paper_coefficients(ModelParams(n, -1.0), r)
    return tuple(w * values(k) for k, w in enumerate((a, b, c), 1) if np.any(w))


def _rhs_terms(n: int, r: float) -> tuple[float, ...]:
    """The terms of conjecture_rhs (n = 4) or hyp2_rhs (n = 2) for the hyperbolic n-ball of radius r."""
    moments = ball_moments(ball_from_radius(ModelParams(n, -1.0), r))  # (A^2, A V, V^2, _)
    return _weighted_terms(n, r, lambda k: moments[k - 1])


def _residual(n: int, r: float, measure: DiscreteMeasure) -> float:
    """LHS - RHS of conjecture_residual (n = 4) or hyp2_lemma_residual (n = 2)."""
    params = ModelParams(n, -1.0)
    return sum(_weighted_terms(n, r, lambda k: integrate(measure, f"F{k}", params))) - sum(_rhs_terms(n, r))


def conjecture_rhs(r: float) -> float:
    """A^2 - 6 tanh(r) A V + 9 tanh(r)^2 V^2 for the hyperbolic 4-ball of radius r."""
    return sum(_rhs_terms(4, r))


def conjecture_residual(r: float, measure: DiscreteMeasure) -> float:
    """LHS - RHS of the combined inequality

        integral (F1 - 6 tanh(r) F2 + 9 tanh(r)^2 F3) d(mu)
            <= A^2 - 6 tanh(r) A V + 9 tanh(r)^2 V^2

    in the hyperbolic (n=4, kappa=-1) model.  Zero (to quadrature accuracy)
    when the measure is the chord measure of the ball of radius r; negative
    when mass is removed.
    """
    return _residual(4, r, measure)


def hyp2_lemma_residual(r: float, measure: DiscreteMeasure) -> float:
    """LHS - RHS of the hyperbolic disk inequality

        integral (F2 - tanh(r) F3) d(mu)  <=  A V - tanh(r) V^2.

    Convention note: under the chord-measure normalization in which
    integral of ell equals omega_1 * V, the right-hand side that closes to
    equality for the model disk carries a bare V^2 (no extra 2 pi); that
    convention is adopted here and verified by the tests.
    """
    return _residual(2, r, measure)


def hyp2_rhs(r: float) -> float:
    """A V - tanh(r) V^2 for the hyperbolic disk of radius r."""
    return sum(_rhs_terms(2, r))


def normalizers(r: float, tol: float) -> tuple[float, float]:
    """(conjecture_rhs(r), hyp2_rhs(r)), or ValueError where either cannot resolve a relative residual of tol.

    At large r each sums terms about e^(6r) larger than itself, so its
    rounding, like that of the integrals divided by it, is about eps*c with
    c = sum |terms| / |sum|.  Past eps*c > tol the radius is too large;
    where every term underflows to 0 it is too small.
    """
    out = []
    for n, name in ((4, "conjecture_rhs(r)"), (2, "A*V - tanh(r)*V^2 of the disk")):
        terms = _rhs_terms(n, r)
        rhs, size = sum(terms), sum(map(abs, terms))
        if size == 0.0:
            raise ValueError(f"radius {r} is too small: the normalizer {name} underflows to 0")
        c = size / abs(rhs) if rhs else math.inf
        if np.finfo(float).eps * c > tol:
            raise ValueError(
                f"radius {r} is too large: the normalizer {name} cancels its terms by a factor {c:.3g}, "
                f"so its relative rounding error exceeds the tolerance {tol:g}"
            )
        out.append(rhs)
    return out[0], out[1]


def _difference_kernels(spectrum: CurvatureSpectrum, ell: float, kappa_cmp: float):
    """(j - s)(ell), integral over [0, ell] of (j - s), and the nested double
    integral, all as differences so a matching spectrum gives zeros up to
    rounding (j multiplies the one-dimensional candles, s raises one to a power).

    Both integrals use the panelled Gauss-Legendre rule of the spaceform
    candle integrals, with [0, ell] split at every conjugate radius inside
    it, where j or s is clamped to zero and loses its smoothness.
    """
    params = ModelParams(spectrum.n, kappa_cmp)
    kappa_max = max(abs(k) for k in (*spectrum.curvatures, kappa_cmp))
    caps = {_conjugate_radius(k) for k in (max(spectrum.curvatures), kappa_cmp)}
    cuts = [0.0, *sorted(c for c in caps if c < ell), ell]

    def u(t):
        return candle_from_spectrum(spectrum, t) - candle(params, t)

    u1 = u2 = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x, w = _panel_rule(_panel_count(hi - lo, spectrum.n, kappa_max))
        y = lo + (hi - lo) * x
        fy = u(y) * ((hi - lo) * w)
        u1 += float(np.sum(fy))
        # double integral of u over {0 <= x <= y <= ell} = integral of (ell - y) u(y)
        u2 += float(np.sum((ell - y) * fy))
    return float(u(ell)), u1, u2


def question1_margin(spectrum: CurvatureSpectrum, r: float, ell: float) -> float:
    """Margin of the candle-comparison inequality for one chord at cos(alpha) = cos(beta) = 1.

    LHS(spectrum candle j) minus RHS(model candle s at curvature -1), with
    the kernel structure

        j(ell) - 6 tanh(r) J1 + 9 tanh(r)^2 J2,

    computed directly on the differences j - s, so the model spectrum gives
    an exact zero margin.  Negative margin = inequality violated.
    """
    if not (ell > 0.0 and r > 0.0):
        raise ValueError("r and ell must be positive")
    u = _difference_kernels(spectrum, ell, -1.0)
    return sum(_weighted_terms(4, r, lambda k: u[k - 1]))


# the largest length the closed forms below take: there e^(3 ell) is the
# largest double, so sinh(3 ell), cosh(3 ell) and the kernels stay finite
_CH2_ELL_MAX = math.log(np.finfo(float).max) / 3.0


def _ch2_difference_closed(ell: np.ndarray):
    """Closed forms of the difference kernels for the CH^2 spectrum vs kappa=-1.

    j(t) = [sinh(3t)/4 - sinh(1.5t)/2] / (27/32), s(t) = sinh(t)^3; the
    antiderivatives follow termwise.
    """
    c = 32.0 / 27.0
    u0 = c * (0.25 * np.sinh(3.0 * ell) - 0.5 * np.sinh(1.5 * ell)) - (
        0.25 * np.sinh(3.0 * ell) - 0.75 * np.sinh(ell)
    )
    u1 = c * ((np.cosh(3.0 * ell) - 1.0) / 12.0 - (np.cosh(1.5 * ell) - 1.0) / 3.0) - (
        np.cosh(3.0 * ell) / 12.0 - 0.75 * np.cosh(ell) + 2.0 / 3.0
    )
    u2 = c * (np.sinh(3.0 * ell) / 36.0 - ell / 12.0 - (np.sinh(1.5 * ell) / 4.5 - ell / 3.0)) - (
        np.sinh(3.0 * ell) / 36.0 - 0.75 * np.sinh(ell) + ell * 2.0 / 3.0
    )
    return u0, u1, u2


@dataclass(frozen=True)
class CounterexampleResult:
    r: float
    ell: float
    margin: float

    @property
    def violated(self) -> bool:
        return self.margin < 0.0


def ch2_counterexample_search(ell_max: float, r_max: float) -> CounterexampleResult:
    """Deterministic grid search for a violation by the complex-hyperbolic candle.

    Scans the Question-1 margin at cos(alpha) = cos(beta) = 1 over 60 radii
    in (0, r_max] times 80 lengths in (0, ell_max], using closed-form
    difference kernels (the hyperbolic-sine sums integrate termwise), and
    returns the most negative margin and its location.  Ties go to the first
    grid point scanned.  Past ell_max = _CH2_ELL_MAX (about 236.6) the
    closed forms overflow, and it raises ValueError.
    """
    if ell_max <= 0.0 or r_max <= 0.0:
        raise ValueError("search bounds must be positive")
    if ell_max > _CH2_ELL_MAX:
        raise ValueError(f"ell_max {ell_max:g} exceeds {_CH2_ELL_MAX!r}, the largest length at which "
                         "the closed-form CH^2 kernels stay finite")
    n_ell, n_r = 80, 60
    ells = np.linspace(ell_max / n_ell, ell_max, n_ell)
    rs = np.linspace(r_max / n_r, r_max, n_r)
    u = _ch2_difference_closed(ells)
    margins = sum(_weighted_terms(4, rs[:, None], lambda k: u[k - 1]))
    flat = int(np.argmin(margins))
    ir, il = np.unravel_index(flat, margins.shape)
    return CounterexampleResult(
        r=float(rs[ir]),
        ell=float(ells[il]),
        margin=float(margins[ir, il]),
    )
