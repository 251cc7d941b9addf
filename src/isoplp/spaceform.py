"""Geometry of the constant-curvature model spaces.

Candle functions (Jacobians of the exponential map) of the simply connected
space forms, their first and second antiderivatives, metric-ball volume and
area, and the normalized chord function that maps a chord length to the
cosine of its boundary angle, with its inverse chord_length.

Curvature is a continuous parameter.  Every evaluator accepts scalars or
numpy arrays, and the trigonometric, flat and hyperbolic branches agree to
machine precision as kappa -> 0: the antiderivatives are written in
cancellation-free half-angle form instead of the textbook differences of
cosines, which lose ~7 digits near the flat limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "ModelParams",
    "BallGeometry",
    "CurvatureSpectrum",
    "sphere_volume",
    "candle",
    "candle_prime",
    "candle_anti",
    "candle_anti2",
    "ball_volume",
    "ball_area",
    "ball_from_volume",
    "ball_from_radius",
    "max_ball_volume",
    "chord_T",
    "chord_T_prime",
    "chord_length",
    "delta_weight",
    "candle_from_spectrum",
]


def sphere_volume(k: int) -> float:
    """k-dimensional volume of the unit k-sphere: 2, 2*pi, 4*pi, 2*pi^2, ..."""
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    try:
        return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)
    except OverflowError:
        raise ValueError(
            f"the volume of the unit {k}-sphere needs gamma({(k + 1) / 2.0:g}), which overflows a double"
        ) from None


@dataclass(frozen=True)
class ModelParams:
    """Dimension and curvature of a model space."""

    n: int
    kappa: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n!r}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"curvature must be finite, got {self.kappa!r}")

    @property
    def conjugate_radius(self) -> float:
        """Distance to the first conjugate point (inf unless kappa > 0)."""
        return _conjugate_radius(self.kappa)

    @property
    def hemisphere_radius(self) -> float:
        """Largest admissible ball radius, half the conjugate radius (inf unless kappa > 0)."""
        return _conjugate_radius(self.kappa) / 2.0


def _conjugate_radius(kappa: float) -> float:
    return math.pi / math.sqrt(kappa) if kappa > 0.0 else math.inf


@dataclass(frozen=True)
class BallGeometry:
    """A metric ball in a model space with its derived quantities."""

    params: ModelParams
    volume: float
    radius: float
    area: float


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Eigenvalues of the curvature operator along a geodesic in dimension len+1."""

    curvatures: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.curvatures) < 1:
            raise ValueError("spectrum needs at least one curvature")
        if not all(math.isfinite(k) for k in self.curvatures):
            raise ValueError("spectrum curvatures must be finite")

    @property
    def n(self) -> int:
        return len(self.curvatures) + 1


def _as_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _wrap(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def _sn(kappa: float, t: np.ndarray) -> np.ndarray:
    """One dimensional candle: sin(sqrt(k)t)/sqrt(k), t, or sinh(sqrt(-k)t)/sqrt(-k)."""
    if kappa == 0.0:
        return np.array(t, dtype=float, copy=True)
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        return np.sin(rt * t) / rt
    rt = math.sqrt(-kappa)
    return np.sinh(rt * t) / rt


def _cs(kappa: float, t: np.ndarray) -> np.ndarray:
    """Derivative of _sn: cos, 1, or cosh of the scaled argument."""
    if kappa == 0.0:
        return np.ones_like(np.asarray(t, dtype=float))
    if kappa > 0.0:
        return np.cos(math.sqrt(kappa) * t)
    return np.cosh(math.sqrt(-kappa) * t)


def _tn(kappa: float, x):
    """kappa-tangent: tan(sqrt(k) x)/sqrt(k), x, or tanh(sqrt(-k) x)/sqrt(-k).

    An array goes through numpy and a number through math; numpy's SIMD tan
    and tanh can differ from the C library's in the last bit.
    """
    lib = np if isinstance(x, np.ndarray) else math
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        return lib.tan(rt * x) / rt
    if kappa < 0.0:
        rt = math.sqrt(-kappa)
        return lib.tanh(rt * x) / rt
    return x


def _atn(kappa: float, y):
    """Inverse of _tn in its length argument: arctan(sqrt(k) y)/sqrt(k), y, or the arctanh form."""
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        return np.arctan(rt * y) / rt
    if kappa < 0.0:
        rt = math.sqrt(-kappa)
        return np.arctanh(rt * y) / rt
    return y


# Second antiderivatives of the n = 2 and n = 4 candles,
#   n = 2: (t - sn(t)) / kappa,
#   n = 4: ((2/3) t - (3/4) sn(t) + sn(3t)/36) / kappa^2,
# are O(t^3) and O(t^5): the lower terms cancel exactly, so the direct forms
# lose all digits as sqrt|kappa| t -> 0.  Below the cuts they are series in
# x = -kappa t^2, which carry no power of kappa and so hold down to
# |kappa| = 1e-300.  n = 4 coefficients c_k = 3 (9^(k-1) - 1) / 4 / (2k+1)!
# for k >= 2; ten terms keep the truncation below 4e-17 up to the cut.
_SERIES_CUT = 0.25
_PSI4_CUT = 0.58
_PSI4_COEFFS = tuple(
    (3 * (9 ** (k - 1) - 1) // 4) / math.factorial(2 * k + 1) for k in range(2, 12)
)


def _anti2_closed(n: int, kappa: float, t: np.ndarray) -> np.ndarray:
    """Second candle antiderivative for n in {2, 4} at lengths inside the conjugate radius."""
    t = np.asarray(t)
    out = np.empty_like(t)
    small = math.sqrt(abs(kappa)) * np.abs(t) < (_SERIES_CUT if n == 2 else _PSI4_CUT)
    ts = t[small]
    x = -kappa * ts * ts
    if n == 2:
        out[small] = ts ** 3 / 6.0 * (1.0 + x / 20.0 * (1.0 + x / 42.0 * (1.0 + x / 72.0 * (1.0 + x / 110.0))))
    else:
        acc = np.zeros_like(ts)
        for c in reversed(_PSI4_COEFFS):
            acc = acc * x + c
        out[small] = ts ** 5 * acc
    tb = t[~small]
    if n == 2:
        out[~small] = (tb - _sn(kappa, tb)) / kappa
    else:
        out[~small] = ((2.0 / 3.0) * tb - 0.75 * _sn(kappa, tb) + _sn(kappa, 3.0 * tb) / 36.0) / (kappa * kappa)
    return out


def _validate_t(t: np.ndarray) -> None:
    if np.any(t < -1e-15) or not np.all(np.isfinite(t)):
        raise ValueError("lengths must be finite and >= 0")


def candle(params: ModelParams, t) -> float | np.ndarray:
    """Candle function s(t) = _sn(kappa, t)^(n-1), clamped to 0 past the conjugate point."""
    arr, scalar = _as_array(t)
    _validate_t(arr)
    cap = params.conjugate_radius
    s1 = _sn(params.kappa, np.minimum(arr, cap))
    if cap < math.inf:
        # np.where turns a scalar into a 0-d array, whose power can differ from
        # the scalar's in the last bit; an infinite cap clamps nothing
        s1 = np.where(arr >= cap, 0.0, s1)
    return _wrap(s1 ** (params.n - 1), scalar)


def candle_prime(params: ModelParams, t) -> float | np.ndarray:
    """Derivative of the candle function, 0 past the conjugate point."""
    arr, scalar = _as_array(t)
    _validate_t(arr)
    n, kappa, cap = params.n, params.kappa, params.conjugate_radius
    tc = np.minimum(arr, cap)
    val = np.where(arr >= cap, 0.0, (n - 1) * _sn(kappa, tc) ** (n - 2) * _cs(kappa, tc))
    return _wrap(val, scalar)


# Gauss-Legendre rule for the candle integrals of the dimensions without a
# closed form.  The integrand sn(y)^(n-1) is entire; a panel at most
# _GL_PANEL / ((n - 1) sqrt|kappa|) wide holds at most _GL_PANEL / 2 radians
# (or e-folds) of each of its exponential terms on its half-width, where the
# 24-point rule is exact to far below rounding.  At kappa = 0 the integrand is
# a polynomial of degree n - 1, exact on one panel for n up to 47.
_GL_ORDER = 24
_GL_PANEL = 8.0
_GL_CHUNK = 1 << 18  # quadrature nodes evaluated per block


@functools.lru_cache(maxsize=64)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], as leggauss gives them.

    Cached, as leggauss solves an n x n eigenproblem (0.7 ms at n = 24, 5-50 ms
    at n = 200); the arrays are read-only because every caller shares them.
    """
    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=64)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """_GL_ORDER-point Gauss-Legendre nodes and weights on each of `panels` equal panels of [0, 1].

    Cached and read-only like _legendre_rule.
    """
    x, w = _legendre_rule(_GL_ORDER)
    nodes = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels
    rule = nodes.ravel(), np.tile(0.5 * w / panels, panels)
    for a in rule:
        a.flags.writeable = False
    return rule


def _panel_count(length: float, n: int, kappa: float) -> int:
    """Panels of the candle rule for an interval of the given length."""
    if not length > 0.0:
        return 1
    return max(1, math.ceil(length * (n - 1) * math.sqrt(abs(kappa)) / _GL_PANEL))


def _candle_integral(params: ModelParams, arr: np.ndarray, second: bool) -> np.ndarray:
    """Integral of s(y), or of (t - y) s(y) with second, over [0, min(t, conjugate radius)].

    The integrand is positive, so the rule loses no digits to cancellation.
    Every point gets the panel count of the longest interval; points are
    evaluated in blocks of at most _GL_CHUNK nodes.
    """
    n, kappa = params.n, params.kappa
    flat = arr.ravel()
    m = np.minimum(flat, params.conjugate_radius)
    u, w = _panel_rule(_panel_count(float(m.max(initial=0.0)), n, kappa))
    out = np.empty_like(flat)
    step = max(1, _GL_CHUNK // u.size)
    for i in range(0, flat.size, step):
        mi = m[i : i + step, None]
        y = mi * u
        f = _sn(kappa, y) ** (n - 1)
        if second:
            f *= flat[i : i + step, None] - y
        out[i : i + step] = (f @ w) * mi[:, 0]
    return out.reshape(arr.shape)


def candle_anti(params: ModelParams, t) -> float | np.ndarray:
    """First antiderivative of the candle function, vanishing at 0.

    Closed cancellation-free forms for n in {2, 4}; for kappa > 0 the value
    saturates at the conjugate radius.  Other dimensions use a panelled
    24-point Gauss-Legendre rule (relative error below 1e-13).
    """
    arr, scalar = _as_array(t)
    _validate_t(arr)
    n, kappa = params.n, params.kappa
    if n not in (2, 4):
        return _wrap(_candle_integral(params, arr, second=False), scalar)
    s2 = _sn(kappa, np.minimum(arr, params.conjugate_radius) / 2.0)
    if n == 2:
        val = 2.0 * s2 * s2
    else:
        s2sq = s2 * s2
        val = s2sq * s2sq * (4.0 - (8.0 / 3.0) * kappa * s2sq)
    return _wrap(val, scalar)


def candle_anti2(params: ModelParams, t) -> float | np.ndarray:
    """Second antiderivative of the candle function (both derivatives vanish at 0).

    Past the conjugate radius the continuation is linear with slope
    candle_anti at the cap.  Closed forms for n in {2, 4}, stable for small
    |kappa|*t^2 via guarded series (see _anti2_closed); other dimensions
    integrate (t - y) s(y) with the Gauss-Legendre rule of candle_anti.
    """
    arr, scalar = _as_array(t)
    _validate_t(arr)
    n, kappa = params.n, params.kappa
    if n not in (2, 4):
        return _wrap(_candle_integral(params, arr, second=True), scalar)
    if kappa == 0.0:  # exact flat forms; the n = 4 series rounds t^5/20 as t^5 * 0.05
        return _wrap(arr ** 3 / 6.0 if n == 2 else arr ** 5 / 20.0, scalar)
    cap = params.conjugate_radius
    val = _anti2_closed(n, kappa, np.minimum(arr, cap))
    past = arr > cap
    if np.any(past):
        val = np.where(past, val + candle_anti(params, cap) * (arr - cap), val)
    return _wrap(val, scalar)


def ball_volume(params: ModelParams, r) -> float | np.ndarray:
    """Volume of the metric ball of radius r."""
    return sphere_volume(params.n - 1) * candle_anti(params, r)


def ball_area(params: ModelParams, r) -> float | np.ndarray:
    """Boundary area of the metric ball of radius r."""
    return sphere_volume(params.n - 1) * candle(params, r)


def max_ball_volume(params: ModelParams) -> float:
    """Volume of the hemisphere: inf for kappa <= 0 and where kappa^(-n/2) overflows."""
    if params.hemisphere_radius == math.inf:
        return math.inf
    try:
        return params.kappa ** (-params.n / 2.0) * sphere_volume(params.n) / 2.0
    except OverflowError:
        return math.inf


def ball_from_radius(params: ModelParams, r: float) -> BallGeometry:
    """Ball geometry from its radius."""
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    if r > params.hemisphere_radius * (1 + 1e-12):
        raise ValueError("radius exceeds the hemisphere radius for this curvature")
    return BallGeometry(
        params=params,
        volume=float(ball_volume(params, r)),
        radius=float(r),
        area=float(ball_area(params, r)),
    )


def ball_from_volume(params: ModelParams, volume: float) -> BallGeometry:
    """Invert r -> |B(r)| by Newton's method on ln |B(r)| (relative accuracy ~1e-15).

    The volume must not exceed the hemisphere volume (max_ball_volume).  The
    candle sn^(n-1) is log-concave up to the hemisphere, and so is its
    integral (Prekopa): ln |B(r)| is increasing and concave, so Newton's
    method started below the root climbs to it and no iterate passes it.
    With target = volume / omega_{n-1}, the start is the flat radius
    r_f = (n target)^(1/n) for kappa >= 0, as sn(t) <= t; for kappa < 0, with
    s = sqrt(-kappa), the larger of r_f exp(-(n - 1) s r_f / n), as
    sinh x <= x e^x, and ln(target (n - 1) s (2s)^(n-1)) / ((n - 1) s), as
    sinh x <= e^x / 2.  Rounding can put the start past the root (the power
    1/n rounds, by up to 1.3e-14 relative), and from there a Newton step
    lands below it, so the first step is always taken; the iteration stops
    where the iterate stops increasing.
    """
    if not (volume > 0.0 and math.isfinite(volume)):
        raise ValueError(f"volume must be positive and finite, got {volume!r}")
    n, kappa = params.n, params.kappa
    omega = sphere_volume(n - 1)
    vmax = max_ball_volume(params)
    if volume > vmax * (1.0 + 1e-12):
        raise ValueError(f"volume {volume} exceeds the hemisphere volume {vmax} at curvature {kappa}")
    if volume >= vmax:
        return ball_from_radius(params, params.hemisphere_radius)

    target = volume / omega
    r = (n * target) ** (1.0 / n)
    if kappa < 0.0:  # in logs: the volume at r_f may overflow, and target may be 0
        s = math.sqrt(-kappa)
        log_bound = math.log(volume) - math.log(omega) + math.log((n - 1) * s) + (n - 1) * math.log(2.0 * s)
        r = max(r * math.exp(-(n - 1) * s * r / n), log_bound / ((n - 1) * s))
    for step in range(200):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            anti, slope = float(candle_anti(params, r)), float(candle(params, r))
        if anti == 0.0 or target == 0.0:
            raise ValueError(f"volume {volume!r} is too small: the ball's volume underflows near its radius")
        if not math.isfinite(omega * slope):
            raise ValueError(f"volume {volume!r} is too large at curvature {kappa!r}: the ball's area overflows")
        if not math.isfinite(anti):
            # n = 4: (8/3) kappa overflows in candle_anti's closed form below kappa = -6.7e307
            raise ValueError(f"volume {volume!r} cannot be inverted at curvature {kappa!r}: "
                             "the ball's volume is not finite near its radius")
        r_new = r - math.log(anti / target) * anti / slope
        if step and not r_new > r:
            return ball_from_radius(params, r)
        r = r_new
    raise ValueError(f"Newton did not converge on the radius of volume {volume}")


def _validate_chord_args(kappa: float, r: float) -> None:
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    if r >= _conjugate_radius(kappa) / 2.0:
        raise ValueError("chord function needs r strictly inside the hemisphere")


def chord_T(kappa: float, r: float, ell) -> float | np.ndarray:
    """Normalized chord function: cosine of the boundary angle of a chord of length ell.

    Increases from 0 at ell=0 to 1 at ell=2r.
    """
    _validate_chord_args(kappa, r)
    arr, scalar = _as_array(ell)
    if np.any(arr < -1e-12 * r) or np.any(arr > 2.0 * r * (1 + 1e-12)):
        raise ValueError("chord length must lie in [0, 2r]")
    arr = np.clip(arr, 0.0, 2.0 * r)
    return _wrap(_tn(kappa, arr / 2.0) / _tn(kappa, r), scalar)


def chord_T_prime(kappa: float, r: float, ell) -> float | np.ndarray:
    """Derivative of chord_T with respect to the chord length."""
    _validate_chord_args(kappa, r)
    arr, scalar = _as_array(ell)
    return _wrap((1.0 + kappa * _tn(kappa, arr / 2.0) ** 2) / (2.0 * _tn(kappa, r)), scalar)


def chord_length(kappa: float, r: float, alpha) -> float | np.ndarray:
    """Length ell = 2 atn(tn(r) cos alpha) of the ball's chord with boundary angle alpha (inverse of chord_T).

    For kappa < 0 it is 2 atanh(x)/sqrt(-k) = log1p(2x/(1 - x))/sqrt(-k) with
    x = cos(alpha) tanh(rho), rho = sqrt(-k) r, and 1 - x written as the sum
    2 sin^2(alpha/2) + cos(alpha) 2e^(-2 rho)/(1 + e^(-2 rho)) of positive
    terms: it keeps its digits where x -> 1, and e^(-2 rho) underflows to 0
    rather than tanh(rho) rounding to 1.
    """
    _validate_chord_args(kappa, r)
    arr, scalar = _as_array(alpha)
    if np.any(arr < -1e-12) or np.any(arr > math.pi / 2.0 + 1e-12):
        raise ValueError("angle must lie in [0, pi/2]")
    c = np.clip(np.cos(arr), 0.0, 1.0)
    if kappa >= 0.0:
        return _wrap(2.0 * _atn(kappa, c * _tn(kappa, r)), scalar)
    rt = math.sqrt(-kappa)
    e = math.exp(-2.0 * rt * r)
    one_minus_x = 2.0 * np.sin(arr / 2.0) ** 2 + c * (2.0 * e / (1.0 + e))
    return _wrap(np.log1p(2.0 * c * math.tanh(rt * r) / one_minus_x) / rt, scalar)


def _angle_rule(kappa: float, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point rule on [0, pi/2] for integrands along the chord curve of the ball of radius r.

    The curve ell = 2 atn(tn(r) cos alpha) turns in a layer of width about
    1/tan(sqrt(k) r) next to pi/2 for kappa > 0, and about exp(-sqrt(-k) r)
    next to 0 for kappa < 0.  Gauss-Legendre in u on (0, 1) is graded toward
    it: alpha = pi/2 - (pi/2) expm1(L (1 - u)) / expm1(L) with
    L = ln max(1, 100 tan(sqrt(k) r)), or alpha = (pi/2) expm1(L u) / expm1(L)
    with L = max(0, sqrt(-k) r - 1.5 ln 2).  Where L = 0, kappa = 0 included,
    it is plain Gauss-Legendre on [0, pi/2].  The nodes ascend.
    """
    x, w = _legendre_rule(n)
    if kappa > 0.0:
        grade = math.log(max(1.0, 100.0 * math.tan(math.sqrt(kappa) * r)))
        v = 0.5 * (1.0 - x)  # 1 - u without cancellation next to u = 1
    else:
        grade = max(0.0, math.sqrt(-kappa) * r - 1.5 * math.log(2.0))
        v = 0.5 * (1.0 + x)
    if grade == 0.0:
        return math.pi / 4.0 * (x + 1.0), math.pi / 4.0 * w
    scale = (math.pi / 2.0) / math.expm1(grade)
    offset = scale * np.expm1(grade * v)
    # |d alpha/du| = scale L exp(L v) = L (scale + offset); du carries w/2
    return (math.pi / 2.0 - offset if kappa > 0.0 else offset), 0.5 * w * grade * (scale + offset)


def delta_weight(n: int, alpha) -> float | np.ndarray:
    """Boundary-angle density omega_{n-2} sin^(n-2)(alpha) cos(alpha) on [0, pi/2]."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    arr, scalar = _as_array(alpha)
    if np.any(arr < -1e-12) or np.any(arr > math.pi / 2.0 + 1e-12):
        raise ValueError("angle must lie in [0, pi/2]")
    val = sphere_volume(n - 2) * np.sin(arr) ** (n - 2) * np.cos(arr)
    return _wrap(val, scalar)


def candle_from_spectrum(spectrum: CurvatureSpectrum, t):
    """Candle of a space whose curvature operator has the given eigenvalues.

    Product of the one dimensional candles; clamped to 0 past the first
    conjugate point when some eigenvalue is positive.
    """
    arr, scalar = _as_array(t)
    _validate_t(arr)
    cap = _conjugate_radius(max(spectrum.curvatures))
    tc = np.minimum(arr, cap)
    val = np.ones_like(arr)
    for k in spectrum.curvatures:
        val = val * _sn(k, tc)
    return _wrap(np.where(arr >= cap, 0.0, val), scalar)
