"""Constant-curvature geometry primitives: closed forms, limits, round trips."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isoplp import spaceform
from isoplp.spaceform import (
    BallGeometry,
    CurvatureSpectrum,
    ModelParams,
    _angle_rule,
    _legendre_rule,
    ball_area,
    ball_from_radius,
    ball_from_volume,
    ball_volume,
    candle,
    candle_anti,
    candle_anti2,
    candle_from_spectrum,
    candle_prime,
    chord_T,
    chord_T_prime,
    chord_length,
    delta_weight,
    max_ball_volume,
    sphere_volume,
)

FLAT2 = ModelParams(2, 0.0)
FLAT4 = ModelParams(4, 0.0)
SPH2 = ModelParams(2, 1.0)
SPH4 = ModelParams(4, 1.0)
HYP2 = ModelParams(2, -1.0)
HYP4 = ModelParams(4, -1.0)


def test_sphere_volume_table():
    # omega_k = 2 pi^((k+1)/2) / Gamma((k+1)/2)
    assert_allclose(sphere_volume(0), 2.0, rtol=1e-15)
    assert_allclose(sphere_volume(1), 2.0 * math.pi, rtol=1e-15)
    assert_allclose(sphere_volume(2), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(sphere_volume(3), 2.0 * math.pi ** 2, rtol=1e-15)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 0.0)
    assert math.isinf(ModelParams(3, -1.0).conjugate_radius)
    assert_allclose(ModelParams(3, 4.0).conjugate_radius, math.pi / 2.0)
    assert math.isinf(ModelParams(3, 0.0).hemisphere_radius)
    assert math.isinf(ModelParams(3, -1e-300).hemisphere_radius)
    assert ModelParams(3, 4.0).hemisphere_radius == math.pi / 4.0


@pytest.mark.parametrize("kappa", [1e-300, -1e-300, 1e-60])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_tiny_curvature_matches_flat(n, kappa):
    # kappa -> 0 is continuous: no power of kappa may overflow on the way
    params, flat = ModelParams(n, kappa), ModelParams(n, 0.0)
    t = np.linspace(0.0, 3.0, 13)
    for fn in (candle, candle_prime, candle_anti, candle_anti2):
        assert_allclose(fn(params, t), fn(flat, t), rtol=1e-13, atol=0.0)
    ell = np.linspace(0.0, 1.6, 9)
    assert_allclose(chord_T(kappa, 0.8, ell), chord_T(0.0, 0.8, ell), rtol=1e-14)
    assert_allclose(chord_T_prime(kappa, 0.8, ell), chord_T_prime(0.0, 0.8, ell), rtol=1e-14)
    alpha = np.linspace(0.0, math.pi / 2.0, 9)
    assert_allclose(chord_length(kappa, 0.8, alpha), chord_length(0.0, 0.8, alpha), rtol=1e-14)
    assert max_ball_volume(params) > 1e60  # inf where kappa^(-n/2) overflows
    ball = ball_from_volume(params, 1.0)
    assert_allclose(ball.radius, ball_from_volume(flat, 1.0).radius, rtol=1e-13)
    assert_allclose(ball.volume, 1.0, rtol=1e-13)


def test_candle_closed_forms_flat():
    t = np.linspace(0.0, 3.0, 7)
    assert_allclose(candle(FLAT2, t), t, rtol=1e-15)
    assert_allclose(candle(FLAT4, t), t ** 3, rtol=1e-15)
    assert_allclose(candle_anti(FLAT4, t), t ** 4 / 4.0, rtol=1e-15)
    assert_allclose(candle_anti2(FLAT4, t), t ** 5 / 20.0, rtol=1e-14)
    assert_allclose(candle_anti2(FLAT2, t), t ** 3 / 6.0, rtol=1e-14)


def test_candle_closed_forms_curved():
    ell = 0.8
    assert_allclose(candle(SPH2, ell), math.sin(ell), rtol=1e-15)
    assert_allclose(candle_anti(SPH2, ell), 1.0 - math.cos(ell), rtol=1e-14)
    assert_allclose(candle_anti2(SPH2, ell), ell - math.sin(ell), rtol=1e-13)
    s, c = math.sin(ell), math.cos(ell)
    assert_allclose(
        candle_anti(SPH4, ell), 2.0 / 3.0 - s * s * c / 3.0 - 2.0 * c / 3.0, rtol=1e-13
    )
    assert_allclose(
        candle_anti2(SPH4, ell), 2.0 * ell / 3.0 - s ** 3 / 9.0 - 2.0 * s / 3.0, rtol=1e-12
    )
    sh, ch = math.sinh(ell), math.cosh(ell)
    assert_allclose(
        candle_anti(HYP4, ell), 2.0 / 3.0 + sh * sh * ch / 3.0 - 2.0 * ch / 3.0, rtol=1e-13
    )
    assert_allclose(
        candle_anti2(HYP4, ell), 2.0 * ell / 3.0 + sh ** 3 / 9.0 - 2.0 * sh / 3.0, rtol=1e-12
    )
    assert_allclose(candle_anti(HYP2, ell), ch - 1.0, rtol=1e-14)
    assert_allclose(candle_anti2(HYP2, ell), sh - ell, rtol=1e-13)


def test_candle_full_sphere_values():
    # antiderivatives saturate at the conjugate radius pi
    assert_allclose(candle_anti(SPH2, math.pi), 2.0, rtol=1e-15)
    assert_allclose(candle_anti2(SPH2, math.pi), math.pi, rtol=1e-15)
    assert_allclose(candle_anti(SPH4, math.pi), 4.0 / 3.0, rtol=1e-14)
    assert_allclose(candle_anti2(SPH4, math.pi), 2.0 * math.pi / 3.0, rtol=1e-14)
    # candle itself clamps to zero past the conjugate point
    assert candle(SPH2, math.pi + 0.5) == 0.0
    # the first antiderivative stays flat, the second continues linearly
    assert_allclose(candle_anti(SPH2, math.pi + 0.5), 2.0, rtol=1e-15)
    assert_allclose(candle_anti2(SPH2, math.pi + 0.5), math.pi + 0.5 * 2.0, rtol=1e-14)


def test_curvature_scaling_relation():
    # s_kappa(t) = kappa^-(n-1)/2 s_1(sqrt(kappa) t) and its primitives
    kappa = 2.7
    lam = math.sqrt(kappa)
    t = 0.43
    for n in (2, 4):
        p = ModelParams(n, kappa)
        p1 = ModelParams(n, 1.0)
        assert_allclose(candle(p, t), lam ** -(n - 1) * candle(p1, lam * t), rtol=1e-13)
        assert_allclose(candle_anti(p, t), lam ** -n * candle_anti(p1, lam * t), rtol=1e-13)
        assert_allclose(
            candle_anti2(p, t), lam ** -(n + 1) * candle_anti2(p1, lam * t), rtol=1e-12
        )


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0, 0.3, -2.0])
def test_anti_derivative_ladder(n, kappa):
    # d/dt candle_anti = candle and d/dt candle_anti2 = candle_anti
    params = ModelParams(n, kappa)
    hi = 2.5 if kappa <= 0 else 0.9 * params.conjugate_radius
    t = np.linspace(0.05, hi, 17)
    h = 1e-6
    fd1 = (candle_anti(params, t + h) - candle_anti(params, t - h)) / (2 * h)
    fd2 = (candle_anti2(params, t + h) - candle_anti2(params, t - h)) / (2 * h)
    assert_allclose(fd1, candle(params, t), rtol=1e-8, atol=1e-9)
    assert_allclose(fd2, candle_anti(params, t), rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("n", [2, 4])
def test_anti_matches_quadrature_tiny_curvature(n):
    # the stable forms agree with direct quadrature through the kappa ~ 0 regime
    from scipy.integrate import quad

    for kappa in (1e-9, -1e-9, 1e-5, -1e-5, 0.1, -0.1):
        params = ModelParams(n, kappa)
        for t in (0.3, 1.1):
            ref1 = quad(lambda y: candle(params, y), 0.0, t, epsabs=0, epsrel=1e-13)[0]
            ref2 = quad(
                lambda y: (t - y) * candle(params, y), 0.0, t, epsabs=0, epsrel=1e-13
            )[0]
            assert_allclose(candle_anti(params, t), ref1, rtol=1e-12)
            assert_allclose(candle_anti2(params, t), ref2, rtol=1e-12)


def test_candle_n3_quadrature_fallback():
    params = ModelParams(3, 1.0)
    t = 0.7
    assert_allclose(candle(params, t), math.sin(t) ** 2, rtol=1e-14)
    from scipy.integrate import quad

    ref = quad(lambda y: math.sin(y) ** 2, 0, t)[0]
    assert_allclose(candle_anti(params, t), ref, rtol=1e-10)


def _n3_exact(kappa, t):
    """candle_anti and candle_anti2 for n = 3 in closed form, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa)
        m = mpmath.mpf(min(t, ModelParams(3, kappa).conjugate_radius))
        if kappa > 0:
            w = 2 * mpmath.sqrt(k) * m
            anti = (w - mpmath.sin(w)) / (4 * k ** 1.5)
            anti2 = (w * w / 2 - 1 + mpmath.cos(w)) / (8 * k * k)
        else:
            w = 2 * mpmath.sqrt(-k) * m
            anti = (mpmath.sinh(w) - w) / (4 * (-k) ** 1.5)
            anti2 = (mpmath.cosh(w) - 1 - w * w / 2) / (8 * k * k)
        # past the conjugate radius the second antiderivative continues linearly
        return float(anti), float(anti2 + anti * (mpmath.mpf(t) - m))


@pytest.mark.parametrize("kappa", [4.0, 1.0, 0.3, -0.3, -1.0, -4.0])
def test_candle_n3_matches_exact_form(kappa):
    params = ModelParams(3, kappa)
    hi = 1.6 * params.conjugate_radius if kappa > 0 else 3.0
    t = np.linspace(0.02, hi, 41)
    exact = np.array([_n3_exact(kappa, ti) for ti in t])
    assert_allclose(candle_anti(params, t), exact[:, 0], rtol=1e-13, atol=0)
    assert_allclose(candle_anti2(params, t), exact[:, 1], rtol=1e-13, atol=0)


def _sn_mp(kappa, y):
    if kappa > 0:
        rk = mpmath.sqrt(kappa)
        return mpmath.sin(rk * y) / rk
    if kappa < 0:
        rk = mpmath.sqrt(-kappa)
        return mpmath.sinh(rk * y) / rk
    return y


@pytest.mark.parametrize("n", [3, 5, 6])
@pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.01, 0.0, 0.01, 1.0, 4.0])
def test_candle_gauss_legendre_matches_mpmath(n, kappa):
    params = ModelParams(n, kappa)
    t = np.array([1e-3, 0.05, 0.4, 1.3, 2.5, 4.0])
    anti, anti2 = candle_anti(params, t), candle_anti2(params, t)
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa)
        for ti, a1, a2 in zip(t, anti, anti2):
            m = min(ti, params.conjugate_radius)
            ref1 = mpmath.quad(lambda y: _sn_mp(k, y) ** (n - 1), [0, m])
            ref2 = mpmath.quad(lambda y: (mpmath.mpf(ti) - y) * _sn_mp(k, y) ** (n - 1), [0, m])
            assert abs(a1 - ref1) <= 1e-13 * abs(ref1), (ti, a1, ref1)
            assert abs(a2 - ref2) <= 1e-13 * abs(ref2), (ti, a2, ref2)


def test_candle_gauss_legendre_blocks_match_slices():
    # 20,001 points on the two-panel rule of t = 3 take four evaluation blocks;
    # slices of 1,000 points take one each
    params = ModelParams(5, -1.0)
    t = np.linspace(0.0, 3.0, 20001)
    for fn in (candle_anti, candle_anti2):
        sliced = np.concatenate([fn(params, t[i : i + 1000]) for i in range(0, t.size, 1000)])
        assert_allclose(fn(params, t), sliced, rtol=1e-13, atol=0)
    assert candle_anti(params, np.zeros((2, 3))).shape == (2, 3)


def test_ball_volume_area_flat():
    assert_allclose(ball_volume(FLAT2, 1.0), math.pi, rtol=1e-14)
    assert_allclose(ball_area(FLAT2, 1.0), 2.0 * math.pi, rtol=1e-14)
    assert_allclose(ball_volume(FLAT4, 1.0), math.pi ** 2 / 2.0, rtol=1e-14)
    assert_allclose(ball_area(FLAT4, 1.0), 2.0 * math.pi ** 2, rtol=1e-14)


def test_hemisphere_cap():
    # ball volume saturates at half the round sphere
    assert_allclose(
        max_ball_volume(SPH2), 0.5 * sphere_volume(2), rtol=1e-13
    )
    with pytest.raises(ValueError):
        ball_from_radius(SPH2, math.pi / 2 + 0.01)
    with pytest.raises(ValueError):
        ball_from_volume(SPH2, max_ball_volume(SPH2) * 1.01)


@given(
    n=st.sampled_from([2, 3, 4]),
    kappa=st.sampled_from([1.0, 0.0, -1.0, 0.5, -1.7]),
    r=st.floats(min_value=0.05, max_value=1.4),
)
@settings(max_examples=60, deadline=None)
def test_ball_round_trip(n, kappa, r):
    params = ModelParams(n, kappa)
    if kappa > 0:
        r = min(r, 0.98 * params.conjugate_radius / 2.0)
    ball = ball_from_radius(params, r)
    back = ball_from_volume(params, ball.volume)
    assert math.isclose(back.radius, r, rel_tol=1e-11, abs_tol=1e-13)
    assert math.isclose(back.area, ball.area, rel_tol=1e-11)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("volume", [1e-6, 1e-12, 1e-20])
def test_small_ball_from_volume_matches_flat_radius(n, volume):
    # Newton stops on a step relative to r, so a tiny radius keeps its digits
    params = ModelParams(n, 0.0)
    exact = (n * volume / sphere_volume(n - 1)) ** (1.0 / n)
    assert_allclose(ball_from_volume(params, volume).radius, exact, rtol=1e-14, atol=0.0)


def test_ball_from_volume_climbs_to_the_radius(monkeypatch):
    # ln |B(r)| is increasing and concave and Newton starts below the root,
    # up to rounding, so after the first step the iterates increase and none
    # passes the root, where the hyperbolic volume overflows
    iterates = []

    def recording_candle(params, t):
        iterates.append(float(t))
        return candle(params, t)

    monkeypatch.setattr(spaceform, "candle", recording_candle)
    n_cases = 0
    for n in (2, 3, 4, 5, 6, 8):
        for kappa in (0.0, 1e-300, -1e-300, 1e-6, -1e-6, 1.0, -1.0, 100.0, -100.0, 1e4, -1e4):
            params = ModelParams(n, kappa)
            for volume in np.logspace(-300, 300, 121).tolist():
                if volume >= max_ball_volume(params):
                    continue
                iterates.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    ball = ball_from_volume(params, volume)
                case = (n, kappa, volume)
                *steps, area_at = iterates  # ball_area reads the candle at the radius last
                assert area_at == steps[-1] == ball.radius, case
                assert len(steps) <= 8, case
                assert steps[1] >= steps[0] * (1.0 - 1e-13), case
                assert all(a < b for a, b in zip(steps[1:], steps[2:])), case
                assert abs(ball_volume(params, ball.radius) / volume - 1.0) <= 1e-12, case
                n_cases += 1
    assert n_cases == 6541


@pytest.mark.parametrize(
    "n, kappa, volume", [(5, -1e308, 1e300), (2, -1e308, 1e10), (4, -1e200, 1e300), (3, -1.0, 1.7e308)]
)
def test_ball_whose_area_overflows_is_an_error_not_a_warning(n, kappa, volume):
    # Newton climbs from below, so its candle and candle_anti overflow only where
    # the ball's area does, and there is no BallGeometry to return; at
    # (3, -1, 1.7e308) only the area overflows, in ball_area's omega * candle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large at curvature .*: the ball's area overflows"):
            ball_from_volume(ModelParams(n, kappa), volume)


@pytest.mark.parametrize("volume", [1e-300, 1e-10, 1.0, 1e10])
def test_n4_volume_past_the_closed_form_is_an_error_not_a_warning(volume):
    # at kappa = -1e308 the n = 4 candle_anti's (8/3) kappa overflows, so its
    # volume is inf or nan where the area is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"volume {volume!r} cannot be inverted at curvature -1e\+308"):
            ball_from_volume(ModelParams(4, -1e308), volume)


def test_angle_rule_is_gauss_legendre_where_ungraded():
    x, w = _legendre_rule(128)
    half = math.pi / 4.0
    # kappa <= 0 grades only past sqrt(-kappa) r = 1.5 ln 2; kappa > 0 once 100 tan(sqrt(k) r) > 1
    for kappa, r in ((0.0, 1.0), (0.0, 50.0), (-1.0, 1.0), (1e-300, 1.0), (-1e-300, 1.0), (1.0, 0.009)):
        alpha, weights = _angle_rule(kappa, r, 128)
        assert np.array_equal(alpha, half * (x + 1.0)) and np.array_equal(weights, half * w), (kappa, r)


# gradings of the angle rule: toward pi/2 for kappa > 0, toward 0 for kappa < 0
GRADED = [(1.0, 0.8), (1.0, 1.5), (1.0, 1.56), (1.0, 1.57), (4.0, 0.78), (-1.0, 2.0), (-1.0, 7.0), (-1.0, 10.0)]


@pytest.mark.parametrize("kappa,r", GRADED)
def test_graded_angle_rule_integrates_constants_and_cos(kappa, r):
    # numpy's leggauss weights carry relative errors near 1e-14 (1e-11 at the
    # end nodes); the plain rule's normalization to sum 2 hides them, and a
    # graded rule shows them, so these sums are good to a few 1e-14
    for n in (128, 200):  # measure-check's default count and the diagonal integral's
        alpha, w = _angle_rule(kappa, r, n)
        assert np.all(np.diff(alpha) > 0.0) and 0.0 < alpha[0] and alpha[-1] < math.pi / 2.0
        assert np.all(w > 0.0)
        assert abs(w.sum() - math.pi / 2.0) <= 1e-13
        assert abs(np.dot(w, np.cos(alpha)) - 1.0) <= 1e-13
        # the nodes crowd toward the chord curve's boundary layer
        gap = math.pi / 2.0 - alpha[-1] if kappa > 0.0 else alpha[0]
        assert gap < _angle_rule(0.0, r, n)[0][0]


def test_ball_geometry_fields():
    ball = ball_from_radius(FLAT2, 2.0)
    assert isinstance(ball, BallGeometry)
    assert ball.params is FLAT2


def test_chord_function_flat():
    r = 1.0
    ell = np.array([0.2, 1.0, 1.9])
    assert_allclose(chord_T(0.0, r, ell), ell / 2.0, rtol=1e-15)
    assert_allclose(chord_T_prime(0.0, r, ell), 0.5, rtol=1e-15)
    assert_allclose(chord_length(0.0, r, np.arccos(ell / 2.0)), ell, rtol=1e-14)


@pytest.mark.parametrize("kappa,r", [(1.0, 0.7), (-1.0, 1.3), (0.0, 1.0), (2.5, 0.4)])
def test_chord_function_round_trip_and_range(kappa, r):
    ell = np.linspace(1e-3, 2 * r - 1e-3, 25)
    c = chord_T(kappa, r, ell)
    # T maps (0, 2r) onto (0, 1) monotonically
    assert np.all(np.diff(c) > 0)
    assert c[0] > 0.0 and c[-1] < 1.0
    assert_allclose(chord_length(kappa, r, np.arccos(c)), ell, rtol=1e-11, atol=1e-12)
    # endpoints: T(0) = 0, T(2r) = 1
    assert_allclose(chord_T(kappa, r, 2.0 * r), 1.0, rtol=1e-12)
    h = 1e-7
    fd = (chord_T(kappa, r, ell + h) - chord_T(kappa, r, ell - h)) / (2 * h)
    assert_allclose(chord_T_prime(kappa, r, ell), fd, rtol=1e-7, atol=1e-9)


def test_chord_function_rejects_hemisphere_radius():
    with pytest.raises(ValueError):
        chord_T(1.0, math.pi / 2.0, 0.5)
    with pytest.raises(ValueError):
        chord_T(0.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        chord_length(1.0, math.pi / 2.0, 0.5)
    with pytest.raises(ValueError, match="angle"):
        chord_length(0.0, 1.0, 1.6)


def _chord_length_mp(kappa, r, alpha):
    """2 atanh(cos(alpha) tanh(sqrt(-k) r)) / sqrt(-k) in 60-digit arithmetic."""
    with mpmath.workdps(60):
        rt = mpmath.sqrt(-mpmath.mpf(kappa))
        x = mpmath.cos(mpmath.mpf(alpha)) * mpmath.tanh(rt * mpmath.mpf(r))
        return 2 * mpmath.atanh(x) / rt


@pytest.mark.parametrize(
    "kappa,r", [(-1.0, 0.8), (-1.0, 7.0), (-1.0, 12.0), (-1.0, 25.0), (-4.0, 25.0), (-1e-300, 1.0)]
)
def test_hyperbolic_chord_length_keeps_its_digits(kappa, r):
    # at large radius 1 - cos(alpha) tanh(rho) cancels, and tanh rounds to 1
    # past rho = 19; the chord length is written so that neither loses digits
    alpha = np.concatenate([[0.0], _angle_rule(kappa, r, 128)[0]])
    got = chord_length(kappa, r, alpha)
    assert np.all(np.isfinite(got))
    for a, g in zip(alpha, got):
        ref = _chord_length_mp(kappa, r, a)
        assert abs(g - ref) <= 1e-15 * ref, (a, g)


def test_delta_weight_normalization():
    # integral of delta^n over [0, pi/2] equals omega_(n-2)/(n-1)
    from scipy.integrate import quad

    for n in (2, 3, 4):
        total = quad(lambda a: delta_weight(n, a), 0.0, math.pi / 2.0)[0]
        assert_allclose(total, sphere_volume(n - 2) / (n - 1), rtol=1e-10)


def test_candle_from_spectrum_reduces_to_constant():
    spectrum_in = CurvatureSpectrum((-1.0, -1.0, -1.0))
    t = np.linspace(0.1, 2.0, 9)
    assert_allclose(candle_from_spectrum(spectrum_in, t), candle(HYP4, t), rtol=1e-13)
    spec2 = CurvatureSpectrum((1.0,))
    assert_allclose(candle_from_spectrum(spec2, 0.4), math.sin(0.4), rtol=1e-14)


def test_candle_from_spectrum_mixed_and_flag():
    spectrum_in = CurvatureSpectrum((-9.0 / 4.0, -9.0 / 16.0, -9.0 / 16.0))
    assert spectrum_in.n == 4
    t = 1.2
    expect = (
        math.sinh(1.5 * t) / 1.5 * (math.sinh(0.75 * t) / 0.75) ** 2
    )
    assert_allclose(candle_from_spectrum(spectrum_in, t), expect, rtol=1e-13)
    # positive entries saturate past the first conjugate point
    spec_pos = CurvatureSpectrum((4.0, 1.0))
    assert candle_from_spectrum(spec_pos, math.pi) == 0.0


@given(t=st.floats(min_value=0.0, max_value=2.8))
@settings(max_examples=200, deadline=None)
def test_candle_positive_inside_conjugate_radius(t):
    for params in (SPH2, SPH4, FLAT4, HYP4):
        if t < params.conjugate_radius:
            assert candle(params, t) >= 0.0


def test_scalar_and_array_shapes():
    assert isinstance(candle(SPH4, 0.5), float)
    assert isinstance(candle_anti2(HYP4, np.array(0.5)), float)
    out = candle_prime(SPH4, np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert out.shape == (2, 2)
