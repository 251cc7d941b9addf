"""Chord measures on balls: discretization, sampling, integral identities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isoplp.chordmeasure import (
    _SAMPLE_BLOCK,
    DiscreteMeasure,
    SingularAtomError,
    ball_chord_density,
    ball_moments,
    discretize_ball_measure,
    integrate,
    sample_chords,
)
from isoplp.spaceform import (
    ModelParams,
    _angle_rule,
    _legendre_rule,
    ball_from_radius,
    chord_length,
    sphere_volume,
)

DISK = ball_from_radius(ModelParams(2, 0.0), 1.0)
BALL4 = ball_from_radius(ModelParams(4, 0.0), 1.0)


def test_gauss_legendre_polynomial_exactness():
    # at kappa = 0 the angle rule is Gauss-Legendre on [0, pi/2]: 6 nodes
    # integrate degree 11 exactly
    x, w = _angle_rule(0.0, 1.0, 6)
    assert_allclose(np.sum(w * x ** 11), (math.pi / 2.0) ** 12 / 12.0, rtol=1e-13)
    assert_allclose(np.sum(w), math.pi / 2.0, rtol=1e-14)


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = _legendre_rule(200)
    assert _legendre_rule(200)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    ref = np.polynomial.legendre.leggauss(200)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    # what the angle rule hands out, plain or graded, is the caller's own copy
    for kappa, r in ((0.0, 1.0), (1.0, 1.5), (-1.0, 7.0)):
        nodes, weights = _angle_rule(kappa, r, 200)
        expect = nodes.copy(), weights.copy()
        nodes[:] = 0.0
        weights[:] = 0.0
        again = _angle_rule(kappa, r, 200)
        assert np.array_equal(again[0], expect[0]) and np.array_equal(again[1], expect[1])


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([0.1], [0.0], [0.0], [-1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.1, 0.2], [0.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([0.1], [2.0], [0.0], [1.0])  # angle beyond pi/2


def test_measure_atoms_and_scaling():
    mu = DiscreteMeasure([0.5, 1.0], [0.1, 0.2], [0.1, 0.3], [2.0, 3.0])
    assert mu.size == 2
    assert_allclose(mu.total_mass, 5.0)
    half = DiscreteMeasure(mu.ell, mu.alpha, mu.beta, 0.5 * mu.mass)
    assert_allclose(half.total_mass, 2.5)


def residual(ball, mu, k):
    """integral F_k d(mu) minus the ball's k-th moment (0 for the ball's own chord measure)."""
    return integrate(mu, f"F{k}", ball.params) - ball_moments(ball)[k - 1]


def test_ball_moments_closed_forms():
    # the unit disk: A = 2 pi, V = pi, omega_1 = 2 pi
    pi2 = math.pi ** 2
    assert_allclose(ball_moments(DISK), (4 * pi2, 2 * pi2, pi2, 2 * pi2), rtol=1e-15)
    area, volume = BALL4.area, BALL4.volume
    assert ball_moments(BALL4) == (area ** 2, area * volume, volume ** 2, 2 * math.pi ** 2 * volume)


def test_chord_density_normalizes_to_F_identities():
    # the alpha marginal integrates to A * omega_{n-2}/(n-1) = total chord mass
    mu = discretize_ball_measure(DISK, 160)
    assert_allclose(mu.total_mass, DISK.area * sphere_volume(0) / 1.0, rtol=1e-12)
    mu4 = discretize_ball_measure(BALL4, 160)
    assert_allclose(mu4.total_mass, BALL4.area * sphere_volume(2) / 3.0, rtol=1e-12)


def test_chord_density_positive_and_integrates_to_mass():
    from scipy.integrate import quad

    for ball in (DISK, BALL4):
        total = quad(
            lambda l: ball_chord_density(ball, l), 0.0, 2 * ball.radius, limit=300
        )[0]
        assert_allclose(total, discretize_ball_measure(ball, 200).total_mass, rtol=1e-8)


def test_diagonal_symmetric_measure():
    mu = discretize_ball_measure(DISK, 64)
    # ball chords hit both endpoints at the same angle
    assert_allclose(mu.alpha, mu.beta, rtol=0, atol=0)
    assert np.all(np.diff(mu.ell) > 0)


DISK_CROKE = {1: 4.0 * math.pi ** 2, 2: 2.0 * math.pi ** 2, 3: math.pi ** 2}


@pytest.mark.parametrize("which", [1, 2, 3])
def test_croke_equalities_disk_closed_values(which):
    mu = discretize_ball_measure(DISK, 160)
    resid = residual(DISK, mu, which)
    assert abs(resid) <= 1e-10 * DISK_CROKE[which]
    val = integrate(mu, f"F{which}", DISK.params)
    assert_allclose(val, DISK_CROKE[which], rtol=1e-12)


@pytest.mark.parametrize(
    "n,kappa,r",
    [(2, 0.0, 1.0), (2, 1.0, 0.7), (2, -1.0, 1.2), (4, 0.0, 1.0), (4, 1.0, 0.7), (4, -1.0, 1.2)],
)
def test_santalo_and_croke_all_model_cases(n, kappa, r):
    params = ModelParams(n, kappa)
    ball = ball_from_radius(params, r)
    mu = discretize_ball_measure(ball, 160)
    omega = sphere_volume(n - 1)
    assert abs(residual(ball, mu, 4)) <= 1e-9 * omega * ball.volume
    rhs = {1: ball.area ** 2, 2: ball.area * ball.volume, 3: ball.volume ** 2}
    for which in (1, 2, 3):
        assert abs(residual(ball, mu, which)) <= 1e-9 * rhs[which]


def test_quadrature_refinement_converges():
    resid = [
        abs(residual(BALL4, discretize_ball_measure(BALL4, n), 1))
        for n in (16, 32, 64)
    ]
    assert resid[2] <= resid[0] + 1e-12


def test_integrate_rejects_singular_secant():
    mu = DiscreteMeasure([1.0], [math.pi / 2.0], [0.0], [1.0])
    with pytest.raises(SingularAtomError):
        integrate(mu, "F1", DISK.params)
    # zero-mass atoms at the wall are fine
    mu0 = DiscreteMeasure([1.0, 0.5], [math.pi / 2.0, 0.1], [0.0, 0.1], [0.0, 1.0])
    assert math.isfinite(integrate(mu0, "F1", DISK.params))


def test_atoms_next_to_the_hemisphere_are_finite():
    # below pi/2 the secant is finite, however large: only pi/2 itself is rejected
    mu = DiscreteMeasure([1.0], [math.pi / 2.0 - 1e-13], [0.0], [1.0])
    assert math.isfinite(integrate(mu, "F1", DISK.params))
    # 5e-9 inside the hemisphere the last graded node sits within 1e-12 of pi/2
    ball = ball_from_radius(ModelParams(2, 1.0), 1.57079632)
    mu = discretize_ball_measure(ball, 128)
    assert math.pi / 2.0 - mu.alpha.max() < 1e-12
    assert abs(residual(ball, mu, 1)) <= 1e-8 * ball.area ** 2


def test_last_angle_node_at_pi_half_names_the_hemisphere_radius():
    # here the angle rule's last node rounds to pi/2, where the secant is infinite
    ball = ball_from_radius(ModelParams(4, 1.0), 1.5707963267948)
    with pytest.raises(ValueError, match="hemisphere radius 1.5707963267948966"):
        discretize_ball_measure(ball, 128)


def test_monte_carlo_reproducible_and_unbiased():
    s1 = sample_chords(DISK, 5000, 123)
    s2 = sample_chords(DISK, 5000, 123)
    assert_allclose(s1.ell, s2.ell, rtol=0, atol=0)
    s3 = sample_chords(DISK, 5000, 124)
    assert not np.array_equal(s1.ell, s3.ell)
    # prefix property: first draws do not depend on the sample count
    s_short = sample_chords(DISK, 100, 123)
    assert_allclose(s_short.alpha, s1.alpha[:100], rtol=0, atol=0)

    est = integrate(s1, "F4", DISK.params)
    exact = sphere_volume(1) * DISK.volume
    se = s1.total_mass * float(np.std(s1.ell, ddof=1)) / math.sqrt(s1.size)
    assert abs(est - exact) <= 4.0 * se


def test_monte_carlo_total_mass_matches_quadrature():
    s = sample_chords(BALL4, 1000, 7)
    q = discretize_ball_measure(BALL4, 64)
    assert_allclose(s.total_mass, q.total_mass, rtol=1e-12)


@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_monte_carlo_angles_in_range(seed):
    s = sample_chords(DISK, 64, seed)
    assert np.all(s.alpha >= 0.0) and np.all(s.alpha <= math.pi / 2.0)
    assert np.all(s.ell > 0.0) and np.all(s.ell <= 2 * DISK.radius)


@pytest.mark.parametrize("n_samples", [1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 100000])
@pytest.mark.parametrize(
    "n, kappa, r", [(2, 0.0, 1.0), (3, 1.0, 0.8), (4, 1.0, 0.8), (5, -1.0, 1.5)]
)  # exponents 1/(n-1) = 1, 1/2, 1/3, 1/4
def test_blocked_sample_matches_the_whole_array_draw(n, kappa, r, n_samples):
    # the draw as one whole-array pass from numpy's own Philox generator
    ball = ball_from_radius(ModelParams(n, kappa), r)
    u = np.random.Generator(np.random.Philox(key=3)).random(n_samples)
    alpha = np.arcsin(u ** (1.0 / (n - 1)))
    ell = chord_length(kappa, r, alpha)
    s = sample_chords(ball, n_samples, 3)
    assert np.array_equal(s.alpha, alpha)
    assert np.array_equal(s.beta, alpha)
    assert np.array_equal(s.ell, ell)
    assert np.array_equal(s.mass, np.full(n_samples, ball.area * sphere_volume(n - 2) / (n - 1) / n_samples))


@pytest.mark.parametrize("n_samples", [2, 16385, 100000, 250001])
def test_sample_mass_is_one_broadcast_value(n_samples):
    # a read-only zero-stride view, which sums and integrates as its materialized copy does
    s = sample_chords(BALL4, n_samples, 5)
    assert s.mass.strides == (0,) and not s.mass.flags.writeable
    full = DiscreteMeasure(s.ell, s.alpha, s.beta, np.array(s.mass))
    assert full.mass.strides == (8,)
    assert s.total_mass == full.total_mass
    assert integrate(s, "F4", BALL4.params) == integrate(full, "F4", BALL4.params)


def test_sample_of_100000_chords_stays_small():
    # its two result arrays, ell and alpha, take 1.5 MiB (the mass is one broadcast
    # value); one whole-array pass added 2.3 MiB of temporaries
    ball = ball_from_radius(ModelParams(4, 1.0), 0.8)
    tracemalloc.start()
    try:
        sample = sample_chords(ball, 100000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.size == 100000
    assert peak < 4e6
