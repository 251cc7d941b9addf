"""Inequalities below a negative curvature bound, and the CH^2 counterexample."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoplp.chordmeasure import DiscreteMeasure, discretize_ball_measure
from isoplp.negbound import (
    CH2_SPECTRUM,
    CounterexampleResult,
    SmallnessInput,
    _ch2_difference_closed,
    _difference_kernels,
    ch2_counterexample_search,
    conjecture_residual,
    conjecture_rhs,
    hyp2_lemma_residual,
    hyp2_rhs,
    normalizers,
    question1_margin,
    smallness_ok,
)
from isoplp.spaceform import CurvatureSpectrum, ModelParams, ball_from_radius


def test_smallness_value_and_flag():
    chk = smallness_ok(SmallnessInput(-1.0, 2.0, 0.3))
    assert chk.ok
    assert chk.margin == pytest.approx(0.5 - math.tanh(2.0) * math.tanh(0.3), rel=1e-15)
    assert chk.product == pytest.approx(math.tanh(2.0) * math.tanh(0.3), rel=1e-15)


def test_smallness_fails_for_long_geodesics():
    chk = smallness_ok(SmallnessInput(-1.0, 50.0, 3.0))
    assert not chk.ok
    assert chk.margin < 0.0


def test_smallness_input_validation():
    with pytest.raises(ValueError):
        SmallnessInput(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SmallnessInput(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SmallnessInput(-1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        SmallnessInput(-1.0, 2.0, 0.0)


@given(
    kappa=st.floats(min_value=-4.0, max_value=-0.1),
    L=st.floats(min_value=0.1, max_value=10.0),
    r=st.floats(min_value=0.1, max_value=3.0),
    lam=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_smallness_scale_invariant(kappa, L, r, lam):
    base = smallness_ok(SmallnessInput(kappa, L, r))
    scaled = smallness_ok(SmallnessInput(kappa * lam * lam, L / lam, r / lam))
    assert scaled.product == pytest.approx(base.product, rel=1e-12, abs=1e-15)


def scaled(measure, factor):
    return DiscreteMeasure(measure.ell, measure.alpha, measure.beta, factor * measure.mass)


def test_conjecture_rhs_is_square():
    for r in (0.5, 1.0, 2.0):
        ball = ball_from_radius(ModelParams(4, -1.0), r)
        square = (ball.area - 3.0 * math.tanh(r) * ball.volume) ** 2
        assert conjecture_rhs(r) == pytest.approx(square, rel=1e-12)


def test_hyp2_rhs_closed_form():
    # the hyperbolic disk: A = 2 pi sinh r, V = 2 pi (cosh r - 1)
    for r in (0.5, 1.0, 2.0):
        area, volume = 2.0 * math.pi * math.sinh(r), 2.0 * math.pi * (math.cosh(r) - 1.0)
        assert hyp2_rhs(r) == pytest.approx(area * volume - math.tanh(r) * volume ** 2, rel=1e-12)


def test_normalizers_reject_cancellation_past_the_tolerance():
    # their terms grow like e^(6r) while the sums stay near e^(3r) and e^(2r):
    # eps * (sum |terms| / |sum|) is about 7e-9 at r = 5 and 4e-7 at r = 6
    assert normalizers(1.2, 1e-7) == (conjecture_rhs(1.2), hyp2_rhs(1.2))
    assert normalizers(5.0, 1e-7) == (conjecture_rhs(5.0), hyp2_rhs(5.0))
    with pytest.raises(ValueError, match="too large"):
        normalizers(6.0, 1e-7)
    assert normalizers(6.0, 1e-6) == (conjecture_rhs(6.0), hyp2_rhs(6.0))
    with pytest.raises(ValueError, match="too small"):
        normalizers(1e-60, 1e-7)


@pytest.mark.parametrize("r", [0.5, 0.7, 1.2, 1.5])
def test_conjecture_tight_on_model_ball(r):
    ball = ball_from_radius(ModelParams(4, -1.0), r)
    measure = discretize_ball_measure(ball, 160)
    residual = conjecture_residual(r, measure)
    assert abs(residual) <= 1e-12 * (1.0 + abs(conjecture_rhs(r)))
    # removing mass can only lose: the inequality goes strict
    assert conjecture_residual(r, scaled(measure, 0.9)) < 0.0


@pytest.mark.parametrize("r", [0.5, 0.7, 1.2, 1.5])
def test_hyp2_lemma_tight_on_model_disk(r):
    ball = ball_from_radius(ModelParams(2, -1.0), r)
    measure = discretize_ball_measure(ball, 160)
    assert abs(hyp2_lemma_residual(r, measure)) <= 1e-12
    assert hyp2_lemma_residual(r, scaled(measure, 0.9)) < 0.0


def test_question1_margin_zero_for_model_spectrum():
    model = CurvatureSpectrum((-1.0, -1.0, -1.0))
    for L, r in ((2.0, 0.3), (1.0, 0.5), (4.0, 1.0)):
        assert abs(question1_margin(model, r, L)) <= 1e-10


def test_question1_margin_positive_for_stronger_bound():
    # sectional curvature below the comparison value satisfies the
    # inequality with room to spare at every chord tried
    spectrum_in = CurvatureSpectrum((-2.0, -2.0, -2.0))
    for r in (0.1, 0.5, 1.0, 2.0):
        for ell in (0.2, 1.0, 3.0, 6.0):
            assert question1_margin(spectrum_in, r, ell) > 0.0


def test_question1_margin_validation():
    with pytest.raises(ValueError):
        question1_margin(CH2_SPECTRUM, 0.0, 1.0)
    with pytest.raises(ValueError):
        question1_margin(CH2_SPECTRUM, 1.0, -1.0)


def test_ch2_margin_positive_for_short_chords():
    # the complex-hyperbolic candle only violates the inequality at range;
    # near ell = 0 the fifth-order Taylor term keeps the margin positive
    for ell in (0.1, 0.3, 0.6):
        assert question1_margin(CH2_SPECTRUM, 0.2, ell) > 0.0


@pytest.mark.parametrize("ell", [0.5, 2.0, 5.0])
def test_ch2_closed_kernels_match_quadrature(ell):
    quadrature = _difference_kernels(CH2_SPECTRUM, ell, -1.0)
    closed = [float(x) for x in _ch2_difference_closed(np.array(ell))]
    for a, b in zip(quadrature, closed):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_difference_kernels_split_at_conjugate_radii():
    # j is clamped to 0 past pi (its largest curvature is 1), s past pi / sqrt(0.5);
    # both cuts lie inside [0, 5]
    spectrum, kappa_cmp, ell = CurvatureSpectrum((1.0, 0.3, -0.5)), 0.5, 5.0
    u0, u1, u2 = _difference_kernels(spectrum, ell, kappa_cmp)

    def sn(k, y):
        rk = mpmath.sqrt(abs(k))
        return mpmath.sin(rk * y) / rk if k > 0 else mpmath.sinh(rk * y) / rk

    with mpmath.workdps(30):
        cut_j, cut_s = mpmath.pi, mpmath.pi / mpmath.sqrt(kappa_cmp)

        def u(y):
            j = sn(1.0, y) * sn(0.3, y) * sn(-0.5, y) if y < cut_j else 0
            return j - (sn(kappa_cmp, y) ** 3 if y < cut_s else 0)

        pieces = [0, cut_j, cut_s, ell]
        ref1 = mpmath.quad(u, pieces)
        ref2 = mpmath.quad(lambda y: (ell - y) * u(y), pieces)
        ref0 = u(mpmath.mpf(ell))
    assert u0 == pytest.approx(float(ref0), rel=1e-13)
    assert u1 == pytest.approx(float(ref1), rel=1e-13)
    assert u2 == pytest.approx(float(ref2), rel=1e-13)


def test_ch2_counterexample_found():
    result = ch2_counterexample_search(10.0, 5.0)
    assert isinstance(result, CounterexampleResult)
    assert result.violated
    assert result.r == pytest.approx(5.0)
    assert result.ell == pytest.approx(10.0)
    assert result.margin == pytest.approx(-933207.096771, rel=1e-9)


def test_ch2_search_validation():
    with pytest.raises(ValueError):
        ch2_counterexample_search(0.0, 5.0)
    with pytest.raises(ValueError):
        ch2_counterexample_search(10.0, -1.0)
    with pytest.raises(ValueError, match="stay finite"):
        ch2_counterexample_search(240.0, 1.0)


def test_ch2_search_finite_up_to_its_length_limit():
    # at the largest admitted length e^(3 ell) is the largest double
    limit = math.log(np.finfo(float).max) / 3.0
    assert all(np.isfinite(u).all() for u in _ch2_difference_closed(np.array([limit])))
    result = ch2_counterexample_search(limit, 5.0)
    assert math.isfinite(result.margin) and result.violated
    with pytest.raises(ValueError, match=f"exceeds {limit!r}"):
        ch2_counterexample_search(math.nextafter(limit, math.inf), 1.0)


def test_ch2_search_monotone_in_window():
    # enlarging the window can only deepen the best violation found
    small = ch2_counterexample_search(6.0, 3.0)
    large = ch2_counterexample_search(12.0, 6.0)
    assert large.margin <= small.margin
