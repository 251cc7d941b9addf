"""Multiplicity-m ball bound: quotient measures and their equality cases."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from isoplp.chordmeasure import ball_moments, discretize_ball_measure, integrate
from isoplp.cli import main
from isoplp.relative import RelativeCase, relative_bound
from isoplp.spaceform import ModelParams, ball_from_volume, max_ball_volume


def test_worked_flat_examples():
    # area-halving mirror of the flat disk: V = pi/2 per sheet, bound pi
    assert relative_bound(RelativeCase(ModelParams(2, 0.0), 2, math.pi / 2.0)) == pytest.approx(
        math.pi, rel=1e-14
    )
    # flat 4-ball split four ways
    assert relative_bound(
        RelativeCase(ModelParams(4, 0.0), 4, math.pi ** 2 / 8.0)
    ) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)


def test_m1_reduces_to_plain_ball():
    for params, V in ((ModelParams(2, 0.0), 1.7), (ModelParams(4, -1.0), 0.9), (ModelParams(2, 1.0), 1.1)):
        case = RelativeCase(params, 1, V)
        assert relative_bound(case) == pytest.approx(ball_from_volume(params, V).area, rel=0, abs=0)


@pytest.mark.parametrize(
    "params,m,V",
    [
        (ModelParams(2, 0.0), 2, 1.0),
        (ModelParams(4, 1.0), 3, 0.4),
        (ModelParams(4, 0.0), 4, 1.0),
        (ModelParams(2, -1.0), 5, 0.8),
    ],
)
def test_equality_residuals_small(params, m, V):
    # the quotient measure is B0's scaled by 1/m, and its identities are B0's
    # divided by m: integral F1 = m A_R^2, F2 = m A_R V, F3 = m V^2 with A_R = area(B0)/m
    ball0 = ball_from_volume(params, m * V)
    a_r = relative_bound(RelativeCase(params, m, V))
    assert a_r == ball0.area / m
    measure = discretize_ball_measure(ball0, 160)
    rhs = (m * a_r * a_r, m * a_r * V, m * V * V)
    for k, (moment, quotient_rhs) in enumerate(zip(ball_moments(ball0), rhs), start=1):
        assert moment / m == pytest.approx(quotient_rhs, rel=1e-13)
        integral = integrate(measure, f"F{k}", params) / m
        assert abs(integral - quotient_rhs) <= 1e-12 * quotient_rhs, k


def test_equality_report_fails_at_absurd_tolerance(capsys):
    argv = ["relative", "--dim", "2", "--kappa", "0", "--m", "2", "--volume", "1.0"]
    assert main(argv + ["--tol", "1e-10"]) == 0
    capsys.readouterr()
    assert main(argv + ["--tol", "1e-300"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_bound_monotone_in_multiplicity():
    # at fixed per-sheet volume, higher multiplicity means less boundary per sheet
    params = ModelParams(2, 0.0)
    bounds = [relative_bound(RelativeCase(params, m, 1.0)) for m in (1, 2, 4, 8)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    # flat n=2 closed form: 2 sqrt(pi V / m)
    for m, b in zip((1, 2, 4, 8), bounds):
        assert b == pytest.approx(2.0 * math.sqrt(math.pi * 1.0 / m), rel=1e-13)


@given(m=st.integers(min_value=1, max_value=12), V=st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_bound_between_flat_neighbors(m, V):
    # hyperbolic boundary beats flat at equal volume; spherical trails it
    flat = relative_bound(RelativeCase(ModelParams(2, 0.0), m, V))
    hyp = relative_bound(RelativeCase(ModelParams(2, -1.0), m, V))
    assert hyp > flat


def test_hemisphere_validation():
    params = ModelParams(2, 1.0)
    cap = max_ball_volume(params)
    RelativeCase(params, 2, cap / 2.0 * 0.999)
    with pytest.raises(ValueError):
        RelativeCase(params, 2, cap / 2.0 * 1.01)


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        RelativeCase(ModelParams(2, 0.0), 0, 1.0)
    with pytest.raises(ValueError):
        RelativeCase(ModelParams(2, 0.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        RelativeCase(ModelParams(2, 0.0), 2, -1.0)
