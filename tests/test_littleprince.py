"""Boundary gravity of planar star-shaped domains and the disk's optimality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isoplp.littleprince import (
    StarDomain,
    area,
    disk,
    disk_gravity,
    dual_chain_bound,
    dual_gap,
    ellipse,
    from_csv,
    from_table,
    gravity,
    square_side_midpoint,
    verify_pp,
    weil_bound,
)


def test_disk_gravity_closed_value():
    assert gravity(disk(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert area(disk(1.0)) == pytest.approx(math.pi, rel=1e-12)
    assert abs(verify_pp(disk(1.0))) <= 1e-10


def test_disk_gravity_scales_with_radius():
    for r in (0.3, 2.0, 7.5):
        assert gravity(disk(r)) == pytest.approx(r / 2.0, rel=1e-11)
        assert area(disk(r)) == pytest.approx(math.pi * r * r, rel=1e-11)


def test_disk_gravity_formula_consistent():
    # disk_gravity inverts area(disk(r)) back to r/2
    for r in (0.5, 1.0, 3.0):
        assert disk_gravity(math.pi * r * r) == pytest.approx(r / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        disk_gravity(-1.0)


def test_ellipse_oracle_values():
    dom = ellipse(2.0, 0.5)
    assert area(dom) == pytest.approx(math.pi, rel=1e-10)
    assert verify_pp(dom) == pytest.approx(0.1, abs=1e-10)


def test_ellipse_reduces_to_disk():
    dom = ellipse(1.5, 1.5)
    assert area(dom) == pytest.approx(math.pi * 1.5 ** 2, rel=1e-10)
    assert abs(verify_pp(dom)) <= 1e-10


@pytest.mark.parametrize("a,b", [(math.sqrt(10.0 ** e), 1.0 / math.sqrt(10.0 ** e)) for e in range(-6, 9)], ids=lambda v: f"{v:g}")
def test_eccentric_ellipse_matches_closed_forms(a, b):
    # area pi a b and gravity a b/(a + b) at aspect ratios a/b from 1e-6 to 1e8,
    # (1000, 0.001) and (10000, 0.0001) among them
    dom = ellipse(a, b)
    assert gravity(dom) == pytest.approx(a * b / (a + b), rel=1e-14)
    # for a < b the profile falls to 0 within a/b of alpha = +-pi/2, where the
    # nodes themselves carry a rounding of ~2e-16 (one ulp of pi/2)
    assert area(dom) == pytest.approx(math.pi * a * b, rel=1e-14 + 2e-16 * max(1.0, b / a))


def test_profile_quadrature_converges_or_fails_loudly():
    # a jump off the knots keeps one panel open per round until it settles; the
    # panel holding it settles with an error of up to ~1e-12
    step = StarDomain(lambda a: np.where(a > 0.3, 2.0, 1.0), tag="step")
    assert area(step) == pytest.approx(0.5 * (math.pi / 2.0 + 0.3) + 2.0 * (math.pi / 2.0 - 0.3), rel=1e-11)
    with pytest.raises(ValueError, match="not finite"):
        area(StarDomain(lambda a: np.where(a > 0.3, np.nan, 1.0), tag="nan"))
    with pytest.raises(ValueError, match="did not settle"):
        gravity(StarDomain(lambda a: np.abs(np.sin(1e7 * a)), tag="rough"))


def test_square_oracle_values():
    dom = square_side_midpoint()
    assert area(dom) == pytest.approx(1.0, rel=1e-10)
    assert gravity(dom) == pytest.approx(0.2756586173321273, rel=1e-10)
    assert verify_pp(dom) == pytest.approx(0.006436174441750819, rel=1e-8)


def test_shape_validation():
    with pytest.raises(ValueError):
        disk(-1.0)
    with pytest.raises(ValueError):
        ellipse(0.0, 1.0)
    with pytest.raises(ValueError):
        ellipse(1.0, -2.0)
    # an a/b the angles cannot resolve, or one that is not a finite float
    for a, b in ((1e-9, 1.0), (1e200, 1e-200), (1e-200, 1e200)):
        with pytest.raises(ValueError, match="axis ratio"):
            ellipse(a, b)


def test_from_table_matches_disk():
    alphas = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2001)
    dom = from_table(alphas, 2.0 * np.cos(alphas))
    assert area(dom) == pytest.approx(math.pi, rel=1e-5)
    assert gravity(dom) == pytest.approx(0.5, rel=1e-5)
    assert verify_pp(dom) >= -1e-9


def test_from_table_validation():
    with pytest.raises(ValueError):
        from_table([0.0], [1.0])
    with pytest.raises(ValueError):
        from_table([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        from_table([-2.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        from_table([0.0, 1.0], [1.0, -1.0])


def test_from_csv_round_trip():
    text = "alpha,L\n-1.5,0.2\n0.0,2.0\n1.5,0.2\n"
    dom = from_csv(text)
    assert dom.tag == "custom"
    assert dom.L(0.0) == pytest.approx(2.0)
    assert dom.L(0.75) == pytest.approx(np.interp(0.75, [-1.5, 0.0, 1.5], [0.2, 2.0, 0.2]))
    assert verify_pp(dom) > 0.0


def test_from_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        from_csv("x,y\n0,1\n1,1\n")
    with pytest.raises(ValueError):
        from_csv("alpha,L\n0,1\n")


@given(
    seed=st.integers(min_value=0, max_value=2 ** 31),
    n_knots=st.integers(min_value=3, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_random_profiles_never_beat_the_disk(seed, n_knots):
    rng = np.random.Generator(np.random.Philox(key=seed))
    alphas = np.linspace(-math.pi / 2.0, math.pi / 2.0, n_knots)
    lengths = rng.random(n_knots) * 3.0
    dom = from_table(alphas, lengths)
    assert verify_pp(dom) >= -1e-9


def test_dual_gap_oracle_value():
    assert dual_gap(1.0, math.pi / 3.0, 1.0) == pytest.approx(0.125, rel=1e-14)


def test_dual_gap_zero_on_matching_pairs():
    # equality holds exactly when cos(alpha) = a * ell
    for a_coef in (0.5, 1.0, 2.0):
        for alpha in (0.0, 0.4, 1.2):
            ell = math.cos(alpha) / a_coef
            assert dual_gap(a_coef, alpha, ell) == pytest.approx(0.0, abs=1e-15)


@given(
    a_coef=st.floats(min_value=1e-3, max_value=1e3),
    alpha=st.floats(min_value=-math.pi / 2.0, max_value=math.pi / 2.0),
    ell=st.floats(min_value=0.0, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_dual_gap_nonnegative(a_coef, alpha, ell):
    assert dual_gap(a_coef, alpha, ell) >= -1e-12


def test_dual_gap_vectorized_and_validated():
    out = dual_gap(1.0, np.array([0.0, 0.5]), np.array([1.0, 0.2]))
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        dual_gap(0.0, 0.1, 1.0)


def test_dual_chain_bound_tight_for_disk():
    # with the optimal coefficient the chain bound equals the disk gravity
    assert dual_chain_bound(math.pi) == pytest.approx(0.5, rel=1e-14)
    for V in (0.5, 2.0, 11.0):
        assert dual_chain_bound(V) == pytest.approx(disk_gravity(V), rel=1e-13)
        a_opt = 1.0 / (2.0 * math.sqrt(V / math.pi))
        assert dual_chain_bound(V, a_coef=a_opt) == pytest.approx(dual_chain_bound(V), rel=1e-13)


@given(
    V=st.floats(min_value=1e-3, max_value=1e3),
    a_coef=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_dual_chain_any_coefficient_still_bounds(V, a_coef):
    assert dual_chain_bound(V, a_coef=a_coef) >= disk_gravity(V) * (1.0 - 1e-12)


def test_dual_chain_validation():
    assert dual_chain_bound(0.0) == 0.0
    with pytest.raises(ValueError):
        dual_chain_bound(-1.0)
    with pytest.raises(ValueError):
        dual_chain_bound(1.0, a_coef=-2.0)


def test_weil_bound_values():
    assert weil_bound(math.pi) == pytest.approx(2.0 * math.pi, rel=1e-14)
    # the disk attains it: perimeter 2 pi r at area pi r^2
    for r in (0.5, 1.0, 4.0):
        assert weil_bound(math.pi * r * r) == pytest.approx(2.0 * math.pi * r, rel=1e-13)
    with pytest.raises(ValueError):
        weil_bound(-0.1)


def test_gravity_bound_chains_to_isoperimetry():
    # the two sharp constants are one identity: 2 sqrt(pi V) = 4 pi * sqrt(V/pi)/2
    for V in (0.5, math.pi, 7.0):
        assert weil_bound(V) == pytest.approx(4.0 * math.pi * disk_gravity(V), rel=1e-13)


def test_star_domain_callable_passthrough():
    # the profile is read as domain.L, as gravity and area read it
    dom = StarDomain(lambda a: np.cos(a), tag="plain")
    assert dom.L(0.0) == pytest.approx(1.0)
    assert dom.tag == "plain"
    assert dom.knots == ()
