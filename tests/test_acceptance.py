"""Acceptance gate: one test per shipping criterion, at the stated tolerances.

Run with -v to get one pass/fail line per criterion.  Each test carries its
own wall-clock budget; the numeric tolerances are stated inline and match
the package contract, not the (much smaller) measured errors.
"""

import math
import time

import numpy as np
import pytest

from isoplp import certificate, chordmeasure, lemmas, littleprince, lpcore, negbound, relative
from isoplp.spaceform import ModelParams, ball_from_radius, ball_from_volume, sphere_volume

SIX_CASES = ((2, 0.0), (4, 0.0), (2, 1.0), (4, 1.0), (2, -1.0), (4, -1.0))

REFERENCE = {
    (2, 0.0): lambda r: (0.0, 1.0, 0.0, 2.0 * r),
    (4, 0.0): lambda r: (1.0, 0.0, 0.0, 12.0 * r * r),
    (2, 1.0): lambda r: (0.0, 1.0, math.tan(r), 2.0 * math.tan(r)),
    (4, 1.0): lambda r: (1.0, 6.0 * math.tan(r), 9.0 * math.tan(r) ** 2, 12.0 * math.tan(r) ** 2),
    (2, -1.0): lambda r: (0.0, 1.0, -math.tanh(r), 2.0 * math.tanh(r)),
    (4, -1.0): lambda r: (
        1.0,
        -6.0 * math.tanh(r),
        9.0 * math.tanh(r) ** 2,
        12.0 * math.tanh(r) ** 2,
    ),
}


def test_criterion_1_consistency_recovers_all_six_reference_tuples():
    t0 = time.perf_counter()
    for (n, kappa) in SIX_CASES:
        params = ModelParams(n, kappa)
        for r in (0.3, 0.7, 1.2):
            fit = certificate.solve_consistency(params, r)
            expect = REFERENCE[(n, kappa)](r)
            scale = max(abs(v) for v in expect)
            err = max(abs(g - e) for g, e in zip((fit.a, fit.b, fit.c, fit.d), expect))
            assert err <= 1e-8 * scale, (n, kappa, r, err)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_numeric_sup_matches_closed_forms():
    t0 = time.perf_counter()
    angles = np.linspace(0.0, math.pi / 2.0 - 1e-3, 50)
    A, B = np.meshgrid(angles, angles, indexing="ij")
    for (n, kappa) in ((4, 0.0), (2, 0.0)):
        cert = certificate.paper_certificate(ModelParams(n, kappa), 1.0)
        val, arg = certificate.build_f(cert, A, B)
        ref = cert.f_closed(A, B)
        assert np.max(np.abs(val - ref) / (1.0 + np.abs(ref))) <= 1e-6
        ref_arg = cert.argmax_closed(A, B)
        assert np.max(np.abs(arg - ref_arg) / (1.0 + np.abs(ref_arg))) <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_integral_identities_and_monte_carlo():
    t0 = time.perf_counter()
    radii = {0.0: (0.6, 1.2), 1.0: (0.4, 0.8), -1.0: (0.6, 1.2)}
    for (n, kappa) in SIX_CASES:
        params = ModelParams(n, kappa)
        for r in radii[kappa]:
            ball = ball_from_radius(params, r)
            measure = chordmeasure.discretize_ball_measure(ball, 160)
            omega = sphere_volume(n - 1)
            rhs = {1: ball.area ** 2, 2: ball.area * ball.volume, 3: ball.volume ** 2, 4: omega * ball.volume}
            assert chordmeasure.ball_moments(ball) == tuple(rhs.values())
            # which = 4 is Santalo's formula, 1-3 are Croke's identities
            for which in (1, 2, 3, 4):
                rel = (chordmeasure.integrate(measure, f"F{which}", params) - rhs[which]) / rhs[which]
                assert abs(rel) <= 1e-7, (n, kappa, r, which)
    # Monte Carlo at a frozen seed: all six cases within 3 standard errors
    mc_radius = {0.0: 1.0, 1.0: 0.8, -1.0: 1.2}
    for (n, kappa) in SIX_CASES:
        params = ModelParams(n, kappa)
        ball = ball_from_radius(params, mc_radius[kappa])
        sample = chordmeasure.sample_chords(ball, 100000, seed=0)
        est = chordmeasure.integrate(sample, "F4", params)
        exact = sphere_volume(n - 1) * ball.volume
        se = sample.total_mass * float(np.std(sample.ell, ddof=1)) / math.sqrt(100000)
        assert abs(est - exact) <= 3.0 * se, (n, kappa)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_lp_optimum_tracks_ball_area_under_refinement():
    t0 = time.perf_counter()
    for n, kappa, r in ((2, 0.0, 1.0), (4, 0.0, 1.0), (2, 1.0, 0.8), (4, 1.0, 0.8)):
        params = ModelParams(n, kappa)
        ball = ball_from_radius(params, r)
        errors = []
        for n_alpha in (20, 28, 40):
            lp = lpcore.build_relative_lp(params, ball.volume, 1, lpcore.GridSpec(n_ell=2 * n_alpha, n_alpha=n_alpha))
            sol = lpcore.solve(lp)
            assert sol.status == "optimal", (n, kappa, n_alpha, sol.status)
            errors.append(abs(sol.objective_value - ball.area) / ball.area)
        assert errors[0] <= 0.02, (n, kappa, errors)
        slack = 1e-6
        assert all(b <= a + slack for a, b in zip(errors, errors[1:])), (n, kappa, errors)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_polynomial_lemmas_verified():
    t0 = time.perf_counter()
    for case in lemmas.CASES:
        report = lemmas.verify_H_nonneg(case, grid=120)
        assert report.min_value >= -1e-9, (case, report.min_value)
        assert report.rays_ok, case
        roots = lemmas.solve_critical_points(lemmas.critical_system(case), n_starts=1000, seed=0).roots
        assert len(roots) > 0, case
        worst = max(r.curve_distance for r in roots)
        assert worst <= 1e-6, (case, worst)
        # the quartic factorization of dG/dt on the diagonal, exact in integers
        assert lemmas.check_factorization(case) == 0.0, case
    for p in (1.0, 2.0):
        check = lemmas.dGdp_identity("spherical", p)
        assert abs(check.residual) <= 1e-5 * (1.0 + abs(check.closed)), p
    assert time.perf_counter() - t0 < 180.0


def test_criterion_6_negative_curvature_identities_tight():
    t0 = time.perf_counter()
    for r in (0.5, 1.2):
        ball4 = ball_from_radius(ModelParams(4, -1.0), r)
        measure = chordmeasure.discretize_ball_measure(ball4, 160)
        rel = negbound.conjecture_residual(r, measure) / negbound.conjecture_rhs(r)
        assert abs(rel) <= 1e-7, r
    for r in (0.5, 0.7, 1.2, 1.5):
        ball2 = ball_from_radius(ModelParams(2, -1.0), r)
        measure = chordmeasure.discretize_ball_measure(ball2, 160)
        rhs = ball2.area * ball2.volume - math.tanh(r) * ball2.volume ** 2
        assert abs(negbound.hyp2_lemma_residual(r, measure) / rhs) <= 1e-7, r
    # the right-hand-side normalization is stated where the check lives
    assert "convention" in negbound.hyp2_lemma_residual.__doc__.lower()
    assert time.perf_counter() - t0 < 30.0


def test_criterion_7_ch2_counterexample_and_model_zero():
    t0 = time.perf_counter()
    result = negbound.ch2_counterexample_search(10.0, 5.0)
    assert result.violated
    assert result.margin < 0.0
    model = negbound.question1_margin(
        negbound.CurvatureSpectrum((-1.0, -1.0, -1.0)), 0.3, 2.0
    )
    assert abs(model) <= 1e-9
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_planar_gravity_bounds():
    t0 = time.perf_counter()
    assert abs(littleprince.gravity(littleprince.disk(1.0)) - 0.5) <= 1e-10
    assert littleprince.verify_pp(littleprince.ellipse(2.0, 0.5)) > 0.0
    assert littleprince.verify_pp(littleprince.square_side_midpoint()) > 0.0
    rng = np.random.Generator(np.random.Philox(key=0))
    coefs = 10.0 ** (rng.random(100) * 6.0 - 3.0)
    for a_coef in coefs:
        alpha = rng.random(1000) * (math.pi / 2.0)
        ell = rng.random(1000) * 1000.0
        gaps = littleprince.dual_gap(float(a_coef), alpha, ell)
        assert np.min(gaps) >= -1e-12, a_coef
    assert time.perf_counter() - t0 < 5.0


def test_criterion_9_relative_version_equalities():
    t0 = time.perf_counter()
    cases = (
        relative.RelativeCase(ModelParams(2, 0.0), 2, 1.0),
        relative.RelativeCase(ModelParams(4, 1.0), 3, 0.4),
        relative.RelativeCase(ModelParams(4, 0.0), 4, 1.0),
    )
    for case in cases:
        # the quotient measure is B0's scaled by 1/m, and its identities are B0's divided by m
        ball0 = ball_from_volume(case.params, case.m * case.V)
        a_r = relative.relative_bound(case)
        measure = chordmeasure.discretize_ball_measure(ball0, 160)
        rhs = (case.m * a_r * a_r, case.m * a_r * case.V, case.m * case.V * case.V)
        for k, rhs_k in enumerate(rhs, start=1):
            rel = (chordmeasure.integrate(measure, f"F{k}", case.params) / case.m - rhs_k) / rhs_k
            assert abs(rel) <= 1e-7, (case.m, case.params.n, case.params.kappa, k)
    for params, V in ((ModelParams(2, 0.0), 1.3), (ModelParams(4, -1.0), 0.7)):
        bound = relative.relative_bound(relative.RelativeCase(params, 1, V))
        ball = ball_from_volume(params, V)
        assert abs(bound - ball.area) <= 1e-12 * ball.area
    assert time.perf_counter() - t0 < 30.0
