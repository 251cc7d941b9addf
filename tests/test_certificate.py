"""Dual certificates: consistency solve, sup construction, membership."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isoplp.certificate import (
    DegenerateConsistencyError,
    DualCertificate,
    SupDomainError,
    build_f,
    check_family_membership,
    paper_certificate,
    solve_consistency,
    sup_integrand,
    sup_integrand_dell,
    verify_certificate,
)
from isoplp.spaceform import ModelParams

CASES = [
    ((2, 0.0), 1.0),
    ((4, 0.0), 1.0),
    ((2, 1.0), 0.7),
    ((4, 1.0), 0.7),
    ((2, -1.0), 1.2),
    ((4, -1.0), 1.2),
]

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


@pytest.mark.parametrize("case,r", CASES)
def test_consistency_solve_recovers_reference(case, r):
    n, kappa = case
    params = ModelParams(n, kappa)
    fit = solve_consistency(params, r)
    expect = REFERENCE[case](r)
    scale = max(abs(v) for v in expect)
    got = (fit.a, fit.b, fit.c, fit.d)
    assert max(abs(g - e) for g, e in zip(got, expect)) <= 1e-10 * scale
    assert fit.residual <= 1e-10 * scale


def test_consistency_gauge_convention():
    # n = 4 normalizes a = 1; n = 2 has a = 0 and normalizes b = 1
    fit4 = solve_consistency(ModelParams(4, 1.0), 0.5)
    assert_allclose(fit4.a, 1.0, rtol=0, atol=0)
    fit2 = solve_consistency(ModelParams(2, -1.0), 0.9)
    assert_allclose(fit2.b, 1.0, rtol=0, atol=0)
    assert abs(fit2.a) <= 1e-12


@given(r=st.floats(min_value=0.15, max_value=1.4))
@settings(max_examples=30, deadline=None)
def test_consistency_residual_small_any_radius(r):
    for n, kappa in ((2, 0.0), (4, 0.0), (2, -1.0), (4, -1.0)):
        fit = solve_consistency(ModelParams(n, kappa), r)
        assert fit.residual <= 1e-8


@pytest.mark.parametrize("case,r", CASES)
def test_paper_certificate_coefficients(case, r):
    n, kappa = case
    cert = paper_certificate(ModelParams(n, kappa), r)
    assert_allclose(cert.coefficients, REFERENCE[case](r), rtol=1e-14)


def test_paper_certificate_rejects_unknown_curvature():
    # the paper's certificates cover n in {2, 4} at every curvature, no other dimension
    with pytest.raises(ValueError):
        paper_certificate(ModelParams(3, 0.0), 1.0)


@pytest.mark.parametrize("kappa", [4.0, 0.5, 0.01, -0.25, -9.0])
@pytest.mark.parametrize("n", [2, 4])
def test_paper_certificate_matches_consistency_any_curvature(n, kappa):
    params = ModelParams(n, kappa)
    cert = paper_certificate(params, 0.35)
    fit = solve_consistency(params, 0.35)
    scale = max(abs(v) for v in cert.coefficients)
    assert max(abs(c - f) for c, f in zip(cert.coefficients, fit[:4])) <= 1e-12 * scale


def test_negative_zero_curvature_gives_no_negative_zero():
    # --kappa -0 parses to -0.0; the flat coefficients must still print as 0.0
    for n in (2, 4):
        cert = paper_certificate(ModelParams(n, -0.0), 1.0)
        assert all(math.copysign(1.0, v) == 1.0 for v in cert.coefficients)


def test_negative_coefficients_flagged():
    cert = paper_certificate(ModelParams(4, -1.0), 1.0)
    assert cert.negative_coefficients == ("b",)
    # below kappa = 0 the sign is reported, not required, so the check passes
    report = verify_certificate(cert, grid=40)
    assert report.negative_coefficients == ("b",)
    assert not report.nonneg_required
    assert report.passed
    # the negative coefficient fails the check only where the sign is required
    assert not replace(report, nonneg_required=True).passed
    cert2 = paper_certificate(ModelParams(2, 1.0), 0.7)
    assert cert2.negative_coefficients == ()
    # the signs are required from kappa = 0 up, -0.0 included
    for kappa in (1.0, 0.0, -0.0):
        assert verify_certificate(paper_certificate(ModelParams(2, kappa), 0.7), grid=4).nonneg_required


def test_sup_integrand_derivative_consistent():
    cert = paper_certificate(ModelParams(4, 1.0), 0.7)
    ell = np.linspace(0.1, 1.2, 9)
    h = 1e-6
    fd = (
        sup_integrand(cert, ell + h, 0.3, 0.4) - sup_integrand(cert, ell - h, 0.3, 0.4)
    ) / (2 * h)
    assert_allclose(sup_integrand_dell(cert, ell, 0.3, 0.4), fd, rtol=1e-7, atol=1e-8)


CLOSED_FORM_CASES = [
    ((4, 0.0), 1.0),
    ((2, 0.0), 1.0),
    ((2, 1.0), 0.7),
    ((2, -1.0), 1.2),
]


@pytest.mark.parametrize("case,r", CLOSED_FORM_CASES)
def test_build_f_matches_closed_form(case, r):
    n, kappa = case
    cert = paper_certificate(ModelParams(n, kappa), r)
    a = np.linspace(0.0, math.pi / 2.0 - 1e-3, 24)
    A, B = np.meshgrid(a, a, indexing="ij")
    val, arg = build_f(cert, A, B)
    assert_allclose(val, cert.f_closed(A, B), rtol=1e-9, atol=1e-12)
    assert_allclose(arg, cert.argmax_closed(A, B), rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("kappa", [4.0, -0.25, -9.0])
def test_closed_form_n2_any_curvature(kappa):
    # f = 2T atan_kappa(2T/(sec a + sec b)) with T = tan_kappa(r), and its argmax
    cert = paper_certificate(ModelParams(2, kappa), 0.35)
    a = np.linspace(0.0, math.pi / 2.0 - 1e-3, 24)
    A, B = np.meshgrid(a, a, indexing="ij")
    val, arg = build_f(cert, A, B)
    assert np.max(np.abs(val - cert.f_closed(A, B))) <= 1e-12
    assert np.max(np.abs(arg - cert.argmax_closed(A, B))) <= 1e-12


def test_closed_form_values_flat():
    # n=4 flat: f = 16 r^3 sqrt(cos a cos b) at the length 2 r sqrt(cos a cos b)
    cert = paper_certificate(ModelParams(4, 0.0), 1.0)
    val, arg = cert.f_closed(0.0, 0.0), cert.argmax_closed(0.0, 0.0)
    assert_allclose(val, 16.0, rtol=1e-13)
    assert_allclose(arg, 2.0, rtol=1e-13)
    # n=2 flat: f = 4 r^2/(sec a + sec b)
    cert2 = paper_certificate(ModelParams(2, 0.0), 1.0)
    val2, arg2 = cert2.f_closed(0.0, 0.0), cert2.argmax_closed(0.0, 0.0)
    assert_allclose(val2, 2.0, rtol=1e-13)
    assert_allclose(arg2, 2.0, rtol=1e-13)


def test_build_f_argmax_solves_stationarity():
    # at the numeric argmax the ell-derivative of the integrand vanishes
    cert = paper_certificate(ModelParams(4, 1.0), 0.7)
    alpha = np.array([0.1, 0.5, 1.0])
    beta = np.array([0.2, 0.6, 0.9])
    val, arg = build_f(cert, alpha, beta)
    d = sup_integrand_dell(cert, arg, alpha, beta)
    scale = np.abs(sup_integrand_dell(cert, 1e-3, alpha, beta))
    assert np.all(np.abs(d) <= 1e-7 * scale)


def test_build_f_interior_max_hyperbolic_domain():
    # hyperbolic certificates have d > 0 so the integrand eventually decreases
    cert = paper_certificate(ModelParams(4, -1.0), 1.2)
    val, arg = build_f(cert, 0.3, 0.4)
    assert math.isfinite(val) and arg > 0.0
    d_at_arg = sup_integrand_dell(cert, arg, 0.3, 0.4)
    assert abs(d_at_arg) <= 1e-6 * max(1.0, abs(cert.d))


def test_build_f_mixes_interior_and_zero_maxima():
    # n = 2 flat: the integrand is (d - a sec a sec b) ell - b ell^2 (sec a + sec b)/4,
    # so the sup sits at ell = 0 wherever cos a cos b <= a/d and inside otherwise;
    # the first pairs take their scan node ell = 0, the others the bisection
    cert = DualCertificate(ModelParams(2, 0.0), 1.0, 0.5, 1.0, 0.0, 1.0)
    a = np.linspace(0.0, math.pi / 2.0 - 1e-3, 40)
    A, B = np.meshgrid(a, a, indexing="ij")
    val, arg = build_f(cert, A, B)
    at_zero = np.cos(A) * np.cos(B) <= 0.5
    assert 0 < np.count_nonzero(at_zero) < at_zero.size
    # exact reference: with k = d - a sec a sec b and s = sec a + sec b the
    # integrand k ell - b s ell^2/4 peaks at ell = 2k/(b s) with value k^2/(b s)
    # where k > 0, and at ell = 0 with value 0 elsewhere
    k = 1.0 - 0.5 / (np.cos(A) * np.cos(B))
    s = 1.0 / np.cos(A) + 1.0 / np.cos(B)
    ref_val = np.where(k > 0.0, k * k / s, 0.0)
    ref_arg = np.maximum(0.0, 2.0 * k / s)
    assert np.all(val >= ref_val - 1e-15)
    assert_allclose(val, ref_val, rtol=0, atol=1e-12)
    assert_allclose(arg, ref_arg, rtol=0, atol=1e-10)
    assert np.all(arg[at_zero] == 0.0)


def test_build_f_takes_the_domain_end_exactly():
    # f = sup of ell over [0, pi], the conjugate radius at kappa = 1: its last scan node
    cert = DualCertificate(ModelParams(2, 1.0), 1.0, 0, 0, 0, 1)
    val, arg = build_f(cert, np.array([0.0, 0.7, 1.5]), np.array([0.0, 0.2, 1.5]))
    assert np.all(val == math.pi)
    assert np.all(arg == math.pi)


def test_build_f_blocked_scan_matches_one_block(monkeypatch):
    # 6,400 pairs take 100 scan blocks of 64 pairs; one block holds them all
    cert = paper_certificate(ModelParams(4, 1.0), 0.8)
    a = np.linspace(0.0, math.pi / 2.0 - 1e-3, 80)
    A, B = np.meshgrid(a, a, indexing="ij")
    val, arg = build_f(cert, A, B)
    monkeypatch.setattr("isoplp.certificate._SCAN_CHUNK", 512 * A.size)
    one_val, one_arg = build_f(cert, A, B)
    assert np.array_equal(val, one_val)
    assert np.array_equal(arg, one_arg)


def test_build_f_on_the_membership_triangle_stays_small():
    # the 3,240 pairs of the 80-node membership triangle; a scan block of
    # 512 nodes x 64 pairs holds 256 KB a temporary (8.1 MiB peak at 512 pairs)
    cert = paper_certificate(ModelParams(4, 1.0), 0.8)
    angles = np.linspace(0.0, math.pi / 2.0 - 1e-3, 80)
    i, j = np.triu_indices(80)
    tracemalloc.start()
    try:
        val, _ = build_f(cert, angles[i], angles[j])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(val))
    assert peak < 3e6


@pytest.mark.parametrize("n, r", [(4, 3.5), (4, 4.0), (4, 5.0), (2, 10.0), (2, 12.0), (2, 13.0)])
def test_consistency_fit_at_large_hyperbolic_radius(n, r):
    # the columns grow like e^((n-1) ell), so only equations scaled to their
    # norm let the short chords count in the fit and in the residual
    params = ModelParams(n, -1.0)
    fit = solve_consistency(params, r)
    ref = paper_certificate(params, r).coefficients
    assert fit.residual <= 1e-8
    assert max(abs(g - e) for g, e in zip(fit[:4], ref)) <= 1e-12 * max(map(abs, ref))
    assert verify_certificate(paper_certificate(params, r), grid=4).consistency_residual <= 1e-8


def test_build_f_overflow_names_the_radius():
    # at r = 6 the scan reaches ell = 240, where the n = 4 candles overflow
    cert = paper_certificate(ModelParams(4, -1.0), 6.0)
    with pytest.raises(SupDomainError, match=r"not finite .* radius 6\.0"):
        build_f(cert, 0.1, 0.1)


def test_sup_domain_error_when_unbounded():
    # a certificate with all functional weights zero grows linearly in ell
    cert = DualCertificate(ModelParams(2, -1.0), 1.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(SupDomainError):
        build_f(cert, 0.1, 0.1)


@pytest.mark.parametrize("case,r", CASES)
def test_membership_defect_nonnegative(case, r):
    n, kappa = case
    cert = paper_certificate(ModelParams(n, kappa), r)
    report = check_family_membership(cert, grid=40)
    assert report.passed
    assert report.min_f >= 0.0
    assert report.min_defect >= -1e-9
    assert report.equality_on_diagonal


@pytest.mark.parametrize(
    "case,r",
    [((2, 0.0), 0.01), ((2, 0.0), 0.8), ((2, 1.0), 0.8), ((2, 1.0), 1.56), ((2, -1.0), 0.8),
     ((2, -1.0), 13.0), ((4, 0.0), 1.0), ((4, 0.0), 100.0)],
)
def test_membership_from_build_f_matches_the_closed_f(monkeypatch, case, r):
    # build_f's sup gives the closed f's verdicts and min_f; at (2, 0, 0.01) and
    # (2, 1, 1.56) both find the defect's equality off the diagonal
    cert = paper_certificate(ModelParams(*case), r)
    got = check_family_membership(cert)
    # the reference membership reads the closed f in place of build_f
    monkeypatch.setattr("isoplp.certificate.build_f", lambda cert, a, b: (cert.f_closed(a, b), None))
    ref = check_family_membership(cert)
    verdicts = ("f_nonneg_ok", "defect_ok", "equality_on_diagonal", "passed")
    assert [getattr(got, v) for v in verdicts] == [getattr(ref, v) for v in verdicts]
    assert got.min_f == pytest.approx(ref.min_f, rel=1e-14, abs=0)
    if r in (0.01, 1.56):
        assert not got.equality_on_diagonal


@pytest.mark.parametrize("case,r", CASES)
def test_verify_certificate_full(case, r):
    n, kappa = case
    params = ModelParams(n, kappa)
    cert = paper_certificate(params, r)
    report = verify_certificate(cert, grid=40)
    assert report.nonneg_required == (kappa >= 0)
    assert report.passed
    assert report.consistency_residual <= 1e-8
    assert report.curve_sup_deviation <= 1e-8


def test_degenerate_consistency_detected():
    # tiny radius squeezes the fit window to numerical degeneracy
    with pytest.raises((DegenerateConsistencyError, ValueError)):
        solve_consistency(ModelParams(2, 0.0), 1e-300)
