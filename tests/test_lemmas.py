"""Positivity lemmas for the n=4 curved certificates, in half-angle coordinates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from isoplp.lemmas import (
    _CONVERGED,
    CASES,
    G,
    G_diag_peak,
    H,
    PolySystem,
    S_table,
    _lockstep_newton,
    check_factorization,
    critical_system,
    curve_distance,
    dG_dt,
    dGdp_identity,
    default_grid_ranges,
    solve_critical_points,
    verify_H_nonneg,
)
from isoplp.spaceform import ModelParams, candle, candle_anti, candle_anti2, candle_prime


@pytest.mark.parametrize(
    "case,kappa,sub,ell_hi",
    [("spherical", 1.0, np.tan, 3.0), ("hyperbolic", -1.0, np.tanh, 4.0)],
)
def test_S_table_is_candle_ladder(case, kappa, sub, ell_hi):
    # under t = tan(ell/2) (tanh for kappa < 0) the four table entries are
    # the candle derivative ladder: s', s, its first and second antiderivatives
    params = ModelParams(4, kappa)
    ell = np.linspace(0.05, ell_hi, 37)
    t = sub(ell / 2.0)
    s1, s0, sm1, sm2 = S_table(case, t)
    for got, ref in zip(
        (s1, s0, sm1, sm2),
        (candle_prime(params, ell), candle(params, ell), candle_anti(params, ell), candle_anti2(params, ell)),
    ):
        assert_allclose(got, ref, rtol=1e-13, atol=1e-13)


def test_S_table_hyperbolic_domain():
    with pytest.raises(ValueError):
        S_table("hyperbolic", 1.0)
    with pytest.raises(ValueError):
        S_table("hyperbolic", -0.1)
    with pytest.raises(ValueError):
        S_table("euclidean", 0.5)


@pytest.mark.parametrize("case,p_lo", [("spherical", 0.2), ("hyperbolic", 0.6)])
def test_peak_closed_form_matches_raw(case, p_lo):
    # away from the hyperbolic p -> 1/3 pole the naive S_table route agrees
    ps = np.linspace(p_lo, 5.0, 23)
    assert_allclose(G_diag_peak(case, ps), G(case, 1.0 / (3.0 * ps), ps, ps), rtol=0, atol=5e-15)


def test_peak_closed_form_stable_near_pole():
    # the raw route loses all digits here; the closed form stays smooth
    ps = 1.0 / 3.0 + 10.0 ** np.linspace(-10.0, -2.0, 17)
    vals = G_diag_peak("hyperbolic", ps)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) < 0.0)


def test_peak_small_p_limit():
    # G_diag_peak(p) -> 2 pi/3 - (8/3) p + O(p^3) as p -> 0
    for p in (1e-4, 1e-6):
        assert_allclose(G_diag_peak("spherical", p), 2.0 * math.pi / 3.0 - (8.0 / 3.0) * p, rtol=1e-14)


@given(
    t=st.floats(min_value=0.05, max_value=3.0),
    p=st.floats(min_value=0.1, max_value=5.0),
    q=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_H_symmetric_in_pq_spherical(t, p, q):
    assert_allclose(H("spherical", t, p, q), H("spherical", t, q, p), rtol=1e-12, atol=1e-13)


@given(
    t=st.floats(min_value=0.05, max_value=0.95),
    p=st.floats(min_value=0.4, max_value=5.0),
    q=st.floats(min_value=0.4, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_H_symmetric_in_pq_hyperbolic(t, p, q):
    assert_allclose(H("hyperbolic", t, p, q), H("hyperbolic", t, q, p), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("case,s_lo", [("spherical", 0.2), ("hyperbolic", 0.5)])
def test_H_vanishes_on_curve(case, s_lo):
    s = np.linspace(s_lo, 4.0, 29)
    assert_allclose(H(case, 1.0 / (3.0 * s), s, s), 0.0, rtol=0, atol=5e-15)


@pytest.mark.parametrize("case", CASES)
def test_H_nonneg_on_grid(case):
    report = verify_H_nonneg(case, grid=60)
    assert report.passed
    assert report.min_value >= -1e-9
    assert report.rays_ok
    assert report.grid_shape == (60, 60, 60)
    # the discrete argmin hugs the vanishing curve
    assert report.argmin_curve_distance < 0.1


def test_dG_dt_matches_finite_difference():
    h = 1e-6
    for case, pts in (
        ("spherical", [(0.5, 1.0, 2.0), (2.0, 0.3, 0.7), (1.0, 1.0, 1.0)]),
        ("hyperbolic", [(0.5, 1.0, 2.0), (0.3, 0.6, 0.9), (0.8, 2.5, 1.1)]),
    ):
        for t, p, q in pts:
            fd = (G(case, t + h, p, q) - G(case, t - h, p, q)) / (2.0 * h)
            assert_allclose(dG_dt(case, t, p, q), fd, rtol=1e-7, atol=1e-7)


def gradient_of_H(system, t, p, q) -> tuple:
    """Rebuild (dH/dt, dH/dp, dH/dq) from the system's numerators."""
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    et, ep, eq = system.eval(t, p, q)
    if system.case == "spherical":
        dt = -(16.0 / 3.0) * et / (1.0 + t * t) ** 4
        dp = (8.0 / 3.0) * ep / ((9.0 * p * p + 1.0) ** 2 * (1.0 + t * t) ** 3)
        dq = (8.0 / 3.0) * eq / ((9.0 * q * q + 1.0) ** 2 * (1.0 + t * t) ** 3)
    else:
        dt = (16.0 / 3.0) * et / (1.0 - t * t) ** 4
        dp = (8.0 / 3.0) * ep / ((9.0 * p * p - 1.0) ** 2 * (1.0 - t * t) ** 3)
        dq = (8.0 / 3.0) * eq / ((9.0 * q * q - 1.0) ** 2 * (1.0 - t * t) ** 3)
    return dt, dp, dq


def test_gradient_of_H_matches_finite_difference():
    # the only check that the _et/_ep tables are the gradient numerators of H
    h = 1e-6
    for case, pts in (
        ("spherical", [(1.0, 1.0, 2.0), (0.5, 2.0, 0.3), (2.0, 0.7, 1.3)]),
        ("hyperbolic", [(0.5, 1.0, 2.0), (0.3, 0.6, 0.9), (0.8, 2.5, 1.1)]),
    ):
        system = critical_system(case)
        for t, p, q in pts:
            got = gradient_of_H(system, t, p, q)
            fd = (
                (H(case, t + h, p, q) - H(case, t - h, p, q)) / (2.0 * h),
                (H(case, t, p + h, q) - H(case, t, p - h, q)) / (2.0 * h),
                (H(case, t, p, q + h) - H(case, t, p, q - h)) / (2.0 * h),
            )
            assert_allclose(got, fd, rtol=1e-6, atol=1e-7)


def test_gradient_numerator_values_at_unit_point():
    # frozen oracle: the p-numerator evaluates to 848 at (1, 1, 1), so
    # dH/dp there is (8/3) * 848 / ((9+1)^2 (1+1)^3) = 2.82666...
    system = critical_system("spherical")
    et, ep, eq = system.eval(1.0, 1.0, 1.0)
    assert et == -8.0
    assert ep == 848.0
    assert eq == 848.0
    _, dp, dq = gradient_of_H(system, 1.0, 1.0, 1.0)
    assert_allclose(dp, (8.0 / 3.0) * 848.0 / 800.0, rtol=1e-15)
    assert_allclose(dq, dp, rtol=1e-15)


def test_polysystem_jacobian_matches_finite_difference():
    h = 1e-7
    for case in CASES:
        system = critical_system(case)
        t, p, q = (0.7, 1.2, 0.8) if case == "spherical" else (0.6, 0.9, 1.4)
        jac = system.jacobian(t, p, q)
        for j, dx in enumerate(np.eye(3) * h):
            fd = (system.eval(t + dx[0], p + dx[1], q + dx[2]) - system.eval(t - dx[0], p - dx[1], q - dx[2])) / (2.0 * h)
            assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-4)


@given(p=st.floats(min_value=0.05, max_value=5.0), t=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_factorization_identity(p, t):
    assert abs(check_factorization("spherical", p, t)) <= 1e-12


@given(
    p=st.floats(min_value=1.0 / 3.0, max_value=5.0, exclude_min=True),
    t=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=80, deadline=None)
def test_factorization_identity_hyperbolic(p, t):
    assert abs(check_factorization("hyperbolic", p, t)) <= 1e-12


def test_factorization_roots():
    # dG/dt vanishes on the diagonal where 3pt = 1, and the factorization is exact there
    p = 0.8
    for case in CASES:
        assert_allclose(dG_dt(case, 1.0 / (3.0 * p), p, p), 0.0, atol=1e-12)
        assert abs(check_factorization(case, p, 1.0 / (3.0 * p))) <= 1e-14


def test_dGdp_identity_values():
    chk1 = dGdp_identity("spherical", 1.0)
    assert_allclose(chk1.closed, 2.16, rtol=0, atol=0)
    assert abs(chk1.residual) <= 1e-5
    chk2 = dGdp_identity("spherical", 2.0)
    assert_allclose(chk2.closed, 3456.0 / 1369.0, rtol=1e-15)
    assert abs(chk2.residual) <= 1e-5
    with pytest.raises(ValueError):
        dGdp_identity("spherical", 0.0)


def test_dGdp_identity_hyperbolic():
    # (216 - 96 + 16/3) / 8^2 at p = 1
    chk = dGdp_identity("hyperbolic", 1.0)
    assert chk.closed == 47.0 / 24.0
    assert abs(chk.residual) <= 1e-5 * (1.0 + abs(chk.closed))
    # (9p^2 - 1)^2 = 1225 at p = 2
    assert_allclose(dGdp_identity("hyperbolic", 2.0).closed, (3456.0 - 384.0 + 16.0 / 3.0) / 1225.0, rtol=1e-15)
    # the central difference must not leave the open domain p > 1/3
    for p in (1.0 / 3.0, 0.3, 1.0 / 3.0 + 1e-6):
        with pytest.raises(ValueError, match="1/3|0.333333"):
            dGdp_identity("hyperbolic", p)


def slice_max_t(case: str, p: float) -> float:
    """Maximizer of t -> G(t, p, p); the lemma says it is exactly 1/(3p).

    The slice is not unimodal: past the interior peak it dips and then rises
    again toward its t -> infinity limit, so a single bounded Brent search
    can escape to the boundary.  Scan densely first, then refine inside the
    bracketing cell only.
    """
    if case == "spherical":
        if p <= 0.0:
            raise ValueError(f"spherical p must be positive, got {p}")
        hi = max(10.0, 5.0 / (3.0 * p))
    else:
        if p <= 1.0 / 3.0:
            raise ValueError(f"hyperbolic p must exceed 1/3, got {p}")
        hi = 1.0 - 1e-12
    ts = np.linspace(1e-12, hi, 4097)
    k = int(np.argmax(G(case, ts, p, p)))
    res = minimize_scalar(
        lambda t: -float(G(case, t, p, p)),
        bounds=(ts[max(k - 1, 0)], ts[min(k + 1, ts.size - 1)]),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return float(res.x)


@pytest.mark.parametrize("case", CASES)
def test_slice_max_sits_on_curve(case):
    for p in (0.5, 1.0, 2.0):
        assert abs(slice_max_t(case, p) - 1.0 / (3.0 * p)) <= 5e-7


def test_slice_max_flat_small_p():
    # the spherical peak flattens as p -> 0; locate it at reduced accuracy
    assert abs(slice_max_t("spherical", 0.05) - 1.0 / 0.15) <= 1e-4


def test_slice_max_domain_guards():
    with pytest.raises(ValueError):
        slice_max_t("hyperbolic", 0.3)
    with pytest.raises(ValueError):
        slice_max_t("spherical", 0.0)


def test_hyperbolic_slope_sign():
    # dG/dt = 2 s num / (1 + s t^2)^4 with num factored as 4 (3pt - 1) (p t^3 - t^2 + p t + 1/3) at s = -1,
    # so the slope has the sign of (1 - 3pt) (p t^3 - t^2 + p t + 1/3)
    t = np.linspace(0.05, 0.95, 19)[:, None] + 0.00371
    p = np.linspace(0.4, 5.0, 17)[None, :] + 0.00113
    assert np.max(np.abs(check_factorization("hyperbolic", p, t))) <= 1e-12
    factored = 4.0 * (3.0 * p * t - 1.0) * (p * t ** 3 - t ** 2 + p * t + 1.0 / 3.0)
    slope = dG_dt("hyperbolic", t, p, p)
    assert_allclose(slope, -2.0 * factored / (1.0 - t * t) ** 4, rtol=1e-12, atol=1e-12)
    assert np.all(np.sign(slope) == np.sign((1.0 - 3.0 * p * t) * (p * t ** 3 - t ** 2 + p * t + 1.0 / 3.0)))


def test_curve_distance_zero_on_curve():
    for s in (0.4, 1.0, 3.0):
        assert curve_distance(1.0 / (3.0 * s), s, s) <= 1e-12
    assert curve_distance(1.0, 1.0, 1.0) > 0.4


@pytest.mark.parametrize("s0", [0.2, 1.0, 5.0])
def test_curve_distance_along_normal(s0):
    # (0, 1, -1) is normal to the curve everywhere and keeps the nearest point:
    # d2(s) = (t0 - 1/(3s))^2 + 2 (s0 - s)^2 + delta^2
    t0 = 1.0 / (3.0 * s0)
    for delta in (0.01, 0.1, 1.0, 10.0):
        step = delta / math.sqrt(2.0)
        assert curve_distance(t0, s0 + step, s0 - step) == pytest.approx(delta, rel=1e-12)
    # the normal in the plane of the tangent and the t axis, at a small offset
    normal = np.array([-2.0, -1.0 / (3.0 * s0 * s0), -1.0 / (3.0 * s0 * s0)])
    normal /= np.linalg.norm(normal)
    t, p, q = np.array([t0, s0, s0]) + 0.01 * normal
    assert curve_distance(t, p, q) == pytest.approx(0.01, rel=1e-12)


def test_curve_distance_never_above_bounded_brent():
    # the bounded Brent search it replaced minimizes the rounded d2, so it can
    # land an ulp below the rounded value at the true stationary point; a
    # margin of 4 ulp covers that and nothing more
    from scipy.optimize import minimize_scalar

    def brent(t, p, q):
        def d2(s):
            return (t - 1.0 / (3.0 * s)) ** 2 + (p - s) ** 2 + (q - s) ** 2

        res = minimize_scalar(d2, bounds=(1e-8, 1e8), method="bounded", options={"xatol": 1e-13})
        return math.sqrt(float(res.fun))

    rng = np.random.Generator(np.random.Philox(key=11))
    points = rng.random((2000, 3)) * 5.0
    ours = np.array([curve_distance(*x) for x in points])
    ref = np.array([brent(*x) for x in points])
    assert np.all(ours <= ref * (1.0 + 4.0 * np.finfo(float).eps))


@pytest.mark.parametrize("case", CASES)
def test_critical_points_lie_on_curve(case):
    result = solve_critical_points(critical_system(case), n_starts=150, seed=0)
    assert len(result.roots) > 5
    assert result.n_converged > 0
    for root in result.roots:
        assert root.curve_distance <= 1e-6
        assert root.residual <= 1e-10
    # runs are reproducible
    again = solve_critical_points(critical_system(case), n_starts=150, seed=0)
    assert [(r.t, r.p, r.q) for r in again.roots] == [(r.t, r.p, r.q) for r in result.roots]


def test_critical_search_bookkeeping():
    result = solve_critical_points(critical_system("hyperbolic"), n_starts=150, seed=0)
    total = result.n_converged + result.n_singular + result.n_stalled
    assert total == 150
    assert result.n_out_of_domain + result.n_degenerate <= result.n_converged
    assert result.n_degenerate >= 0
    first = result.roots[0]
    assert hasattr(first, "n_merged") and first.n_merged >= 1


@pytest.mark.parametrize(
    "case,seed,n_starts,expected",
    [
        ("spherical", 0, 1000, (126, 127, 873, 0, 1, 0)),
        ("hyperbolic", 0, 1000, (172, 204, 796, 0, 18, 14)),
        ("spherical", 1, 250, (36, 36, 214, 0, 0, 0)),
        ("hyperbolic", 1, 250, (45, 55, 195, 0, 4, 6)),
    ],
    ids=["spherical-expected0", "hyperbolic-expected1", "spherical-seed1-250", "hyperbolic-seed1-250"],
)
def test_multistart_counts_pinned(case, seed, n_starts, expected):
    # (roots, converged, stalled, singular, out of domain, degenerate) as the
    # per-start loop produced them; seed 1 at 250 starts is the benchmark's run
    result = solve_critical_points(critical_system(case), n_starts=n_starts, seed=seed)
    got = (
        len(result.roots),
        result.n_converged,
        result.n_stalled,
        result.n_singular,
        result.n_out_of_domain,
        result.n_degenerate,
    )
    assert got == expected


@pytest.mark.parametrize(
    "case,first,last",
    [
        (
            "spherical",
            (0.027251796425956598, 12.231609546878943, 12.231609546879035),
            (3.730809126149363, 0.08934612360546278, 0.08934612360546278),
        ),
        (
            "hyperbolic",
            (0.030984546686328444, 10.758050995802106, 10.758050995802114),
            (0.8440144198929487, 0.3949379601537843, 0.39493796015378996),
        ),
    ],
)
def test_multistart_root_coordinates_pinned(case, first, last):
    roots = solve_critical_points(critical_system(case), n_starts=250, seed=1).roots
    assert_allclose((roots[0].t, roots[0].p, roots[0].q), first, rtol=0, atol=1e-12)
    assert_allclose((roots[-1].t, roots[-1].p, roots[-1].q), last, rtol=0, atol=1e-12)


def _per_start_multistart(system, n_starts, seed):
    """The multistart one start at a time, through the public scalar API."""
    lows = np.array([b[0] for b in system.box])
    highs = np.array([b[1] for b in system.box])
    starts = lows + np.random.Generator(np.random.Philox(key=seed)).random((n_starts, 3)) * (highs - lows)
    converged, n_singular, n_stalled = [], 0, 0
    for x in starts:
        ok = singular = False
        for _ in range(120):
            F, scale = system.eval(*x), system.scale(*x)
            if np.max(np.abs(F) / scale) < 1e-13:
                ok = True
                break
            J = system.jacobian(*x)
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                JtJ = J.T @ J
                lam = 1e-8 * (np.trace(JtJ) / 3.0 + 1.0)
                try:
                    step = np.linalg.solve(JtJ + lam * np.eye(3), -J.T @ F)
                except np.linalg.LinAlgError:
                    singular = True
                    break
            nF = np.linalg.norm(F / scale)
            lam_step = 1.0
            while lam_step >= 1.0 / 4096.0:
                xn = x + lam_step * step
                if np.linalg.norm(system.eval(*xn) / system.scale(*xn)) < nF:
                    x = xn
                    break
                lam_step *= 0.5
            else:
                break
        if ok:
            converged.append(tuple(float(v) for v in x))
        n_singular += singular
        n_stalled += not ok and not singular
    return converged, n_singular, n_stalled


@pytest.mark.parametrize("case", CASES)
def test_lockstep_multistart_matches_per_start_loop(case):
    system = critical_system(case)
    result = solve_critical_points(system, n_starts=200, seed=2)
    converged, n_singular, n_stalled = _per_start_multistart(system, 200, seed=2)
    assert (result.n_converged, result.n_singular, result.n_stalled) == (len(converged), n_singular, n_stalled)
    # every root is, bit for bit, a point the per-start loop converged to
    assert result.roots and all((r.t, r.p, r.q) in converged for r in result.roots)
    merged = sum(r.n_merged for r in result.roots)
    assert merged + result.n_out_of_domain + result.n_degenerate == result.n_converged


def test_multistart_singular_jacobian_takes_levenberg_steps():
    # J = [[1, 1, 0], [1, 1, 0], [0, 0, 1]] everywhere: every batched solve
    # raises, and each start falls back to the Levenberg step
    line = ((1, 0, 0, 1.0), (0, 1, 0, 1.0), (0, 0, 0, -1.0))
    q_line = ((0, 0, 1, 1.0), (0, 0, 0, -1.0))
    system = PolySystem("spherical", (line, line, q_line), ((0.1, 0.45), (0.1, 0.45), (0.5, 1.5)))
    result = solve_critical_points(system, n_starts=40, seed=3)
    assert result.n_converged + result.n_singular + result.n_stalled == 40
    assert result.n_converged == 40
    assert sum(r.n_merged for r in result.roots) == 40
    for r in result.roots:
        assert abs(r.t + r.p - 1.0) <= 1e-12
        assert abs(r.q - 1.0) <= 1e-12


def _first_improving_depth(system, x):
    """The first k with |F/scale| below its value at x at x + 2^-k step, k <= 20."""
    F, scale = system.eval(*x), system.scale(*x)
    step = np.linalg.solve(system.jacobian(*x), -F)
    norm = np.linalg.norm(F / scale)
    for k in range(21):
        xn = x + 0.5 ** k * step
        if np.linalg.norm(system.eval(*xn) / system.scale(*xn)) < norm:
            return k
    return None


def test_multistart_line_search_takes_every_depth():
    # t^9 = 1 with p = q = 1 fixed: from t < 1 the Newton step overshoots, and
    # the first step length that lowers the residual shrinks like t^8, so the
    # starts in t in (0.2, 1.2) take every depth from lambda = 1 to 1/4096, and
    # those needing 1/8192 or less stall at once
    ninth = ((9, 0, 0, 1.0), (0, 0, 0, -1.0))
    p_one, q_one = ((0, 1, 0, 1.0), (0, 0, 0, -1.0)), ((0, 0, 1, 1.0), (0, 0, 0, -1.0))
    system = PolySystem("spherical", (ninth, p_one, q_one), ((0.2, 1.2), (1.0, 1.0), (1.0, 1.0)))
    lows, highs = np.array(system.box).T
    starts = lows + np.random.Generator(np.random.Philox(key=0)).random((60, 3)) * (highs - lows)
    depths = [_first_improving_depth(system, x) for x in starts]
    assert {0, 5, 11, 12, 13} <= set(depths)

    result = solve_critical_points(system, n_starts=60, seed=0)
    converged, n_singular, n_stalled = _per_start_multistart(system, 60, seed=0)
    assert (result.n_converged, result.n_singular, result.n_stalled) == (len(converged), n_singular, n_stalled)
    assert result.n_stalled == sum(d > 12 for d in depths)
    assert result.roots and all((r.t, r.p, r.q) in converged for r in result.roots)
    points, outcome = _lockstep_newton(system, starts)
    assert [tuple(float(v) for v in x) for x in points[outcome == _CONVERGED]] == converged


def test_polysystem_broadcasts_arrays():
    system = critical_system("hyperbolic")
    t = np.array([[0.3], [0.6]])
    p, q = np.array([0.5, 0.9, 1.4]), 2.0
    vals, jac, scale = system.eval(t, p, q), system.jacobian(t, p, q), system.scale(t, p, q)
    assert vals.shape == scale.shape == (3, 2, 3) and jac.shape == (3, 3, 2, 3)
    for a in range(2):
        for b in range(3):
            assert np.array_equal(vals[:, a, b], system.eval(t[a, 0], p[b], q))
            assert np.array_equal(jac[:, :, a, b], system.jacobian(t[a, 0], p[b], q))
            assert np.array_equal(scale[:, a, b], system.scale(t[a, 0], p[b], q))


def test_default_grid_ranges_inside_domain():
    (t0, t1), (p0, p1), (q0, q1) = default_grid_ranges("hyperbolic")
    assert 0.0 < t0 < t1 < 1.0
    assert p0 > 1.0 / 3.0 and q0 > 1.0 / 3.0
    sph = default_grid_ranges("spherical")
    assert all(lo > 0.0 and hi > lo for lo, hi in sph)
