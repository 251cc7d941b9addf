"""Positivity lemmas for the n=4 curved certificates, in half-angle coordinates."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from isoplp import lemmas
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
def test_G_and_H_keep_their_operation_order(case):
    # the in-place kernels give the plain expressions of G and H bit for bit,
    # on broadcast arrays, and a scalar at a scalar point
    s, arc, _ = lemmas._curvature(case)
    t = np.linspace(0.03, 0.97, 11)[:, None, None]
    p = np.linspace(0.4, 5.0, 7)[None, :, None]
    q = np.linspace(0.35, 6.0, 5)[None, None, :]
    _, s0, sm1, sm2 = S_table(case, t)
    g = (8.0 / 3.0) * arc(t) - p * q * s0 - (p + q) * (s * sm1) - sm2
    h = G_diag_peak(case, p) + G_diag_peak(case, q) - 2.0 * g
    assert np.array_equal(G(case, t, p, q), g)
    assert np.array_equal(H(case, t, p, q), h)
    point = float(t[3, 0, 0]), float(p[0, 2, 0]), float(q[0, 0, 1])
    assert np.ndim(H(case, *point)) == 0 and H(case, *point) == h[3, 2, 1]
    assert np.ndim(G(case, *point)) == 0 and G(case, *point) == g[3, 2, 1]


@pytest.mark.parametrize("case", CASES)
def test_H_nonneg_on_grid(case):
    report = verify_H_nonneg(case, grid=60)
    assert report.passed
    assert report.min_value >= -1e-9
    assert report.rays_ok
    assert report.grid_shape == (60, 60, 60)
    # the discrete argmin hugs the vanishing curve
    assert report.argmin_curve_distance < 0.1


def _axes(case, grid):
    (t0, t1), (p0, p1), (q0, q1) = default_grid_ranges(case)
    return np.linspace(t0, t1, grid), np.linspace(p0, p1, grid), np.linspace(q0, q1, grid)


def _whole_grid(case, grid):
    axes = _axes(case, grid)
    return axes, H(case, axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :])


@pytest.mark.parametrize("grid", [2, 3, 17, 120, 121])
@pytest.mark.parametrize("case", CASES)
def test_slab_scan_matches_the_whole_grid_argmin(case, grid):
    # 2 and 3 fit in one slab; 121 leaves a ragged last slab
    axes, vals = _whole_grid(case, grid)
    node = np.unravel_index(int(np.argmin(vals)), vals.shape)
    argmin = tuple(float(axis[i]) for axis, i in zip(axes, node))
    report = verify_H_nonneg(case, grid)
    assert report.min_value == float(vals[node])
    assert report.argmin == argmin
    assert report.argmin_curve_distance == curve_distance(*argmin)


def _patched_grid(monkeypatch, case, grid, vals):
    """Make the grid slabs read vals; the 1-D rays keep the real H.

    vals is a whole grid^3 array, or a function of the slab's broadcast node
    indices (t, p, q) where a whole grid would not fit in memory.  Returns the
    report and, per slab, its t-rows and p-nodes.
    """
    value = vals if callable(vals) else (lambda *node: vals[node])
    slabs = []

    def slabs_of(which, ts, ps, qs, rows, cols):
        def slab(t, p):
            it, ip = np.arange(grid)[t], np.arange(grid)[p]
            slabs.append((it, ip))
            return value(it[:, None, None], ip[None, :, None], np.arange(grid)[None, None, :])

        return slab

    monkeypatch.setattr(lemmas, "_H_slabs", slabs_of)
    report = verify_H_nonneg(case, grid)
    # the slabs cover the (t, p) rows once, in flat order, in more than one call
    assert len(slabs) > 1
    pairs = np.concatenate([(it[:, None] * grid + ip).ravel() for it, ip in slabs])
    assert np.array_equal(pairs, np.arange(grid * grid))
    return report, slabs


@pytest.mark.parametrize("case", CASES)
def test_slab_scan_ties_go_to_the_first_node(monkeypatch, case):
    grid = 120
    axes = _whole_grid(case, grid)[0]
    report, _ = _patched_grid(monkeypatch, case, grid, np.zeros((grid, grid, grid)))
    assert report.min_value == 0.0
    assert report.argmin == (axes[0][0], axes[1][0], axes[2][0])


@pytest.mark.parametrize("case", CASES)
def test_slab_scan_keeps_the_earlier_slab_on_a_repeated_minimum(monkeypatch, case):
    grid = 120
    axes = _whole_grid(case, grid)[0]
    vals = np.ones((grid, grid, grid))
    vals[1, 5, 5] = -2.0
    vals[-1, 0, 0] = -2.0  # a later slab, earlier within its slab
    report, slabs = _patched_grid(monkeypatch, case, grid, vals)
    assert 1 in slabs[0][0] and grid - 1 not in slabs[0][0]
    assert report.min_value == -2.0
    assert report.argmin == (axes[0][1], axes[1][5], axes[2][5])


# one NaN in the last slab; then a NaN in an earlier slab as well, which wins
@pytest.mark.parametrize("nans", [[(119, 3, 4)], [(110, 3, 4), (119, 0, 0)]])
@pytest.mark.parametrize("case", CASES)
def test_slab_scan_fails_on_a_nan(monkeypatch, case, nans):
    grid = 120
    axes = _whole_grid(case, grid)[0]
    vals = np.ones((grid, grid, grid))
    vals[0, 0, 0] = -1.0
    for node in nans:
        vals[node] = np.nan
    report, slabs = _patched_grid(monkeypatch, case, grid, vals)
    # the last NaN lies in the last slab; a second NaN lies in an earlier one
    assert nans[-1][0] in slabs[-1][0]
    assert (nans[0][0] in slabs[-1][0]) == (len(nans) == 1)
    assert math.isnan(report.min_value)
    assert report.argmin == tuple(float(axis[i]) for axis, i in zip(axes, nans[0]))
    assert report.rays_ok
    assert not report.passed


# past grid 181 one t-row holds more than the 2^15-node slab budget
SPLIT_GRID = 200


def _flat_nodes(grid, *nodes):
    return [(t * grid + p) * grid + q for t, p, q in nodes]


@pytest.mark.parametrize(
    "minima,nans,winner",
    [
        # a minimum in the second p-block of t-row 0 beats a repeat in a later
        # slab, which comes first within its slab, and a later one in its own block
        ([(0, 170, 5), (1, 0, 0), (0, 199, 2)], [], (0, 170, 5)),
        # the first NaN in flat order wins over an earlier minimum and a later NaN
        ([(0, 0, 0)], [(3, 180, 1), (3, 10, 2), (150, 0, 0)], (3, 10, 2)),
    ],
)
@pytest.mark.parametrize("case", CASES)
def test_slab_scan_splits_a_t_row_past_the_budget(monkeypatch, case, minima, nans, winner):
    grid = SPLIT_GRID
    low, nan = _flat_nodes(grid, *minima), _flat_nodes(grid, *nans)

    def vals(it, ip, iq):
        flat = (it * grid + ip) * grid + iq
        return np.where(np.isin(flat, nan), np.nan, np.where(np.isin(flat, low), -2.0, 1.0))

    report, slabs = _patched_grid(monkeypatch, case, grid, vals)
    # each t-row is cut into p-blocks, and no slab grows past the budget
    cols = 2 ** 15 // grid
    assert [len(it) for it, _ in slabs] == [1] * (2 * grid)
    assert [len(ip) for _, ip in slabs] == [cols, grid - cols] * grid
    assert max(len(it) * len(ip) * grid for it, ip in slabs) <= 2 ** 15
    assert report.argmin == tuple(float(axis[i]) for axis, i in zip(_axes(case, grid), winner))
    assert math.isnan(report.min_value) if nans else report.min_value == -2.0


@pytest.mark.parametrize("case", CASES)
def test_split_rows_match_a_row_by_row_scan(case):
    grid = SPLIT_GRID
    ts, ps, qs = _axes(case, grid)
    min_value, node = math.inf, None
    for i, t in enumerate(ts):
        row = H(case, t, ps[:, None], qs[None, :])
        j = np.unravel_index(int(np.argmin(row)), row.shape)
        if row[j] < min_value:
            min_value, node = float(row[j]), (i, *j)
    report = verify_H_nonneg(case, grid)
    assert report.min_value == min_value
    assert report.argmin == (ts[node[0]], ps[node[1]], qs[node[2]])


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", [120, 240])
@pytest.mark.parametrize("case", CASES)
def test_H_grid_stays_small(case, grid):
    # one whole-grid broadcast holds two grid^3 float arrays, 26.6 MB at 120 and
    # about 8 times that at 240; the in-place scan keeps two slab buffers and
    # three (p, q) tables of at most 2^15 nodes each, 0.95 MB at 120 and 1.49 MB
    # at 240 with numpy 2.4
    report, peak = _traced_peak(verify_H_nonneg, case, grid)
    assert report.passed
    assert peak < 1.6e6


@pytest.mark.parametrize("case", CASES)
def test_multistart_stays_small(case):
    # the benchmark's run; the monomial terms are formed in place in two
    # (K, M, N) arrays: 0.74 MB spherical and 1.14 MB hyperbolic with numpy 2.4
    result, peak = _traced_peak(solve_critical_points, critical_system(case), 250, seed=1)
    assert result.roots
    assert peak < 1.2e6


def test_dG_dt_matches_finite_difference():
    h = 1e-6
    for case, pts in (
        ("spherical", [(0.5, 1.0, 2.0), (2.0, 0.3, 0.7), (1.0, 1.0, 1.0)]),
        ("hyperbolic", [(0.5, 1.0, 2.0), (0.3, 0.6, 0.9), (0.8, 2.5, 1.1)]),
    ):
        for t, p, q in pts:
            fd = (G(case, t + h, p, q) - G(case, t - h, p, q)) / (2.0 * h)
            assert_allclose(dG_dt(case, t, p, q), fd, rtol=1e-7, atol=1e-7)


def _at(table, x):
    """A table of the system at one point x = (t, p, q), as a batch of one.

    A table sums each row on its own, so this row is the point's value in
    any batch (test_tables_sum_each_term_in_row_order).
    """
    return table(np.array([x], dtype=float))[0]


def _values(system, x):
    return _at(system._values, x)


def _jacobian(system, x):
    """d(numerator r)/d(variable v) at [r, v]."""
    return _at(system._jacobian, x).reshape(3, 3)


def _scale(system, x):
    return _at(system._scale, x)


def gradient_of_H(system, t, p, q) -> tuple:
    """Rebuild (dH/dt, dH/dp, dH/dq) from the system's numerators at one point."""
    et, ep, eq = _values(system, (t, p, q))
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
    et, ep, eq = _values(system, (1.0, 1.0, 1.0))
    assert et == -8.0
    assert ep == 848.0
    assert eq == 848.0
    _, dp, dq = gradient_of_H(system, 1.0, 1.0, 1.0)
    assert_allclose(dp, (8.0 / 3.0) * 848.0 / 800.0, rtol=1e-15)
    assert_allclose(dq, dp, rtol=1e-15)


def test_tables_sum_each_term_in_row_order():
    # each term is ((c t^i) p^j) q^k, and the terms of a polynomial are added
    # one by one in row order from 0.0: in a batch and at a single point alike
    system = critical_system("hyperbolic")
    x = np.array([[0.3, 0.7, 1.9], [0.81, 2.4, 0.45], [0.5, 1.0, 1.0], [-0.2, 3.0, -1.5]])
    powers = [[x[:, v] ** e for e in range(7)] for v in range(3)]
    for table in (system._values, system._jacobian, system._abs):
        batch = table(x)
        for n in range(len(x)):
            ref = []
            for exps, coef in zip(table.exps, table.coef):
                total = 0.0
                for (i, j, k), c in zip(exps, coef):
                    total += c * powers[0][i][n] * powers[1][j][n] * powers[2][k][n]
                ref.append(total)
            assert batch[n].tolist() == ref
            assert table(x[n:n + 1])[0].tolist() == ref


def test_polysystem_jacobian_matches_finite_difference():
    h = 1e-7
    for case in CASES:
        system = critical_system(case)
        x = np.array((0.7, 1.2, 0.8) if case == "spherical" else (0.6, 0.9, 1.4))
        jac = _jacobian(system, x)
        for j, dx in enumerate(np.eye(3) * h):
            fd = (_values(system, x + dx) - _values(system, x - dx)) / (2.0 * h)
            assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-4)


def _assert_exact_factorization(case):
    # e_t(t, p, p) = (3pt - 1)(3pt^3 - 3t^2 - 3spt - s) coefficient by coefficient,
    # in integers: the rows' coefficients are ints, so nothing rounds
    s, _, _ = lemmas._curvature(case)
    assert all(type(c) is int for rows in (lemmas._et(s), lemmas._ep(s)) for *_, c in rows), case
    assert check_factorization(case) == 0.0, case


def test_factorization_identity():
    _assert_exact_factorization("spherical")


def test_factorization_identity_hyperbolic():
    _assert_exact_factorization("hyperbolic")


@pytest.mark.parametrize("case", CASES)
def test_factorization_detects_a_shifted_coefficient(case, monkeypatch):
    # a row whose coefficient moves by one leaves exactly that one in the expansion
    et = lemmas._et
    for m in range(len(et(1))):
        for shift in (-1, 1):
            def shifted(s, m=m, shift=shift):
                rows = list(et(s))
                i, j, k, c = rows[m]
                rows[m] = (i, j, k, c + shift)
                return tuple(rows)

            monkeypatch.setattr(lemmas, "_et", shifted)
            assert check_factorization(case) == 1.0, (m, shift)


def test_factorization_roots():
    # dG/dt vanishes on the diagonal where 3pt = 1
    p = 0.8
    for case in CASES:
        assert_allclose(dG_dt(case, 1.0 / (3.0 * p), p, p), 0.0, atol=1e-12)


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
    # dG/dt = 2 s num / (1 + s t^2)^4 with num factored as 4 (3pt - 1) (p t^3 - t^2 - s p t - s/3),
    # so the slope has the sign of s (3pt - 1) (p t^3 - t^2 - s p t - s/3); at s = -1 that is
    # (1 - 3pt) (p t^3 - t^2 + p t + 1/3).  The spherical case is held to the same form.
    t = np.linspace(0.05, 0.95, 19)[:, None] + 0.00371
    p = np.linspace(0.4, 5.0, 17)[None, :] + 0.00113
    for case in CASES:
        s, _, _ = lemmas._curvature(case)
        second = p * t ** 3 - t ** 2 - s * p * t - s / 3.0
        factored = 4.0 * (3.0 * p * t - 1.0) * second
        slope = dG_dt(case, t, p, p)
        assert_allclose(slope, 2.0 * s * factored / (1.0 + s * t * t) ** 4, rtol=1e-12, atol=1e-12)
        assert np.all(np.sign(slope) == np.sign(s * (3.0 * p * t - 1.0) * second)), case


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


def _per_point_filter(system, points):
    """Domain and rank filter one converged point at a time."""
    _, _, (t_hi, p_lo) = lemmas._curvature(system.case)
    n_out = n_degenerate = 0
    kept = []
    for t, p, q in points:
        if not (1e-8 < t < t_hi - 1e-10 and min(p, q) > max(p_lo, 1e-8)):
            n_out += 1
            continue
        sv = np.linalg.svd(_jacobian(system, (t, p, q)), compute_uv=False)
        if sv[1] <= 1e-6 * max(sv[0], float(np.max(_scale(system, (t, p, q))))):
            n_degenerate += 1
            continue
        kept.append((t, p, q))
    return kept, n_out, n_degenerate


@pytest.mark.parametrize("case", CASES)
def test_batched_root_filter_matches_the_per_point_api(case):
    # the benchmark's run: the batched domain and rank filter and the batched
    # residuals equal a point-by-point filter and residual, bit for bit
    system = critical_system(case)
    result = solve_critical_points(system, n_starts=250, seed=1)
    lows, highs = np.array(system.box).T
    starts = lows + np.random.Generator(np.random.Philox(key=1)).random((250, 3)) * (highs - lows)
    points, outcome = _lockstep_newton(system, starts)
    converged = [tuple(float(v) for v in x) for x in points[outcome == _CONVERGED]]
    kept, n_out, n_degenerate = _per_point_filter(system, converged)
    assert (result.n_out_of_domain, result.n_degenerate) == (n_out, n_degenerate)
    assert sum(r.n_merged for r in result.roots) == len(kept)
    for r in result.roots:
        assert (r.t, r.p, r.q) in kept
        x = (r.t, r.p, r.q)
        assert r.residual == float(np.max(np.abs(_values(system, x) / _scale(system, x))))


def test_multistart_with_no_converged_start():
    # seed 1's one spherical start stalls: an empty batch of converged points
    result = solve_critical_points(critical_system("spherical"), n_starts=1, seed=1)
    assert result.roots == []
    assert result.n_converged == result.n_out_of_domain == result.n_degenerate == 0
    assert result.n_converged + result.n_singular + result.n_stalled == result.n_starts == 1


def _per_start_multistart(system, n_starts, seed):
    """The multistart one start at a time, each table taken at one point."""
    lows = np.array([b[0] for b in system.box])
    highs = np.array([b[1] for b in system.box])
    starts = lows + np.random.Generator(np.random.Philox(key=seed)).random((n_starts, 3)) * (highs - lows)
    converged, n_singular, n_stalled = [], 0, 0
    for x in starts:
        ok = singular = False
        for _ in range(120):
            F, scale = _values(system, x), _scale(system, x)
            if np.max(np.abs(F) / scale) < 1e-13:
                ok = True
                break
            J = _jacobian(system, x)
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
                if np.linalg.norm(_values(system, xn) / _scale(system, xn)) < nF:
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
    F, scale = _values(system, x), _scale(system, x)
    step = np.linalg.solve(_jacobian(system, x), -F)
    norm = np.linalg.norm(F / scale)
    for k in range(21):
        xn = x + 0.5 ** k * step
        if np.linalg.norm(_values(system, xn) / _scale(system, xn)) < norm:
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


def test_default_grid_ranges_inside_domain():
    (t0, t1), (p0, p1), (q0, q1) = default_grid_ranges("hyperbolic")
    assert 0.0 < t0 < t1 < 1.0
    assert p0 > 1.0 / 3.0 and q0 > 1.0 / 3.0
    sph = default_grid_ranges("spherical")
    assert all(lo > 0.0 and hi > lo for lo, hi in sph)
