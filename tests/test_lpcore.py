"""Finite LP assembly and solving; the residuals are checked against hand-made pairs."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog as highs

from isoplp import certificate, lpcore
from isoplp.chordmeasure import DiscreteMeasure, discretize_ball_measure, integrate
from isoplp.lpcore import (
    GridSpec,
    LinearProgram,
    _grid_nodes,
    _residuals,
    build_relative_lp,
    solve,
)
from isoplp.relative import RelativeCase, relative_bound
from isoplp.spaceform import (
    ModelParams,
    ball_from_radius,
    ball_from_volume,
    candle,
    candle_anti,
    candle_anti2,
)


def _dense(lp):
    """The LP's row matrix materialized, gathered column by column."""
    return lp.row_matrix[:, np.arange(lp.n_vars)]


def _dense_primal(sol, n):
    """The solution's primal (support, values) as a vector of n entries."""
    x = np.zeros(n)
    x[sol.primal[0]] = sol.primal[1]
    return x


def _certifies(sol, tol):
    return sol.primal_residual <= tol and sol.dual_residual <= tol and abs(sol.duality_gap) <= tol


def _tiny_lp():
    # min x subject to x >= 3
    return LinearProgram(
        objective=np.array([1.0]),
        row_matrix=np.array([[1.0]]),
        rhs=np.array([3.0]),
        row_labels=("floor",),
    )


def test_solve_tiny():
    sol = solve(_tiny_lp())
    assert sol.status == "optimal"
    assert_allclose(sol.objective_value, 3.0, rtol=1e-12)
    assert_allclose(_dense_primal(sol, 1), [3.0], rtol=1e-12)
    # dual of min x st x >= 3 is y = 1
    assert_allclose(sol.dual, [1.0], rtol=1e-9)
    assert sol.duality_gap <= 1e-9


def test_solve_two_constraints():
    # min x + y st x + 2y >= 4, 3x + y >= 6; optimum 14/5 at (8/5, 6/5)
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        row_matrix=np.array([[1.0, 2.0], [3.0, 1.0]]),
        rhs=np.array([4.0, 6.0]),
        row_labels=("first", "second"),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert_allclose(sol.objective_value, 14.0 / 5.0, rtol=1e-11)
    assert_allclose(_dense_primal(sol, 2), [8.0 / 5.0, 6.0 / 5.0], rtol=1e-10)
    assert _certifies(sol, 1e-8)
    assert sol.duality_gap <= 1e-9


def test_solve_detects_infeasible():
    # x >= 1 and -x >= 1 cannot both hold with x >= 0
    lp = LinearProgram(
        objective=np.array([1.0]),
        row_matrix=np.array([[1.0], [-1.0]]),
        rhs=np.array([1.0, 1.0]),
        row_labels=("lo", "hi"),
    )
    assert solve(lp).status == "infeasible"


def test_solve_detects_unbounded():
    # max direction: minimize -x with only x >= 0
    lp = LinearProgram(
        objective=np.array([-1.0]),
        row_matrix=np.array([[1.0]]),
        rhs=np.array([0.0]),
        row_labels=("trivial",),
    )
    assert solve(lp).status == "unbounded"


def test_lp_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram(
            objective=np.array([1.0]),
            row_matrix=np.array([[1.0, 2.0]]),
            rhs=np.array([1.0]),
            row_labels=("a",),
        )


def test_weak_duality_flags_violations():
    lp = _tiny_lp()
    primal_violation, _, gap, _ = _residuals(lp, (np.array([0]), np.array([2.0])), np.array([1.0]))
    assert primal_violation > 0.9  # x = 2 violates x >= 3 by 1
    assert gap == -1.0


@given(
    n_vars=st.integers(min_value=1, max_value=4),
    n_rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_weak_duality_on_random_solvable_lps(n_vars, n_rows, seed):
    rng = np.random.default_rng(seed)
    lp = LinearProgram(
        objective=rng.uniform(0.5, 2.0, n_vars),
        row_matrix=rng.uniform(0.1, 1.5, (n_rows, n_vars)),
        rhs=rng.uniform(0.2, 2.0, n_rows),
        row_labels=tuple(f"r{i}" for i in range(n_rows)),
    )
    sol = solve(lp)
    # positive data makes the problem feasible and bounded
    assert sol.status == "optimal"
    assert _certifies(sol, 1e-7)
    # weak duality: dual objective never exceeds primal objective
    primal_objective = float(lp.objective[0] @ _dense_primal(sol, n_vars))
    dual_objective = float(lp.rhs @ sol.dual)
    assert dual_objective <= primal_objective + 1e-7 * (1 + abs(primal_objective))


def test_isoperimetric_lp_rows_and_bound_flat_disk():
    params = ModelParams(2, 0.0)
    ball = ball_from_radius(params, 1.0)
    lp = build_relative_lp(params, ball.volume, 1, GridSpec(30, 14))
    assert lp.row_labels == (
        "area-vs-F1", "volume-vs-F2", "F3-cap", "total-length", *(f"marginal-{i}" for i in range(14)),
    )
    # 4 + n_alpha rows in every dimension: no row depends on a paper certificate
    assert build_relative_lp(ModelParams(3, 0.0), 1.0, 1, GridSpec(12, 6)).row_labels == lp.row_labels[:10]
    # variable 0 is the boundary area; a feasible point must reach the ball area
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value >= ball.area - 1e-6 * ball.area
    assert sol.objective_value <= ball.area + 1e-6 * ball.area


def test_isoperimetric_lp_dual_value_flat_cases():
    # dual certificate built from the reference coefficients prices the rows
    # to exactly the ball area: lambda = 1/(a A + b V), value A_B
    for (n, r), expect in (((2, 1.0), 2 * math.pi), ((4, 1.0), 2 * math.pi ** 2)):
        params = ModelParams(n, 0.0)
        ball = ball_from_radius(params, r)
        lp = build_relative_lp(params, ball.volume, 1, GridSpec(30, 14))
        sol = solve(lp)
        assert_allclose(sol.objective_value, expect, rtol=1e-9)
        assert _certifies(sol, 1e-7)


def test_lp_monotone_under_refinement():
    params = ModelParams(4, 1.0)
    ball = ball_from_radius(params, 0.8)
    errs = []
    for na in (10, 14, 20):
        lp = build_relative_lp(params, ball.volume, 1, GridSpec(2 * na, na))
        sol = solve(lp)
        assert sol.status == "optimal"
        errs.append(abs(sol.objective_value - ball.area) / ball.area)
    assert errs[2] <= errs[0] + 1e-6


@pytest.mark.parametrize("n,kappa,r", [(4, 1.0, 0.8), (2, 0.0, 1.0)])
def test_lp_columns_are_the_certificate_integrand(n, kappa, r):
    # rows 0-2 hold -F1, -F2, -F3 and row 3 holds +F4, so at every atom the
    # certificate's d*F4 - a*F1 - b*F2 - c*F3 is (a, b, c, d) . column; the
    # pricing of LP columns by the certificate rests on this
    params = ModelParams(n, kappa)
    V = ball_from_radius(params, r).volume
    grid = GridSpec(12, 6)
    lp = build_relative_lp(params, V, 1, grid)
    alpha, _, _, ell = _grid_nodes(ball_from_volume(params, V), grid)
    L, A, B = (g.ravel() for g in np.meshgrid(ell, alpha, alpha, indexing="ij"))
    cols = _dense(lp)[:4, 1:]
    cert = certificate.paper_certificate(params, r)
    coeffs = np.array(cert.coefficients)
    eps = np.finfo(float).eps
    gap = np.abs(certificate.sup_integrand(cert, L, A, B) - coeffs @ cols)
    assert np.all(gap <= 8 * eps * (np.abs(coeffs) @ np.abs(cols)))
    # a one-atom unit-mass measure integrates F_k to that atom's row entry
    for atom in range(L.size):
        mu = DiscreteMeasure([L[atom]], [A[atom]], [B[atom]], [1.0])
        for k, sign in ((1, -1.0), (2, -1.0), (3, -1.0), (4, 1.0)):
            assert_allclose(integrate(mu, f"F{k}", params), sign * cols[k - 1, atom], rtol=4 * eps, atol=0.0)


def test_relative_lp_flat_bound():
    # m = 2 flat disk: optimum approaches area(B(2V))/2
    params = ModelParams(2, 0.0)
    V = math.pi / 2.0
    from isoplp.spaceform import ball_from_volume

    ball0 = ball_from_volume(params, 2.0 * V)
    lp = build_relative_lp(params, V, 2, GridSpec(30, 14))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert_allclose(sol.objective_value, ball0.area / 2.0, rtol=1e-8)


def test_exact_pair_reports_zero_violation_with_positive_sign():
    # slack and reduced cost are exactly 0 at x = 3, y = 1; the report must
    # read 0.0, not -0.0
    primal_violation, dual_violation, _, _ = _residuals(_tiny_lp(), (np.array([0]), np.array([3.0])), np.array([1.0]))
    assert primal_violation == 0.0 and math.copysign(1.0, primal_violation) == 1.0
    assert dual_violation == 0.0 and math.copysign(1.0, dual_violation) == 1.0
    sol = solve(_tiny_lp())
    assert math.copysign(1.0, sol.primal_residual) == 1.0
    assert math.copysign(1.0, sol.dual_residual) == 1.0


def test_violation_and_residuals_keep_a_nan():
    # max(0.0, nan) is 0.0, so a nan entry read as no violation at all
    assert math.isnan(lpcore._violation(np.array([np.nan, 1.0])))
    assert math.isnan(lpcore._violation(np.zeros(2), np.array([1.0, np.nan])))
    primal, _, _, cs = _residuals(_tiny_lp(), (np.array([0]), np.array([np.nan])), np.array([1.0]))
    assert math.isnan(primal) and math.isnan(cs)
    assert math.isnan(_residuals(_tiny_lp(), (np.array([0]), np.array([3.0])), np.array([np.nan]))[1])


@pytest.mark.parametrize("field", ["x", "marginals"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_primal_or_dual_that_is_not_finite_is_a_tolerance_failure(monkeypatch, field, value):
    simplex = lpcore.linprog

    def corrupted(*args, **kwargs):
        res = simplex(*args, **kwargs)
        return dataclasses.replace(res, **{field: np.full_like(getattr(res, field), value)})

    monkeypatch.setattr(lpcore, "linprog", corrupted)
    sol = solve(_tiny_lp())
    assert sol.status == "tolerance-failure"


def _beale_lp():
    """Beale's (1955) LP, on which Dantzig's rule with smallest-index ties cycles; optimum -1/20."""
    return LinearProgram(
        objective=np.array([-0.75, 150.0, -0.02, 6.0]),
        row_matrix=-np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]),
        rhs=-np.array([0.0, 0.0, 1.0]),
        row_labels=("first", "second", "cap"),
    )


@pytest.mark.parametrize("degenerate_run", [lpcore._DEGENERATE_RUN, 0], ids=["dantzig", "bland"])
def test_beale_cycling_lp_reaches_its_optimum(monkeypatch, degenerate_run):
    monkeypatch.setattr(lpcore, "_DEGENERATE_RUN", degenerate_run)
    sol = solve(_beale_lp())
    assert sol.status == "optimal"
    assert_allclose(sol.objective_value, -1.0 / 20.0, rtol=1e-14)
    assert_allclose(_dense_primal(sol, 4), [1.0 / 25.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_pivot_cap_is_a_tolerance_failure(monkeypatch):
    monkeypatch.setattr(lpcore, "_PIVOTS_PER_ROW", 0)
    sol = solve(_beale_lp())
    assert sol.status == "tolerance-failure"
    assert sol.primal is None and sol.dual is None


@pytest.mark.parametrize("degenerate_run", [lpcore._DEGENERATE_RUN, 0], ids=["dantzig", "bland"])
def test_degenerate_integer_lps_match_highs(monkeypatch, degenerate_run):
    # small integer data with a feasible 0/1 point and many rows tight at it:
    # ties in the ratio test and zero-length pivots are the rule, not the exception
    monkeypatch.setattr(lpcore, "_DEGENERATE_RUN", degenerate_run)
    for seed in range(150):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        matrix = rng.integers(-2, 3, (m, n)).astype(float)
        rhs = matrix @ rng.integers(0, 2, n) - rng.integers(0, 2, m) * (rng.random(m) < 0.3)
        cost = rng.integers(0, 4, n).astype(float)
        lp = LinearProgram(cost, matrix, rhs, tuple(f"r{i}" for i in range(m)))
        sol = solve(lp)
        ref = highs(cost, A_ub=-matrix, b_ub=-rhs, bounds=(0.0, None), method="highs")
        assert sol.status == "optimal" and ref.status == 0, seed
        assert abs(sol.objective_value - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun)), seed


N_DECOYS = 64


def _random_lp_with_decoys(n_rows, seed, n_vars=2000):
    """Feasible, bounded LP whose widest and cheapest columns are decoys.

    Regular columns cost 1-2 times their coverage (column sum).  Dantzig
    pricing from the first basis favours the widest columns (phase 1) and
    the cheapest ones (phase 2); here those are decoys that cost 100 times
    their coverage or cover almost nothing, so no optimum uses them and any
    decoy the simplex brings into the basis has to leave it again.
    """
    rng = np.random.default_rng(seed)
    n_regular = n_vars - 2 * N_DECOYS
    regular = rng.uniform(0.1, 1.5, (n_rows, n_regular))
    wide = rng.uniform(20.0, 30.0, (n_rows, N_DECOYS))
    thin = rng.uniform(1e-6, 1e-5, (n_rows, N_DECOYS))
    matrix = np.hstack([regular, wide, thin])
    cost = np.concatenate(
        [
            rng.uniform(1.0, 2.0, n_regular) * regular.sum(axis=0),
            100.0 * wide.sum(axis=0),
            rng.uniform(1e-4, 2e-4, N_DECOYS),
        ]
    )
    order = rng.permutation(n_vars)
    return LinearProgram(
        objective=cost[order],
        row_matrix=matrix[:, order],
        rhs=rng.uniform(0.2, 2.0, n_rows),
        row_labels=tuple(f"r{i}" for i in range(n_rows)),
    )


@given(
    n_rows=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_simplex_matches_highs_on_decoy_lps(n_rows, seed):
    lp = _random_lp_with_decoys(n_rows, seed)
    sol = solve(lp)
    assert sol.status == "optimal"
    ref = highs(lp.objective, A_ub=-lp.row_matrix, b_ub=-lp.rhs, bounds=(0.0, None), method="highs")
    assert ref.status == 0
    assert abs(sol.objective_value - ref.fun) <= 1e-9 * abs(ref.fun)
    assert _certifies(sol, 1e-7)


def test_large_infeasible_lp_detected():
    # sum(a x) >= 1 and -sum(b x) >= 1 contradict for positive a, b and x >= 0
    rng = np.random.default_rng(3)
    lp = LinearProgram(
        objective=rng.uniform(0.5, 2.0, 2000),
        row_matrix=np.vstack([rng.uniform(0.1, 1.0, 2000), -rng.uniform(0.1, 1.0, 2000), rng.uniform(0.1, 1.0, 2000)]),
        rhs=np.array([1.0, 1.0, 0.5]),
        row_labels=("lo", "hi", "other"),
    )
    assert solve(lp).status == "infeasible"


def test_large_unbounded_lp_detected():
    # positive rows are met by any large x; one column has negative cost
    rng = np.random.default_rng(4)
    cost = rng.uniform(0.5, 2.0, 2000)
    cost[1234] = -1.0
    lp = LinearProgram(
        objective=cost,
        row_matrix=rng.uniform(0.1, 1.0, (4, 2000)),
        rhs=np.ones(4),
        row_labels=tuple(f"r{i}" for i in range(4)),
    )
    assert solve(lp).status == "unbounded"


def _meshgrid_rows(params, ball_curve, grid):
    """The four structural atom rows, evaluated point by point on the full (ell, alpha, beta) mesh."""
    alpha, _, _, ell = _grid_nodes(ball_curve, grid)
    L, A, B = (g.ravel() for g in np.meshgrid(ell, alpha, alpha, indexing="ij"))
    sec_a, sec_b = 1.0 / np.cos(A), 1.0 / np.cos(B)
    return np.vstack([
        -candle(params, L) * sec_a * sec_b,
        -candle_anti(params, L) / 2.0 * (sec_a + sec_b),
        -candle_anti2(params, L),
        L,
    ])


@pytest.mark.parametrize("n, kappa, r", [(4, 1.0, 0.8), (2, 0.0, 1.0)])
def test_separable_assembly_matches_meshgrid(n, kappa, r):
    params = ModelParams(n, kappa)
    ball = ball_from_radius(params, r)
    grid = GridSpec(24, 12)
    lp = build_relative_lp(params, ball.volume, 1, grid)
    # the LP places its curve nodes on the ball it recovers from the volume
    ball_curve = ball_from_volume(params, ball.volume)
    assert lp.n_vars == 1 + _grid_nodes(ball_curve, grid)[3].size * 12 * 12
    rows, dense = _meshgrid_rows(params, ball_curve, grid), _dense(lp)
    assert_allclose(dense[: len(rows), 1:], rows, rtol=1e-12, atol=0.0)
    assert_allclose(dense[:, 0], [ball.area, ball.volume] + [0.0] * (len(lp.row_labels) - 2), rtol=1e-12)


def test_separable_assembly_matches_meshgrid_relative():
    params, V, m = ModelParams(4, 1.0), 0.4, 3
    ball0 = ball_from_volume(params, m * V)
    grid = GridSpec(24, 12)
    lp = build_relative_lp(params, V, m, grid)
    rows, dense = _meshgrid_rows(params, ball0, grid), _dense(lp)
    assert_allclose(dense[: len(rows), 1:], rows, rtol=1e-12, atol=0.0)
    assert_allclose(dense[:, 0], [ball0.area, m * V] + [0.0] * (len(lp.row_labels) - 2), rtol=1e-12)


# (n, kappa, m, V): the balls of radius 0.8 (curved) and 1 (flat) at m = 1, and B0 of volume 1.2 split three ways
ROW_CASES = [
    (n, kappa, 1, ball_from_radius(ModelParams(n, kappa), 0.8 if kappa else 1.0).volume)
    for n, kappa in ((4, 1.0), (4, 0.0), (2, 1.0), (2, 0.0), (4, -1.0), (2, -1.0))
] + [(4, 1.0, 3, 0.4)]


def _marginal_rows(params, V, m, grid):
    """The LP, B0, its angle nodes and {label: marginal row as an (ell, alpha, beta) array}."""
    lp = build_relative_lp(params, V, m, grid)
    ball0 = ball_from_volume(params, m * V)
    alpha, _, _, ell = _grid_nodes(ball0, grid)
    dense = _dense(lp)
    rows = {
        label: dense[i, 1:].reshape(ell.size, alpha.size, alpha.size)
        for i, label in enumerate(lp.row_labels) if label.startswith("marginal-")
    }
    return lp, ball0, alpha, rows


@pytest.mark.parametrize("n, kappa, m, V", ROW_CASES)
def test_profile_rows_are_additive_in_the_angles(n, kappa, m, V):
    # row marginal-<i> is the additive profile -(h(a) + h(b))/2 of h = e_i at every
    # chord length, capped by B0's mass at alpha_i over m
    params = ModelParams(n, kappa)
    lp, ball0, alpha, rows = _marginal_rows(params, V, m, GridSpec(12, 6))
    assert list(rows) == [f"marginal-{i}" for i in range(alpha.size)]
    assert np.all(np.diff(alpha) > 0.0)
    atoms = discretize_ball_measure(ball0, alpha.size)
    mass = atoms.mass[np.argsort(atoms.alpha)]
    for i, (label, row) in enumerate(rows.items()):
        h = np.eye(alpha.size)[i]
        expect = -0.5 * (h[:, None] + h[None, :])
        assert np.array_equal(row, np.broadcast_to(expect, row.shape)), label
        assert lp.rhs[lp.row_labels.index(label)] == -mass[i] / m


def _reference_rows(params, V, m, grid):
    """The LP's labels and rows as a dense matrix, evaluated point by point on the full mesh."""
    ball0 = ball_from_volume(params, m * V)
    alpha, _, _, ell = _grid_nodes(ball0, grid)
    marginals = [np.tile(-0.5 * (h[:, None] + h[None, :]).ravel(), ell.size) for h in np.eye(alpha.size)]
    atoms = np.vstack([_meshgrid_rows(params, ball0, grid), *marginals])
    first = np.zeros((atoms.shape[0], 1))
    first[:2, 0] = ball0.area, m * V
    labels = ("area-vs-F1", "volume-vs-F2", "F3-cap", "total-length", *(f"marginal-{i}" for i in range(alpha.size)))
    return labels, np.hstack([first, atoms])


def _block_prices(R, y):
    """y @ R gathered from lpcore._prices, whose blocks must tile the columns in order."""
    prices, end = np.empty(R.shape[1]), 0
    for lo, block in lpcore._prices(R, y):
        assert lo == end and block.size > 0
        prices[lo : lo + block.size] = block
        end = lo + block.size
    assert end == R.shape[1]
    return prices


@pytest.mark.parametrize("n, kappa, m, V", ROW_CASES)
def test_separable_rows_match_the_dense_rows(n, kappa, m, V):
    # every operation the simplex and the acceptance test read of the rows, against
    # the dense rows built without the LP's factors
    params, grid = ModelParams(n, kappa), GridSpec(12, 6)
    lp = build_relative_lp(params, V, m, grid)
    labels, D = _reference_rows(params, V, m, grid)
    R, every = lp.row_matrix, np.arange(D.shape[1])
    assert lp.row_labels == labels and R.shape == D.shape
    # the column gather, by index array and by single index; abs and negation are exact
    assert_allclose(R[:, every], D, rtol=1e-12, atol=0.0)
    for j in (0, 1, D.shape[1] - 1):
        assert_allclose(R[:, j], D[:, j], rtol=1e-12, atol=0.0)
    assert_allclose(abs(R)[:, every], np.abs(D), rtol=1e-12, atol=0.0)
    assert_allclose((-R)[:, every], -D, rtol=1e-12, atol=0.0)
    # y @ R in the pricing blocks: each row alone, then a positive combination
    # against the magnitude of its terms
    for i, e in enumerate(np.eye(R.shape[0])):
        assert_allclose(_block_prices(R, e), D[i], rtol=1e-12, atol=0.0)
    y = np.random.default_rng(n).uniform(0.1, 1.0, R.shape[0])
    assert np.all(np.abs(_block_prices(R, y) - y @ D) <= 1e-12 * (y @ np.abs(D)))


# the eight cases of the cone-LP prototype in ROADMAP item 1
SOLVE_CASES = [
    (4, 1.0, 0.8), (4, 0.0, 1.0), (2, 1.0, 0.8), (2, 0.0, 1.0),
    (4, -1.0, 0.8), (2, -1.0, 0.8), (3, 1.0, 0.8), (3, 0.0, 1.0),
]


@pytest.mark.parametrize("n, kappa, r", SOLVE_CASES)
def test_solve_on_separable_rows_matches_the_dense_materialization(n, kappa, r):
    params = ModelParams(n, kappa)
    lp = build_relative_lp(params, ball_from_radius(params, r).volume, 1, GridSpec(40, 20))
    sol = solve(lp)
    ref = solve(LinearProgram(lp.objective, _dense(lp), lp.rhs, lp.row_labels))
    assert sol.status == ref.status == "optimal"
    assert abs(sol.objective_value - ref.objective_value) <= lpcore.SOLVER_TOL * abs(ref.objective_value)


@pytest.mark.parametrize("n, kappa, r", [(4, 1.0, 0.8), (2, 0.0, 1.0)])
def test_grid_lp_build_and_solve_stay_small(n, kappa, r):
    # stored densely, the 80x40 rows alone take 9 x 128,001 x 8 B = 9.2 MB, and the
    # solver kept three such copies; the factored rows and their pricing buffer do not
    params = ModelParams(n, kappa)
    V = ball_from_radius(params, r).volume
    tracemalloc.start()
    try:
        sol = solve(build_relative_lp(params, V, 1, GridSpec(80, 40)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < 8e6


def test_grid_lp_solve_holds_no_array_over_all_columns():
    # the built 80x40 LP has n = 128,001 columns; solve returns the primal's support
    # alone, and its pricing and acceptance test hold blocks of at most 2^15 columns
    params = ModelParams(4, 1.0)
    lp = build_relative_lp(params, ball_from_radius(params, 0.8).volume, 1, GridSpec(80, 40))
    tracemalloc.start()
    try:
        sol = solve(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < 8 * lp.n_vars


def test_grid_lp_build_holds_no_array_over_all_columns():
    # the objective is a one-row SeparableRows, so the build's largest array is the
    # pair factor, (4 + n_alpha) x n_alpha^2 floats, not one float per column
    params = ModelParams(4, 1.0)
    V = ball_from_radius(params, 0.8).volume
    tracemalloc.start()
    try:
        lp = build_relative_lp(params, V, 1, GridSpec(80, 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * lp.n_vars
    assert abs(lp.row_matrix).pair_factor is lp.row_matrix.pair_factor
    assert np.all(lp.row_matrix.pair_factor >= 0.0)


def _simplex(c, A_ub, b_ub, start=None):
    return lpcore.linprog(c=c, A_ub=A_ub, b_ub=b_ub, tol=lpcore.SOLVER_TOL, start=start)


def _assert_same_path(res, ref):
    assert (res.status, res.nit) == (ref.status, ref.nit)
    assert res.support.tobytes() == ref.support.tobytes() and res.x.tobytes() == ref.x.tobytes()
    assert res.marginals.tobytes() == ref.marginals.tobytes()
    assert res.fun.hex() == ref.fun.hex()


@pytest.mark.parametrize("degenerate_run", [lpcore._DEGENERATE_RUN, 0], ids=["dantzig", "bland"])
@pytest.mark.parametrize("seed", range(3))
def test_pricing_blocks_keep_the_dense_simplex_path(monkeypatch, degenerate_run, seed):
    monkeypatch.setattr(lpcore, "_DEGENERATE_RUN", degenerate_run)
    lp = _random_lp_with_decoys(6, seed)
    args = (lp.objective, -lp.row_matrix, -lp.rhs)
    monkeypatch.setattr(lpcore, "_BLOCK", lp.n_vars)
    ref = _simplex(*args)
    monkeypatch.setattr(lpcore, "_BLOCK", 97)
    assert ref.status == "optimal" and ref.nit > 0
    _assert_same_path(_simplex(*args), ref)


@pytest.mark.parametrize("run", [1, 3])
def test_pricing_blocks_keep_the_grid_simplex_path(monkeypatch, run):
    # runs of `run` chord lengths (1,600 columns each) against one run over all of them
    params = ModelParams(4, 1.0)
    lp = build_relative_lp(params, ball_from_radius(params, 0.8).volume, 1, GridSpec(80, 40))
    args = (lp.objective, -lp.row_matrix, -lp.rhs, lp.start)
    monkeypatch.setattr(lpcore, "_BLOCK", lp.n_vars)
    ref = _simplex(*args)
    monkeypatch.setattr(lpcore, "_BLOCK", run * 40 * 40 + 7)
    assert ref.status == "optimal"
    _assert_same_path(_simplex(*args), ref)


@pytest.mark.parametrize("block", [3, 6])
def test_dantzig_tie_across_blocks_takes_the_first_column(monkeypatch, block):
    # columns 2 and 3 tie at reduced cost -1, in different blocks when block = 3
    monkeypatch.setattr(lpcore, "_BLOCK", block)
    res = _simplex(np.array([0.0, 0.0, -1.0, -1.0, 0.0, 0.0]), np.ones((1, 6)), np.ones(1))
    assert res.status == "optimal" and res.nit == 1
    assert (res.support.tolist(), res.x.tolist()) == ([2], [1.0])


@pytest.mark.parametrize("block", [3, 6])
def test_bland_takes_the_first_negative_column_in_a_later_block(monkeypatch, block):
    # the first block prices nonnegative; Bland enters column 4 and then 5, where Dantzig enters 5 at once
    monkeypatch.setattr(lpcore, "_BLOCK", block)
    c, A_ub, b_ub = np.array([1.0, 1.0, 1.0, 0.0, -1.0, -2.0]), np.ones((1, 6)), np.ones(1)
    assert _simplex(c, A_ub, b_ub).nit == 1
    monkeypatch.setattr(lpcore, "_DEGENERATE_RUN", 0)
    res = _simplex(c, A_ub, b_ub)
    assert res.status == "optimal" and res.nit == 2
    assert (res.support.tolist(), res.x.tolist()) == ([5], [1.0])


def _certificate_dual(params, V, m, grid):
    """The LP, B0, h and the dual point lambda * (a, b, c, d, h) of the paper certificate.

    h is the certificate's f on the diagonal at the angle nodes, and lambda
    scales column 0's dual row, a * area(B0) + b * m * V <= 1, to equality.
    """
    lp = build_relative_lp(params, V, m, grid)
    ball0 = ball_from_volume(params, m * V)
    alpha = _grid_nodes(ball0, grid)[0]
    cert = certificate.paper_certificate(params, ball0.radius)
    h, _ = certificate.build_f(cert, alpha, alpha)
    a, b, c, d = cert.coefficients
    return lp, ball0, h, np.concatenate([(a, b, c, d), h]) / (a * ball0.area + b * m * V)


@pytest.mark.parametrize("n, kappa, m, V", [case for case in ROW_CASES if case[2] == 1])
def test_certificate_profile_is_the_sup_on_the_diagonal(n, kappa, m, V):
    # on the diagonal the sup over chord length sits on the curve; with h = f(a, a)
    # the certificate meets every atom's dual row, d F4 - a F1 - b F2 - c F3 <=
    # (h(a) + h(b))/2, so for kappa >= 0, where a, b, c, d >= 0, it is a dual point
    params = ModelParams(n, kappa)
    grid = GridSpec(12, 6)
    lp, ball0, h, y = _certificate_dual(params, V, m, grid)
    alpha, curve, _, _ = _grid_nodes(ball0, grid)
    cert = certificate.paper_certificate(params, ball0.radius)
    assert np.all(h >= 0.0)
    assert_allclose(h, certificate.sup_integrand(cert, curve, alpha, alpha), rtol=1e-12, atol=0.0)
    dense = _dense(lp)
    assert y @ dense[:, 0] == pytest.approx(1.0, rel=1e-15)
    eps = np.finfo(float).eps
    assert np.all(y @ dense[:, 1:] <= 8 * eps * (np.abs(y) @ np.abs(dense[:, 1:])))
    assert np.all(y >= 0.0) == (kappa >= 0.0)


@pytest.mark.parametrize("n, kappa, m, V", [case for case in ROW_CASES if case[0] in (2, 4)])
def test_certificate_profile_rhs_is_the_diagonal_quadrature(n, kappa, m, V):
    # the marginal rhs weight h by B0's masses, so the certificate's dual value
    # is the closed form area(B0)/m up to the 40-node quadrature of f(a, a)
    params = ModelParams(n, kappa)
    lp, _, _, y = _certificate_dual(params, V, m, GridSpec(80, 40))
    assert_allclose(lp.rhs @ y, relative_bound(RelativeCase(params, m, V)), rtol=1e-13)


def test_lp_assembly_runs_no_sup(monkeypatch):
    def no_sup(*args, **kwargs):
        raise AssertionError("the LP must not take the sup over chord length")

    monkeypatch.setattr(certificate, "build_f", no_sup)
    params = ModelParams(4, 1.0)
    lp = build_relative_lp(params, ball_from_radius(params, 0.8).volume, 1, GridSpec(12, 6))
    assert lp.row_labels[4:] == tuple(f"marginal-{i}" for i in range(6))
    # lpcore reads no certificate: the LP finds its dual f itself
    assert not {"certificate", "paper_certificate", "sup_integrand", "ball_moments"} & set(vars(lpcore))


@pytest.mark.parametrize("grid", [GridSpec(40, 20), GridSpec(80, 40)], ids=["40x20", "80x40"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kappa, V", [(0.0, 1.0), (1.0, 0.4)])
@pytest.mark.parametrize("n", [2, 4])
def test_table2_rescaled_optimum_is_the_relative_bound(n, kappa, V, m, grid):
    # the quotient LP's rows, right-hand sides divided by m included, meet area(B0)/m
    params = ModelParams(n, kappa)
    sol = solve(build_relative_lp(params, V, m, grid))
    assert sol.status == "optimal"
    assert_allclose(sol.objective_value, relative_bound(RelativeCase(params, m, V)), rtol=1e-8)


# ROADMAP item 1's ten cases: (n, kappa, r) -> relative error of the 80x40 optimum
# against the ball's area, None where it is the area to rounding (within 1e-12);
# no certificate is supplied, so at n = 3, 5, 6 and kappa < 0 the gap is the method's
ITEM_1_PINS = {
    (4, 1.0, 0.8): None, (4, 0.0, 1.0): None, (2, 1.0, 0.8): None, (2, 0.0, 1.0): None,
    (3, 1.0, 0.8): -1.05e-3, (3, 0.0, 1.0): -8.01e-3, (5, 0.0, 1.0): -8.57e-2,
    (2, -1.0, 0.8): -1.67e-2, (4, -1.0, 0.8): -0.151, (6, 0.0, 1.0): -0.279,
}


def _relative_error(n, kappa, r, grid):
    params = ModelParams(n, kappa)
    ball = ball_from_radius(params, r)
    sol = solve(build_relative_lp(params, ball.volume, 1, grid))
    assert sol.status == "optimal"
    return (sol.objective_value - ball.area) / ball.area


@pytest.mark.parametrize("n, kappa, r", ITEM_1_PINS)
def test_cone_lp_optimum_at_80x40(n, kappa, r):
    err, pin = _relative_error(n, kappa, r, GridSpec(80, 40)), ITEM_1_PINS[n, kappa, r]
    if pin is None:
        assert abs(err) <= 1e-12
    else:  # three significant digits
        assert err == pytest.approx(pin, abs=0.005 * 10.0 ** math.floor(math.log10(abs(pin))))


def test_cone_lp_is_loose_on_a_coarse_grid():
    # at 12x6 the 6-node quadrature puts the ball's own measure 3.6 % off rows 1-3
    assert _relative_error(4, 1.0, 0.8, GridSpec(12, 6)) == pytest.approx(3.57e-2, abs=5e-5)


@pytest.mark.parametrize("n, kappa, r", ITEM_1_PINS)
def test_start_at_the_ball_reaches_the_cold_optimum(n, kappa, r):
    params = ModelParams(n, kappa)
    lp = build_relative_lp(params, ball_from_radius(params, r).volume, 1, GridSpec(40, 20))
    warm, cold = solve(lp), solve(dataclasses.replace(lp, start=None))
    assert warm.status == cold.status == "optimal"
    assert abs(warm.objective_value - cold.objective_value) <= 1e-12 * abs(cold.objective_value)


def test_start_at_the_ball_keeps_the_pivots_few(monkeypatch):
    # the benchmark's two 80x40 LPs take 47 and 28 pivots from B0's chord curve,
    # and 351 and 298 from the slack basis
    pivots = []
    simplex = lpcore.linprog

    def counting(*args, **kwargs):
        res = simplex(*args, **kwargs)
        pivots.append(res.nit)
        return res

    monkeypatch.setattr(lpcore, "linprog", counting)
    for n, kappa, r in ((4, 1.0, 0.8), (2, 0.0, 1.0)):
        assert abs(_relative_error(n, kappa, r, GridSpec(80, 40))) <= 1e-12
    assert len(pivots) == 2 and max(pivots) <= 100, pivots
