"""Finite linear programs for isoperimetric lower bounds.

The programs minimize a scalar area variable A over nonnegative variables
(A, mu_1, ..., mu_K), where mu_k is the mass placed on a candidate chord
atom (ell_i, alpha_j, beta_k).  Constraints say that the atom masses, viewed
as a chord measure, are compatible with boundary area A and enclosed volume
V; minimizing A then gives a lower bound for the area of any region of
volume V, and the model ball should be optimal.

All rows are written as row . x >= rhs.  Every atom row is separable: a
function of ell times a function of (alpha, beta).  Assembly evaluates the
candle functions once per chord length and each family function once per
angle pair, then fills the rows by broadcasting.

The solver is column generation over the atom grid (Gilmore & Gomory 1961).
HiGHS solves a restricted master program on a working set of columns;
every column of the grid is then priced with one vectorized c - A^T y, and
the most negative ones join the working set.  Phase 1 minimizes the summed
row shortfall, so infeasibility is decided over the whole grid; phase 2
minimizes the objective.  Pricing stops when no column outside the working
set has a reduced cost below the solver's dual feasibility tolerance, a
test stricter than the dual acceptance test.  The acceptance test (primal,
dual, gap and complementary-slackness residuals) then runs on the full
row matrix.  What is certified is the grid LP: every grid column is priced
and checked, but chords off the grid are not.  The grid restricts the
primal, so its optimum is evidence for the bound, not a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chordmeasure import gauss_legendre
from .spaceform import (
    ModelParams,
    ball_from_volume,
    candle,
    candle_anti,
    candle_anti2,
    chord_T_inverse,
    delta_weight,
    sphere_volume,
)

__all__ = [
    "LinearProgram",
    "LPSolution",
    "GridSpec",
    "solve",
    "build_isoperimetric_lp",
    "build_relative_lp",
    "product_family",
    "diagonal_profile_integral",
]


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first solve.

    scipy is loaded only by the code paths that call it; `solve` looks this
    name up at call time, so a rebinding of `lpcore.linprog` takes effect.
    """
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  row_matrix . x >= rhs,  x >= 0."""

    objective: np.ndarray
    row_matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "row_matrix", np.asarray(self.row_matrix, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        m, n = self.row_matrix.shape
        if self.objective.shape != (n,):
            raise ValueError(f"objective length {self.objective.shape} does not match {n} variables")
        if self.rhs.shape != (m,):
            raise ValueError(f"rhs length {self.rhs.shape} does not match {m} rows")
        if len(self.row_labels) != m:
            raise ValueError(f"{len(self.row_labels)} labels for {m} rows")

    @property
    def n_vars(self) -> int:
        return self.row_matrix.shape[1]

    @property
    def n_rows(self) -> int:
        return self.row_matrix.shape[0]


@dataclass
class LPSolution:
    """Solver output plus independently recomputed residuals."""

    status: str  # optimal | infeasible | unbounded | tolerance-failure
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective_value: float | None
    primal_residual: float
    dual_residual: float
    duality_gap: float
    cs_residual: float
    pricing_rounds: int = 0  # full pricings of the column grid


# columns that join the working set per pricing round; an LP with at most
# twice as many columns is solved on all of them from the first round
_BATCH = 64

# HiGHS statuses that describe the LP rather than the solve
_HIGHS_STATUS = {2: "infeasible", 3: "unbounded"}


def _violation(*arrays) -> float:
    """Largest amount by which an entry falls below zero; 0.0, never -0.0, when none does."""
    return max(0.0, *(float(np.max(-a, initial=0.0)) for a in arrays))


def _residuals(lp: LinearProgram, x: np.ndarray, y: np.ndarray):
    slack = lp.row_matrix @ x - lp.rhs
    reduced = lp.objective - lp.row_matrix.T @ y
    gap = float(lp.objective @ x - lp.rhs @ y)
    cs = max(
        float(np.max(np.abs(y * slack), initial=0.0)),
        float(np.max(np.abs(x * reduced), initial=0.0)),
    )
    return _violation(slack, x), _violation(reduced, y), gap, cs


def _primal_tol(lp: LinearProgram, abs_matrix: np.ndarray, x: np.ndarray, tol: float) -> float:
    """Accepted primal residual at x: tol times the magnitude of the row arithmetic."""
    return tol * (
        1.0
        + float(np.max(np.abs(lp.rhs), initial=0.0))
        + float(np.max(abs_matrix @ np.abs(x), initial=0.0))
    )


def _feasible(lp: LinearProgram, abs_matrix: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """The primal half of the acceptance test."""
    return _violation(lp.row_matrix @ x - lp.rhs, x) <= _primal_tol(lp, abs_matrix, x, tol)


def _most_negative(values: np.ndarray, k: int) -> np.ndarray:
    if values.size <= k:
        return np.arange(values.size)
    return np.argpartition(values, k)[:k]


def _first_columns(lp: LinearProgram) -> np.ndarray:
    """All columns of a small LP; else each phase's first pricing from an empty working set.

    With no columns, phase 1 has dual 1 on the rows that x = 0 violates and
    phase 2 has dual 0, so the two pricings are -A^T [rhs > 0] and the cost.
    """
    if lp.n_vars <= 2 * _BATCH:
        return np.arange(lp.n_vars)
    shortfall = (lp.rhs > 0.0).astype(float) @ lp.row_matrix
    return np.union1d(_most_negative(-shortfall, _BATCH), _most_negative(lp.objective, _BATCH))


def _full(values: np.ndarray, work: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[work] = values[: work.size]
    return out


def _generate(lp: LinearProgram, abs_matrix: np.ndarray, cost: np.ndarray, work: np.ndarray, tol: float, phase1: bool):
    """Column generation for min cost . x; returns (last HiGHS result, working set, pricing rounds).

    Phase 1 gives every row an artificial shortfall variable of cost 1 and
    ends as soon as the working set holds a point that passes the primal
    acceptance test.  After each restricted solve every column is priced
    with one c - A^T y, and up to _BATCH of the most negative join the
    working set if their reduced cost is below -solver_tol: outside columns
    are held to the dual feasibility tolerance HiGHS meets inside.  As
    solver_tol <= tol <= the dual acceptance threshold, pricing stops only
    where the dual acceptance test passes on every outside column.
    """
    solver_tol = min(tol, 1e-7)
    rounds = 0
    while True:
        columns = lp.row_matrix[:, work]
        c = cost[work]
        if phase1:
            columns = np.hstack([columns, np.eye(lp.n_rows)])
            c = np.concatenate([c, np.ones(lp.n_rows)])
        res = linprog(
            c=c,
            A_ub=-columns,
            b_ub=-lp.rhs,
            bounds=(0.0, None),
            method="highs",
            options={
                "primal_feasibility_tolerance": solver_tol,
                "dual_feasibility_tolerance": solver_tol,
            },
        )
        if res.status != 0:
            return res, work, rounds
        if phase1 and _feasible(lp, abs_matrix, _full(res.x, work, lp.n_vars), tol):
            return res, work, rounds
        rounds += 1
        y = -np.asarray(res.ineqlin.marginals, dtype=float)
        reduced = cost - lp.row_matrix.T @ y
        reduced[work] = np.inf
        new = _most_negative(reduced, _BATCH)
        new = new[reduced[new] < -solver_tol]
        if new.size == 0:
            return res, work, rounds
        work = np.union1d(work, new)


def _no_solution(status: str, rounds: int) -> LPSolution:
    return LPSolution(status, None, None, None, math.inf, math.inf, math.inf, math.inf, rounds)


def solve(lp: LinearProgram, tol: float = 1e-7) -> LPSolution:
    """Solve the LP; statuses: optimal, infeasible, unbounded, tolerance-failure.

    tol bounds the accepted feasibility/stationarity residuals, each taken
    relative to the magnitude of the arithmetic that produced it.  The
    default matches the solver's own accuracy contract; the solver is asked
    for at least that accuracy.  Column generation works on a subset of the
    columns, but the acceptance test runs on the full row matrix.
    """
    if not (0.0 < tol <= 1e-3):
        raise ValueError(f"tol must lie in (0, 1e-3], got {tol!r}")
    n = lp.n_vars
    abs_matrix = np.abs(lp.row_matrix)
    res, work, rounds = _generate(lp, abs_matrix, np.zeros(n), _first_columns(lp), tol, phase1=True)
    if res.status == 0:
        if not _feasible(lp, abs_matrix, _full(res.x, work, n), tol):
            return _no_solution("infeasible", rounds)
        res, work, phase2_rounds = _generate(lp, abs_matrix, lp.objective, work, tol, phase1=False)
        rounds += phase2_rounds
    if res.status != 0:
        return _no_solution(_HIGHS_STATUS.get(res.status, "tolerance-failure"), rounds)

    x = _full(res.x, work, n)
    y = -np.asarray(res.ineqlin.marginals, dtype=float)
    primal_res, dual_res, gap, cs = _residuals(lp, x, y)
    # each residual is judged against the magnitude of the arithmetic that
    # produced it; the rhs alone undersells rows whose matrix entries are large
    primal_tol = _primal_tol(lp, abs_matrix, x, tol)
    dual_tol = tol * (
        1.0
        + float(np.max(np.abs(lp.objective), initial=0.0))
        + float(np.max(abs_matrix.T @ np.abs(y), initial=0.0))
    )
    gap_scale = 1.0 + abs(float(lp.objective @ x)) + abs(float(lp.rhs @ y))
    ok = (
        primal_res <= primal_tol
        and dual_res <= dual_tol
        and abs(gap) <= tol * gap_scale
        and cs <= max(primal_tol, dual_tol)
    )
    return LPSolution(
        "optimal" if ok else "tolerance-failure",
        x,
        y,
        float(res.fun),
        primal_res,
        dual_res,
        gap,
        cs,
        rounds,
    )


@dataclass(frozen=True)
class GridSpec:
    """Atom grid: n_ell chord lengths x n_alpha x n_alpha boundary angles.

    The ell list includes the image of each angle node under the ball's
    chord curve (these atoms let the discrete program reproduce the ball
    measure), padded by uniform nodes up to n_ell.
    """

    n_ell: int = 40
    n_alpha: int = 20

    def __post_init__(self) -> None:
        if self.n_alpha < 2:
            raise ValueError("need at least 2 angle nodes")
        if self.n_ell < self.n_alpha:
            raise ValueError("n_ell must cover at least the curve nodes")


def product_family():
    """Test functions f(alpha, beta) = (cos a cos b)^gamma, gamma in {0.5, 1, 1.5, 2}; all are admissible."""
    fam = []
    for g in (0.5, 1.0, 1.5, 2.0):
        def f(alpha, beta, _g=g):
            return (np.cos(alpha) * np.cos(beta)) ** _g
        fam.append((f"pow{g:g}", f))
    return fam


def diagonal_profile_integral(f, n: int) -> float:
    """integral over [0, pi/2] of f(alpha, alpha) * delta_weight(n, alpha), 200-node Gauss-Legendre."""
    alpha, w = gauss_legendre(0.0, math.pi / 2.0, 200)
    return float(np.dot(w, np.asarray(f(alpha, alpha)) * delta_weight(n, alpha)))


def _grid_nodes(params: ModelParams, r_curve: float, grid: GridSpec):
    """Angle nodes and ell nodes (curve-aligned); the atoms are their product."""
    m = grid.n_alpha
    alpha = (np.arange(1, m + 1) / (m + 1)) * (math.pi / 2.0)
    lmax = 2.0 * r_curve
    if params.kappa > 0.0:
        lmax = min(lmax, math.pi / math.sqrt(params.kappa))
    n_fill = grid.n_ell - m
    fill = (np.arange(1, n_fill + 1) / (n_fill + 1)) * lmax
    return alpha, np.unique(np.concatenate([chord_T_inverse(params.kappa, r_curve, np.cos(alpha)), fill]))


def _assemble(
    params: ModelParams,
    area_coeff: float,
    vol_coeff: float,
    rhs_c: float,
    rhs_d: float,
    f_rhs_scale: float,
    r_curve: float,
    grid: GridSpec,
    f_family,
) -> LinearProgram:
    """Rows over the atoms (ell, alpha, beta) in C order, after the area column.

    Every atom row is a function of ell times a function of (alpha, beta),
    so each factor is evaluated once and the rows are filled by broadcasting.
    """
    alpha, ell = _grid_nodes(params, r_curve, grid)
    sec = 1.0 / np.cos(alpha)
    sec_a, sec_b = sec[:, None], sec[None, :]
    A_, B_ = np.meshgrid(alpha, alpha, indexing="ij")

    labels = ("area-vs-F1", "volume-vs-F2", "F3-cap", "total-length") + tuple(
        f"profile-{name}" for name, _ in f_family
    )
    row_matrix = np.zeros((len(labels), 1 + ell.size * alpha.size ** 2))
    row_matrix[0, 0] = area_coeff
    row_matrix[1, 0] = vol_coeff
    # splitting the column axis keeps a view, so writes land in row_matrix
    atoms = row_matrix[:, 1:].reshape(len(labels), ell.size, alpha.size, alpha.size)
    atoms[0] = -(np.asarray(candle(params, ell))[:, None, None] * sec_a * sec_b)
    atoms[1] = -(np.asarray(candle_anti(params, ell))[:, None, None] / 2.0 * (sec_a + sec_b))
    atoms[2] = -np.asarray(candle_anti2(params, ell))[:, None, None]
    atoms[3] = ell[:, None, None]
    rhs = [0.0, 0.0, rhs_c, rhs_d]
    for row, (_, f) in enumerate(f_family, start=4):
        atoms[row] = -np.asarray(f(A_, B_), dtype=float)
        rhs.append(-f_rhs_scale * diagonal_profile_integral(f, params.n))

    objective = np.zeros(row_matrix.shape[1])
    objective[0] = 1.0
    return LinearProgram(objective, row_matrix, np.asarray(rhs), labels)


def build_isoperimetric_lp(
    params: ModelParams, V: float, grid: GridSpec, f_family
) -> LinearProgram:
    """LP whose optimum should match the area of the model ball of volume V.

    Variables: A followed by one mass per atom.  Rows:
      A*area_B  >= integral F1      (boundary-boundary visibility)
      A*V       >= integral F2      (boundary-interior visibility)
      V^2       >= integral F3      (interior-interior visibility)
      integral ell >= omega_{n-1} V (total chord length)
      integral f <= area_B * diagonal profile of f, per admissible f
    """
    ball = ball_from_volume(params, V)
    omega = sphere_volume(params.n - 1)
    return _assemble(
        params,
        area_coeff=ball.area,
        vol_coeff=V,
        rhs_c=-V * V,
        rhs_d=omega * V,
        f_rhs_scale=ball.area,
        r_curve=ball.radius,
        grid=grid,
        f_family=f_family,
    )


def build_relative_lp(
    params: ModelParams,
    V: float,
    m: int,
    grid: GridSpec,
    f_family,
    variant: str = "rescaled",
) -> LinearProgram:
    """Quotient (multiplicity m) version of the isoperimetric LP.

    The reference object is the ball B0 of volume m*V divided by a free
    m-fold symmetry; its boundary-area share is area(B0)/m and its chord
    measure is the ball's scaled by 1/m.  variant="rescaled" uses the row
    scaling under which that object is feasible with equality everywhere
    (rhs m*V^2 on the F3 row, omega_{n-1}*V on the length row);
    variant="printed" keeps the alternative printed scaling
    (omega_{n-1}*m*V^2 and bare V) for comparison.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    if variant not in ("rescaled", "printed"):
        raise ValueError(f"variant must be 'rescaled' or 'printed', got {variant!r}")
    ball0 = ball_from_volume(params, m * V)
    omega = sphere_volume(params.n - 1)
    a_rel = ball0.area / m
    if variant == "rescaled":
        rhs_c = -m * V * V
        rhs_d = omega * V
    else:
        rhs_c = -omega * m * V * V
        rhs_d = V
    return _assemble(
        params,
        area_coeff=m * a_rel,
        vol_coeff=m * V,
        rhs_c=rhs_c,
        rhs_d=rhs_d,
        f_rhs_scale=a_rel,
        r_curve=ball0.radius,
        grid=grid,
        f_family=f_family,
    )
