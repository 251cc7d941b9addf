"""Finite linear programs for isoperimetric lower bounds.

The programs minimize a scalar area variable A over nonnegative variables
(A, mu_1, ..., mu_K), where mu_k is the mass placed on a candidate chord
atom (ell_i, alpha_j, beta_k).  Constraints say that the atom masses, viewed
as a chord measure, are compatible with boundary area A and enclosed volume
V; minimizing A then gives a lower bound for the area of any region of
volume V, and the model ball should be optimal.

All rows are written as row . x >= rhs.  Every atom row is separable: a
function of ell times a function of (alpha, beta).  Besides the rows of
F1..F4, one row per angle node caps the angle marginal by the ball's: the
unit profiles h = e_i generate the admissible cone, so the LP finds its
dual diagonal h itself, given no certificate.  The grid LP keeps its rows
as these factors (SeparableRows): the candle functions once per chord
length and each angle factor once per angle pair, never the m x K matrix.

The solver is a two-phase revised simplex over every grid column.  It
reads the row matrix only through its shape, the column gather A[:, j],
abs(A), -A and y @ A in blocks of at most _BLOCK columns (_prices), so the
tests' dense LPs and the grid LP take one code path.  With 4 + n_alpha
rows, the basis is small enough to solve afresh at every pivot; on
separable rows a block is a (k x m)(m x n_alpha^2) product over k chord
lengths, and no array spans all columns.  This is the full pricing that
Gilmore & Gomory's (1961) column generation performs, without a restricted
master program.  The grid LP starts at the ball's chord curve, and phase 1
puts artificials only on the rows that the start violates, so
infeasibility is decided over the whole grid.  The acceptance test
(primal, dual, gap and complementary-slackness residuals) of the basic
solution runs over every column of the row matrix.  What is certified is
the grid LP: chords off the grid are not priced.  The grid restricts the
primal, so its optimum is evidence for the bound, not a lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chordmeasure import chord_functional_factors, discretize_ball_measure
from .spaceform import (
    BallGeometry,
    ModelParams,
    ball_from_volume,
    sphere_volume,
)

__all__ = [
    "SOLVER_TOL",
    "LinearProgram",
    "SeparableRows",
    "LPSolution",
    "GridSpec",
    "solve",
    "build_relative_lp",
]


class SeparableRows:
    """m rows over 1 + n_ell * n_pair columns, kept as their factors.

    Column 0 is `first`; column 1 + l * n_pair + p holds
    ell_factor[:, l] * pair_factor[:, p], where pair_factor >= 0: a row's
    sign sits in its ell factor.  It provides what the simplex and the
    acceptance test read of a row matrix, as a dense ndarray does: .shape,
    the column gather R[:, j] for an index or an index array, abs(R) and -R;
    _prices forms y @ R a run of ell-rows at a time.  abs and -R share
    pair_factor; abs is exact, because |g * phi| = |g| * phi in floating
    point for phi >= 0.
    """

    def __init__(self, first, ell_factor, pair_factor):
        self.first, self.ell_factor, self.pair_factor = first, ell_factor, pair_factor
        m, n_ell = ell_factor.shape
        self.shape = (m, 1 + n_ell * pair_factor.shape[1])

    def __neg__(self) -> "SeparableRows":
        return SeparableRows(-self.first, -self.ell_factor, self.pair_factor)

    def __abs__(self) -> "SeparableRows":
        return SeparableRows(np.abs(self.first), np.abs(self.ell_factor), self.pair_factor)

    def __getitem__(self, key) -> np.ndarray:
        rows, j = key
        if rows != slice(None):
            raise IndexError("SeparableRows gathers whole columns only")
        j = np.asarray(j)
        # column 0 maps to a valid factor index here and is replaced by `first`
        ell, pair = np.divmod(j - 1, self.pair_factor.shape[1])
        first = self.first.reshape(-1, *(1,) * j.ndim)
        return np.where(j == 0, first, self.ell_factor[:, ell] * self.pair_factor[:, pair])


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  row_matrix . x >= rhs,  x >= 0.

    row_matrix is a dense array or, for the grid LP, SeparableRows; objective
    is one row over the same columns, an array (stored with shape (1, n)) or,
    for the grid LP, SeparableRows.  start, the first basis, holds j < n for
    x_j and n + i for row i's surplus (None: all surpluses).
    """

    objective: np.ndarray | SeparableRows
    row_matrix: np.ndarray | SeparableRows
    rhs: np.ndarray
    row_labels: tuple[str, ...]
    start: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", _one_row(self.objective))
        if not isinstance(self.row_matrix, SeparableRows):
            object.__setattr__(self, "row_matrix", np.asarray(self.row_matrix, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        m, n = self.row_matrix.shape
        if self.objective.shape != (1, n):
            raise ValueError(f"objective shape {self.objective.shape} is not one row over {n} variables")
        if self.rhs.shape != (m,):
            raise ValueError(f"rhs length {self.rhs.shape} does not match {m} rows")
        if len(self.row_labels) != m:
            raise ValueError(f"{len(self.row_labels)} labels for {m} rows")

    @property
    def n_vars(self) -> int:
        return self.row_matrix.shape[1]


@dataclass
class LPSolution:
    """Solver output plus independently recomputed residuals."""

    status: str  # optimal | infeasible | unbounded | tolerance-failure
    primal: tuple[np.ndarray, np.ndarray] | None  # (support, values): x's nonzero entries, ascending
    dual: np.ndarray | None
    objective_value: float | None
    primal_residual: float
    dual_residual: float
    duality_gap: float
    cs_residual: float


@dataclass(frozen=True)
class _SimplexResult:
    """What `linprog` returns: the result fields that `solve` and its tracers read."""

    status: str  # optimal | infeasible | unbounded | tolerance-failure, as in LPSolution
    nit: int  # pivots over both phases
    x: np.ndarray | None = None  # the nonzero entries of the primal, at `support`
    fun: float | None = None
    marginals: np.ndarray | None = None  # d fun / d b_ub, <= 0 at an optimum
    support: np.ndarray | None = None  # ascending column indices of x


# consecutive degenerate pivots after which Bland's rule prices and picks the
# leaving row until the objective moves again; Bland's rule cannot cycle
_DEGENERATE_RUN = 10

# pivot cap per row of the LP; reaching it is a tolerance-failure
_PIVOTS_PER_ROW = 100

# columns priced at a time, so that no pricing holds an array with one entry per column
_BLOCK = 1 << 15

# the nonzero structural costs of phase 1: none
_NO_COST = (np.zeros(0, dtype=np.intp), np.zeros(0))

# pricing and acceptance tolerance of solve, and the one `isoplp lp` reports;
# at 1e-7 the simplex stopped early enough to move grid optima by up to 1.4e-7
SOLVER_TOL = 1e-9


def _one_row(c):
    """c as a one-row matrix: SeparableRows as it is, an array reshaped to (1, n)."""
    return c if isinstance(c, SeparableRows) else np.asarray(c, dtype=float).reshape(1, -1)


def _nonzero(C):
    """The nonzero entries of the one-row matrix C, as (ascending columns, values).

    On SeparableRows only column 0 and the products of a nonzero ell factor
    and a nonzero pair factor are gathered, so the grid LP's objective costs
    one column.
    """
    if isinstance(C, SeparableRows):
        ell, pair = np.flatnonzero(C.ell_factor[0]), np.flatnonzero(C.pair_factor[0])
        columns = np.concatenate(([0], 1 + (ell[:, None] * C.pair_factor.shape[1] + pair).ravel()))
    else:
        columns = np.flatnonzero(C[0])
    values = C[:, columns][0]
    return columns[values != 0.0], values[values != 0.0]


def _cost_at(c, columns) -> np.ndarray:
    """The costs c = (columns, values) at the given columns, 0.0 where c has no entry."""
    cost = dict(zip(*(a.tolist() for a in c)))
    return np.array([cost.get(j, 0.0) for j in columns.tolist()], dtype=float)


def _reduce(c, lo, prices) -> None:
    """Overwrite the prices of the columns from lo on by their reduced costs, c - prices.

    0.0 - p, plus c_j where c = (columns, values) has an entry: the bits of
    c_j - p_j, since a - b is a + (-b), and no cost block is formed.
    """
    np.subtract(0.0, prices, out=prices)
    columns, values = c
    inside = (columns >= lo) & (columns < lo + prices.size)
    prices[columns[inside] - lo] += values[inside]


def _basis_matrix(A_ub: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Column j < n is structural, n + i the slack +e_i of row i, n + m + i its artificial -e_i."""
    m, n = A_ub.shape
    B = np.zeros((m, m))
    structural = basis < n
    B[:, structural] = A_ub[:, basis[structural]]
    logical = basis[~structural] - n
    B[logical % m, np.flatnonzero(~structural)] = np.where(logical < m, 1.0, -1.0)
    return B


def _prices(A, y):
    """Yield (lo, y @ A[:, lo:lo + k]) over A's columns in ascending blocks of k <= _BLOCK, all in one buffer.

    On SeparableRows column 0 comes alone, then runs of whole ell-rows (one
    when a row is longer), each one product of the factors; a dense A is
    cut into column slices.  Each block overwrites the one before.
    """
    n = A.shape[1]
    if not isinstance(A, SeparableRows):
        buffer = np.empty(min(n, _BLOCK))
        for lo in range(0, n, _BLOCK):
            yield lo, np.matmul(y, A[:, lo : lo + _BLOCK], out=buffer[: min(_BLOCK, n - lo)])
        return
    yield 0, np.array([y @ A.first])
    n_ell, n_pair = A.ell_factor.shape[1], A.pair_factor.shape[1]
    run = min(n_ell, max(1, _BLOCK // n_pair))
    buffer = np.empty((run, n_pair))
    for a in range(0, n_ell, run):
        ell = A.ell_factor[:, a : a + run]
        yield 1 + a * n_pair, np.matmul(ell.T * y, A.pair_factor, out=buffer[: ell.shape[1]]).reshape(-1)


def _pivot(A_ub, b_ub, c, basis, tol, budget):
    """Primal simplex from the feasible `basis`, updated in place; returns (status, pivots, x_B, duals).

    c = (columns, values) holds the nonzero structural costs; a slack costs
    0, an artificial 1.  Every pivot solves the basis afresh, so nothing
    drifts.  The structural columns are priced in _prices' blocks, then the
    slacks; artificials never enter.  Dantzig's rule picks the entering
    column, the first of ties, and the ratio test the largest pivot among
    tied rows; after _DEGENERATE_RUN degenerate pivots in a row, Bland's
    rule takes over for both.  The status is optimal, unbounded, or
    tolerance-failure at the budget.
    """
    m, n = A_ub.shape
    pivots = degenerate = 0
    while True:
        B = _basis_matrix(A_ub, basis)
        x_B = np.linalg.solve(B, b_ub)
        cost = (basis >= n + m).astype(float)
        cost[basis < n] = _cost_at(c, basis[basis < n])
        y = np.linalg.solve(B.T, cost)
        bland = degenerate >= _DEGENERATE_RUN
        basic = basis[basis < n + m]
        q, d = -1, math.inf
        for lo, reduced in itertools.chain(_prices(A_ub, y), [(n, y.copy())]):
            _reduce(c, lo, reduced)
            reduced[basic[(basic >= lo) & (basic < lo + reduced.size)] - lo] = 0.0
            k = int(np.argmax(reduced < -tol)) if bland else int(np.argmin(reduced))
            if bland and reduced[k] < -tol:
                q, d = lo + k, reduced[k]
                break
            # a strict < keeps the first of tied columns; a NaN wins, as in np.argmin
            if not bland and (reduced[k] < d or (math.isnan(reduced[k]) and not math.isnan(d))):
                q, d = lo + k, reduced[k]
        if d >= -tol:
            return "optimal", pivots, x_B, y
        if pivots == budget:
            return "tolerance-failure", pivots, x_B, y
        u = np.linalg.solve(B, A_ub[:, q] if q < n else np.eye(m)[q - n])
        rows = np.flatnonzero(u > 1e-9 * np.max(np.abs(u)))
        if rows.size == 0:
            return "unbounded", pivots, x_B, y
        # basic values at rounding level count as zero, so degenerate ties are exact
        level = np.where(x_B > 1e-12 * (1.0 + np.max(np.abs(x_B))), x_B, 0.0)
        ratio = level[rows] / u[rows]
        theta = float(np.min(ratio))
        ties = rows[ratio <= theta * (1.0 + 1e-12)]
        p = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(u[ties])]
        degenerate = degenerate + 1 if theta == 0.0 else 0
        basis[p] = q
        pivots += 1


def linprog(c, A_ub, b_ub, tol, start=None):
    """min c . x subject to A_ub x <= b_ub, x >= 0: a two-phase revised simplex.

    Keywords and the result field nit follow the usual `linprog`
    convention; x holds only the primal's nonzero entries, at the ascending
    columns `support`.  The status is the LP's own (see _SimplexResult), and
    a pivot cap or a ray in phase 1, which is bounded below by 0, is a
    tolerance-failure.  A_ub is a dense array or SeparableRows, and c a
    vector or a one-row matrix, whose nonzero entries are read once.
    `solve` passes its rows A x >= b as A_ub = -A, so a slack here is a
    surplus column -e_i of the >= form.  tol is the pricing tolerance and,
    relative to the magnitude of the row arithmetic, the phase-1 feasibility
    tolerance.  The first basis is `start`, or else the slacks; phase 1 puts
    artificials only on rows whose basic slack is below -tol, and those left
    in the basis at zero are pivoted out for slacks before phase 2.  `solve`
    looks this name up at call time, so a rebinding of `linprog` takes effect.
    """
    m, n = A_ub.shape
    c = _nonzero(_one_row(c))
    basis = n + np.arange(m) if start is None else np.array(start)
    x_B = np.linalg.solve(_basis_matrix(A_ub, basis), b_ub)
    violated = (basis >= n) & (x_B < -tol * (1.0 + np.max(np.abs(x_B))))
    basis[violated] += m
    budget = _PIVOTS_PER_ROW * (m + 1)
    nit = 0
    if violated.any():
        status, nit, x_B, _ = _pivot(A_ub, b_ub, _NO_COST, basis, tol, budget)
        if status != "optimal":
            return _SimplexResult("tolerance-failure", nit)
        used = basis < n
        columns, values = A_ub[:, basis[used]], x_B[used]
        scale = 1.0 + np.max(np.abs(b_ub)) + np.max(np.abs(columns) @ np.abs(values), initial=0.0)
        if np.max(columns @ values - b_ub) > tol * scale:
            return _SimplexResult("infeasible", nit)
        for p in np.flatnonzero(basis >= n + m):
            # row p of the basis inverse; a slack with a nonzero entry there replaces the artificial
            z = np.linalg.solve(_basis_matrix(A_ub, basis).T, np.eye(m)[p])
            z[basis[(basis >= n) & (basis < n + m)] - n] = 0.0
            basis[p] = n + int(np.argmax(np.abs(z)))
            nit += 1
    status, pivots, x_B, y = _pivot(A_ub, b_ub, c, basis, tol, budget - nit)
    nit += pivots
    if status != "optimal":
        return _SimplexResult(status, nit)
    used = basis < n
    fun = float(_cost_at(c, basis[used]) @ x_B[used])
    order = np.argsort(basis[used])
    support, x = basis[used][order], x_B[used][order]
    return _SimplexResult("optimal", nit, x[x != 0.0], fun, y, support[x != 0.0])


def _violation(*arrays) -> float:
    """Largest amount by which an entry falls below zero; 0.0, never -0.0, when none does, and nan at a nan."""
    return float(np.max([-np.min(a, initial=0.0) for a in arrays])) + 0.0


def _residuals(lp: LinearProgram, primal, y: np.ndarray):
    """Primal, dual, gap and complementary-slackness residuals of x = (support, values) and y.

    A nan anywhere in x, y or the rows makes its residual nan.
    """
    support, values = primal
    c = _nonzero(lp.objective)
    slack = lp.row_matrix[:, support] @ values - lp.rhs
    gap = float(_cost_at(c, support) @ values - lp.rhs @ y)
    dual, cs = [_violation(y)], [np.max(np.abs(y * slack), initial=0.0)]
    for lo, reduced in _prices(lp.row_matrix, y):
        _reduce(c, lo, reduced)
        dual.append(_violation(reduced))
        inside = (support >= lo) & (support < lo + reduced.size)
        cs.append(np.max(np.abs(values[inside] * reduced[support[inside] - lo]), initial=0.0))
    return _violation(slack, values), float(np.max(dual)), gap, float(np.max(cs))


def solve(lp: LinearProgram) -> LPSolution:
    """Solve the LP; statuses: optimal, infeasible, unbounded, tolerance-failure.

    The simplex `linprog` prices every column at SOLVER_TOL, read at call
    time, and returns a basic solution, exact to rounding.  SOLVER_TOL also
    bounds the accepted feasibility/stationarity residuals, each taken
    relative to the magnitude of the arithmetic that produced it, and the
    acceptance test runs over every column of the row matrix.  A primal,
    dual or residual that is not finite is a tolerance-failure.
    """
    tol = SOLVER_TOL
    res = linprog(c=lp.objective, A_ub=-lp.row_matrix, b_ub=-lp.rhs, tol=tol, start=lp.start)
    if res.status != "optimal":
        return LPSolution(res.status, None, None, None, math.inf, math.inf, math.inf, math.inf)

    support, x = res.support, res.x
    c = _nonzero(lp.objective)
    # each surplus column is priced, so y >= -tol; the rounding-level
    # negatives (and -0.0) are zeroed so the residuals describe the reported y
    y = np.maximum(-res.marginals, 0.0)
    # x, y and the residuals must be finite; the arithmetic on a nan or inf is quiet
    with np.errstate(invalid="ignore", over="ignore"):
        residuals = _residuals(lp, (support, x), y)
        # each residual is judged against the magnitude of the arithmetic that
        # produced it; the rhs alone undersells rows whose matrix entries are large
        primal_tol = tol * (
            1.0
            + float(np.max(np.abs(lp.rhs), initial=0.0))
            + float(np.max(np.abs(lp.row_matrix[:, support]) @ np.abs(x), initial=0.0))
        )
        dual_tol = tol * (
            1.0
            + float(np.max(np.abs(c[1]), initial=0.0))
            + max((float(np.max(prices)) for _, prices in _prices(abs(lp.row_matrix), np.abs(y))), default=0.0)
        )
        gap_scale = 1.0 + abs(float(_cost_at(c, support) @ x)) + abs(float(lp.rhs @ y))
    primal_res, dual_res, gap, cs = residuals
    ok = (
        all(np.isfinite(a).all() for a in (x, y, residuals))
        and primal_res <= primal_tol
        and dual_res <= dual_tol
        and abs(gap) <= tol * gap_scale
        and cs <= max(primal_tol, dual_tol)
    )
    return LPSolution("optimal" if ok else "tolerance-failure", (support, x), y, res.fun, primal_res, dual_res, gap, cs)


@dataclass(frozen=True)
class GridSpec:
    """Atom grid: n_ell chord lengths x n_alpha x n_alpha boundary angles.

    The angles are the nodes of the ball's angle rule; the ell list holds the
    image of each under the ball's chord curve (these atoms let the discrete
    program reproduce the ball measure), padded by uniform nodes up to n_ell.
    """

    n_ell: int = 40
    n_alpha: int = 20

    def __post_init__(self) -> None:
        if self.n_alpha < 2:
            raise ValueError("need at least 2 angle nodes")
        if self.n_ell < self.n_alpha:
            raise ValueError("n_ell must cover at least the curve nodes")


def _grid_nodes(ball: BallGeometry, grid: GridSpec):
    """Ascending angle nodes, their curve lengths and ball masses, and the curve lengths padded by uniform ell nodes."""
    atoms = discretize_ball_measure(ball, grid.n_alpha)
    order = np.argsort(atoms.alpha)
    lmax = min(2.0 * ball.radius, ball.params.conjugate_radius)
    n_fill = grid.n_ell - grid.n_alpha
    fill = (np.arange(1, n_fill + 1) / (n_fill + 1)) * lmax
    # sorted, then each run of equal lengths kept once: np.unique's result, without its numpy.ma import
    ell = np.sort(np.concatenate([atoms.ell, fill]))
    return atoms.alpha[order], atoms.ell[order], atoms.mass[order], ell[np.concatenate(([True], ell[1:] != ell[:-1]))]


def build_relative_lp(
    params: ModelParams,
    V: float,
    m: int,
    grid: GridSpec,
    variant: str = "rescaled",
) -> LinearProgram:
    """The chord LP of the ball B0 of volume m*V divided by a free m-fold symmetry.

    Its optimum should match area(B0)/m; at m = 1 it is the isoperimetric LP
    of the ball of volume V, with every coefficient exact.  Variables: A,
    then one mass per atom (ell, alpha, beta) in C order.  Rows 0-2 cap the
    integrals of F1..F3, and row 3 bounds the total length below.  Row
    marginal-<i>, one per angle node alpha_i in ascending order, caps the
    alpha-marginal there by D_i/m, B0's mass at the node in
    discretize_ball_measure.  An admissible f is dominated by its additive
    envelope (f(a,a) + f(b,b))/2, and the additive profiles h >= 0 are
    generated by h = e_i, so row i's dual is the LP's own f(alpha_i, alpha_i).
    The rows are SeparableRows: column 0 holds (area(B0), m*V, 0, ...),
    rows 0-3 take F1..F4's two factors from chord_functional_factors, negated
    for F1..F3, and row marginal-<i> is -1 x (delta(a = i) + delta(b = i))/2,
    so that every pair factor is >= 0.  The objective is the one row
    SeparableRows([1], 0, 0): no array spans the columns.
    The start basis is B0's chord curve: A, the curve atoms
    (chord_length(alpha_i), alpha_i, alpha_i) and the surpluses of rows 1-3,
    which hold to quadrature accuracy.
    variant="printed" swaps the rescaled rhs m*V^2 (F3) and omega_{n-1}*V
    (length), under which the quotient is feasible with equality, for the
    printed omega_{n-1}*m*V^2 and bare V.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    if variant not in ("rescaled", "printed"):
        raise ValueError(f"variant must be 'rescaled' or 'printed', got {variant!r}")
    ball0 = ball_from_volume(params, m * V)
    omega = sphere_volume(params.n - 1)
    rhs = [0.0, 0.0, -m * V * V, omega * V] if variant == "rescaled" else [0.0, 0.0, -omega * m * V * V, V]
    alpha, curve, mass, ell = _grid_nodes(ball0, grid)
    n_alpha, node = alpha.size, np.arange(alpha.size)
    labels = ("area-vs-F1", "volume-vs-F2", "F3-cap", "total-length") + tuple(f"marginal-{i}" for i in range(n_alpha))
    cos = np.cos(alpha)
    # rows 0-2 cap the integrals of F1..F3 from above, row 3 bounds the total length below
    ell_factor = np.ones((len(labels), ell.size))
    pair_factor = np.zeros((len(labels), n_alpha, n_alpha))
    for k in (1, 2, 3, 4):
        ell_factor[k - 1], p, q = chord_functional_factors(params, k, ell, cos[:, None], cos[None, :])
        pair_factor[k - 1] = 1.0 if p is None else p / q
    ell_factor[:3] *= -1.0
    ell_factor[4:] = -1.0
    pair_factor[4 + node, node, :] += 0.5
    pair_factor[4 + node, :, node] += 0.5
    first = np.zeros(len(labels))
    first[:2] = ball0.area, m * V
    row_matrix = SeparableRows(first, ell_factor, pair_factor.reshape(len(labels), -1))
    objective = SeparableRows(np.ones(1), np.zeros((1, ell.size)), np.zeros((1, n_alpha * n_alpha)))
    curve_atoms = 1 + np.searchsorted(ell, curve) * n_alpha * n_alpha + node * (n_alpha + 1)
    start = np.concatenate(([0], curve_atoms, row_matrix.shape[1] + np.arange(1, 4)))
    return LinearProgram(objective, row_matrix, np.concatenate([rhs, -mass / m]), labels, start)
