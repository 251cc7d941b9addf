"""Polynomial lemmas behind the n=4 certificates.

After the half-angle substitution t = tan(ell/2) (curved up) or
t = tanh(ell/2) (curved down), with p = 1/(3 tan(r) cos(alpha)) and
q likewise in beta, the certificate's sup integrand becomes an explicit
function G(t, p, q) built from a table of rational functions S_i(t), and
admissibility of the induced f reduces to global nonnegativity of

    H(t, p, q) = G(1/(3p), p, p) + G(1/(3q), q, q) - 2 G(t, p, q),

which vanishes exactly on the curve {p = q, 3pt = 1}.  This module holds
the S table, G and H, the two identities both curvature signs' arguments
turn on (the quartic factorization of dG/dt on the diagonal, and dG/dp of
the diagonal peak), gradient numerators of H (a 3-polynomial critical
system), a seeded multistart Newton search for its roots, and a dense grid
plus escape-ray verification that H >= 0.

The gradient numerators are stored as exponent tables with coefficient
vectors; their Jacobian and scale tables are derived from them once, and a
table evaluates at many points in one pass.  The multistart iterates all
starts in lockstep as one (n_starts, 3) array: each iteration makes one
batched convergence test, one batched linear solve and a backtracking line
search in two table passes, the full steps of all starts and then every
shorter step of the starts the full step did not improve.  Per start it is
the same damped Newton iteration, so its roots and counts do not depend on
the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CASES",
    "PolySystem",
    "CriticalPoint",
    "CriticalSearchResult",
    "HNonnegReport",
    "RayCheck",
    "S_table",
    "G",
    "G_diag_peak",
    "H",
    "dG_dt",
    "check_factorization",
    "dGdp_identity",
    "DGdpCheck",
    "critical_system",
    "solve_critical_points",
    "verify_H_nonneg",
    "curve_distance",
    "default_grid_ranges",
    "H_FLOOR",
]

CASES = ("spherical", "hyperbolic")


def _check_case(case: str) -> None:
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")


def _curvature(case: str):
    """Sign s of the curvature, the arc of the half-angle substitution and
    the case's open domain t < t_hi, p, q > p_lo: (1, arctan, (inf, 0)) in
    the spherical case, (-1, arctanh, (1, 1/3)) in the hyperbolic one.
    Every formula below is written once in s; s t^2 enters where t^2 did,
    with the signs of the spherical case."""
    _check_case(case)
    return (1.0, np.arctan, (math.inf, 0.0)) if case == "spherical" else (-1.0, np.arctanh, (1.0, 1.0 / 3.0))


def S_table(case: str, t):
    """Rational/arc functions (S1, S0, Sm1, Sm2): derivative ladder of the
    n=4 candle under the half-angle substitution (S_i'(t) = S_{i+1} times
    the substitution factor)."""
    s, arc, _ = _curvature(case)
    t = np.asarray(t, dtype=float)
    if s < 0.0 and (np.any(t >= 1.0) or np.any(t < 0.0)):
        raise ValueError("hyperbolic t must lie in [0, 1)")
    st2 = s * t * t
    den = (1.0 + st2) ** 3
    s1 = 12.0 * t ** 2 * (1.0 - st2) / den
    s0 = 8.0 * t ** 3 / den
    sm1 = (4.0 / 3.0) * t ** 4 * (3.0 + st2) / den
    sm2 = (4.0 / 3.0) * arc(t) - s * (8.0 / 9.0) * t ** 3 / den - (4.0 / 3.0) * t / (1.0 + st2)
    return s1, s0, sm1, sm2


def G(case: str, t, p, q):
    """Substituted sup integrand (coefficients absorb the 9 tan^2 r scale)."""
    s, arc, _ = _curvature(case)
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _, s0, sm1, sm2 = S_table(case, t)
    return (8.0 / 3.0) * arc(t) - p * q * s0 - (p + q) * (s * sm1) - sm2


def G_diag_peak(case: str, p):
    """G evaluated on the curve point of the diagonal slice: G(1/(3p), p, p).

    Uses the collapsed closed form (4/3) arctan(1/3p) + (4/3) p/(9p^2 + 1)
    (arctanh and 9p^2 - 1 in the hyperbolic case).  The naive route through
    S_table cancels catastrophically as p approaches 1/3 in the hyperbolic
    case, where the 1/(1-t^2)^3 pole meets a vanishing coefficient; the
    collapsed form is exact on the whole domain.
    """
    s, arc, _ = _curvature(case)
    p = np.asarray(p, dtype=float)
    return (4.0 / 3.0) * arc(1.0 / (3.0 * p)) + (4.0 / 3.0) * p / (9.0 * p * p + s)


def H(case: str, t, p, q):
    """Admissibility defect; zero exactly on {p = q, 3pt = 1}, claimed >= 0."""
    return G_diag_peak(case, p) + G_diag_peak(case, q) - 2.0 * G(case, t, p, q)


def dG_dt(case: str, t, p, q):
    """Closed-form t-derivative of G."""
    s, _, _ = _curvature(case)
    t = np.asarray(t, dtype=float)
    num = 12.0 * p * q * t ** 4 - 8.0 * (p + q) * t ** 3 + (4.0 - s * 12.0 * p * q) * t ** 2 + s * 4.0 / 3.0
    return 2.0 * s * num / (1.0 + s * t * t) ** 4


def check_factorization(case: str, p, t):
    """Relative residual of the factorization of dG/dt's numerator on the diagonal:

    12 p^2 t^4 - 16 p t^3 + (4 - 12 s p^2) t^2 + 4 s/3
        = 4 (3 p t - 1) (p t^3 - t^2 - s p t - s/3).

    The left side is dG_dt's num at q = p, so dG/dt(t, p, p) has the sign of
    s times the right side.  Divided by 1 + |rhs|, rounding noise stays
    bounded however large the quartic grows; on 3pt = 1 it is the absolute one.
    """
    s, _, _ = _curvature(case)
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    lhs = 12.0 * p ** 2 * t ** 4 - 16.0 * p * t ** 3 + (4.0 - s * 12.0 * p ** 2) * t ** 2 + s * 4.0 / 3.0
    rhs = 4.0 * (3.0 * p * t - 1.0) * (p * t ** 3 - t ** 2 - s * p * t - s / 3.0)
    return (lhs - rhs) / (1.0 + np.abs(rhs))


@dataclass(frozen=True)
class DGdpCheck:
    """Finite-difference vs closed-form derivative of the diagonal peak value."""

    p: float
    closed: float
    fd: float

    @property
    def residual(self) -> float:
        return self.fd - self.closed


def dGdp_identity(case: str, p: float) -> DGdpCheck:
    """d/dp of [G(1/(3p), p, p) + (8/3) p].

    Closed form (216 p^4 + 48 (s - 1) p^2 + 8 (1 - s)/3) / (9 p^2 + s)^2,
    cross-checked by a central difference of the defining expression, whose
    nodes p +- h must lie in the case's domain p > p_lo.
    """
    s, _, (_, p_lo) = _curvature(case)
    h = 1e-5 * max(1.0, p)
    if not p - h > p_lo:
        raise ValueError(f"{case} p must exceed {p_lo:.6g} by more than the difference step {h:g}, got {p}")
    closed = (216.0 * p ** 4 + 48.0 * (s - 1.0) * p ** 2 + 8.0 * (1.0 - s) / 3.0) / (9.0 * p ** 2 + s) ** 2

    def psi(x: float) -> float:
        return float(G_diag_peak(case, x)) + (8.0 / 3.0) * x

    fd = (psi(p + h) - psi(p - h)) / (2.0 * h)
    return DGdpCheck(p=p, closed=closed, fd=fd)


# ---------------------------------------------------------------------------
# critical system: gradient numerators of H as monomial tables
# A row (i, j, k, c) is the monomial c t^i p^j q^k.  A polynomial is summed in
# row order; that order fixes its floating-point value bit for bit.  Like the
# formulas above, each table is written once in the curvature sign s.

def _et(s: float) -> tuple:
    return ((4, 1, 1, 9.0), (3, 1, 0, -6.0), (3, 0, 1, -6.0), (2, 0, 0, 3.0), (2, 1, 1, -9.0 * s), (0, 0, 0, s))


def _ep(s: float) -> tuple:
    return ((6, 4, 0, 81.0), (4, 4, 0, 243.0 * s), (3, 4, 1, 486.0), (3, 2, 1, 108.0 * s), (3, 0, 1, 6.0),
            (2, 2, 0, -54.0 * s), (2, 0, 0, -3.0), (0, 2, 0, -18.0), (0, 0, 0, -s))


class _Table:
    """K polynomials in (t, p, q): exponents (K, M, 3) and coefficients (K, M).

    Values at N points come out as (N, K).  Each term is formed as
    ((c t^i) p^j) q^k from the array powers column ** e and the terms are
    summed in row order.  Shorter polynomials are padded at the end with 0 t^0 p^0 q^0,
    which adds exactly zero.
    """

    def __init__(self, exps: np.ndarray, coef: np.ndarray):
        self.exps, self.coef = exps, coef
        self.used = [sorted({int(e) for e in exps[..., v].ravel()} - {0}) for v in range(3)]

    @classmethod
    def from_rows(cls, polys) -> _Table:
        width = max(len(rows) for rows in polys)
        exps = np.zeros((len(polys), width, 3), dtype=np.intp)
        coef = np.zeros((len(polys), width))
        for r, rows in enumerate(polys):
            for m, (i, j, k, c) in enumerate(rows):
                exps[r, m] = (i, j, k)
                coef[r, m] = c
        return cls(exps, coef)

    def derivatives(self) -> _Table:
        """The 3K partial derivatives; row 3r + v is d(poly r)/d(var v), its
        terms in the order of the rows they come from."""
        n_polys, width, _ = self.exps.shape
        exps = np.zeros((n_polys, 3, width, 3), dtype=np.intp)
        coef = np.zeros((n_polys, 3, width))
        for r in range(n_polys):
            for v in range(3):
                live = self.exps[r, :, v] > 0
                n = int(np.count_nonzero(live))
                exps[r, v, :n] = self.exps[r, live]
                exps[r, v, :n, v] -= 1
                coef[r, v, :n] = self.coef[r, live] * self.exps[r, live, v]
        return _Table(exps.reshape(3 * n_polys, width, 3), coef.reshape(3 * n_polys, width))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # pw[v, e] is variable v to the power e over the N points, so each monomial
        # factor is one row gather and the terms come out as (K, M, N)
        pw = np.ones((3, int(self.exps.max()) + 1, len(x)))
        for v, used in enumerate(self.used):
            for e in used:
                pw[v, e] = x[:, v] ** e
        e = self.exps
        terms = self.coef[..., None] * pw[0][e[..., 0]] * pw[1][e[..., 1]] * pw[2][e[..., 2]]
        out = np.zeros((terms.shape[0], len(x)))
        for m in range(terms.shape[1]):
            out = out + terms[:, m]
        return out.T


def _points(t, p, q) -> tuple[np.ndarray, tuple]:
    t, p, q = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, p, q)))
    return np.stack([t.ravel(), p.ravel(), q.ravel()], axis=1), t.shape


@dataclass(frozen=True)
class PolySystem:
    """Gradient numerators of H: three polynomials in (t, p, q) with search box.

    Each polynomial is a sequence of monomial rows (i, j, k, c), meaning
    c t^i p^j q^k.  They are stored as one exponent table and one coefficient
    table, from which the Jacobian and scale tables are derived once.
    ``eval``, ``jacobian`` and ``scale`` broadcast scalars or arrays.
    """

    case: str
    polys: tuple
    box: tuple[tuple[float, float], ...]
    _values: _Table = field(init=False, repr=False, compare=False)
    _jacobian: _Table = field(init=False, repr=False, compare=False)
    _abs: _Table = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = _Table.from_rows(self.polys)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_jacobian", values.derivatives())
        object.__setattr__(self, "_abs", _Table(values.exps, np.abs(values.coef)))

    def _scale(self, x: np.ndarray) -> np.ndarray:
        return 1.0 + self._abs(np.abs(x))

    def eval(self, t, p, q) -> np.ndarray:
        """The three numerators, shape (3, *broadcast shape)."""
        x, shape = _points(t, p, q)
        return self._values(x).T.reshape(3, *shape)

    def jacobian(self, t, p, q) -> np.ndarray:
        """d(numerator r)/d(variable v) at [r, v], shape (3, 3, *broadcast shape)."""
        x, shape = _points(t, p, q)
        return self._jacobian(x).T.reshape(3, 3, *shape)

    def scale(self, t, p, q) -> np.ndarray:
        """1 + sum of |c| |t|^i |p|^j |q|^k per numerator, shape (3, *broadcast shape)."""
        x, shape = _points(t, p, q)
        return self._scale(x).T.reshape(3, *shape)


def critical_system(case: str) -> PolySystem:
    """Numerators of grad H; common positive factors and denominators cleared."""
    s, _, _ = _curvature(case)
    et, ep = _et(s), _ep(s)
    eq = tuple((i, k, j, c) for i, j, k, c in ep)
    if case == "spherical":
        box = ((0.01, 5.0), (0.05, 10.0), (0.05, 10.0))
    else:
        box = ((0.01, 0.99), (1.0 / 3.0, 10.0), (1.0 / 3.0, 10.0))
    return PolySystem(case, (et, ep, eq), box)


def curve_distance(t: float, p: float, q: float) -> float:
    """Euclidean distance from (t,p,q) to the curve {(1/(3s), s, s) : s > 0}.

    The squared distance d2(s) is stationary where 18 s^4 - 9 (p + q) s^3 +
    3 t s - 1 = 0.  The quartic is -1 at s = 0 and grows without bound, so
    it has a positive root, and the minimum of d2 is at one.  d2 is taken at
    the positive real part of every root: a complex root only adds a
    candidate, and no candidate lies below the minimum.
    """
    roots = np.roots([18.0, -9.0 * (p + q), 0.0, 3.0 * t, -1.0]).real
    s = roots[roots > 0.0]
    d2 = (t - 1.0 / (3.0 * s)) ** 2 + (p - s) ** 2 + (q - s) ** 2
    return math.sqrt(float(d2.min()))


@dataclass(frozen=True)
class CriticalPoint:
    t: float
    p: float
    q: float
    residual: float
    curve_distance: float
    n_merged: int


@dataclass
class CriticalSearchResult:
    """Clustered roots plus bookkeeping about the multistart."""

    roots: list
    n_starts: int
    n_converged: int
    n_singular: int
    n_stalled: int
    n_out_of_domain: int
    n_degenerate: int = 0


_CONVERGED, _SINGULAR, _STALLED = 0, 1, 2
# the line search's shorter step lengths 1/2, 1/4, ..., 1/4096
_HALVINGS = 0.5 ** np.arange(1, 13)


def _norms(r: np.ndarray) -> np.ndarray:
    # np.linalg.norm of one 3-vector is the square root of a BLAS dot product;
    # a stack of (1, 3) @ (3, 1) products calls the same dot per row, so these
    # norms equal it bit for bit (a sum of squares in numpy's order does not).
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _newton_steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps -J^-1 F for a batch, J (N, 3, 3) and F (N, 3).

    One batched solve; if any J is singular it raises, and the batch is solved
    start by start, with a Levenberg step where J is singular.  Returns the
    steps and a mask of the starts whose Levenberg system is singular too.
    """
    singular = np.zeros(len(F), dtype=bool)
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(F)
    for n, (Jn, Fn) in enumerate(zip(J, F)):
        try:
            steps[n] = np.linalg.solve(Jn, -Fn)
        except np.linalg.LinAlgError:
            JtJ = Jn.T @ Jn
            lam = 1e-8 * (np.trace(JtJ) / 3.0 + 1.0)
            try:
                steps[n] = np.linalg.solve(JtJ + lam * np.eye(3), -Jn.T @ Fn)
            except np.linalg.LinAlgError:
                singular[n] = True
    return steps, singular


def _lockstep_newton(system: PolySystem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton from every row of x (N, 3) at once.

    Each start follows its own path: at most 120 iterations, each of which
    either ends the start as converged (max |F|/scale < 1e-13) or takes the
    Newton step with a backtracking line search: the longest of the step
    lengths 1, 1/2, ..., 1/4096 at which the scaled residual norm drops.  A
    start with no such length, or that runs out of iterations, has stalled.
    Returns the final points and each start's outcome.

    The search evaluates the full steps of all live starts in one table
    pass, and the twelve shorter steps of the starts it did not improve in a
    second.  Every row is evaluated on its own, so a start's path is the one
    a halving loop gives, bit for bit.
    """
    x = x.copy()
    outcome = np.full(len(x), _STALLED)
    live = np.arange(len(x))
    F, scale = system._values(x), system._scale(x)
    for _ in range(120):
        done = np.max(np.abs(F) / scale, axis=1) < 1e-13
        outcome[live[done]] = _CONVERGED
        live, F, scale = live[~done], F[~done], scale[~done]
        if not live.size:
            break
        J = system._jacobian(x[live]).reshape(-1, 3, 3)
        step, singular = _newton_steps(J, F)
        outcome[live[singular]] = _SINGULAR
        ok = ~singular
        live, F, scale, step = live[ok], F[ok], scale[ok], step[ok]
        norm = _norms(F / scale)
        # the full step for every start, then every shorter step at once for
        # the starts it did not improve: row k m + i of the stack is start i
        # at lambda = 2^-(k+1), and each start takes its first improving row
        xn = x[live] + step
        Fn, sn = system._values(xn), system._scale(xn)
        accepted = _norms(Fn / sn) < norm
        rest = np.flatnonzero(~accepted)
        stack = (x[live[rest]] + _HALVINGS[:, None, None] * step[rest]).reshape(-1, 3)
        Fs, ss = system._values(stack), system._scale(stack)
        won = _norms(Fs / ss).reshape(_HALVINGS.size, rest.size) < norm[rest]
        found = won.any(axis=0)
        row = np.argmax(won, axis=0)[found] * rest.size + np.flatnonzero(found)
        rest = rest[found]
        xn[rest], Fn[rest], sn[rest] = stack[row], Fs[row], ss[row]
        accepted[rest] = True
        x[live[accepted]] = xn[accepted]
        live, F, scale = live[accepted], Fn[accepted], sn[accepted]
    return x, outcome


def solve_critical_points(system: PolySystem, n_starts: int = 1000, seed: int = 0) -> CriticalSearchResult:
    """Deterministic multistart damped Newton on the 3-polynomial system.

    Starts are Philox(seed) uniform in the system's box and iterate in
    lockstep as one (n_starts, 3) array.  Singular Jacobians fall back to a
    Levenberg step; starts that still fail are discarded and counted.
    Converged roots are filtered to the case's open domain, clustered with radius
    1e-6, and annotated with their distance to the curve {p=q, 3pt=1}.
    """
    lows = np.array([b[0] for b in system.box])
    highs = np.array([b[1] for b in system.box])
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = lows + rng.random((n_starts, 3)) * (highs - lows)

    points, outcome = _lockstep_newton(system, starts)
    converged = points[outcome == _CONVERGED]
    n_singular = int(np.count_nonzero(outcome == _SINGULAR))
    n_stalled = int(np.count_nonzero(outcome == _STALLED))

    _, _, (t_hi, p_lo) = _curvature(system.case)
    n_out = n_degenerate = 0
    kept = []
    for x in converged:
        t, p, q = (float(v) for v in x)
        if not (1e-8 < t < t_hi - 1e-10 and min(p, q) > max(p_lo, 1e-8)):
            n_out += 1
            continue
        # The deflated polynomials have higher-order zeros on the closure of
        # the domain (hyperbolic corner t=1, p=q=1/3) where a whole blob of
        # points evaluates below machine precision without being critical
        # points of anything.  A genuine root sits on the 1-d curve of
        # minimizers, so the Jacobian has rank exactly 2 there; an isolated
        # off-curve root would have rank 3.  Rank < 2 means the "root" came
        # from the degenerate closure and cannot be certified.
        sv = np.linalg.svd(system.jacobian(t, p, q), compute_uv=False)
        if sv[1] <= 1e-6 * max(sv[0], float(np.max(system.scale(t, p, q)))):
            n_degenerate += 1
            continue
        kept.append((t, p, q))

    kept.sort()
    clusters: list[list] = []
    for pt in kept:
        for cl in clusters:
            if math.dist(pt, cl[0]) <= 1e-6:
                cl.append(pt)
                break
        else:
            clusters.append([pt])

    roots = []
    for cl in clusters:
        t, p, q = cl[0]
        res = float(np.max(np.abs(system.eval(t, p, q) / system.scale(t, p, q))))
        roots.append(CriticalPoint(t, p, q, res, curve_distance(t, p, q), len(cl)))
    return CriticalSearchResult(
        roots=roots,
        n_starts=n_starts,
        n_converged=len(converged),
        n_singular=n_singular,
        n_stalled=n_stalled,
        n_out_of_domain=n_out,
        n_degenerate=n_degenerate,
    )


# ---------------------------------------------------------------------------
# dense-grid nonnegativity with escape rays


def default_grid_ranges(case: str) -> tuple[tuple[float, float], ...]:
    if case == "spherical":
        return ((0.02, 4.0), (0.05, 6.0), (0.05, 6.0))
    return ((0.01, 0.99), (0.35, 6.0), (0.35, 6.0))


# H counts as nonnegative at a grid or ray value >= H_FLOOR
H_FLOOR = -1e-9


@dataclass(frozen=True)
class RayCheck:
    label: str
    tail_min: float
    passed: bool


@dataclass
class HNonnegReport:
    min_value: float
    argmin: tuple[float, float, float]
    argmin_curve_distance: float
    grid_shape: tuple[int, int, int]
    rays: tuple[RayCheck, ...]

    @property
    def rays_ok(self) -> bool:
        return all(r.passed for r in self.rays)

    @property
    def passed(self) -> bool:
        return self.min_value >= H_FLOOR and self.rays_ok


def _ray_family(case: str):
    k = np.arange(40, dtype=float)
    if case == "spherical":
        small = 0.02 * 10.0 ** (-k / 5.0)
        big = 4.0 * 10.0 ** (k / 6.0)
        return (
            ("t->0", small, np.full_like(k, 1.0), np.full_like(k, 2.0)),
            ("t->inf", big, np.full_like(k, 1.0), np.full_like(k, 2.0)),
            ("p->0", np.full_like(k, 0.5), small, np.full_like(k, 1.0)),
            ("p->inf", np.full_like(k, 0.5), big, np.full_like(k, 1.0)),
            ("q->0", np.full_like(k, 0.5), np.full_like(k, 1.0), small),
            ("q->inf", np.full_like(k, 0.5), np.full_like(k, 1.0), big),
            ("curve p=q->inf", 1.0 / (3.0 * big), big, big),
            ("joint t->inf, p=q->0", big, 1.0 / big, 1.0 / big),
        )
    towards1 = 1.0 - 10.0 ** (-1.0 - k / 5.0)
    tiny = 10.0 ** (-1.0 - k / 5.0)
    third = 1.0 / 3.0 + tiny
    return (
        ("t->0", 0.02 * 10.0 ** (-k / 5.0), np.full_like(k, 1.0), np.full_like(k, 2.0)),
        ("t->1", towards1, np.full_like(k, 1.0), np.full_like(k, 2.0)),
        ("p->1/3", np.full_like(k, 0.5), third, np.full_like(k, 1.0)),
        ("p->inf", np.full_like(k, 0.5), 4.0 * 10.0 ** (k / 6.0), np.full_like(k, 1.0)),
        ("q->1/3", np.full_like(k, 0.5), np.full_like(k, 1.0), third),
        ("q->inf", np.full_like(k, 0.5), np.full_like(k, 1.0), 4.0 * 10.0 ** (k / 6.0)),
        ("curve p=q->inf", 1.0 / (12.0 * 10.0 ** (k / 6.0)), 4.0 * 10.0 ** (k / 6.0), 4.0 * 10.0 ** (k / 6.0)),
        ("joint t->1, p=q->1/3", towards1, third, third),
    )


def verify_H_nonneg(case: str, grid: int = 120) -> HNonnegReport:
    """Dense-grid minimum of H on a grid^3 grid plus liminf >= 0 along 8 escape rays.

    Ties in the argmin go to the lexicographically smallest index.  The
    argmin is annotated with its distance to the vanishing curve.
    """
    _check_case(case)
    if grid < 2:
        # one node per axis is a single point, not a grid over the ranges
        raise ValueError(f"the H grid needs at least 2 nodes per axis, got {grid}")
    (t0, t1), (p0, p1), (q0, q1) = default_grid_ranges(case)
    ts = np.linspace(t0, t1, grid)
    ps = np.linspace(p0, p1, grid)
    qs = np.linspace(q0, q1, grid)
    vals = H(case, ts[:, None, None], ps[None, :, None], qs[None, None, :])
    flat_idx = int(np.argmin(vals))
    it, ip, iq = np.unravel_index(flat_idx, vals.shape)
    argmin = (float(ts[it]), float(ps[ip]), float(qs[iq]))
    rays = []
    for label, rt, rp, rq in _ray_family(case):
        tail = H(case, rt, rp, rq)[-12:]
        tail_min = float(np.min(tail))
        rays.append(RayCheck(label=label, tail_min=tail_min, passed=bool(tail_min >= H_FLOOR)))
    return HNonnegReport(
        min_value=float(vals[it, ip, iq]),
        argmin=argmin,
        argmin_curve_distance=curve_distance(*argmin),
        grid_shape=(grid, grid, grid),
        rays=tuple(rays),
    )
