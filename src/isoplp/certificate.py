"""Dual certificates for the isoperimetric linear program.

A certificate is a coefficient vector (a, b, c, d) for the four structural
rows of the program.  Along the chord curve of the model ball the combined
row must be stationary in the chord length; that consistency equation

    d = a * candle'(ell)/T^2 + b * candle(ell)/T + c * candle_anti(ell),
    cos(alpha) = T = chord_T(ell)

pins the coefficients up to scale, and the induced admissible test function

    f(alpha, beta) = sup_ell [ d*ell - a*F1 - b*F2 - c*F3 ](ell, alpha, beta)

(F1..F4 as in chordmeasure.chord_functional, which the LP rows also read)
closes the duality argument.  This module reconstructs coefficients
numerically (SVD of the collocated consistency system), writes the paper's
certificates for n in {2, 4} at any curvature in closed form, computes f
by a guarded scan + derivative refinement, and verifies all required
properties of a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chordmeasure import chord_functional
from .spaceform import ModelParams, _atn, _tn, chord_T

__all__ = [
    "DualCertificate",
    "ConsistencyFit",
    "MembershipReport",
    "CertificateReport",
    "DegenerateConsistencyError",
    "SupDomainError",
    "solve_consistency",
    "paper_certificate",
    "sup_integrand",
    "sup_integrand_dell",
    "build_f",
    "evaluate_f",
    "check_family_membership",
    "verify_certificate",
    "CONSISTENCY_TOL", "CURVE_SUP_TOL", "DEFECT_TOL",
]


class DegenerateConsistencyError(ValueError):
    """Consistency system has a kernel of dimension != 1."""


class SupDomainError(ValueError):
    """The sup over chord lengths escaped to the artificial domain cap, or its integrand overflows there."""


@dataclass(frozen=True)
class DualCertificate:
    """Row coefficients (a, b, c, d) for a ball of radius r, plus optional closed f."""

    params: ModelParams
    r: float
    a: float
    b: float
    c: float
    d: float
    f_closed: Callable | None = None
    argmax_closed: Callable | None = None

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    @property
    def has_closed_form(self) -> bool:
        return self.f_closed is not None

    @property
    def negative_coefficients(self) -> tuple[str, ...]:
        names = ("a", "b", "c", "d")
        return tuple(n for n, v in zip(names, self.coefficients) if v < 0)


class ConsistencyFit(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    residual: float


def _consistency_columns(params: ModelParams, r: float, n_nodes: int) -> np.ndarray:
    """(F1', F2', F3', -F4') where cos alpha = cos beta = T, at n_nodes Chebyshev chord lengths in [0.04 r, 1.96 r]."""
    lo, hi = 0.02 * 2.0 * r, 0.98 * 2.0 * r
    k = np.arange(1, n_nodes + 1)
    x = np.cos((2 * k - 1) / (2 * n_nodes) * math.pi)
    ell = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x[::-1]
    T = np.asarray(chord_T(params.kappa, r, ell))
    cols = [chord_functional(params, k, ell, T, T, dell=True) for k in (1, 2, 3)]
    return np.column_stack(cols + [-chord_functional(params, 4, ell, T, T, dell=True)])


def _consistency_residual(params: ModelParams, r: float, coefficients, n_nodes: int) -> float:
    """max over n_nodes lengths of |sum v_k col_k| / sum |v_k col_k|, fair to columns growing like e^((n-1) ell)."""
    cols = _consistency_columns(params, r, n_nodes)
    v = np.asarray(coefficients, dtype=float)
    size = np.abs(cols) @ np.abs(v)
    return float(np.max(np.abs(cols @ v) / np.where(size > 0.0, size, 1.0)))


def solve_consistency(params: ModelParams, r: float) -> ConsistencyFit:
    """Recover certificate coefficients from the stationarity equation on the curve.

    Collocates the 4-column system at 64 Chebyshev chord lengths, divides
    each equation by its norm and each column to unit norm, and takes the
    SVD kernel, which must be one dimensional (else DegenerateConsistencyError),
    in the gauge a=1, else b=1.  The residual is _consistency_residual at 640 lengths.
    """
    if r >= params.hemisphere_radius:
        raise ValueError("radius must be strictly inside the hemisphere")
    cols = _consistency_columns(params, r, 64)
    cols = cols / np.linalg.norm(cols, axis=1)[:, None]
    scale = np.linalg.norm(cols, axis=0)
    scale[scale == 0.0] = 1.0
    _, sing, vt = np.linalg.svd(cols / scale, full_matrices=False)
    if sing[-2] < 1e-10 * sing[0]:
        raise DegenerateConsistencyError(
            f"consistency kernel has dimension > 1; singular values {sing.tolist()}"
        )
    v = vt[-1] / scale
    gauge = np.abs(v[:2]) > 1e-8 * np.max(np.abs(v))  # a, else b, else the largest
    v = v / v[int(np.argmax(gauge)) if gauge.any() else np.argmax(np.abs(v))]
    return ConsistencyFit(*map(float, v), _consistency_residual(params, r, v, 640))


def _sec_sum(alpha, beta):
    return 1.0 / np.cos(alpha) + 1.0 / np.cos(beta)


def paper_certificate(params: ModelParams, r: float) -> DualCertificate:
    """The paper's certificate for n in {2, 4} at any curvature, with T = tan_kappa(r).

    n = 4: (a, b, c, d) = (1, 6 kappa T, 9 kappa^2 T^2, 12 T^2);
    n = 2: (0, 1, kappa T, 2 T) with the closed sup 2 T atan_kappa(2 T/(sec a + sec b)).
    """
    if r >= params.hemisphere_radius:
        raise ValueError("radius must be strictly inside the hemisphere")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    n, kappa = params.n, params.kappa + 0.0  # kappa = -0.0 must not give b = -0.0
    t = _tn(kappa, r)
    if n == 4:
        closed = {}
        if kappa == 0.0:
            closed = dict(
                f_closed=lambda a, b: 16.0 * r ** 3 * np.sqrt(np.cos(a) * np.cos(b)),
                argmax_closed=lambda a, b: 2.0 * r * np.sqrt(np.cos(a) * np.cos(b)),
            )
        return DualCertificate(
            params, r, 1.0, 6.0 * kappa * t, 9.0 * kappa * kappa * t * t, 12.0 * t * t, **closed
        )
    if n == 2:
        return DualCertificate(
            params, r, 0.0, 1.0, kappa * t, 2.0 * t,
            f_closed=lambda a, b: 2.0 * t * _atn(kappa, 2.0 * t / _sec_sum(a, b)),
            argmax_closed=lambda a, b: 2.0 * _atn(kappa, 2.0 * t / _sec_sum(a, b)),
        )
    raise ValueError(f"the paper's certificates cover dimensions 2 and 4, not {n}")


def _combined_row(cert: DualCertificate, ell, alpha, beta, dell: bool):
    """d*F4 - a*F1 - b*F2 - c*F3, or its ell-derivative.

    Zero coefficients skip their term, so secant factors of unused rows
    cannot poison the arithmetic.
    """
    cos_a, cos_b = np.cos(alpha), np.cos(beta)
    out = cert.d * chord_functional(cert.params, 4, ell, cos_a, cos_b, dell)
    for k, coef in ((1, cert.a), (2, cert.b), (3, cert.c)):
        if coef != 0.0:
            out = out - coef * chord_functional(cert.params, k, ell, cos_a, cos_b, dell)
    return out


def sup_integrand(cert: DualCertificate, ell, alpha, beta):
    """d*ell - a*F1 - b*F2 - c*F3 at one chord; f is its sup over ell."""
    return _combined_row(cert, ell, alpha, beta, dell=False)


def sup_integrand_dell(cert: DualCertificate, ell, alpha, beta):
    """Derivative of sup_integrand in the chord length."""
    return _combined_row(cert, ell, alpha, beta, dell=True)


_SCAN_NODES = 512
_SCAN_CHUNK = 1 << 18  # scan nodes x angle pairs evaluated per block
_CAP_FACTOR = 40.0


def _sup_domain(cert: DualCertificate) -> tuple[float, bool]:
    """Scan domain [0, lmax] of the sup and whether lmax is the artificial cap.

    The cap is 40*max(1, s r)/s with s = max(1, sqrt|kappa|), so it stays at
    the flat 40*max(1, r) for |kappa| <= 1; the conjugate radius replaces it
    where it is shorter.
    """
    rt = max(1.0, math.sqrt(abs(cert.params.kappa)))
    cap = _CAP_FACTOR * max(1.0, rt * cert.r) / rt
    conj = cert.params.conjugate_radius
    return (conj, False) if conj < cap else (cap, True)


def build_f(cert: DualCertificate, alpha, beta):
    """Numeric sup over chord lengths: returns (value, argmax) arrays.

    A scan over 512 chord lengths, in blocks of at most _SCAN_CHUNK
    (length, pair) points, brackets each pair's maximum.  Where the analytic
    ell-derivative changes sign across the bracket, bisection on it refines
    the argmax until an iteration changes no bracket; the other pairs (a
    maximum at ell = 0 or on a plateau) take a 60-step golden-section
    search.  The domain ends at the conjugate radius or at the cap of
    _sup_domain, whichever is shorter; a sup escaping to the cap raises
    SupDomainError since the certificate then bounds nothing, and so does
    an integrand that overflows on the scan.
    """
    a_arr = np.asarray(alpha, dtype=float)
    b_arr = np.asarray(beta, dtype=float)
    shape = np.broadcast(a_arr, b_arr).shape
    A = np.broadcast_to(a_arr, shape).ravel()
    B = np.broadcast_to(b_arr, shape).ravel()
    lmax, capped = _sup_domain(cert)
    nodes = np.linspace(0.0, lmax, _SCAN_NODES)
    k = np.empty(A.size, dtype=np.intp)
    scan_max = np.empty(A.size)
    step = max(1, _SCAN_CHUNK // _SCAN_NODES)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for i in range(0, A.size, step):
            G = sup_integrand(cert, nodes[:, None], A[None, i : i + step], B[None, i : i + step])
            k[i : i + step] = kb = np.argmax(G, axis=0)
            scan_max[i : i + step] = G[kb, np.arange(kb.size)]
    if not np.all(np.isfinite(scan_max)):  # argmax takes a pair's first nan
        raise SupDomainError(
            f"the sup integrand is not finite on the chord lengths [0, {lmax:.3g}] of radius {cert.r!r}"
        )
    if capped and np.any(k >= _SCAN_NODES - 1):
        raise SupDomainError(
            f"sup escaped past the domain cap ell={lmax:.3g} for "
            f"{int(np.sum(k >= _SCAN_NODES - 1))} angle pairs; certificate is unbounded"
        )
    lo = nodes[np.maximum(k - 1, 0)]
    hi = nodes[np.minimum(k + 1, _SCAN_NODES - 1)]

    dlo = sup_integrand_dell(cert, lo, A, B)
    dhi = sup_integrand_dell(cert, hi, A, B)
    cross = (dlo > 0.0) & (dhi < 0.0)

    # once an iteration moves no bracket end, every later one is a fixed point
    blo, bhi = lo.copy(), hi.copy()
    for _ in range(70):
        mid = 0.5 * (blo + bhi)
        dm = sup_integrand_dell(cert, mid, A, B)
        take_hi = dm > 0.0
        new_lo = np.where(cross & take_hi, mid, blo)
        new_hi = np.where(cross & ~take_hi, mid, bhi)
        if np.array_equal(new_lo, blo) and np.array_equal(new_hi, bhi):
            break
        blo, bhi = new_lo, new_hi
    arg = 0.5 * (blo + bhi)

    flat = np.flatnonzero(~cross)
    if flat.size:
        glo, ghi = lo[flat], hi[flat]
        Af, Bf = A[flat], B[flat]
        inv = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(60):
            x1 = ghi - inv * (ghi - glo)
            x2 = glo + inv * (ghi - glo)
            f1 = sup_integrand(cert, x1, Af, Bf)
            f2 = sup_integrand(cert, x2, Af, Bf)
            keep_right = f1 < f2
            glo = np.where(keep_right, x1, glo)
            ghi = np.where(keep_right, ghi, x2)
        arg[flat] = 0.5 * (glo + ghi)

    val = sup_integrand(cert, arg, A, B)
    val = np.maximum(val, scan_max)
    if shape == ():
        return float(val[0]), float(arg[0])
    return val.reshape(shape), arg.reshape(shape)


def evaluate_f(cert: DualCertificate, alpha, beta):
    """Closed-form f when tabulated, numeric sup otherwise; returns (value, argmax)."""
    if cert.has_closed_form:
        return cert.f_closed(alpha, beta), cert.argmax_closed(alpha, beta)
    return build_f(cert, alpha, beta)


@dataclass
class MembershipReport:
    """Admissibility of f: nonnegative, with concavity-type diagonal defect >= 0."""

    min_f: float
    min_defect: float
    f_nonneg_ok: bool
    defect_ok: bool
    equality_on_diagonal: bool

    @property
    def passed(self) -> bool:
        return self.f_nonneg_ok and self.defect_ok and self.equality_on_diagonal


# the thresholds of verify_certificate: the consistency residual, the sup's
# deviation from the curve, and f, defect >= -DEFECT_TOL (defect <= DEFECT_TOL
# counts as equality)
CONSISTENCY_TOL, CURVE_SUP_TOL, DEFECT_TOL = 1e-8, 1e-8, 1e-9


def check_family_membership(cert: DualCertificate, grid: int = 80) -> MembershipReport:
    """Check f >= 0 and (f(a,a)+f(b,b))/2 - f(a,b) >= 0 on a grid x grid angle grid.

    The angles are equispaced on [0, pi/2 - 1e-3].  Equality of the defect
    should only happen next to the diagonal.
    """
    if grid < 2:
        # one node has only the diagonal, where the defect is 0 by construction
        raise ValueError(f"the membership grid needs at least 2 angle nodes, got {grid}")
    angles = np.linspace(0.0, math.pi / 2.0 - 1e-3, grid)
    A, B = np.meshgrid(angles, angles, indexing="ij")
    fvals, _ = evaluate_f(cert, A, B)
    fdiag = np.diag(fvals)
    defect = 0.5 * (fdiag[:, None] + fdiag[None, :]) - fvals
    eq_i, eq_j = np.nonzero(defect <= DEFECT_TOL)
    max_gap = float(np.max(np.abs(angles[eq_i] - angles[eq_j]), initial=0.0))
    step = float(np.max(np.diff(angles)))
    return MembershipReport(
        min_f=float(fvals.min()),
        min_defect=float(defect.min()),
        f_nonneg_ok=bool(fvals.min() >= -DEFECT_TOL),
        defect_ok=bool(defect.min() >= -DEFECT_TOL),
        equality_on_diagonal=bool(max_gap <= step * (1 + 1e-9)),
    )


@dataclass
class CertificateReport:
    consistency_residual: float
    consistency_ok: bool
    curve_sup_deviation: float
    curve_sup_ok: bool
    membership: MembershipReport
    negative_coefficients: tuple[str, ...]
    nonneg_required: bool

    @property
    def passed(self) -> bool:
        return (
            self.consistency_ok
            and self.curve_sup_ok
            and self.membership.passed
            and not (self.negative_coefficients and self.nonneg_required)
        )


def verify_certificate(
    cert: DualCertificate,
    grid: int = 80,
    require_nonneg: bool = True,
) -> CertificateReport:
    """Full certificate check: consistency, sup location on the curve, membership, signs.

    The consistency residual is _consistency_residual at 200 chord lengths.  The
    sup check takes 60 chord lengths ell0 on the curve, sets both angles to
    arccos(chord_T(ell0)), and requires the numeric argmax of the sup to
    return to ell0 (tolerance CURVE_SUP_TOL absolute + relative).
    """
    params, r = cert.params, cert.r
    consistency_residual = _consistency_residual(params, r, cert.coefficients, 200)
    consistency_ok = consistency_residual <= CONSISTENCY_TOL

    ell0 = np.linspace(0.05 * 2 * r, 0.95 * 2 * r, 60)
    alpha0 = np.arccos(np.asarray(chord_T(params.kappa, r, ell0)))
    _, argmax = build_f(cert, alpha0, alpha0)
    curve_dev = float(np.max(np.abs(argmax - ell0) / (1.0 + np.abs(ell0))))
    curve_sup_ok = curve_dev <= CURVE_SUP_TOL

    membership = check_family_membership(cert, grid)
    return CertificateReport(
        consistency_residual=consistency_residual,
        consistency_ok=consistency_ok,
        curve_sup_deviation=curve_dev,
        curve_sup_ok=curve_sup_ok,
        membership=membership,
        negative_coefficients=cert.negative_coefficients,
        nonneg_required=require_nonneg,
    )
