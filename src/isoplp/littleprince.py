"""Planar gravity of star-shaped domains, and the disk's optimality.

An observer sits on the boundary of a planar body star-shaped around it.
Writing L(alpha) for the chord length of the body in direction alpha
(measured from the inward normal, alpha in [-pi/2, pi/2]), the normal
gravity pull is (1/2pi) integral of L(alpha) cos(alpha), and the area is
the polar integral of L^2/2.  Among bodies of given area the disk (with
the observer on its boundary) maximizes the pull; the proof is a pointwise
quadratic inequality whose integrated form also yields the sharp planar
isoperimetric inequality.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaceform import _GL_ORDER, _legendre_rule

__all__ = [
    "StarDomain",
    "disk",
    "ellipse",
    "square_side_midpoint",
    "from_table",
    "from_csv",
    "gravity",
    "area",
    "disk_gravity",
    "verify_pp",
    "dual_gap",
    "dual_chain_bound",
    "weil_bound",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class StarDomain:
    """Chord-length profile L(alpha) >= 0 on [-pi/2, pi/2] seen from the observer.

    L takes numpy arrays of angles.  The knots are angles where L has a kink
    or a narrow feature; the quadrature puts panel edges there.
    """

    L: Callable
    tag: str
    knots: tuple[float, ...] = ()


def disk(r: float) -> StarDomain:
    """Disk of radius r with the observer on its boundary: L = 2 r cos(alpha)."""
    if r < 0.0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return StarDomain(lambda a: 2.0 * r * np.cos(a), tag=f"disk({r:g})")


_MIN_AXIS_RATIO = 1e-8


def ellipse(a: float, b: float) -> StarDomain:
    """Ellipse with semi-axes a, b, observer at the end of the a-axis.

    The profile has one feature of angular width s = atan(min(a, b)/max(a, b)):
    a peak at alpha = 0 when a >= b, a fall to 0 next to alpha = +-pi/2 when
    a < b.  The knots grade geometrically towards it, at s * 2^k from 0 or
    from +-pi/2, so the quadrature resolves it.  Next to +-pi/2 an angle
    carries a rounding of up to 1.1e-16, which costs the area a relative
    error of about 1e-16 b/a, so a/b below _MIN_AXIS_RATIO is rejected.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("semi-axes must be positive")
    q = a / b
    if not _MIN_AXIS_RATIO <= q < math.inf:
        raise ValueError(
            f"axis ratio a/b = {q:g} is out of range: the ellipse needs "
            f"{_MIN_AXIS_RATIO:g} <= a/b and a finite a/b"
        )

    def L(alpha):
        # 2 a b^2 cos / (b^2 cos^2 + a^2 sin^2) divided through by b^2, so no
        # square of an axis can overflow
        ca, t = np.cos(alpha), q * np.sin(alpha)
        return 2.0 * a * ca / (ca * ca + t * t)

    knots = [0.0]
    s = math.atan(min(q, 1.0 / q))
    while s < _HALF_PI:
        k = s if a >= b else _HALF_PI - s
        knots += [-k, k]
        s *= 2.0
    return StarDomain(L, tag=f"ellipse({a:g},{b:g})", knots=tuple(sorted(knots)))


def square_side_midpoint() -> StarDomain:
    """Unit square with the observer at the midpoint of one side.

    Rays hit the opposite side for small |alpha| and the near sides past
    |alpha| = arctan(1/2).
    """
    split = math.atan(0.5)

    def L(alpha):
        alpha = np.asarray(alpha, dtype=float)
        with np.errstate(divide="ignore"):
            far = 1.0 / np.cos(alpha)
            side = 0.5 / np.abs(np.sin(alpha))
        return np.minimum(far, side)

    return StarDomain(L, tag="square-on-side", knots=(-split, split))


def from_table(alphas, lengths) -> StarDomain:
    """Piecewise-linear profile through sampled (alpha, L) points."""
    alphas = np.asarray(alphas, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if alphas.ndim != 1 or alphas.size < 2 or alphas.shape != lengths.shape:
        raise ValueError("need matching 1-d arrays with at least 2 samples")
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha samples must be strictly increasing")
    if alphas[0] < -_HALF_PI - 1e-9 or alphas[-1] > _HALF_PI + 1e-9:
        raise ValueError("alpha samples must lie in [-pi/2, pi/2]")
    if np.any(lengths < 0) or not np.all(np.isfinite(lengths)):
        raise ValueError("chord lengths must be finite and >= 0")

    def L(alpha):
        return np.interp(alpha, alphas, lengths, left=0.0, right=0.0)

    return StarDomain(L, tag="custom", knots=tuple(float(a) for a in alphas))


def from_csv(text: str) -> StarDomain:
    """Profile from CSV with header alpha,L."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty CSV, expected header alpha,L")
    if [h.strip().lower() for h in header] != ["alpha", "l"]:
        raise ValueError(f"expected header alpha,L, got {','.join(header)}")
    rows = []
    for r in reader:
        if not r:
            continue
        if len(r) != 2:
            raise ValueError(f"CSV line {reader.line_num}: expected 2 fields alpha,L, got {len(r)}")
        rows.append((float(r[0]), float(r[1])))
    if len(rows) < 2:
        raise ValueError("need at least 2 samples")
    rows.sort()
    return from_table([r[0] for r in rows], [r[1] for r in rows])


# Profile quadrature: a panel is accepted when it agrees with the sum over
# its halves to _QUAD_REL of the running total (both profile integrands are
# >= 0, so the total sets the scale of every panel).  A round evaluates at
# most _QUAD_PANELS halves beyond two per starting panel, and there are at
# most _QUAD_ROUNDS rounds (panels of width pi / 2^60 ~ 3e-18 by then).
_QUAD_REL = 1e-13
_QUAD_PANELS = 1 << 16
_QUAD_ROUNDS = 60


def _quad_profile(fun, knots) -> float:
    """Integral of fun over [-pi/2, pi/2] by adaptive panelled 24-point Gauss-Legendre.

    Panels start at the knots inside the interval.  Each round compares every
    open panel with the sum over its two halves and splits the panels that
    disagree; fun is vectorized, so each round evaluates it once, on the
    nodes of every open panel's halves.  The nodes are mid +- half * x with
    the symmetric Legendre nodes x, which rounds less than mapping nodes of
    [0, 1] (the unit disk's area is the float nearest pi).  Raises ValueError
    when fun is not finite at a node or the panels do not settle.
    """
    x, w = _legendre_rule(_GL_ORDER)

    def rule(mid, half):
        f = fun(mid[:, None] + half[:, None] * x)
        if not np.all(np.isfinite(f)):
            raise ValueError("the profile is not finite on [-pi/2, pi/2]")
        return (f @ w) * half

    # sorted, then each run of equal knots kept once: np.unique's result, without its numpy.ma import
    edges = np.sort([-_HALF_PI, *(k for k in knots if -_HALF_PI < k < _HALF_PI), _HALF_PI])
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    whole = rule(mid, half)
    max_halves = 2 * mid.size + _QUAD_PANELS
    done = 0.0
    for _ in range(_QUAD_ROUNDS):
        if 2 * mid.size > max_halves:
            break
        half = 0.5 * half
        # the left and right half of every open panel, interleaved
        mid = (mid[:, None] + half[:, None] * np.array([-1.0, 1.0])).ravel()
        half = np.repeat(half, 2)
        parts = rule(mid, half).reshape(-1, 2)
        refined = parts.sum(axis=1)
        ok = np.abs(refined - whole) <= _QUAD_REL * abs(done + refined.sum())
        done += refined[ok].sum()
        if ok.all():
            return float(done)
        split = np.repeat(~ok, 2)
        mid, half, whole = mid[split], half[split], parts.ravel()[split]
    raise ValueError(f"the profile quadrature did not settle ({mid.size} panels still open)")


def gravity(domain: StarDomain) -> float:
    """(1/2pi) integral of L(alpha) cos(alpha) over [-pi/2, pi/2]."""
    return _quad_profile(lambda a: domain.L(a) * np.cos(a), domain.knots) / (2.0 * math.pi)


def area(domain: StarDomain) -> float:
    """Polar area integral of L(alpha)^2 / 2."""
    return _quad_profile(lambda a: 0.5 * domain.L(a) ** 2, domain.knots)


def disk_gravity(V: float) -> float:
    """Gravity of the area-V disk seen from its boundary: sqrt(V/pi)/2."""
    if V < 0.0:
        raise ValueError(f"area must be >= 0, got {V}")
    return math.sqrt(V / math.pi) / 2.0


def verify_pp(domain: StarDomain) -> float:
    """disk_gravity(area(domain)) - gravity(domain); >= 0, zero only for the disk."""
    return disk_gravity(area(domain)) - gravity(domain)


def dual_gap(a_coef: float, alpha, ell):
    """(a/2) ell^2 + cos(alpha)^2/(2a) - ell cos(alpha); >= 0, zero iff cos(alpha) = a ell."""
    if a_coef <= 0.0:
        raise ValueError(f"coefficient must be positive, got {a_coef}")
    ca = np.cos(np.asarray(alpha, dtype=float))
    ell = np.asarray(ell, dtype=float)
    out = 0.5 * a_coef * ell * ell + ca * ca / (2.0 * a_coef) - ell * ca
    return float(out) if out.ndim == 0 else out


def dual_chain_bound(area_value: float, a_coef: float | None = None) -> float:
    """Upper bound (1/2pi)(a * area + pi/(4a)) from the pointwise inequality.

    With the optimal a = 1/(2 sqrt(area/pi)) the bound equals the disk's
    gravity at that area, so the chain is tight exactly on the disk.
    """
    if area_value < 0.0:
        raise ValueError(f"area must be >= 0, got {area_value}")
    if a_coef is None:
        if area_value == 0.0:
            return 0.0
        a_coef = 1.0 / (2.0 * math.sqrt(area_value / math.pi))
    if a_coef <= 0.0:
        raise ValueError(f"coefficient must be positive, got {a_coef}")
    return (a_coef * area_value + math.pi / (4.0 * a_coef)) / (2.0 * math.pi)


def weil_bound(V: float) -> float:
    """Sharp planar perimeter lower bound 2 sqrt(pi V) at enclosed area V."""
    if V < 0.0:
        raise ValueError(f"area must be >= 0, got {V}")
    return 2.0 * math.sqrt(math.pi * V)
