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
    """Chord-length profile L(alpha) >= 0 on [-pi/2, pi/2] seen from the observer."""

    L: Callable
    tag: str
    knots: tuple[float, ...] = ()

    def __call__(self, alpha):
        return self.L(alpha)


def disk(r: float) -> StarDomain:
    """Disk of radius r with the observer on its boundary: L = 2 r cos(alpha)."""
    if r < 0.0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return StarDomain(lambda a: 2.0 * r * np.cos(a), tag=f"disk({r:g})")


def ellipse(a: float, b: float) -> StarDomain:
    """Ellipse with semi-axes a, b, observer at the end of the a-axis."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("semi-axes must be positive")

    def L(alpha):
        ca, sa = np.cos(alpha), np.sin(alpha)
        return 2.0 * a * b * b * ca / (b * b * ca * ca + a * a * sa * sa)

    return StarDomain(L, tag=f"ellipse({a:g},{b:g})")


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


def _quad_profile(fun, knots) -> float:
    # adaptive quadrature for profiles given by the user (steep ellipses, CSV
    # tables); scipy is imported here so the other subcommands never load it
    from scipy.integrate import quad

    # quad requires limit > len(points), so densely sampled profiles need room
    pts = [k for k in knots if -_HALF_PI < k < _HALF_PI] or None
    limit = 400 if pts is None else max(400, 2 * len(pts) + 10)
    val, _ = quad(fun, -_HALF_PI, _HALF_PI, points=pts, limit=limit, epsabs=1e-12, epsrel=1e-12)
    return val


def gravity(domain: StarDomain) -> float:
    """(1/2pi) integral of L(alpha) cos(alpha) over [-pi/2, pi/2]."""
    return _quad_profile(lambda a: float(domain.L(a)) * math.cos(a), domain.knots) / (2.0 * math.pi)


def area(domain: StarDomain) -> float:
    """Polar area integral of L(alpha)^2 / 2."""
    return _quad_profile(lambda a: 0.5 * float(domain.L(a)) ** 2, domain.knots)


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
