"""Command line front end.

Every verification in the package is exposed as a subcommand that emits a
machine-readable report (JSON by default, CSV for tables).  Reports embed
the configuration, tool version and tolerances, contain no timestamps, and
are byte-identical across runs with the same arguments and seed.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error.

Each subcommand declares the flags it reads, with their defaults and
validation, in `build_parser`; the `config` echo of a report holds the
effective values.  Every subcommand takes the curvature bound as given, so
all reported lengths, volumes, areas and coefficients are in the user's
units.

The eight layers are lazy modules: each is registered in `sys.modules` at
import, and its code runs on the first attribute read, so a subcommand
pays only for the layers it reads (with the ones they import):

    profile        spaceform
    prince         littleprince, spaceform
    lemma          lemmas
    measure-check  chordmeasure, spaceform
    relative       relative, chordmeasure, spaceform
    negbound       negbound, chordmeasure, spaceform
    certificate    certificate, chordmeasure, spaceform
    lp             lpcore, certificate, chordmeasure, spaceform; relative with --table 2

`--version` and a flag that the parser rejects run none.  Imports inside
each handler would give the same saving, but perfbench's tracer finds
every layer in `sys.modules` right after importing this module, to wrap
its public functions; a lazy module is there and loads when the tracer
reads it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import re
import sys

import numpy as np

from . import __version__, _philox

__all__ = ["main", "build_parser"]


def _lazy(name: str):
    """isoplp.<name>, registered in sys.modules; its code runs on the first attribute read."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


spaceform = _lazy("spaceform")
certificate = _lazy("certificate")
chordmeasure = _lazy("chordmeasure")
lemmas = _lazy("lemmas")
littleprince = _lazy("littleprince")
lpcore = _lazy("lpcore")
negbound = _lazy("negbound")
relative = _lazy("relative")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# report plumbing


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _report_shell(command: str, config: dict, tolerances: dict, body: dict, passed: bool) -> dict:
    return {
        "schema": 1,
        "tool": {"name": "isoplp", "version": __version__},
        "command": command,
        "config": _sanitize(config),
        "tolerances": _sanitize(tolerances),
        "passed": bool(passed),
        "report": _sanitize(body),
    }


def _emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rows = report.get("report", {}).get("rows")
        lines = []
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            cols = list(rows[0].keys())
            lines.append(",".join(cols))
            for row in rows:
                lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
        else:
            lines.append("key,value")
            flat = _flatten(report)
            for k in sorted(flat):
                lines.append(f"{k},{flat[k]}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix=""):
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            flat.update(_flatten(v, f"{prefix}{i}."))
    else:
        flat[prefix[:-1]] = obj
    return flat


def _resolve_radius_volume(params: spaceform.ModelParams, radius, volume):
    if radius is not None:
        return spaceform.ball_from_radius(params, radius)
    return spaceform.ball_from_volume(params, volume)


# ---------------------------------------------------------------------------
# subcommands: each reads the dict of flags that have a value


def _cmd_profile(config: dict):
    params = spaceform.ModelParams(config.get("dim"), config.get("kappa"))
    vmin, vmax, steps = config.get("vmin"), config.get("vmax"), config.get("steps")
    if vmin > vmax:
        raise UsageError("need vmin <= vmax")
    vols = np.linspace(vmin, vmax, steps)
    rows = []
    for v in vols:
        ball = spaceform.ball_from_volume(params, float(v))
        rows.append({"V": float(v), "radius": ball.radius, "area": ball.area})
    return {"rows": rows}, {}, True


def _cmd_certificate(config: dict):
    params = spaceform.ModelParams(config.get("dim"), config.get("kappa"))
    r = _resolve_radius_volume(params, config.get("radius"), config.get("volume")).radius
    tols = {"consistency": certificate.CONSISTENCY_TOL, "reference_match": 1e-6,
            "membership_defect": certificate.DEFECT_TOL, "curve_sup": certificate.CURVE_SUP_TOL}

    fit = certificate.solve_consistency(params, r)
    body = {"radius": r}
    if fit.residual > tols["consistency"]:
        body["consistency_fit"] = {
            "residual": fit.residual,
            "message": (
                f"no (a, b, c, d) certificate of this form exists for (n, kappa) = "
                f"({params.n}, {params.kappa}): the consistency equation has no solution within tolerance"
            ),
        }
        return body, tols, False
    body["consistency_fit"] = {"a": fit.a, "b": fit.b, "c": fit.c, "d": fit.d, "residual": fit.residual}
    if params.n not in (2, 4):
        body["reference"] = None
        return body, tols, True
    cert = certificate.paper_certificate(params, r)
    ref = dict(zip("abcd", cert.coefficients))
    coeff_scale = max(abs(v) for v in cert.coefficients)
    mismatch = max(abs(getattr(fit, k) - ref[k]) for k in "abcd") / coeff_scale
    report = certificate.verify_certificate(cert, grid=config.get("grid"), require_nonneg=params.kappa >= 0.0)
    body["reference"] = ref
    body["reference_mismatch"] = mismatch
    body["verification"] = {
        "consistency_residual": report.consistency_residual,
        "curve_sup_deviation": report.curve_sup_deviation,
        "membership_min_f": report.membership.min_f,
        "membership_min_defect": report.membership.min_defect,
        "membership_equality_on_diagonal": report.membership.equality_on_diagonal,
        "negative_coefficients": list(report.negative_coefficients),
        "nonneg_required": report.nonneg_required,
        "passed": report.passed,
    }
    return body, tols, mismatch <= tols["reference_match"] and report.passed


def _cmd_lp(config: dict):
    m = config.get("m")
    if config.get("table") == 2 and m is None:
        raise UsageError("--m is required with --table 2")
    if config.get("table") == 1 and m is not None:
        raise UsageError("--m is only read with --table 2")
    params = spaceform.ModelParams(config.get("dim"), config.get("kappa"))
    ball = _resolve_radius_volume(params, config.get("radius"), config.get("volume"))
    V = ball.volume
    n_ell, n_alpha = config.get("grid")
    grid = lpcore.GridSpec(n_ell=n_ell, n_alpha=n_alpha)
    tol = config.get("tol")

    body = {"volume": V, "grid": {"n_ell": n_ell, "n_alpha": n_alpha}}

    def solve_one(lp, bound, label):
        sol = lpcore.solve(lp, tol=lpcore.SOLVER_TOL)
        entry = {
            "status": sol.status,
            "optimum": sol.objective_value,
            "bound": bound,
            "duality_gap": sol.duality_gap,
        }
        ok = sol.status == "optimal"
        if ok:
            entry["relative_error"] = abs(sol.objective_value - bound) / bound
            entry["dual"] = dict(zip(lp.row_labels, sol.dual.tolist()))
            entry["weak_duality"] = {
                "gap": sol.duality_gap,
                "primal_violation": sol.primal_residual,
                "dual_violation": sol.dual_residual,
            }
            ok = entry["relative_error"] <= tol
        body[label] = entry
        return ok

    if config.get("table") == 1:
        passed = solve_one(lpcore.build_relative_lp(params, V, 1, grid), ball.area, "table1")
    else:
        bound = relative.relative_bound(relative.RelativeCase(params, m, V))
        passed = solve_one(lpcore.build_relative_lp(params, V, m, grid), bound, "table2_rescaled")
        lp_printed = lpcore.build_relative_lp(params, V, m, grid, variant="printed")
        sol_printed = lpcore.solve(lp_printed, tol=lpcore.SOLVER_TOL)
        body["table2_printed_scaling"] = {
            "status": sol_printed.status,
            "optimum": sol_printed.objective_value,
            "bound": bound,
        }
    return body, {"relative_error": tol, "solver": lpcore.SOLVER_TOL}, passed


def _moment_residuals(ball, n_nodes: int) -> list[float]:
    """Relative residuals of the integrals of F1..F4 over the ball's quadrature measure against its moments."""
    moments = chordmeasure.ball_moments(ball)
    if 0.0 in moments:
        name = ("A^2", "A*V", "V^2", "omega_{n-1}*V")[moments.index(0.0)]
        raise ValueError(f"radius {ball.radius!r} is too small: the ball's moment {name} underflows to 0")
    measure = chordmeasure.discretize_ball_measure(ball, n_nodes)
    return [
        (chordmeasure.integrate(measure, f"F{k}", ball.params) - rhs) / rhs
        for k, rhs in enumerate(moments, start=1)
    ]


_SUM_LEAF = 1 << 14


def _pairwise_sum(x: np.ndarray, term) -> float:
    """Sum of term(x), taken as np.sum(term(x)) would take it, with no temporary of x's size.

    numpy sums a contiguous float64 array pairwise: it halves a piece of
    n > 128 elements at n // 2 rounded down to a multiple of 8.  Halving
    the same way down to leaves of at most 2^14 elements, each summed by
    np.sum, adds the same numbers in the same order.
    """
    n = x.size
    if n <= _SUM_LEAF:
        return float(np.sum(term(x)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x[:half], term) + _pairwise_sum(x[half:], term)


def _sample_std(x: np.ndarray) -> float:
    """float(np.std(x, ddof=1)) bit for bit, for a 1-D float64 array of at least two elements."""
    mean = _pairwise_sum(x, lambda block: block) / x.size
    return math.sqrt(_pairwise_sum(x, lambda block: np.square(block - mean)) / (x.size - 1))


def _cmd_measure_check(config: dict):
    mc_n, seed = config.get("mc_samples"), config.get("seed")
    if mc_n is not None and seed is None:
        raise UsageError("--seed is required with --mc-samples")
    if mc_n is None and seed is not None:
        raise UsageError("--seed is only read with --mc-samples")
    if mc_n == 1:
        raise UsageError("--mc-samples must be at least 2: a standard error needs two samples")
    params = spaceform.ModelParams(config.get("dim"), config.get("kappa"))
    ball = _resolve_radius_volume(params, config.get("radius"), config.get("volume"))
    n_nodes = config.get("grid")
    tols = {"relative": config.get("tol"), "mc_z": 3.0}
    *croke, santalo_rel = _moment_residuals(ball, n_nodes)
    croke_rel = {f"croke{which}": v for which, v in enumerate(croke, start=1)}
    passed = all(abs(v) <= tols["relative"] for v in (*croke, santalo_rel))
    body = {
        "ball": {"radius": ball.radius, "volume": ball.volume, "area": ball.area},
        "quadrature_nodes": n_nodes,
        "santalo_relative": santalo_rel,
        "croke_relative": croke_rel,
    }
    if mc_n is not None:
        sample = chordmeasure.sample_chords(ball, mc_n, seed)
        est = chordmeasure.integrate(sample, "F4", params)
        exact = chordmeasure.ball_moments(ball)[3]
        se = sample.total_mass * _sample_std(sample.ell) / math.sqrt(mc_n)
        z = (est - exact) / se
        body["monte_carlo"] = {
            "samples": mc_n,
            "seed": seed,
            "santalo_estimate": est,
            "santalo_exact": exact,
            "standard_error": se,
            "z_score": z,
            "p_value": math.erfc(abs(z) / math.sqrt(2.0)),
        }
        passed = passed and abs(z) <= tols["mc_z"]
    return body, tols, passed


def _cmd_lemma(config: dict):
    case = config.get("case")
    grid = config.get("grid")
    starts = config.get("starts")
    seed = config.get("seed")
    report = lemmas.verify_H_nonneg(case, grid)
    search = lemmas.solve_critical_points(lemmas.critical_system(case), n_starts=starts, seed=seed)
    roots = search.roots
    max_curve_dist = max((r.curve_distance for r in roots), default=0.0)
    pts = _philox.uniform(seed, (10000, 2)) * 5.0
    fact = float(np.max(np.abs(lemmas.check_factorization(case, pts[:, 0], pts[:, 1]))))
    dgdp = [lemmas.dGdp_identity(case, p) for p in (1.0, 2.0)]
    tols = {"min_H": lemmas.H_FLOOR, "root_curve_distance": 1e-6, "factorization": 1e-10, "dGdp": 1e-5}
    body = {
        "case": case,
        "min_H": report.min_value,
        "argmin": list(report.argmin),
        "argmin_curve_distance": report.argmin_curve_distance,
        "grid_shape": list(report.grid_shape),
        "rays": [{"label": r.label, "tail_min": r.tail_min, "passed": r.passed} for r in report.rays],
        "critical_roots": [
            {
                "t": r.t, "p": r.p, "q": r.q,
                "residual": r.residual,
                "curve_distance": r.curve_distance,
                "merged_starts": r.n_merged,
            }
            for r in roots
        ],
        "multistart": {
            "n_starts": search.n_starts,
            "n_converged": search.n_converged,
            "n_singular": search.n_singular,
            "n_stalled": search.n_stalled,
            "n_out_of_domain": search.n_out_of_domain,
            "n_degenerate": search.n_degenerate,
        },
        "max_root_curve_distance": max_curve_dist,
        "factorization_max_residual": fact,
        "dGdp": [{"p": c.p, "closed": c.closed, "fd": c.fd, "residual": c.residual} for c in dgdp],
    }
    fact_ok = fact <= tols["factorization"]
    dgdp_ok = all(abs(c.residual) <= tols["dGdp"] * (1 + abs(c.closed)) for c in dgdp)
    passed = report.passed and len(roots) > 0 and max_curve_dist <= tols["root_curve_distance"] and fact_ok and dgdp_ok
    return body, tols, passed


def _cmd_negbound(config: dict):
    r = config.get("radius")
    n_nodes = config.get("grid")
    tol = config.get("tol")
    tols = {"relative": tol, "model_spectrum_margin": 1e-9}
    small = negbound.smallness_ok(negbound.SmallnessInput(-1.0, r, r))
    meas4, meas2 = (
        chordmeasure.discretize_ball_measure(spaceform.ball_from_radius(spaceform.ModelParams(n, -1.0), r), n_nodes)
        for n in (4, 2)
    )
    rhs4, rhs2 = negbound.normalizers(r, tol)
    conj = negbound.conjecture_residual(r, meas4) / rhs4
    hyp2 = negbound.hyp2_lemma_residual(r, meas2) / rhs2
    body = {
        "radius": r,
        "smallness": {"product": small.product, "margin": small.margin, "ok": small.ok},
        "conjecture_relative_residual": conj,
        "hyp2_relative_residual": hyp2,
        "hyp2_convention": "rhs = A*V - tanh(r)*V^2 (chord normalization with total length omega_1*V)",
    }
    passed = abs(conj) <= tol and abs(hyp2) <= tol
    if config.get("search"):
        res = negbound.ch2_counterexample_search(config.get("ell_max"), config.get("r_max"))
        zero = negbound.question1_margin(
            negbound.CurvatureSpectrum((-1.0, -1.0, -1.0)), res.r, min(res.ell, 3.0)
        )
        body["ch2_search"] = {
            "r": res.r, "ell": res.ell, "margin": res.margin, "violated": res.violated,
        }
        body["model_spectrum_margin"] = zero
        passed = passed and res.violated and abs(zero) <= tols["model_spectrum_margin"]
    return body, tols, passed


def _cmd_prince(config: dict):
    shape = config.get("shape")
    if shape == "disk":
        dom = littleprince.disk(config.get("r"))
    elif shape == "ellipse":
        dom = littleprince.ellipse(config.get("a"), config.get("b"))
    elif shape == "square":
        dom = littleprince.square_side_midpoint()
    else:
        path = config.get("csv")
        if not path:
            raise UsageError("--csv PATH is required for --shape csv")
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --csv {path}: {exc.strerror or exc}") from exc
        dom = littleprince.from_csv(text)
    g = littleprince.gravity(dom)
    a = littleprince.area(dom)
    disk_g = littleprince.disk_gravity(a)
    margin = disk_g - g  # littleprince.verify_pp(dom), from the integrals already taken
    body = {
        "shape": dom.tag,
        "gravity": g,
        "area": a,
        "disk_gravity_same_area": disk_g,
        "pp_margin": margin,
        "dual_chain_bound": littleprince.dual_chain_bound(a),
        "weil_perimeter_bound": littleprince.weil_bound(a),
    }
    tols = {"pp_margin": -1e-10}
    return body, tols, margin >= tols["pp_margin"]


def _cmd_relative(config: dict):
    params = spaceform.ModelParams(config.get("dim"), config.get("kappa"))
    V = config.get("volume")
    m = config.get("m")
    tol = config.get("tol")
    case = relative.RelativeCase(params, m, V)
    bound = relative.relative_bound(case)
    # the quotient's identities are B0's divided by m on both sides
    residuals = _moment_residuals(spaceform.ball_from_volume(params, m * V), config.get("grid"))[:3]
    body = {
        "m": m,
        "volume": V,
        "relative_bound": bound,
        "equality_residuals": dict(zip(("F1", "F2", "F3"), residuals)),
    }
    return body, {"relative": tol}, all(abs(v) <= tol for v in residuals)


_COMMANDS = {
    "profile": _cmd_profile,
    "certificate": _cmd_certificate,
    "lp": _cmd_lp,
    "measure-check": _cmd_measure_check,
    "lemma": _cmd_lemma,
    "negbound": _cmd_negbound,
    "prince": _cmd_prince,
    "relative": _cmd_relative,
}


def _add_common(p, *, model=False, rv=False, grid=None, tol=None):
    if model:
        p.add_argument("--dim", type=int, required=True, help="dimension n >= 2")
        p.add_argument("--kappa", type=float, required=True, help="curvature bound")
    if rv:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--radius", type=_positive_float, help="ball radius (> 0)")
        g.add_argument("--volume", type=_positive_float, help="ball volume (> 0)")
    if grid is not None:
        p.add_argument("--grid", type=_positive_int, default=grid, help=f"grid size / node count (> 0, default {grid})")
    if tol is not None:
        p.add_argument("--tol", type=_positive_float, default=tol, help=f"tolerance of the check (> 0, default {tol})")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < _philox.SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must be >= 0 and < 2**128 (a Philox key), got {text!r}")
    return value


def _parse_grid_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 40x20, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in e-notation as a value.

    argparse alone recognizes only forms like -1 and -1.5, and reads
    `--kappa -1e-3` as a flag with no value.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isoplp",
        description="Verification toolkit for isoperimetric LP bounds on model spaces",
    )
    parser.add_argument("--version", action="version", version=f"isoplp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="tabulate ball area against volume")
    p.add_argument("--vmin", type=_positive_float, required=True)
    p.add_argument("--vmax", type=_positive_float, required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    _add_common(p, model=True)

    p = sub.add_parser("certificate", help="reconstruct and verify a dual certificate")
    _add_common(p, model=True, rv=True, grid=80)

    p = sub.add_parser("lp", help="build and solve the finite LP")
    p.add_argument("--table", type=int, choices=(1, 2), default=1)
    p.add_argument("--m", type=_positive_int, help="multiplicity (> 0); required with --table 2, read only there")
    p.add_argument("--grid", type=_parse_grid_pair, default=(40, 20), help="ell x alpha node counts, e.g. 40x20")
    _add_common(p, model=True, rv=True, tol=0.02)

    p = sub.add_parser("measure-check", help="chord-measure integral identities")
    p.add_argument("--mc-samples", type=_positive_int, dest="mc_samples", help="Monte Carlo chord count (>= 2)")
    p.add_argument("--seed", type=_seed, help="Monte Carlo seed in [0, 2**128); required with --mc-samples, read only there")
    _add_common(p, model=True, rv=True, grid=128, tol=1e-7)

    p = sub.add_parser("lemma", help="polynomial nonnegativity verification")
    p.add_argument("--case", choices=("spherical", "hyperbolic"), required=True)  # lemmas.CASES
    p.add_argument("--starts", type=_positive_int, default=1000, help="Newton multistart count (> 0)")
    p.add_argument("--seed", type=_seed, default=0, help="multistart seed in [0, 2**128)")
    _add_common(p, grid=120)

    p = sub.add_parser("negbound", help="negative-curvature inequalities")
    p.add_argument("--radius", type=_positive_float, required=True, help="ball radius (> 0)")
    p.add_argument("--search", action="store_true", help="run the counterexample search")
    p.add_argument("--ell-max", type=_positive_float, default=10.0, dest="ell_max")
    p.add_argument("--r-max", type=_positive_float, default=5.0, dest="r_max")
    _add_common(p, grid=128, tol=1e-7)

    p = sub.add_parser("prince", help="planar gravity of a star-shaped domain")
    p.add_argument("--shape", choices=("disk", "ellipse", "square", "csv"), required=True)
    p.add_argument("--r", type=_positive_float, default=1.0, help="disk radius")
    p.add_argument("--a", type=_positive_float, default=2.0, help="ellipse semi-axis")
    p.add_argument("--b", type=_positive_float, default=0.5, help="ellipse semi-axis")
    p.add_argument("--csv", help="CSV path with header alpha,L")
    _add_common(p)

    p = sub.add_parser("relative", help="multiplicity-m relative bound")
    p.add_argument("--m", type=_positive_int, required=True, help="multiplicity, > 0")
    p.add_argument("--volume", type=_positive_float, required=True, help="volume of the quotient (> 0)")
    _add_common(p, model=True, grid=128, tol=1e-7)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # the config echo: every flag that has a value, except the report format and path
    config = {k: v for k, v in vars(args).items() if k not in ("command", "format", "out") and v is not None}
    try:
        body, tols, passed = _COMMANDS[args.command](config)
    except ValueError as exc:  # UsageError, or invalid input found by the library
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(_report_shell(args.command, config, tols, body, passed), args.format, args.out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
