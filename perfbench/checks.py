"""Independent checks of isoplp CLI reports.

Every expected value here comes from closed forms of the model-space
geometry and of the paper's certificates, written with the standard
library's ``math`` only.  Nothing is compared with the program's own
functions or with stored report bytes, so a speed-up bought with a smaller
grid, fewer starts or a looser solve shows up as a failed invocation.
"""

from __future__ import annotations

import math

# Largest accepted relative error of an LP optimum against its bound.  The
# seed's LPs reach 5e-9 at 40x20 and 2e-9 at 80x40, far inside the CLI's own
# 2% pass threshold; an optimum off by 1e-3 fails here.
LP_REL_TOL = 1e-6
# Closed-form geometry (areas, volumes, bounds) against the report.
GEOM_REL_TOL = 1e-9
# Residuals of the integral identities the CLI computes by quadrature.
IDENTITY_TOL = 1e-7
# Fit against the paper's tan/tanh certificate coefficients.
CERT_REL_TOL = 1e-8
MC_Z_MAX = 3.0
H_MIN = -1e-9
ROOT_CURVE_MAX = 1e-6
# Weak-duality residuals of an optimal LP pair.
DUALITY_TOL = 1e-6
# The CLI's own pass threshold on an LP's relative error; an LP expected to
# fail (kappa < 0 has no tight bound) must miss it.
CLI_LP_TOL = 0.02

# grids and node counts the CLI uses when the flag is not given
LP_DEFAULT_GRID = (40, 20)
QUADRATURE_DEFAULT_NODES = 128


def sphere_area(k: int) -> float:
    """k-dimensional volume of the unit k-sphere."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def sn(kappa: float, t: float) -> float:
    if kappa > 0.0:
        return math.sin(math.sqrt(kappa) * t) / math.sqrt(kappa)
    if kappa < 0.0:
        return math.sinh(math.sqrt(-kappa) * t) / math.sqrt(-kappa)
    return t


def ball_area(n: int, kappa: float, r: float) -> float:
    return sphere_area(n - 1) * sn(kappa, r) ** (n - 1)


def ball_volume(n: int, kappa: float, r: float, intervals: int = 2048) -> float:
    """omega_{n-1} * integral_0^r sn^(n-1), by composite Simpson."""
    h = r / intervals
    total = sn(kappa, 0.0) ** (n - 1) + sn(kappa, r) ** (n - 1)
    for i in range(1, intervals):
        total += (4 if i % 2 else 2) * sn(kappa, i * h) ** (n - 1)
    return sphere_area(n - 1) * total * h / 3.0


def radius_from_volume(n: int, kappa: float, volume: float) -> float:
    """Invert ball_volume by bisection (volume must fit in the hemisphere)."""
    lo, hi = 0.0, math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0.0 else 1.0
    while kappa <= 0.0 and ball_volume(n, kappa, hi, 256) < volume:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ball_volume(n, kappa, mid, 256) < volume:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    # polish with Newton steps on the accurate volume: dV/dr is the area
    r = 0.5 * (lo + hi)
    for _ in range(3):
        r -= (ball_volume(n, kappa, r) - volume) / ball_area(n, kappa, r)
    return r


def certificate_reference(n: int, kappa: float, r: float) -> tuple[float, float, float, float]:
    """The paper's certificate coefficients (a, b, c, d) for n in {2, 4}, kappa in {-1, 0, 1}."""
    t = {1.0: math.tan(r), 0.0: r, -1.0: math.tanh(r)}[kappa]
    if n == 4:
        return (1.0, 6.0 * kappa * t, 9.0 * abs(kappa) * t * t, 12.0 * t * t)
    if n == 2:
        return (0.0, 1.0, kappa * t, 2.0 * t)
    raise ValueError(f"no closed-form certificate for n = {n}")


def _close(got, want: float, rel: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rel * max(1.0, abs(want))


def parse_options(argv) -> dict:
    """Map CLI flags to the config keys the report echoes, with parsed values."""
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = _parse_value(argv[i + 1])
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _parse_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    if "x" in text:
        a, b = text.split("x")
        if a.isdigit() and b.isdigit():
            return [int(a), int(b)]
    return text


def check(argv, exit_code: int, expected_exit: int, report) -> list[str]:
    """Problems found in one invocation's exit code and report; empty when it is correct."""
    problems = []
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    if not isinstance(report, dict):
        return problems + ["no JSON report on stdout"]
    command, opts = argv[0], parse_options(argv)
    if report.get("command") != command:
        problems.append(f"report is for command {report.get('command')!r}")
    if report.get("passed") is not (expected_exit == 0):
        problems.append(f"report says passed={report.get('passed')!r}")
    config = report.get("config", {})
    for key, want in opts.items():
        if config.get(key) != want:
            problems.append(f"config echoes {key}={config.get(key)!r}, requested {want!r}")
    body = report.get("report")
    if not isinstance(body, dict):
        return problems + ["report has no body"]
    try:
        problems += _CHECKS[command](opts, body, expected_exit)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"malformed {command} report: {type(exc).__name__}: {exc}")
    return problems


def _ball(opts):
    n, kappa = opts["dim"], float(opts["kappa"])
    r = opts["radius"] if "radius" in opts else radius_from_volume(n, kappa, opts["volume"])
    return n, kappa, r


def _check_lp_entry(label, entry, bound, expect_tight):
    problems = []
    if entry["status"] != "optimal":
        return [f"{label}: status {entry['status']!r}"]
    if not _close(entry["bound"], bound, GEOM_REL_TOL):
        problems.append(f"{label}: bound {entry['bound']!r}, closed form {bound!r}")
    opt = entry["optimum"]
    if expect_tight and not _close(opt, bound, LP_REL_TOL):
        problems.append(f"{label}: optimum {opt!r} is not within {LP_REL_TOL} of {bound!r}")
    if not expect_tight and not opt < (1.0 - CLI_LP_TOL) * bound:
        problems.append(f"{label}: optimum {opt!r} unexpectedly close to {bound!r}")
    wd = entry["weak_duality"]
    for key in ("gap", "primal_violation", "dual_violation"):
        if not abs(wd[key]) <= DUALITY_TOL * max(1.0, abs(opt)):
            problems.append(f"{label}: weak duality {key} = {wd[key]!r}")
    return problems


def _check_lp(opts, body, expected_exit):
    n_ell, n_alpha = opts.get("grid", LP_DEFAULT_GRID)
    problems = []
    if body["grid"] != {"n_ell": n_ell, "n_alpha": n_alpha}:
        problems.append(f"grid echo {body['grid']!r}, requested {n_ell}x{n_alpha}")
    n, kappa, r = _ball(opts)
    if opts.get("table", 1) == 1:
        return problems + _check_lp_entry("table1", body["table1"], ball_area(n, kappa, r), expected_exit == 0)
    m = opts["m"]
    r0 = radius_from_volume(n, kappa, m * opts["volume"])
    bound = ball_area(n, kappa, r0) / m
    problems += _check_lp_entry("table2_rescaled", body["table2_rescaled"], bound, expected_exit == 0)
    if body["table2_printed_scaling"]["status"] != "optimal":
        problems.append("table2_printed_scaling: not optimal")
    return problems


def _check_certificate(opts, body, expected_exit):
    n, kappa, r = _ball(opts)
    want = certificate_reference(n, kappa, r)
    fit = body["consistency_fit"]
    got = tuple(fit[k] for k in "abcd")
    scale = max(abs(v) for v in want)
    problems = []
    if max(abs(g - w) for g, w in zip(got, want)) > CERT_REL_TOL * scale:
        problems.append(f"consistency fit {got!r}, closed form {want!r}")
    if body["verification"]["passed"] is not True:
        problems.append("certificate verification did not pass")
    return problems


def _check_measure(opts, body, expected_exit):
    n, kappa, r = _ball(opts)
    problems = []
    ball = body["ball"]
    volume = ball_volume(n, kappa, r)
    if not (_close(ball["area"], ball_area(n, kappa, r), GEOM_REL_TOL) and _close(ball["volume"], volume, GEOM_REL_TOL)):
        problems.append(f"ball {ball!r} disagrees with the closed forms")
    if body["quadrature_nodes"] != opts.get("grid", QUADRATURE_DEFAULT_NODES):
        problems.append(f"quadrature_nodes echo {body['quadrature_nodes']!r}")
    residuals = [body["santalo_relative"], *body["croke_relative"].values()]
    if not all(abs(v) <= IDENTITY_TOL for v in residuals):
        problems.append(f"integral identity residuals {residuals!r}")
    if "mc_samples" in opts:
        mc = body["monte_carlo"]
        if mc["seed"] != opts["seed"] or mc["samples"] != opts["mc_samples"]:
            problems.append(f"Monte Carlo echoes seed={mc['seed']!r}, samples={mc['samples']!r}")
        if not _close(mc["santalo_exact"], sphere_area(n - 1) * volume, GEOM_REL_TOL):
            problems.append(f"Santalo exact value {mc['santalo_exact']!r}")
        z = (mc["santalo_estimate"] - sphere_area(n - 1) * volume) / mc["standard_error"]
        if not abs(z) <= MC_Z_MAX:
            problems.append(f"Monte Carlo Santalo z = {z!r}")
    return problems


def _check_lemma(opts, body, expected_exit):
    grid, starts = opts["grid"], opts["starts"]
    problems = []
    if body["grid_shape"] != [grid] * 3:
        problems.append(f"grid_shape echo {body['grid_shape']!r}, requested {grid}")
    ms = body["multistart"]
    if ms["n_starts"] != starts:
        problems.append(f"n_starts echo {ms['n_starts']!r}, requested {starts}")
    if ms["n_converged"] + ms["n_stalled"] + ms["n_singular"] != starts:
        problems.append(f"multistart outcomes {ms!r} do not add up to {starts}")
    if not body["min_H"] >= H_MIN:
        problems.append(f"min_H = {body['min_H']!r}")
    if not body["max_root_curve_distance"] <= ROOT_CURVE_MAX:
        problems.append(f"max_root_curve_distance = {body['max_root_curve_distance']!r}")
    roots = body["critical_roots"]
    if not roots:
        problems.append("no critical roots")
    for root in roots:
        # the zero curve is {p = q, 3 p t = 1}
        t, p, q = root["t"], root["p"], root["q"]
        if abs(p - q) > ROOT_CURVE_MAX * (1.0 + abs(p)) or abs(3.0 * p * t - 1.0) > ROOT_CURVE_MAX:
            problems.append(f"root {(t, p, q)!r} is off the curve p = q, 3pt = 1")
            break
    return problems


def _check_negbound(opts, body, expected_exit):
    problems = []
    residuals = (body["conjecture_relative_residual"], body["hyp2_relative_residual"])
    if not all(abs(v) <= IDENTITY_TOL for v in residuals):
        problems.append(f"negative-curvature identity residuals {residuals!r}")
    if opts.get("search"):
        if body["ch2_search"]["violated"] is not True:
            problems.append("CH^2 counterexample search found no violation")
        if not abs(body["model_spectrum_margin"]) <= 1e-9:
            problems.append(f"model spectrum margin {body['model_spectrum_margin']!r}")
    return problems


def _check_prince(opts, body, expected_exit):
    problems = []
    if opts["shape"] == "ellipse" and not _close(body["area"], math.pi * opts["a"] * opts["b"], GEOM_REL_TOL):
        problems.append(f"ellipse area {body['area']!r}")
    area = body["area"]
    if not _close(body["weil_perimeter_bound"], 2.0 * math.sqrt(math.pi * area), GEOM_REL_TOL):
        problems.append(f"Weil bound {body['weil_perimeter_bound']!r}")
    margin = body["disk_gravity_same_area"] - body["gravity"]
    if not (_close(body["pp_margin"], margin, GEOM_REL_TOL) and margin >= -1e-10):
        problems.append(f"pp margin {body['pp_margin']!r}, disk minus domain gravity {margin!r}")
    return problems


def _check_relative(opts, body, expected_exit):
    n, kappa, m, volume = opts["dim"], float(opts["kappa"]), opts["m"], opts["volume"]
    bound = ball_area(n, kappa, radius_from_volume(n, kappa, m * volume)) / m
    problems = []
    if not _close(body["relative_bound"], bound, GEOM_REL_TOL):
        problems.append(f"relative bound {body['relative_bound']!r}, closed form {bound!r}")
    if not all(abs(v) <= IDENTITY_TOL for v in body["equality_residuals"].values()):
        problems.append(f"equality residuals {body['equality_residuals']!r}")
    return problems


def _check_profile(opts, body, expected_exit):
    n, kappa = opts["dim"], float(opts["kappa"])
    vmin, vmax, steps = opts["vmin"], opts["vmax"], opts["steps"]
    rows = body["rows"]
    if len(rows) != steps:
        return [f"{len(rows)} profile rows, requested {steps}"]
    for i, row in enumerate(rows):
        v = vmin + (vmax - vmin) * i / max(steps - 1, 1)
        r = row["radius"]
        if not (
            _close(row["V"], v, GEOM_REL_TOL)
            and _close(ball_volume(n, kappa, r), v, GEOM_REL_TOL)
            and _close(row["area"], ball_area(n, kappa, r), GEOM_REL_TOL)
        ):
            return [f"profile row {row!r} disagrees with the closed forms at V = {v!r}"]
    return []


_CHECKS = {
    "lp": _check_lp,
    "certificate": _check_certificate,
    "measure-check": _check_measure,
    "lemma": _check_lemma,
    "negbound": _check_negbound,
    "prince": _check_prince,
    "relative": _check_relative,
    "profile": _check_profile,
}
