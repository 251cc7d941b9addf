"""Command line interface: exit codes, report shape, determinism, curvature units."""

import argparse
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isoplp
from isoplp import __version__, _philox, lemmas
from isoplp.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "certificate", "--dim", "4", "--kappa", "0", "--radius", "1", "--frobnicate")
    assert code == 2


@pytest.mark.parametrize("kappa", ["-1e-3", "-2.5E-1"])
def test_negative_kappa_in_e_notation(capsys, kappa):
    # argparse alone takes "-1e-3" for a flag; the value form must match --kappa=
    args = ("certificate", "--dim", "2", "--radius", "0.5")
    code, out, err = run_cli(capsys, *args, "--kappa", kappa)
    code_eq, out_eq, _ = run_cli(capsys, *args, f"--kappa={kappa}")
    assert code == code_eq == 0, err
    assert out == out_eq
    assert json.loads(out)["config"]["kappa"] == float(kappa)
    code, out, _ = run_cli(capsys, *args, "--kappa", kappa, "--frobnicate")
    assert code == 2
    assert out == ""


def test_missing_subcommand_exits_2(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2


def test_radius_volume_mutually_exclusive(capsys):
    code, out, err = run_cli(
        capsys, "certificate", "--dim", "2", "--kappa", "0", "--radius", "1", "--volume", "2"
    )
    assert code == 2


def test_certificate_flat_4ball(capsys):
    code, out, err = run_cli(capsys, "certificate", "--dim", "4", "--kappa", "0", "--radius", "1")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["tool"]["name"] == "isoplp"
    assert report["passed"] is True
    body = report["report"]
    assert body["consistency_fit"]["d"] == pytest.approx(12.0, rel=1e-8)
    assert body["reference"]["d"] == pytest.approx(12.0, rel=1e-12)
    assert body["reference_mismatch"] <= 1e-6
    assert body["verification"]["passed"] is True
    # every threshold the verdict reads is echoed
    tols = report["tolerances"]
    assert tols == {"consistency": 1e-8, "reference_match": 1e-6, "membership_defect": 1e-9, "curve_sup": 1e-8}
    assert body["verification"]["curve_sup_deviation"] <= tols["curve_sup"]
    # the config echo holds the effective grid, not only the flags given
    assert report["config"]["grid"] == 80


def test_certificate_output_byte_identical(capsys):
    args = ("certificate", "--dim", "2", "--kappa", "-1", "--radius", "0.8")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_certificate_reports_user_units(capsys):
    # kappa = 4 is solved as given: T = tan(2 r)/2, c = kappa T, d = 2 T
    code, out, _ = run_cli(capsys, "certificate", "--dim", "2", "--kappa", "4", "--radius", "0.35")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["kappa"] == 4.0
    body = report["report"]
    assert body["radius"] == 0.35
    t = math.tan(0.7) / 2.0
    assert body["reference"]["c"] == pytest.approx(4.0 * t, rel=1e-14)
    assert body["reference"]["d"] == pytest.approx(2.0 * t, rel=1e-14)
    assert body["consistency_fit"]["c"] == pytest.approx(4.0 * t, rel=1e-10)
    assert "normalized" not in body and "user_units" not in body


@pytest.mark.parametrize("n,kappa,r", [(3, 0.0, 1.0), (3, 1.0, 0.7)])
def test_certificate_without_solution_gives_no_coefficients(capsys, n, kappa, r):
    code, out, _ = run_cli(capsys, "certificate", "--dim", str(n), "--kappa", str(kappa), "--radius", str(r))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    fit = report["report"]["consistency_fit"]
    assert not set("abcd") & set(fit)
    assert fit["residual"] > report["tolerances"]["consistency"]
    assert f"no (a, b, c, d) certificate of this form exists for (n, kappa) = ({n}, {kappa!r})" in fit["message"]


@pytest.mark.parametrize("n, r", [(4, "3.5"), (4, "5"), (2, "10"), (2, "13")])
def test_certificate_fits_at_large_hyperbolic_radius(capsys, n, r):
    code, out, _ = run_cli(capsys, "certificate", "--dim", str(n), "--kappa", "-1", "--radius", r, "--grid", "20")
    assert code in (0, 1)
    body = json.loads(out)["report"]
    assert "message" not in body["consistency_fit"]
    assert body["reference_mismatch"] <= 1e-12
    assert "nan" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--dim", "4", "--kappa", "-1", "--radius", "6"), "not finite on the chord lengths [0, 240] of radius 6.0"),
        (("--dim", "2", "--kappa", "-1", "--radius", "20"), "not finite on the chord lengths [0, 800] of radius 20.0"),
        (("--dim", "2", "--kappa", "0", "--radius", "1e-300"), "consistency kernel has dimension > 1"),
    ],
)
def test_certificate_numerical_limits_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "certificate", *argv, "--grid", "20")
    assert code == 2
    assert out == ""
    assert message in err


def test_certificate_single_node_grid_exits_2(capsys):
    # one node has only the diagonal, so the membership check would pass vacuously
    code, out, err = run_cli(capsys, "certificate", "--dim", "4", "--kappa", "1", "--radius", "0.8", "--grid", "1")
    assert code == 2
    assert out == ""
    assert "at least 2 angle nodes" in err


@pytest.mark.parametrize(
    "radius, kappa, on_diagonal",
    [
        # f ~ r^3 is so small here that every defect falls below the 1e-9 tolerance
        ("0.01", "0", False),
        ("0.8", "1", True),
    ],
)
def test_certificate_reports_equality_on_diagonal(capsys, radius, kappa, on_diagonal):
    code, out, _ = run_cli(capsys, "certificate", "--dim", "4", "--kappa", kappa, "--radius", radius)
    assert code == (0 if on_diagonal else 1)
    verification = json.loads(out)["report"]["verification"]
    assert verification["membership_equality_on_diagonal"] is on_diagonal
    assert verification["passed"] is on_diagonal


def test_certificate_out_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certificate", "--dim", "4", "--kappa", "0", "--radius", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["passed"] is True


def test_profile_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile", "--dim", "2", "--kappa", "0",
        "--vmin", "1", "--vmax", "2", "--steps", "3", "--format", "csv",
    )
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0] == "V,radius,area"
    assert len(lines) == 4
    fields = [float(x) for x in lines[1].split(",")]
    assert fields[0] == pytest.approx(1.0)
    assert fields[2] == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)


def test_lp_flat_disk(capsys):
    code, out, _ = run_cli(
        capsys, "lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--grid", "40x20"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    entry = report["report"]["table1"]
    assert entry["status"] == "optimal"
    assert entry["optimum"] == pytest.approx(2.0 * math.pi, rel=1e-6)
    assert entry["relative_error"] <= 0.02
    assert entry["weak_duality"]["primal_violation"] <= 1e-9
    assert "total-length" in entry["dual"]


def test_lp_bound_scales_with_curvature(capsys):
    # at kappa = 4, radius 0.35 the disk is the kappa = 1, radius 0.7 disk with lengths halved
    def table1(*argv):
        code, out, _ = run_cli(capsys, "lp", "--dim", "2", *argv)
        assert code == 0
        return json.loads(out)["report"]["table1"]

    small = table1("--kappa", "4", "--radius", "0.35")
    unit = table1("--kappa", "1", "--radius", "0.7")
    assert small["bound"] == pytest.approx(unit["bound"] / 2.0, rel=1e-14)
    assert small["bound"] == pytest.approx(math.pi * math.sin(0.7), rel=1e-14)
    assert small["optimum"] == pytest.approx(2.023869553538537, abs=1e-6)


def test_lp_weak_duality_block_is_the_solution_residuals(capsys, monkeypatch):
    solutions = []
    solve = isoplp.cli.lpcore.solve

    def recording_solve(lp, tol):
        solutions.append(solve(lp, tol=tol))
        return solutions[-1]

    monkeypatch.setattr(isoplp.cli.lpcore, "solve", recording_solve)
    code, out, _ = run_cli(capsys, "lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--grid", "10x5")
    assert code == 0
    (sol,) = solutions
    entry = json.loads(out)["report"]["table1"]
    assert entry["weak_duality"] == {
        "gap": entry["duality_gap"],
        "primal_violation": sol.primal_residual,
        "dual_violation": sol.dual_residual,
    }
    assert entry["duality_gap"] == sol.duality_gap


# the lp invocations of the benchmark's workloads, with their exit codes
BENCHMARK_LPS = (
    (0, "lp --dim 4 --kappa 1 --radius 0.8 --grid 80x40"),
    (0, "lp --dim 2 --kappa 0 --radius 1.0 --grid 80x40"),
    (0, "lp --dim 2 --kappa 0 --volume 3.141592653589793 --grid 40x20"),
    (1, "lp --dim 4 --kappa -1 --radius 0.8"),
    (0, "lp --table 2 --dim 4 --kappa 1 --m 3 --volume 0.4"),
)


@pytest.mark.parametrize("expected,argv", BENCHMARK_LPS, ids=[a for _, a in BENCHMARK_LPS])
def test_lp_duals_print_nonnegative(capsys, expected, argv):
    # a >= row has a dual >= 0; rounding must not print -6.9e-16 or -0.0
    code, out, _ = run_cli(capsys, *shlex.split(argv))
    assert code == expected
    body = json.loads(out)["report"]
    entry = body["table1"] if "table1" in body else body["table2_rescaled"]
    assert entry["status"] == "optimal"
    assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in entry["dual"].values()), entry["dual"]


@pytest.mark.parametrize(
    "argv,label",
    [
        ("lp --dim 4 --kappa 1 --radius 0.8 --grid 40x20", "table1"),
        ("lp --table 2 --dim 4 --kappa 1 --m 3 --volume 0.4", "table2_rescaled"),
    ],
)
def test_lp_optimum_is_exact_to_rounding_on_curve_aligned_grids(capsys, argv, label):
    # the grid holds the ball's own chord measure, and the simplex returns a
    # basic solution, so what is left is rounding, not a solver tolerance
    code, out, _ = run_cli(capsys, *shlex.split(argv))
    assert code == 0
    assert json.loads(out)["report"][label]["relative_error"] <= 1e-12


@pytest.mark.parametrize("grid", ["40x20", "80x40"])
@pytest.mark.parametrize("radius", ["1.5", "1.56", "1.57"])
def test_lp_near_the_hemisphere_meets_the_ball_area(capsys, radius, grid):
    # the chord curve falls to 0 in a layer of width ~1/tan(r) next to pi/2,
    # which the angle grid must resolve for the grid to hold the ball measure
    code, out, _ = run_cli(capsys, "lp", "--dim", "4", "--kappa", "1", "--radius", radius, "--grid", grid)
    entry = json.loads(out)["report"]["table1"]
    assert code == 0
    assert entry["status"] == "optimal"
    assert abs(entry["optimum"] - entry["bound"]) <= 1e-8 * entry["bound"]


def test_lp_flat_4ball_of_radius_10_is_optimal(capsys):
    # the row entries span 1 to 4e7 at r = 10, since the LP is built in the
    # user's unit of length; at this grid it still meets the ball area
    code, out, _ = run_cli(capsys, "lp", "--dim", "4", "--kappa", "0", "--radius", "10", "--grid", "24x12")
    entry = json.loads(out)["report"]["table1"]
    assert code == 0
    assert entry["status"] == "optimal"
    assert entry["relative_error"] <= 1e-9


def test_lp_table2_quotient(capsys):
    code, out, _ = run_cli(
        capsys,
        "lp", "--table", "2", "--m", "2",
        "--dim", "2", "--kappa", "0", "--volume", "1.0", "--grid", "40x20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    body = report["report"]
    assert body["table2_rescaled"]["status"] == "optimal"
    assert body["table2_rescaled"]["relative_error"] <= 0.02
    assert "table2_printed_scaling" in body


def test_lp_reports_the_solver_tolerance_it_used(capsys, monkeypatch):
    used = []
    solve = isoplp.cli.lpcore.solve

    def recording_solve(lp, tol):
        used.append(tol)
        return solve(lp, tol=tol)

    monkeypatch.setattr(isoplp.cli.lpcore, "solve", recording_solve)
    code, out, _ = run_cli(
        capsys, "lp", "--table", "2", "--m", "2", "--dim", "2", "--kappa", "0", "--volume", "1.0", "--grid", "20x10"
    )
    assert code == 0
    assert len(used) == 2
    assert used == [json.loads(out)["tolerances"]["solver"]] * 2


def test_lp_rejects_nonpositive_tol(capsys):
    code, out, err = run_cli(
        capsys, "lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--grid", "40x20", "--tol", "0"
    )
    assert code == 2
    assert out == ""
    assert "--tol" in err and "must be > 0" in err


def test_lp_rejects_zero_multiplicity(capsys):
    code, out, err = run_cli(
        capsys, "lp", "--table", "2", "--m", "0", "--dim", "2", "--kappa", "0", "--volume", "1.0"
    )
    assert code == 2
    assert out == ""
    assert "--m" in err and "must be > 0" in err


def _run_probe(probe, *argv):
    """stdout of a fresh interpreter running probe with this checkout's isoplp."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(isoplp.__file__)))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


_SCIPY_PROBE = """
import contextlib, io, sys
from isoplp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(
    code,
    any(name == "scipy" or name.startswith("scipy.") for name in sys.modules),
    "numpy.ma" in sys.modules,
    "numpy.random" in sys.modules,
)
"""


@pytest.mark.parametrize(
    "argv,uses_scipy",
    [
        (("--version",), False),
        (("certificate", "--dim", "4", "--kappa", "1", "--radius", "0.8", "--grid", "20"), False),
        (("measure-check", "--dim", "3", "--kappa", "1", "--radius", "0.8", "--grid", "32",
          "--mc-samples", "1000", "--seed", "1"), False),
        (("negbound", "--radius", "1.2", "--grid", "32", "--search"), False),
        (("relative", "--dim", "3", "--kappa", "1", "--m", "2", "--volume", "0.3", "--grid", "32"), False),
        (("profile", "--dim", "3", "--kappa", "-1", "--vmin", "0.5", "--vmax", "2", "--steps", "4"), False),
        (("lemma", "--case", "hyperbolic", "--grid", "20", "--starts", "20"), False),
        (("lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--grid", "10x5"), False),
        # prince integrates the profile with its own numpy quadrature
        (("prince", "--shape", "disk"), False),
        pytest.param(("prince", "--shape", "square"), False, id="prince-square-False"),
        pytest.param(("prince", "--shape", "csv", "--csv", "{csv}"), False, id="prince-csv-False"),
    ],
    ids=lambda v: v[0].lstrip("-") if isinstance(v, tuple) else None,
)
def test_scipy_loaded_only_where_used(argv, uses_scipy, tmp_path):
    table = tmp_path / "profile.csv"
    table.write_text("alpha,L\n-1.5,0.1\n0,2\n1.5,0.1\n")
    code, loaded, ma_loaded, random_loaded = _run_probe(_SCIPY_PROBE, *(a.format(csv=table) for a in argv))
    assert code == "0"
    assert loaded == str(uses_scipy)
    # np.unique imports numpy.ma at every call; no CLI path needs it
    assert ma_loaded == "False"
    # numpy imports numpy.random lazily, at about 5 MB of RSS; the seeded draws use isoplp._philox
    assert random_loaded == "False"


LAYERS = ("spaceform", "chordmeasure", "certificate", "lpcore", "lemmas", "negbound", "littleprince", "relative")

_LAYER_PROBE = """
import contextlib, io, sys, types
from isoplp.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
layers = {name.removeprefix("isoplp."): type(mod) is types.ModuleType
          for name, mod in sys.modules.items() if name.startswith("isoplp.")}
print(code, ",".join(sorted(layers)), ",".join(sorted(k for k, ran in layers.items() if ran)))
"""

LP_LAYERS = {"spaceform", "chordmeasure", "certificate", "lpcore"}

# the benchmark's invocations, --version and a usage error, with the layers each one runs
LAYER_RUNS = [
    (0, "lp --dim 4 --kappa 1 --radius 0.8 --grid 80x40", LP_LAYERS),
    (0, "lp --dim 2 --kappa 0 --radius 1.0 --grid 80x40", LP_LAYERS),
    (0, "lemma --case spherical --grid 120 --starts 250 --seed 1", {"lemmas"}),
    (0, "lemma --case hyperbolic --grid 120 --starts 250 --seed 1", {"lemmas"}),
    (0, "certificate --dim 4 --kappa 1 --radius 0.8", {"spaceform", "chordmeasure", "certificate"}),
    (0, "lp --dim 2 --kappa 0 --volume 3.141592653589793 --grid 40x20", LP_LAYERS),
    (1, "lp --dim 4 --kappa -1 --radius 0.8", LP_LAYERS),
    (0, "lp --table 2 --dim 4 --kappa 1 --m 3 --volume 0.4", LP_LAYERS | {"relative"}),
    (0, "measure-check --dim 4 --kappa 1 --radius 0.8 --mc-samples 100000 --seed 1", {"spaceform", "chordmeasure"}),
    (0, "negbound --radius 1.2 --search", {"spaceform", "chordmeasure", "negbound"}),
    (0, "prince --shape ellipse --a 2 --b 0.5", {"spaceform", "littleprince"}),
    (0, "relative --dim 4 --kappa 1 --m 3 --volume 0.4", {"spaceform", "chordmeasure", "relative"}),
    (0, "profile --dim 3 --kappa -1 --vmin 0.5 --vmax 2.0 --steps 16", {"spaceform"}),
    (0, "--version", set()),
    (2, "negbound --radius -1", set()),
]


@pytest.mark.parametrize("expected,argv,layers", LAYER_RUNS, ids=[a for _, a, _ in LAYER_RUNS])
def test_subcommand_runs_only_its_layers(expected, argv, layers):
    # every layer is registered in sys.modules, where perfbench's tracer looks
    # it up, but only the layers the subcommand reads run their module code
    code, registered, ran = _run_probe(_LAYER_PROBE, *shlex.split(argv))
    assert code == str(expected)
    assert set(registered.split(",")) == {"_philox", "cli", *LAYERS}
    assert set(ran.split(",")) == {"_philox", "cli", *layers}


def test_lemma_case_choices_are_the_lemmas_cases():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    case = next(a for a in subparsers.choices["lemma"]._actions if a.dest == "case")
    assert tuple(case.choices) == lemmas.CASES


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        (*head, flag)
        for head in (
            ("certificate", "--dim", "4", "--kappa", "1"),
            ("lp", "--dim", "4", "--kappa", "1"),
            ("measure-check", "--dim", "4", "--kappa", "1"),
        )
        for flag in ("--radius", "--volume")
    ]
    + [("negbound", "--radius"), ("relative", "--dim", "4", "--kappa", "1", "--m", "3", "--volume")],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_nonpositive_or_infinite_size_exits_2(capsys, argv, value):
    # the parser names the flag, before any layer runs
    code, out, err = run_cli(capsys, *argv, value)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-1]}: must be > 0 and finite, got {value!r}" in err


@pytest.mark.parametrize("n", [2, 3, 100, 12345, 16385, 65536, 99999, 100000, 131072, 250000, 1000003])
def test_blocked_sample_std_is_numpys(n):
    # measure-check's standard error keeps np.std(ddof=1)'s pairwise summation order
    x = _philox.uniform(n, (n,)) * 3.0 + 0.5
    assert isoplp.cli._sample_std(x) == float(np.std(x, ddof=1))


def test_lp_m_only_with_table_2(capsys):
    code, out, err = run_cli(capsys, "lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--m", "5")
    assert code == 2
    assert out == ""
    assert "--m is only read with --table 2" in err
    code, out, err = run_cli(capsys, "lp", "--table", "2", "--dim", "2", "--kappa", "0", "--volume", "1.0")
    assert code == 2
    assert out == ""
    assert "--m is required with --table 2" in err
    code, out, _ = run_cli(capsys, "lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--grid", "10x5")
    assert code == 0
    assert "m" not in json.loads(out)["config"]


def test_measure_check_seed_needs_mc_samples(capsys):
    code, out, err = run_cli(capsys, "measure-check", "--dim", "2", "--kappa", "0", "--radius", "1", "--seed", "9")
    assert code == 2
    assert out == ""
    assert "--seed is only read with --mc-samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma", "--case", "spherical", "--grid", "4", "--starts", "2"),
        ("measure-check", "--dim", "2", "--kappa", "0", "--radius", "1", "--mc-samples", "10"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
def test_seed_outside_the_philox_key_range_exits_2(capsys, argv, seed):
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 2
    assert out == ""
    assert "argument --seed: must be >= 0 and < 2**128" in err


def test_largest_seed_is_accepted(capsys):
    argv = ("measure-check", "--dim", "2", "--kappa", "0", "--radius", "1", "--mc-samples", "10")
    code, out, _ = run_cli(capsys, *argv, "--seed", str(2 ** 128 - 1))
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 2 ** 128 - 1


def test_measure_check_deterministic_mc(capsys):
    args = (
        "measure-check", "--dim", "2", "--kappa", "1", "--radius", "0.8",
        "--mc-samples", "20000", "--seed", "7",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    mc = report["report"]["monte_carlo"]
    assert abs(mc["z_score"]) <= 3.0
    # two-sided normal tail of the z-score; the 3-sigma gate is p >= 0.0027
    assert mc["p_value"] == math.erfc(abs(mc["z_score"]) / math.sqrt(2.0))
    assert mc["p_value"] >= math.erfc(3.0 / math.sqrt(2.0))


@pytest.mark.parametrize("dim", ["2", "4"])
@pytest.mark.parametrize(
    "kappa,radius",
    [
        ("1", "1.5"), ("1", "1.56"), ("1", "1.57"), ("-1", "7"), ("-1", "10"),
        ("-1", "12"), ("-1", "15"), ("-1", "19"), ("-1", "25"),
    ],
)
def test_measure_check_resolves_the_boundary_layer(capsys, dim, kappa, radius):
    # near the hemisphere and at large hyperbolic radius the chord curve turns
    # in a thin layer of angles, which the quadrature must resolve; from
    # sqrt(-kappa) r = 12 on, 1 - tanh cancels (and rounds to 0 past 19), so
    # these radii also check that the chord lengths keep their digits
    code, out, _ = run_cli(capsys, "measure-check", "--dim", dim, "--kappa", kappa, "--radius", radius)
    report = json.loads(out)["report"]
    assert code == 0
    residuals = [report["santalo_relative"], *report["croke_relative"].values()]
    assert max(abs(v) for v in residuals) <= (1e-12 if float(radius) >= 12.0 else 1e-7)


def test_measure_check_single_mc_sample_exits_2(capsys, recwarn):
    # a standard error needs two samples; one used to report nan with exit 1
    code, out, err = run_cli(
        capsys, "measure-check", "--dim", "2", "--kappa", "0", "--radius", "1", "--mc-samples", "1", "--seed", "0"
    )
    assert code == 2
    assert out == ""
    assert "--mc-samples must be at least 2" in err
    assert len(recwarn) == 0
    code, out, _ = run_cli(
        capsys, "measure-check", "--dim", "2", "--kappa", "0", "--radius", "1", "--mc-samples", "2", "--seed", "0"
    )
    assert code in (0, 1)
    assert "nan" not in out


def test_relative_residuals_are_the_balls(capsys):
    # the quotient divides both sides of each identity by m, so its relative
    # residuals are those of B0, the ball of volume m V = 1 (exact in binary)
    code, out, _ = run_cli(capsys, "relative", "--dim", "2", "--kappa", "-1", "--m", "2", "--volume", "0.5")
    assert code == 0
    relative = json.loads(out)["report"]["equality_residuals"]
    code, out, _ = run_cli(capsys, "measure-check", "--dim", "2", "--kappa", "-1", "--volume", "1.0")
    assert code == 0
    croke = json.loads(out)["report"]["croke_relative"]
    assert [relative[f"F{k}"] for k in (1, 2, 3)] == [croke[f"croke{k}"] for k in (1, 2, 3)]


def test_measure_check_mc_needs_seed(capsys):
    code, out, err = run_cli(
        capsys, "measure-check", "--dim", "2", "--kappa", "0", "--radius", "1",
        "--mc-samples", "1000",
    )
    assert code == 2
    assert "seed" in err.lower()


def test_lemma_spherical(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--case", "spherical", "--grid", "40", "--starts", "40")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    body = report["report"]
    assert body["min_H"] >= -1e-9
    assert body["factorization_max_residual"] <= 1e-10
    assert body["multistart"]["n_converged"] > 0
    assert len(body["critical_roots"]) > 0
    assert body["max_root_curve_distance"] <= 1e-6


def test_lemma_hyperbolic(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--case", "hyperbolic", "--grid", "40", "--starts", "40")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    body, tols = report["report"], report["tolerances"]
    assert "slope_sign_matches" not in body
    assert body["factorization_max_residual"] <= tols["factorization"]
    assert [c["p"] for c in body["dGdp"]] == [1.0, 2.0]
    for c in body["dGdp"]:
        assert abs(c["residual"]) <= tols["dGdp"] * (1.0 + abs(c["closed"]))
    assert body["dGdp"][0]["closed"] == 47.0 / 24.0


def test_lemma_single_node_grid_exits_2(capsys):
    # one node per axis is the single point (0.02, 0.05, 0.05), not a grid
    code, out, err = run_cli(capsys, "lemma", "--case", "spherical", "--grid", "1", "--starts", "5")
    assert code == 2
    assert out == ""
    assert "at least 2 nodes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma", "--case", "spherical", "--starts", "0"),
        ("lemma", "--case", "hyperbolic", "--grid", "0"),
        ("certificate", "--dim", "4", "--kappa", "0", "--radius", "1", "--grid", "-3"),
        ("prince", "--shape", "disk", "--r", "0"),
        ("negbound", "--radius", "1.2", "--search", "--ell-max", "0"),
        ("negbound", "--radius", "1.2", "--search", "--r-max", "0"),
        ("measure-check", "--dim", "2", "--kappa", "0", "--radius", "1", "--mc-samples", "0"),
    ],
)
def test_nonpositive_counts_exit_2(capsys, argv):
    # a zero or negative start or grid count is rejected, not replaced by the default
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert argv[-2] in err and "must be > 0" in err


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--a", ("prince", "--shape", "ellipse", "--a", "inf", "--b", "1")),
        ("--tol", ("lp", "--dim", "2", "--kappa", "0", "--radius", "1", "--tol", "inf")),
    ],
)
def test_infinite_positive_float_exits_2(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be > 0 and finite, got 'inf'" in err


def test_prince_ellipse_zero_axes_exit_2(capsys):
    code, out, err = run_cli(capsys, "prince", "--shape", "ellipse", "--a", "0", "--b", "0")
    assert code == 2
    assert out == ""
    assert "must be > 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("certificate", "--dim", "4", "--kappa", "0", "--radius", "1"),
        ("lemma", "--case", "spherical"),
        ("prince", "--shape", "square"),
        ("profile", "--dim", "2", "--kappa", "0", "--vmin", "1", "--vmax", "2", "--steps", "3"),
    ],
)
def test_tol_rejected_where_unused(capsys, argv):
    # only lp, measure-check, negbound and relative have a tolerance to set
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-300")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_negbound_with_search(capsys):
    code, out, _ = run_cli(
        capsys, "negbound", "--radius", "0.7", "--search", "--ell-max", "10", "--r-max", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    body = report["report"]
    assert body["ch2_search"]["violated"] is True
    assert body["ch2_search"]["margin"] < 0.0
    assert abs(body["model_spectrum_margin"]) <= report["tolerances"]["model_spectrum_margin"] == 1e-9
    assert "hyp2_convention" in body


def test_negbound_search_past_the_kernel_overflow_exits_2(capsys):
    # sinh(3 ell) and cosh(3 ell) overflow from about ell = 236.8; the search
    # refuses such a window instead of reporting a nan margin as a failed check
    code, out, err = run_cli(capsys, "negbound", "--radius", "1", "--search", "--ell-max", "240")
    assert code == 2
    assert out == ""
    assert "ell_max 240 exceeds 236.59" in err and "stay finite" in err
    code, out, _ = run_cli(capsys, "negbound", "--radius", "1", "--search", "--ell-max", "236.5")
    assert code == 0
    assert json.loads(out)["report"]["ch2_search"]["violated"] is True


def test_prince_shapes(capsys):
    code, out, _ = run_cli(capsys, "prince", "--shape", "disk", "--r", "1")
    assert code == 0
    report = json.loads(out)
    assert report["report"]["gravity"] == pytest.approx(0.5, abs=1e-10)

    code, out, _ = run_cli(capsys, "prince", "--shape", "ellipse", "--a", "2", "--b", "0.5")
    assert code == 0
    assert json.loads(out)["report"]["pp_margin"] == pytest.approx(0.1, abs=1e-9)

    code, out, _ = run_cli(capsys, "prince", "--shape", "square")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_prince_csv_shape(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    path.write_text("alpha,L\n-1.5,0.2\n0.0,2.0\n1.5,0.2\n")
    code, out, _ = run_cli(capsys, "prince", "--shape", "csv", "--csv", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["report"]["pp_margin"] > 0.0


def test_prince_csv_table_of_2001_knots(tmp_path, capsys):
    # a lopsided piecewise-linear profile; its integrals are exact segment by segment
    x = [-math.pi / 2.0 + math.pi * i / 2000 for i in range(2001)]
    y = [1.0 + math.cos(t) + 0.5 * math.sin(3.0 * t) for t in x]
    path = tmp_path / "profile.csv"
    path.write_text("alpha,L\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(x, y)))
    code, out, _ = run_cli(capsys, "prince", "--shape", "csv", "--csv", str(path))
    assert code == 0
    report = json.loads(out)["report"]
    segs = list(zip(x, x[1:], y, y[1:]))
    area = math.fsum((x1 - x0) * (y0 * y0 + y0 * y1 + y1 * y1) / 6.0 for x0, x1, y0, y1 in segs)
    # integral of the linear piece times cos, with cos x1 - cos x0 = -2 sin(m) sin(h/2)
    pull = math.fsum(
        y0 * (math.sin(x1) - math.sin(x0))
        + (y1 - y0) / (x1 - x0) * ((x1 - x0) * math.sin(x1) - 2.0 * math.sin(0.5 * (x1 + x0)) * math.sin(0.5 * (x1 - x0)))
        for x0, x1, y0, y1 in segs
    )
    assert report["area"] == pytest.approx(area, rel=1e-13)
    assert report["gravity"] == pytest.approx(pull / (2.0 * math.pi), rel=1e-13)


def test_prince_csv_requires_path(capsys):
    code, out, err = run_cli(capsys, "prince", "--shape", "csv")
    assert code == 2


def test_prince_unreadable_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such.csv"
    code, out, err = run_cli(capsys, "prince", "--shape", "csv", "--csv", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read --csv {missing}")


@pytest.mark.parametrize(
    "text,message",
    [
        ("alpha,L\n0\n1\n", "CSV line 2: expected 2 fields alpha,L, got 1"),
        ("", "empty CSV, expected header alpha,L"),
    ],
    ids=["one-field-row", "empty-file"],
)
def test_prince_malformed_csv_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "profile.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "prince", "--shape", "csv", "--csv", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_relative_command(capsys):
    code, out, _ = run_cli(
        capsys, "relative", "--m", "2", "--dim", "2", "--kappa", "0", "--volume", "1.5708"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["report"]["relative_bound"] == pytest.approx(
        2.0 * math.sqrt(math.pi * 2.0 * 1.5708) / 2.0, rel=1e-12
    )


# The radius r of the hyperbolic ball of volume V, by bisection in 60-digit
# mpmath on the closed forms 4 pi (sinh(2r)/4 - r/2) for n = 3 and
# 2 pi^2 (cosh^3(r)/3 - cosh(r) + 2/3) for n = 4.  The flat radius of each
# volume lies far past it, where the volume overflows.
@pytest.mark.parametrize(
    "dim, vmax, radius",
    [
        ("4", "1e300", 230.32365825876763506),
        ("3", "1e12", 13.589719205362240034),
        ("3", "1e30", 34.312985042265957828),
    ],
)
def test_profile_radius_of_a_large_hyperbolic_volume(capsys, dim, vmax, radius):
    code, out, err = run_cli(
        capsys, "profile", "--dim", dim, "--kappa", "-1", "--vmin", "1", "--vmax", vmax, "--steps", "2"
    )
    assert code == 0, err
    row = json.loads(out)["report"]["rows"][-1]
    assert row["V"] == float(vmax)
    assert row["radius"] == pytest.approx(radius, rel=1e-13)


def test_relative_bound_of_a_large_hyperbolic_volume(capsys):
    # B0 of volume 1e16 has radius 12.345602788721380269 (the reference above)
    # and area 2 pi^2 sinh^3(r) = 30000000003404184.852
    code, out, err = run_cli(
        capsys, "relative", "--dim", "4", "--kappa", "-1", "--m", "1000000", "--volume", "1e10"
    )
    assert code == 0, err
    assert json.loads(out)["report"]["relative_bound"] == pytest.approx(30000000003.404184852, rel=1e-13)


def test_profile_past_the_hemisphere_exits_2(capsys):
    # the unit 2-sphere's hemisphere has area 2 pi
    code, out, err = run_cli(
        capsys, "profile", "--dim", "2", "--kappa", "1", "--vmin", "1", "--vmax", "7", "--steps", "3"
    )
    assert code == 2
    assert out == ""
    assert "exceeds the hemisphere volume" in err


HEMISPHERE = repr(math.pi / 2.0)


@pytest.mark.parametrize(
    "argv",
    [
        ("lp", "--dim", "2", "--kappa", "1", "--radius", HEMISPHERE),
        ("lp", "--dim", "4", "--kappa", "1", "--radius", HEMISPHERE),
        ("certificate", "--dim", "2", "--kappa", "1", "--radius", HEMISPHERE),
        ("certificate", "--dim", "4", "--kappa", "1", "--radius", HEMISPHERE),
        ("measure-check", "--dim", "2", "--kappa", "1", "--radius", HEMISPHERE),
        ("measure-check", "--dim", "4", "--kappa", "1", "--radius", HEMISPHERE),
        # the hemisphere of the unit 2-sphere has area 2 pi
        ("relative", "--dim", "2", "--kappa", "1", "--m", "1", "--volume", repr(2.0 * math.pi)),
    ],
)
def test_hemisphere_radius_exits_2(capsys, argv):
    # the chord curve degenerates there; no command may drop a check and report on
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    # lp builds everything from the ball of its volume, whose radius may round
    # one ulp below pi/2; then the angle rule's hemisphere check stops it
    assert "strictly inside the hemisphere" in err or "too close to the hemisphere radius" in err


FLAT_CORNER = [
    ("lp", "--dim", "2", "--radius", "0.8"),
    ("lp", "--dim", "4", "--radius", "0.8"),
    ("certificate", "--dim", "2", "--radius", "0.8"),
    ("certificate", "--dim", "4", "--radius", "0.8"),
    ("measure-check", "--dim", "2", "--radius", "0.8"),
    ("measure-check", "--dim", "4", "--radius", "0.8"),
    ("relative", "--dim", "4", "--m", "2", "--volume", "1"),
    ("profile", "--dim", "3", "--vmin", "0.5", "--vmax", "2", "--steps", "4"),
]


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path, obj


@pytest.mark.parametrize("kappa", ["1e-300", "-1e-300"])
@pytest.mark.parametrize("argv", FLAT_CORNER, ids=[" ".join(a[:3]) for a in FLAT_CORNER])
def test_tiny_curvature_reports_match_flat(capsys, argv, kappa):
    # kappa -> 0 is continuous: lengths, areas and bounds agree with kappa = 0
    code0, out0, _ = run_cli(capsys, *argv, "--kappa", "0")
    code, out, err = run_cli(capsys, *argv, "--kappa", kappa)
    assert code == code0 == 0, err
    tiny = dict(_leaves(json.loads(out)["report"]))
    compared = 0
    for path, value in _leaves(json.loads(out0)["report"]):
        if path[-1] in ("area", "radius", "bound", "relative_bound", "volume", "optimum"):
            assert tiny[path] == pytest.approx(value, rel=1e-12), path
            compared += 1
        elif path[-1] == "relative_error":
            assert abs(tiny[path] - value) <= 1e-12, path
    assert compared > 0
    assert tiny.get(("verification", "curve_sup_deviation"), 0.0) <= 1e-12


def test_profile_huge_dimension_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "profile", "--dim", "400", "--kappa", "0", "--vmin", "0.5", "--vmax", "2", "--steps", "2"
    )
    assert code == 2
    assert out == ""
    assert "399-sphere" in err and "overflows" in err


def test_negbound_underflowing_normalizer_exits_2(capsys):
    code, out, err = run_cli(capsys, "negbound", "--radius", "1e-60")
    assert code == 2
    assert out == ""
    assert "conjecture_rhs(r) underflows to 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("measure-check", "--dim", "2", "--kappa", "0", "--radius", "1e-170"),
            "radius 1e-170 is too small: the ball's moment A^2",
        ),
        (
            ("measure-check", "--dim", "4", "--kappa", "1e300", "--radius", "1e-151"),
            "radius 1e-151 is too small: the ball's moment A^2",
        ),
        # B0 of volume 1e-320 has radius 5.6e-161; its A^2 is subnormal, its A*V 0
        (("relative", "--dim", "2", "--kappa", "0", "--m", "1", "--volume", "1e-320"), "the ball's moment A*V"),
    ],
)
def test_underflowing_moments_exit_2(capsys, argv, message):
    # the moments divide the quadrature residuals, so one that rounds to 0 is a usage error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{message} underflows to 0" in err


@pytest.mark.parametrize("r", ["6", "8", "12", "20", "30", "40"])
def test_negbound_cancelling_normalizer_exits_2(capsys, r):
    # the normalizers cancel terms about e^(6r) times their size; at r = 30
    # conjecture_rhs(r) rounds to 0 through cancellation, not underflow
    code, out, err = run_cli(capsys, "negbound", "--radius", r)
    assert code == 2
    assert out == ""
    assert f"radius {float(r)!r} is too large: the normalizer conjecture_rhs(r) cancels" in err


def test_negbound_passes_below_the_cancellation_limit(capsys):
    code, out, _ = run_cli(capsys, "negbound", "--radius", "5")
    assert code == 0
    body = json.loads(out)["report"]
    assert abs(body["conjecture_relative_residual"]) <= 1e-7


def test_parser_help_lists_subcommands():
    parser = build_parser()
    help_text = parser.format_help()
    for name in ("profile", "certificate", "lp", "measure-check", "lemma", "negbound", "prince", "relative"):
        assert name in help_text


def test_every_exported_name_resolves():
    # perfbench's tracer looks up each name of a layer's __all__
    missing = []
    for layer in LAYERS:
        mod = importlib.import_module(f"isoplp.{layer}")
        missing += [f"{layer}.{name}" for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _readme_cli_lines():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Quick start (CLI)")[1].split("\n## ")[0]
    lines = []
    for line in section.splitlines():
        line = line.split("#")[0].strip().removeprefix("$ ")
        if line.startswith("isoplp "):
            lines.append(shlex.split(line)[1:])
    return lines


def test_readme_cli_invocations_parse():
    lines = _readme_cli_lines()
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv)
    assert {argv[0] for argv in lines} == set(isoplp.cli._COMMANDS)
