"""Tests of the benchmark itself: the output checker, the span arithmetic and
the printed metric names.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def cli_report(args: str) -> tuple[int, dict]:
    env = run.child_env()
    proc = subprocess.run(
        [sys.executable, "-c", run.CLI_SHIM, *args.split()], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout)


class CheckerTest(unittest.TestCase):
    LP = "lp --dim 2 --kappa 0 --volume 3.141592653589793 --grid 40x20"
    LEMMA = "lemma --case hyperbolic --grid 24 --starts 60 --seed 5"
    MC = "measure-check --dim 4 --kappa 1 --radius 0.8 --mc-samples 2000 --seed 3"

    @classmethod
    def setUpClass(cls):
        cls.reports = {args: cli_report(args) for args in (cls.LP, cls.LEMMA, cls.MC)}

    def problems(self, args, report, exit_code=0, expected=0):
        return checks.check(args.split(), exit_code, expected, report)

    def test_seed_reports_pass(self):
        for args, (code, report) in self.reports.items():
            self.assertEqual(code, 0, args)
            self.assertEqual(self.problems(args, report), [], args)

    def test_rejects_shrunk_grid_echo(self):
        report = copy.deepcopy(self.reports[self.LP][1])
        report["report"]["grid"]["n_ell"] = 39
        self.assertTrue(self.problems(self.LP, report))
        report = copy.deepcopy(self.reports[self.LP][1])
        report["config"]["grid"] = [40, 19]
        self.assertTrue(self.problems(self.LP, report))

    def test_rejects_optimum_off_by_1e3(self):
        for delta in (1e-3, -1e-3):
            report = copy.deepcopy(self.reports[self.LP][1])
            report["report"]["table1"]["optimum"] += delta
            self.assertTrue(any("optimum" in p for p in self.problems(self.LP, report)), delta)

    def test_rejects_wrong_exit_code(self):
        report = self.reports[self.LP][1]
        self.assertTrue(self.problems(self.LP, report, exit_code=1, expected=0))
        self.assertTrue(self.problems(self.LP, report, exit_code=0, expected=1))

    def test_rejects_fewer_starts_smaller_grid_and_other_seed(self):
        base = self.reports[self.LEMMA][1]
        edits = [
            lambda r: r["report"]["multistart"].__setitem__("n_starts", 59),
            lambda r: r["report"].__setitem__("grid_shape", [23, 24, 24]),
            lambda r: r["config"].__setitem__("seed", 0),
            lambda r: r["report"].__setitem__("max_root_curve_distance", 2e-6),
            lambda r: r["report"].__setitem__("min_H", -1e-8),
        ]
        for edit in edits:
            report = copy.deepcopy(base)
            edit(report)
            self.assertTrue(self.problems(self.LEMMA, report))

    def test_rejects_monte_carlo_seed_echo_and_large_z(self):
        base = self.reports[self.MC][1]
        report = copy.deepcopy(base)
        report["report"]["monte_carlo"]["seed"] = 4
        self.assertTrue(self.problems(self.MC, report))
        report = copy.deepcopy(base)
        mc = report["report"]["monte_carlo"]
        mc["santalo_estimate"] = mc["santalo_exact"] + 3.5 * mc["standard_error"]
        self.assertTrue(self.problems(self.MC, report))

    def test_references_match_closed_forms(self):
        # flat disk of radius 1: area 2*pi, volume pi; unit 4-ball: volume pi^2/2
        self.assertAlmostEqual(checks.ball_area(2, 0.0, 1.0), 2 * math.pi, places=14)
        self.assertAlmostEqual(checks.ball_volume(2, 0.0, 1.0), math.pi, places=12)
        self.assertAlmostEqual(checks.ball_volume(4, 0.0, 1.0), math.pi ** 2 / 2, places=12)
        self.assertAlmostEqual(checks.radius_from_volume(4, 1.0, checks.ball_volume(4, 1.0, 0.8)), 0.8, places=13)
        t = math.tan(0.8)
        self.assertEqual(checks.certificate_reference(4, 1.0, 0.8), (1.0, 6 * t, 9 * t * t, 12 * t * t))


def span(name, start, end, parent=-1, **counts):
    return tracing.Span(name, start, end, parent, counts)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        ms = 1_000_000
        spans = [
            span("cli.main", 0, 1000 * ms),
            span("a", 100 * ms, 400 * ms, 0),
            span("b", 300 * ms, 600 * ms, 0),  # overlaps a: union is 100..600
            span("c", 150 * ms, 200 * ms, 1),
            span("d", 700 * ms, 700 * ms, 0),
        ]
        own = tracing.self_times(spans)
        for got, want in zip(own, (0.5, 0.25, 0.3, 0.05, 0.0)):
            self.assertAlmostEqual(got, want, places=12)

    def test_layer_metrics_on_a_synthetic_tree(self):
        s = 1_000_000_000
        spans = tracing.concat([
            [
                span("cli.main", 0, 10 * s),
                span("lpcore.build_isoperimetric_lp", 1 * s, 5 * s, 0, columns=1001),
                span("certificate.build_f", 2 * s, 4 * s, 1, pairs=1000),
                span("spaceform.candle", 2 * s, 3 * s, 2, points=500, quad=0),
                span("lpcore.solve", 6 * s, 9 * s, 0),
                span("lpcore.highs", 6 * s, 8 * s, 4, nit=7, rows=9, columns=1001, positive=4),
            ],
            [
                span("cli.main", 20 * s, 23 * s),
                span("spaceform.candle_anti", 20 * s, 22 * s, 0, points=4, quad=1),
            ],
        ])
        m = tracing.layer_metrics(spans)
        self.assertEqual(spans[7].parent, 6)
        self.assertAlmostEqual(m["lpcore.build.s"], 2.0)
        self.assertEqual(m["lpcore.build.columns"], 1001)
        self.assertAlmostEqual(m["certificate.build_f.ns_per_pair"], 2e6)
        self.assertEqual(m["spaceform.points"], 504)
        self.assertAlmostEqual(m["spaceform.closed.ns_per_point"], 2e6)
        self.assertAlmostEqual(m["spaceform.quad.ns_per_point"], 5e8)
        self.assertAlmostEqual(m["lpcore.solve.s"], 1.0)
        self.assertAlmostEqual(m["lpcore.highs.s"], 2.0)
        self.assertAlmostEqual(m["lpcore.support_ratio"], 4 / 1001)
        self.assertAlmostEqual(m["lpcore.matrix_mb"], 9 * 1001 * 8 / 1e6)
        self.assertAlmostEqual(m["cli.self_s"], (10 - 4 - 3) + (3 - 2))
        self.assertAlmostEqual(tracing.top_level_seconds(spans), 13.0)
        self.assertEqual(m["lemmas.newton.starts"], 0)
        self.assertEqual(m["lemmas.newton.us_per_start"], 0.0)


class BestOfNTest(unittest.TestCase):
    def test_sums_each_invocations_fastest_time_partial_pass_included(self):
        def a_pass(*walls):
            children = [run.Child(w, 1.0, 0, "", "") for w in walls]
            return run.Pass(sum(walls), [()] * len(walls), children, [], None)

        passes = [a_pass(3.0, 5.0, 2.0), a_pass(2.5, 6.0, 2.2), a_pass(2.8)]
        self.assertAlmostEqual(run.best_of_n(passes), 2.5 + 5.0 + 2.0)
        self.assertAlmostEqual(run.best_of_n(passes + [a_pass()]), 9.5)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.saved = run.WORKLOADS, run.SETUP_REPEATS
        run.WORKLOADS = {"tiny": [(0, "prince --shape ellipse --a 2 --b 0.5")]}
        run.SETUP_REPEATS = 1

    def tearDown(self):
        run.WORKLOADS, run.SETUP_REPEATS = self.saved

    def run_main(self, *args) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(list(args))
        return code, out.getvalue()

    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = self.run_main("--workload", "tiny", "--seed", "2", "--seconds", "0", "--trace", trace)
            self.assertEqual(code, 0)
            result = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
            for name, value in result["metrics"].items():
                self.assertIsInstance(value["value"], (int, float), name)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(self.saved[0]))

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lemma", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
