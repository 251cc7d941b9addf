"""The benchmark's invocations pass its independent checker, run in-process.

perfbench/run.py lists what each workload invokes and perfbench/checks.py
judges each report against closed forms; this test reads both and edits
neither, so a change that the benchmark would count as a failed operation
fails tier-1 first.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isoplp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

INVOCATIONS = [
    (workload, expected, argv)
    for workload in ("lp-refine", "lemma", "quickstart")
    for expected, argv in run.invocations(workload, 1)
]


@pytest.mark.parametrize("workload,expected,argv", INVOCATIONS, ids=[" ".join(a) for _, _, a in INVOCATIONS])
def test_benchmark_invocation_passes_the_checker(workload, expected, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert checks.check(argv, code, expected, json.loads(out.getvalue())) == []


TRACED = [
    (
        ("lp", "--dim", "4", "--kappa", "1", "--radius", "0.8", "--grid", "24x12"),
        {"lpcore.build_relative_lp": 1, "lpcore.highs": 1},
    ),
    (
        ("lp", "--table", "2", "--dim", "4", "--kappa", "1", "--m", "3", "--volume", "0.4", "--grid", "24x12"),
        {"lpcore.build_relative_lp": 2, "lpcore.highs": 2},
    ),
    (
        ("lemma", "--case", "hyperbolic", "--grid", "24", "--starts", "60", "--seed", "5"),
        {"lemmas.solve_critical_points": 1, "lemmas.verify_H_nonneg": 1},
    ),
]


@pytest.mark.parametrize(
    "argv,counts", TRACED, ids=[a[0] + ("-table2" if "--table" in a else "") for a, _ in TRACED]
)
def test_traced_cli_records_each_stage_once(tmp_path, argv, counts):
    # perfbench's tracer rebinds the package's public names in a CLI child;
    # one span per stage keeps its per-layer metrics from counting work twice
    spans_path = tmp_path / "spans.json"
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = tracing.load(spans_path)
    names = [s.name for s in spans]
    assert {name: names.count(name) for name in counts} == counts
    # each LP is built by one traced call, so lpcore.build.columns counts it once
    assert sum(name.startswith("lpcore.build") for name in names) == counts.get("lpcore.build_relative_lp", 0)
    assert all(s.counts["nit"] > 0 for s in spans if s.name == "lpcore.highs")
    # the LP's marginal rows read no certificate, so certificate.build_f.pairs reads 0 on lp
    if argv[0] == "lp":
        assert "certificate.build_f" not in names
