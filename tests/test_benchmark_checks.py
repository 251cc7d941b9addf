"""The benchmark's invocations pass its independent checker, run in-process.

perfbench/run.py lists what each workload invokes and perfbench/checks.py
judges each report against closed forms; this test reads both and edits
neither, so a change that the benchmark would count as a failed operation
fails tier-1 first.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from isoplp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import run  # noqa: E402

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
