"""Benchmark of the isoplp command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload lp-refine --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run drives the CLI as a user does: one invocation at a time, in a
closed loop of one client, every invocation a fresh ``python3`` process
importing ``isoplp`` from ``src/``, so import cost counts.  A run first
times ``isoplp --version`` several times (``setup_s``, their median), then
repeats passes over the workload's invocations until ``--seconds`` would be
exceeded.  ``wall_s`` is the sum over the invocations of each one's fastest
time in the run (best of n, as ``timeit`` advises): on a shared host the
speed of interpreter-bound code swings by up to 2x in spells of seconds, and
the best of several short repeats is steadier than one long pass.

The host's speed also drifts by up to 1.5x over minutes, which no statistic
within one run can see.  So the run also times a gauge, a fresh
``import numpy, scipy.integrate, scipy.optimize`` that does not involve
isoplp, next to each ``--version`` and between invocations at most every
``GAUGE_EVERY_S``.  It reports ``setup_s`` and ``wall_s`` scaled to a
machine on which the gauge takes ``GAUGE_NOMINAL_S``, each by the gauges
timed beside it.  The raw times are per-layer metrics.
Every invocation's exit code and JSON report go through ``checks.check``.

With ``--trace 1`` each untraced pass is followed by a traced pass, whose
children run ``traced_cli.py`` and record spans around the package's public
functions; the run reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human summary goes to stderr,
and a record of the run (environment, passes, failures, spans) to
``.perfbench/`` at the repository root.  The harness uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
CLI_SHIM = "import sys; from isoplp.cli import main; sys.exit(main())"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
GAUGE = "import numpy, scipy.integrate, scipy.optimize"
GAUGE_NOMINAL_S = 1.0
GAUGE_EVERY_S = 8.0
INVOCATION_TIMEOUT_S = 150

# (expected exit code, arguments); {seed} is the benchmark's --seed
WORKLOADS = {
    "lp-refine": [
        (0, "lp --dim 4 --kappa 1 --radius 0.8 --grid 80x40"),
        (0, "lp --dim 2 --kappa 0 --radius 1.0 --grid 80x40"),
    ],
    "lemma": [
        # 250 starts keep an invocation short enough to repeat about five
        # times in a run; the run's best-of-n needs the repeats
        (0, "lemma --case spherical --grid 120 --starts 250 --seed {seed}"),
        (0, "lemma --case hyperbolic --grid 120 --starts 250 --seed {seed}"),
    ],
    "quickstart": [
        (0, "certificate --dim 4 --kappa 1 --radius 0.8"),
        (0, "lp --dim 2 --kappa 0 --volume 3.141592653589793 --grid 40x20"),
        # kappa < 0 has no tight LP bound, so the CLI reports a failed check
        (1, "lp --dim 4 --kappa -1 --radius 0.8"),
        (0, "lp --table 2 --dim 4 --kappa 1 --m 3 --volume 0.4"),
        (0, "measure-check --dim 4 --kappa 1 --radius 0.8 --mc-samples 100000 --seed {seed}"),
        (0, "negbound --radius 1.2 --search"),
        (0, "prince --shape ellipse --a 2 --b 0.5"),
        (0, "relative --dim 4 --kappa 1 --m 3 --volume 0.4"),
        (0, "profile --dim 3 --kappa -1 --vmin 0.5 --vmax 2.0 --steps 16"),
    ],
}


class Child(NamedTuple):
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


class Pass(NamedTuple):
    wall_s: float
    argvs: list
    children: list
    failures: list  # (argv, problems)
    spans: list | None  # per invocation, traced passes only

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.children)

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "invocations": [
                {"argv": " ".join(a), "wall_s": c.wall_s, "peak_rss_mb": c.peak_rss_mb, "exit_code": c.exit_code}
                for a, c in zip(self.argvs, self.children)
            ],
            "failures": self.failures,
        }


def invocations(workload: str, seed: int):
    return [(code, tuple(args.format(seed=seed).split())) for code, args in WORKLOADS[workload]]


def nproc() -> int:
    """CPUs this process may run on, as coreutils' nproc counts them."""
    return len(os.sched_getaffinity(0))


def blas_threads() -> dict:
    """BLAS thread variables for the children, one thread per usable CPU."""
    return {var: str(nproc()) for var in BLAS_VARS}


def child_env() -> dict:
    # the caller's PYTHON* settings (no bytecode cache, unbuffered output, ...)
    # would change start-up time, so the children get none but PYTHONPATH
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "ISOPLP_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(blas_threads())
    return env


def run_child(cmd, env) -> Child:
    """Run one process to completion; wall time and peak RSS come from os.wait4."""
    with tempfile.TemporaryFile(dir=WORKDIR) as out, tempfile.TemporaryFile(dir=WORKDIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out.read().decode(errors="replace"), err.read().decode(errors="replace"),
        )


def measure_gauge(env) -> float:
    """Wall time of a fresh process importing what isoplp imports, but not isoplp."""
    child = run_child([sys.executable, "-c", GAUGE], env)
    if child.exit_code != 0:
        raise RuntimeError(f"gauge failed: exit {child.exit_code}: {child.stderr.strip()}")
    return child.wall_s


class PassGauge:
    """Gauge times taken between the invocations of untraced passes."""

    def __init__(self, env):
        self.env = env
        self.times = []
        self.last = -math.inf

    def tick(self) -> None:
        """Time the gauge if the last one is `GAUGE_EVERY_S` old."""
        if time.perf_counter() - self.last >= GAUGE_EVERY_S:
            self.times.append(measure_gauge(self.env))
            self.last = time.perf_counter()


def measure_setup(env, gauges: list) -> list[float]:
    """Wall times of fresh `isoplp --version` runs, each after a gauge run
    (appended to `gauges`), after one untimed warm-up of both."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        gauge = measure_gauge(env)
        child = run_child([sys.executable, "-c", CLI_SHIM, "--version"], env)
        if child.exit_code != 0 or not child.stdout.startswith("isoplp "):
            raise RuntimeError(f"isoplp --version failed: exit {child.exit_code}: {child.stderr.strip()}")
        if i:
            gauges.append(gauge)
            times.append(child.wall_s)
    return times


def run_pass(invs, env, traced: bool, gauge=None, deadline=None, expected=None) -> Pass:
    """One pass over `invs`, giving `gauge` a tick before each invocation.

    With a `deadline`, a partial pass: it stops before the first invocation
    that would end after the deadline, going by its `expected` time.
    """
    children, span_files = [], []
    for i, (_, argv) in enumerate(invs):
        if deadline is not None and time.perf_counter() + expected[i] > deadline:
            invs = invs[:i]
            break
        if gauge is not None:
            gauge.tick()
        if traced:
            span_files.append(WORKDIR / f"spans-{os.getpid()}-{i}.json")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_files[-1]), *argv]
        else:
            cmd = [sys.executable, "-c", CLI_SHIM, *argv]
        children.append(run_child(cmd, env))
    wall = sum(c.wall_s for c in children)  # gauge runs excluded
    failures = []
    for (expected, argv), child in zip(invs, children):
        try:
            report = json.loads(child.stdout)
        except json.JSONDecodeError:
            report = None
        problems = checks.check(argv, child.exit_code, expected, report)
        if problems:
            failures.append((" ".join(argv), problems + [child.stderr.strip()[-500:]]))
    spans = None
    if traced:
        spans = []
        for path in span_files:
            spans.append(tracing.load(path) if path.exists() else [])
            path.unlink(missing_ok=True)
    return Pass(wall, [argv for _, argv in invs], children, failures, spans)


def best_of_n(passes) -> float:
    """Sum over the invocations of each one's fastest time across the passes.

    Only the first pass has to be complete.
    """
    best = [c.wall_s for c in passes[0].children]
    for p in passes[1:]:
        for i, child in enumerate(p.children):
            best[i] = min(best[i], child.wall_s)
    return sum(best)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "blas_threads": blas_threads(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, env_record: dict) -> dict:
    """One run: setup, then passes until the next would overrun `seconds`.

    An untraced run then fills the rest of `seconds` with a partial pass,
    which counts towards `wall_s` but not towards the per-pass medians.
    """
    start = time.perf_counter()
    env = child_env()
    invs = invocations(workload, seed)
    setup_gauges = []
    setup = measure_setup(env, setup_gauges)
    gauge = PassGauge(env)
    passes, traced = [], []
    while True:
        begin = time.perf_counter()
        passes.append(run_pass(invs, env, traced=False, gauge=gauge))
        if trace:
            traced.append(run_pass(invs, env, traced=True))
        now = time.perf_counter()
        if now + (now - begin) > start + seconds:
            break
    tail = []
    if not trace:
        expected = [c.wall_s for c in passes[-1].children]
        tail = [run_pass(invs, env, traced=False, gauge=gauge, deadline=start + seconds, expected=expected)]
    every = passes + traced + tail
    failed = sum(len(p.failures) for p in every)
    attempted = sum(len(p.children) for p in every)
    setup_s = statistics.median(setup)
    gauge_s = statistics.median(gauge.times)
    if trace:
        values = _traced_metrics(passes, traced, setup_s, len(invs))
        values.update({"raw.setup_s": setup_s, "raw.wall_s": best_of_n(passes), "gauge_s": gauge_s})
    else:
        values = {
            "setup_s": setup_s * GAUGE_NOMINAL_S / statistics.median(setup_gauges),
            "wall_s": best_of_n(passes + tail) * GAUGE_NOMINAL_S / gauge_s,
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "success_rate": (attempted - failed) / attempted,
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both measured and in BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env_record,
        "setup_s": setup,
        "gauge_s": {"setup": setup_gauges, "passes": gauge.times},
        "raw_wall_s": best_of_n(passes + tail),
        "median_pass_s": statistics.median(p.wall_s for p in passes),
        "passes": [p.summary() for p in passes],
        "partial_passes": [p.summary() for p in tail],
        "traced_passes": [{**p.summary(), "spans": [[list(s) for s in inv] for inv in p.spans]} for p in traced],
        "result": result,
    }
    with open(WORKDIR / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)
    _summarize(workload, result, record)
    return result


def _traced_metrics(passes, traced, setup_s: float, n_invocations: int) -> dict:
    per_pass = []
    untraced_wall = statistics.median(p.wall_s for p in passes)
    for p in traced:
        spans = tracing.concat(p.spans)
        m = tracing.layer_metrics(spans)
        m["trace.wall_s"] = p.wall_s
        m["trace.overhead_ratio"] = p.wall_s / untraced_wall
        m["trace.coverage"] = (tracing.top_level_seconds(spans) + n_invocations * setup_s) / p.wall_s
        m["trace.spans"] = len(spans)
        per_pass.append(m)
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def _summarize(workload: str, result: dict, record: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    parts.append(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} failed)")
    print(f"{workload}: " + " | ".join(parts), file=sys.stderr)
    for p in record["passes"] + record["partial_passes"] + record["traced_passes"]:
        for argv, problems in p["failures"]:
            print(f"  FAILED {argv}: " + "; ".join(x for x in problems if x), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "isoplp" / "cli.py").is_file():
        print(f"error: no isoplp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    WORKDIR.mkdir(exist_ok=True)
    env_record = environment(args.seed)
    print("environment: " + json.dumps(env_record), file=sys.stderr)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace), spec, env_record) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
