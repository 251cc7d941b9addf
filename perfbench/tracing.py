"""Spans around isoplp's public functions, and the per-layer metrics they give.

The recording half runs inside a traced CLI child (see traced_cli.py): it
rebinds every public function of the package's modules, in every module
namespace that holds it, to a wrapper that appends one span per call to an
in-memory list.  scipy's ``linprog`` is wrapped as bound in ``lpcore``, so
the HiGHS time and iteration count are read outside the program.  Nothing
under ``src/`` changes.

The aggregating half is standard-library only and runs in the harness.
A span is (name, start_ns, end_ns, parent, counts); parent indexes the same
list, -1 for a top-level span.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from typing import NamedTuple

LAYERS = ("spaceform", "chordmeasure", "certificate", "lpcore", "lemmas", "negbound", "littleprince", "relative")

# spaceform evaluators and the position of their array argument.  An
# evaluator called while another evaluator's span is open (the adaptive
# quadrature fallback calls the candle once per node) gets no span of its
# own: recording those would charge the tracer's cost to the quad path.
EVALUATORS = {
    "candle": 1,
    "candle_prime": 1,
    "candle_anti": 1,
    "candle_anti2": 1,
    "chord_T": 2,
    "chord_T_prime": 2,
    "chord_T_inverse": 2,
    "delta_weight": 1,
    "candle_from_spectrum": 1,
}
QUAD_EVALUATORS = ("candle_anti", "candle_anti2")
CLOSED_FORM_DIMS = (2, 4)
BUILDS = ("lpcore.build_isoperimetric_lp", "lpcore.build_relative_lp")


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    counts: dict

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


# ---------------------------------------------------------------------------
# recording (traced child)


class Tracer:
    """Spans kept in memory until dump()."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts]
        self._stack = []  # (span index, is evaluator)

    def wrap(self, name, fn, counter=None, evaluator=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if evaluator and stack and stack[-1][1]:
                return fn(*args, **kwargs)
            record = [name, 0, 0, stack[-1][0] if stack else -1, {}]
            stack.append((len(spans), evaluator))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _evaluator_counter(fname):
    pos = EVALUATORS[fname]

    def count(args, kwargs, result):
        quad = fname in QUAD_EVALUATORS and args[0].n not in CLOSED_FORM_DIMS
        points = args[pos] if pos < len(args) else next(iter(kwargs.values()))
        return {"points": _size(points), "quad": int(quad)}

    return count


def _highs_counter(args, kwargs, result):
    rows, cols = kwargs["A_ub"].shape
    positive = int((result.x > 0).sum()) if result.x is not None else 0
    return {"nit": int(result.nit), "rows": rows, "columns": cols, "positive": positive}


COUNTERS = {
    "certificate.build_f": lambda args, kwargs, result: {"pairs": _size(result[0])},
    "lpcore.build_isoperimetric_lp": lambda args, kwargs, result: {"columns": result.n_vars},
    "lpcore.build_relative_lp": lambda args, kwargs, result: {"columns": result.n_vars},
    "lemmas.solve_critical_points": lambda args, kwargs, result: {
        "starts": result.n_starts,
        "converged": result.n_converged,
        "stalled": result.n_stalled,
        "singular": result.n_singular,
    },
    "lemmas.verify_H_nonneg": lambda args, kwargs, result: {
        "points": result.grid_shape[0] * result.grid_shape[1] * result.grid_shape[2]
    },
    "chordmeasure.discretize_ball_measure": lambda args, kwargs, result: {"atoms": result.size},
    "chordmeasure.sample_chords": lambda args, kwargs, result: {"atoms": result.size},
}


def install(tracer: Tracer) -> None:
    """Rebind each public function of the imported isoplp layers to a traced wrapper."""
    modules = [m for name, m in list(sys.modules.items()) if name == "isoplp" or name.startswith("isoplp.")]
    for layer in LAYERS:
        mod = sys.modules[f"isoplp.{layer}"]
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{fname}"
            if layer == "spaceform" and fname in EVALUATORS:
                wrapper = tracer.wrap(name, fn, _evaluator_counter(fname), evaluator=True)
            else:
                wrapper = tracer.wrap(name, fn, COUNTERS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
    lpcore = sys.modules["isoplp.lpcore"]
    lpcore.linprog = tracer.wrap("lpcore.highs", lpcore.linprog, _highs_counter)


# ---------------------------------------------------------------------------
# aggregation (harness, standard library only)


def load(path) -> list[Span]:
    with open(path) as fh:
        return [Span(*s) for s in json.load(fh)["spans"]]


def concat(span_lists) -> list[Span]:
    """One list from several invocations' lists, parents re-indexed."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend(s._replace(parent=s.parent + base if s.parent >= 0 else -1) for s in spans)
    return out


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0, s.start
        for lo, hi in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start - covered) / 1e9)
    return out


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    own = self_times(spans)

    def idx(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def total(ids, key):
        return sum(spans[i].counts.get(key, 0) for i in ids)

    def inclusive(ids):
        return sum((spans[i].seconds for i in ids), 0.0)

    def layer_self(layer):
        return sum((own[i] for i in idx(lambda s: s.name.split(".")[0] == layer)), 0.0)

    build = idx(lambda s: s.name in BUILDS)
    build_f = idx(lambda s: s.name == "certificate.build_f")
    evals = idx(lambda s: "points" in s.counts and s.name.startswith("spaceform."))
    quad = [i for i in evals if spans[i].counts["quad"]]
    closed = [i for i in evals if not spans[i].counts["quad"]]
    highs = idx(lambda s: s.name == "lpcore.highs")
    solve = idx(lambda s: s.name == "lpcore.solve")
    newton = idx(lambda s: s.name == "lemmas.solve_critical_points")
    grid = idx(lambda s: s.name == "lemmas.verify_H_nonneg")
    measures = idx(lambda s: s.name.startswith("chordmeasure."))
    cli = idx(lambda s: s.name == "cli.main")
    cols = total(highs, "columns")
    starts = total(newton, "starts")
    matrix_bytes = sum(spans[i].counts["rows"] * spans[i].counts["columns"] * 8 for i in highs)
    return {
        "lpcore.build.s": sum((own[i] for i in build), 0.0),
        "lpcore.build.columns": total(build, "columns"),
        "certificate.build_f.s": inclusive(build_f),
        "certificate.build_f.pairs": total(build_f, "pairs"),
        "certificate.build_f.ns_per_pair": _per(inclusive(build_f), total(build_f, "pairs"), 1e9),
        "spaceform.points": total(evals, "points"),
        "spaceform.closed.ns_per_point": _per(inclusive(closed), total(closed, "points"), 1e9),
        "spaceform.quad.ns_per_point": _per(inclusive(quad), total(quad, "points"), 1e9),
        "lpcore.highs.s": inclusive(highs),
        "lpcore.highs.nit": total(highs, "nit"),
        "lpcore.rows": total(highs, "rows"),
        "lpcore.support_ratio": _per(total(highs, "positive"), cols),
        "lpcore.solve.s": sum((own[i] for i in solve), 0.0),
        "lpcore.matrix_mb": matrix_bytes / 1e6,
        "lemmas.newton.s": inclusive(newton),
        "lemmas.newton.starts": starts,
        "lemmas.newton.converged_ratio": _per(total(newton, "converged"), starts),
        "lemmas.newton.stalled": total(newton, "stalled"),
        "lemmas.newton.singular": total(newton, "singular"),
        "lemmas.newton.us_per_start": _per(inclusive(newton), starts, 1e6),
        "lemmas.grid.s": inclusive(grid),
        "lemmas.grid.points": total(grid, "points"),
        "chordmeasure.s": layer_self("chordmeasure"),
        "chordmeasure.atoms": total(measures, "atoms"),
        "negbound.s": layer_self("negbound"),
        "littleprince.s": layer_self("littleprince"),
        "relative.s": layer_self("relative"),
        "cli.self_s": sum((own[i] for i in cli), 0.0),
    }


def top_level_seconds(spans) -> float:
    return sum(s.seconds for s in spans if s.parent < 0)
