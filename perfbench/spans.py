"""In-memory span tracer that wraps gainreg's layer boundaries from outside.

gainreg's modules use from-imports, so a function is wrapped under every
name its callers look it up by: patching ``gainreg.gains.eval_gain`` alone
would miss the solver's and the calibration suite's calls, which go through
``gainreg.solver.eval_gain`` and ``gainreg.calibrate.eval_gain``.

A span is (name, parent span, start, end).  Spans live in flat arrays while
the run lasts and are written out once at the end.  A span's self time is
its duration minus the time its direct child spans cover; children of one
span run one after another, so that is the sum of their durations.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# (module holding the caller's name, attribute, span name, counter or None)
# Span names start with their layer.  Three names are private solver stages;
# when a later version renames them they are reported as missing and their
# metrics read 0 rather than stopping the run.
TARGETS = (
    ("gainreg.cli", "main", "cli.main", None),
    ("gainreg.cli", "bench_toy", "bench.bench_toy", None),
    ("gainreg.bench", "toy_fit_at_scale", "bench.toy_fit_at_scale", None),
    ("gainreg.bench", "cross_validate_bandwidth", "bench.cross_validate_bandwidth", None),
    ("gainreg.bench", "fit_egm", "solver.fit_egm", "fit_report"),
    ("gainreg.solver", "fit_egm", "solver.fit_egm", "fit_report"),
    ("gainreg.solver", "_irls_stage", "solver.fit_egm.irls", None),
    ("gainreg.solver", "_gradient_stage", "solver.fit_egm.gradient", None),
    ("gainreg.solver", "_grid_consensus", "solver.fit_egm.grid_consensus", None),
    ("gainreg.solver", "cross_validate_sigma", "solver.cross_validate_sigma", None),
    ("gainreg.solver", "predict_batch", "solver.predict_batch", None),
    ("gainreg.bench", "predict_batch", "solver.predict_batch", None),
    ("numpy.linalg", "solve", "solver.linalg_solve", "solve"),
    ("gainreg.solver", "eval_gain", "gains.eval_gain", "points"),
    ("gainreg.solver", "irls_weight", "gains.irls_weight", "points"),
    ("gainreg.solver", "eval_gain_derivative", "gains.eval_gain_derivative", "points"),
    ("gainreg.calibrate", "eval_gain", "gains.eval_gain", "points"),
    ("gainreg.solver", "design_matrix", "features.design_matrix", "cells"),
    ("gainreg.calibrate", "certify_gain", "calibrate.certify_gain", None),
    ("gainreg.calibrate", "check_gain_axioms", "calibrate.check_gain_axioms", None),
    ("gainreg.calibrate", "estimate_lipschitz", "calibrate.estimate_lipschitz", None),
    ("gainreg.calibrate", "sandwich_check", "calibrate.sandwich_check", None),
    ("gainreg.calibrate", "gap_log_slope", "calibrate.gap_log_slope", None),
    ("gainreg.calibrate", "integrate", "quadrature.integrate", None),
    ("gainreg.calibrate", "integrate_checked", "quadrature.integrate_checked", None),
    ("gainreg.quadrature", "integrate", "quadrature.integrate", None),
)

OP_SPAN = "op"


class Tracer:
    """Records spans and counters while installed; restores every name on uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so each call records one span under ``name``."""
        name_id = self._name_id(name)
        count = _COUNTERS.get(counter)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(sid)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[sid] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per-span (duration, self time)."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_time = list(duration)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= duration[i]
        return duration, self_time

    def write(self, path) -> None:
        """Spans as CSV: id, name, parent id (-1 for none), start and end in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,parent,start,end\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )


def _count_fit_report(counts, args, report) -> None:
    # FitReport.iterations counts the best restart only, anneal stages included.
    counts["solver.iterations"] += report.iterations
    counts["solver.unconverged"] += not report.converged
    counts["solver.degenerate_restarts"] += sum(
        1 for g in report.restart_gains if g == float("-inf")
    )


def _count_solve(counts, args, result) -> None:
    p = args[0].shape[0]
    counts["solver.linalg_solve.flops"] += 2.0 * p**3 / 3.0


def _count_points(counts, args, result) -> None:
    counts["gains.points"] += getattr(result, "size", 1)


def _count_cells(counts, args, result) -> None:
    counts["features.design_matrix.cells"] += result.size


_COUNTERS = {
    "fit_report": _count_fit_report,
    "solve": _count_solve,
    "points": _count_points,
    "cells": _count_cells,
}

# Per-layer metrics: (metric, unit, how it is computed from the spans).
# Every metric is per traced op: a sum over the traced run divided by its
# number of ops.  "total" is the summed duration of spans with that name,
# "calls" their number, "self" the summed self time of the named span and
# every span below it in the naming tree (so ``solver.fit_egm.self_s``
# includes the stages' own arithmetic, such as the Gram product of the
# weighted solve), and "count" a counter recorded at the boundary.
LAYER_METRICS = (
    ("cli.main.s", "s/op", "total", "cli.main"),
    ("cli.self_s", "s/op", "self", "cli"),
    ("bench.cross_validate_bandwidth.calls", "count/op", "calls", "bench.cross_validate_bandwidth"),
    ("bench.cross_validate_bandwidth.s", "s/op", "total", "bench.cross_validate_bandwidth"),
    ("bench.toy_fit_at_scale.s", "s/op", "total", "bench.toy_fit_at_scale"),
    ("bench.self_s", "s/op", "self", "bench"),
    ("solver.fit_egm.calls", "count/op", "calls", "solver.fit_egm"),
    ("solver.fit_egm.s", "s/op", "total", "solver.fit_egm"),
    ("solver.fit_egm.self_s", "s/op", "self", "solver.fit_egm"),
    ("solver.fit_egm.irls.s", "s/op", "total", "solver.fit_egm.irls"),
    ("solver.fit_egm.gradient.s", "s/op", "total", "solver.fit_egm.gradient"),
    ("solver.fit_egm.grid_consensus.s", "s/op", "total", "solver.fit_egm.grid_consensus"),
    ("solver.iterations", "count/op", "count", "solver.iterations"),
    ("solver.unconverged", "count/op", "count", "solver.unconverged"),
    ("solver.degenerate_restarts", "count/op", "count", "solver.degenerate_restarts"),
    ("solver.linalg_solve.calls", "count/op", "calls", "solver.linalg_solve"),
    ("solver.linalg_solve.s", "s/op", "total", "solver.linalg_solve"),
    ("solver.linalg_solve.flops", "flop/op", "count", "solver.linalg_solve.flops"),
    ("solver.cross_validate_sigma.calls", "count/op", "calls", "solver.cross_validate_sigma"),
    ("solver.cross_validate_sigma.s", "s/op", "total", "solver.cross_validate_sigma"),
    ("solver.predict_batch.s", "s/op", "total", "solver.predict_batch"),
    ("solver.self_s", "s/op", "self", "solver"),
    ("gains.eval_gain.calls", "count/op", "calls", "gains.eval_gain"),
    ("gains.eval_gain.s", "s/op", "total", "gains.eval_gain"),
    ("gains.irls_weight.calls", "count/op", "calls", "gains.irls_weight"),
    ("gains.irls_weight.s", "s/op", "total", "gains.irls_weight"),
    ("gains.eval_gain_derivative.calls", "count/op", "calls", "gains.eval_gain_derivative"),
    ("gains.eval_gain_derivative.s", "s/op", "total", "gains.eval_gain_derivative"),
    ("gains.points", "count/op", "count", "gains.points"),
    ("gains.self_s", "s/op", "self", "gains"),
    ("features.design_matrix.calls", "count/op", "calls", "features.design_matrix"),
    ("features.design_matrix.s", "s/op", "total", "features.design_matrix"),
    ("features.design_matrix.cells", "count/op", "count", "features.design_matrix.cells"),
    ("calibrate.certify_gain.s", "s/op", "total", "calibrate.certify_gain"),
    ("calibrate.estimate_lipschitz.s", "s/op", "total", "calibrate.estimate_lipschitz"),
    ("calibrate.check_gain_axioms.s", "s/op", "total", "calibrate.check_gain_axioms"),
    ("calibrate.sandwich_check.s", "s/op", "total", "calibrate.sandwich_check"),
    ("calibrate.gap_log_slope.s", "s/op", "total", "calibrate.gap_log_slope"),
    ("calibrate.self_s", "s/op", "self", "calibrate"),
    ("quadrature.integrate.calls", "count/op", "calls", "quadrature.integrate"),
    ("quadrature.integrate.s", "s/op", "total", "quadrature.integrate"),
    ("quadrature.integrate_checked.calls", "count/op", "calls", "quadrature.integrate_checked"),
    ("quadrature.self_s", "s/op", "self", "quadrature"),
)

# Computed by the harness: the traced op wall time, the share of it the
# layers' self times cover, and traced minus untraced time of the same ops.
TRACE_METRICS = (
    ("trace.op_s", "s/op", "lower"),
    ("trace.attributed_share", "share", "higher"),
    ("trace.overhead_s", "s/op", "lower"),
)

# Layers whose self times partition a traced op's wall time, together with
# the op span's own self time (the benchmark's code between layer calls).
LAYERS = ("cli", "bench", "solver", "gains", "features", "calibrate", "quadrature")


def _belongs(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op layer metric values from the spans and counters of ``ops`` traced ops."""
    duration, self_time = tracer.self_times()
    totals: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i in range(len(duration)):
        name = tracer.names[tracer.span_name[i]]
        totals[name] += duration[i]
        selfs[name] += self_time[i]
        calls[name] += 1
    out: dict[str, float] = {}
    for metric, _, kind, key in LAYER_METRICS:
        if kind == "total":
            out[metric] = totals.get(key, 0.0)
        elif kind == "calls":
            out[metric] = float(calls.get(key, 0))
        elif kind == "count":
            out[metric] = float(tracer.counts.get(key, 0.0))
        else:
            out[metric] = sum((v for n, v in selfs.items() if _belongs(n, key)), 0.0)
        out[metric] /= ops
    op_total = totals.get(OP_SPAN, 0.0)
    attributed = sum(v for n, v in selfs.items() if any(_belongs(n, p) for p in LAYERS))
    out["trace.op_s"] = op_total / ops
    out["trace.attributed_share"] = attributed / op_total if op_total > 0 else 0.0
    return out
