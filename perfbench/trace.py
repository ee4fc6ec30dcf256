"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the ``portopt`` modules and rebinds
every module-level name that refers to them, including the names other
modules imported (``solver.solve_qp``, ``frontier.trace_frontier``, the
CLI's handler table).  Each call becomes a span with a name, start, end,
parent span and the id of the benchmark operation that caused it.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, function, span name); several functions may share a span name
TARGETS = (
    ("portopt.ingest", "parse_price_table", "ingest.parse"),
    ("portopt.ingest", "parse_riskfree_table", "ingest.parse"),
    ("portopt.ingest", "select_bom", "ingest.bom_returns"),
    ("portopt.ingest", "compute_monthly_returns", "ingest.bom_returns"),
    ("portopt.estimation", "markowitz_estimates", "estimation.estimate"),
    ("portopt.estimation", "index_model_estimates", "estimation.estimate"),
    ("portopt.estimation", "im_covariance", "estimation.estimate"),
    ("portopt.constraints", "check_feasible", "constraints.check_feasible"),
    ("portopt.qp", "find_feasible_point", "qp.phase1"),
    ("portopt.qp", "solve_qp", "qp.solve"),
    ("portopt.solver", "solve_min_variance", "solver.solve"),
    ("portopt.solver", "solve_max_sharpe", "solver.solve"),
    ("portopt.solver", "solve_target_return", "solver.solve"),
    ("portopt.solver", "attainable_return_range", "solver.range_lp"),
    ("portopt.solver", "kkt_residual_weights", "solver.kkt"),
    ("portopt.frontier", "trace_frontier", "frontier.trace"),
    ("portopt.frontier", "sample_cloud", "frontier.cloud_sample"),
    ("portopt.frontier", "cloud_points", "frontier.cloud_eval"),
    ("portopt.report", "compare_models", "report.compare_models"),
    ("portopt.report", "report_to_csv", "report.serialize"),
    ("portopt.report", "report_to_json_dict", "report.serialize"),
    ("portopt.svgplot", "render_plot", "svgplot.render"),
    ("portopt.cli", "cmd_ingest", "cli.cmd"),
    ("portopt.cli", "cmd_solve", "cli.cmd"),
    ("portopt.cli", "cmd_frontier", "cli.cmd"),
    ("portopt.cli", "cmd_compare", "cli.cmd"),
)

# modules whose globals may hold a wrapped function
_REBIND_PREFIXES = ("portopt", "perfbench")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 for a root
    op: int       # id of the benchmark operation that caused the span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    iterations: int = 0                                   # sum of QPResult.iterations
    kkt_values: list[float] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)   # solver.solve results
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = time.perf_counter()

    @contextmanager
    def operation(self, name: str):
        """One benchmark operation: a root span whose id tags its children."""
        self.op += 1
        span = self._open(f"op.{name}")
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._observe(name, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "qp.solve":
            self.iterations += int(result.iterations)
        elif name == "solver.solve":
            self.converged.append(bool(result.converged))
        elif name == "solver.kkt":
            self.kkt_values.append(float(result))

    def counts(self) -> dict:
        """Work counts that must repeat exactly for identical work."""
        out = dict(Counter(s.name for s in self.spans))
        out["qp.iterations"] = self.iterations
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function for the duration of the block."""
    undo = []
    try:
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = tracer.wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith(_REBIND_PREFIXES):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod.__dict__, attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):   # e.g. the CLI handler table
                        for key, item in list(value.items()):
                            if item is original:
                                undo.append((value, key, original))
                                value[key] = wrapper
        yield tracer
    finally:
        for container, key, original in reversed(undo):
            container[key] = original


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def self_time_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out


# per-layer metric -> span name whose self time it sums
_SELF_TIMES = {
    "ingest.parse_s": "ingest.parse",
    "ingest.bom_returns_s": "ingest.bom_returns",
    "estimation.estimate_s": "estimation.estimate",
    "qp.phase1_s": "qp.phase1",
    "qp.solve_s": "qp.solve",
    "solver.range_lp_s": "solver.range_lp",
    "solver.kkt_check_s": "solver.kkt",
    "solver.self_s": "solver.solve",
    "constraints.check_feasible_s": "constraints.check_feasible",
    "frontier.trace_self_s": "frontier.trace",
    "frontier.cloud_sample_s": "frontier.cloud_sample",
    "frontier.cloud_eval_s": "frontier.cloud_eval",
    "report.compare_models_s": "report.compare_models",
    "report.serialize_s": "report.serialize",
    "svgplot.render_s": "svgplot.render",
    "cli.self_s": "cli.cmd",
}
_CALLS = {
    "qp.phase1_calls": "qp.phase1",
    "qp.solve_calls": "qp.solve",
    "solver.kkt_calls": "solver.kkt",
    "constraints.check_feasible_calls": "constraints.check_feasible",
}


def layer_metrics(tracer: Tracer, *, import_s: float, overhead_s: float) -> dict:
    """Every per-layer metric, as ``{name: {"value": v, "unit": u}}``."""
    selfs = self_time_by_name(tracer.spans)
    calls = Counter(s.name for s in tracer.spans)
    values = {"import.portopt_s": (import_s, "s")}
    values.update({k: (selfs.get(v, 0.0), "s") for k, v in _SELF_TIMES.items()})
    values.update({k: (calls[v], "count") for k, v in _CALLS.items()})
    values["qp.iterations"] = (tracer.iterations, "count")
    values["qp.ms_per_iteration"] = (
        1000.0 * selfs.get("qp.solve", 0.0) / max(tracer.iterations, 1), "ms")
    values["solver.kkt_max"] = (max(tracer.kkt_values, default=0.0), "residual")
    values["solver.converged_ratio"] = (
        sum(tracer.converged) / max(len(tracer.converged), 1), "ratio")
    values["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
