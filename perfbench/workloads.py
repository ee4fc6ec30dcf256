"""The benchmark's workloads, their operations and the checks on each.

Three parts make up every workload:

* ``cli``      -- the four steps of ``scripts/run_pipeline_demo.py`` on the
                  bundled data, each a fresh ``python -m portopt.cli`` process
                  (in-process ``portopt.cli.main`` when traced);
* ``frontier`` -- ``trace_frontier(grid=100)`` and 2000-sample clouds;
* ``solve``    -- minimum-variance and maximum-Sharpe cells in all regimes.

A workload runs its own in-process part at full size, and the CLI part and
the other in-process part as probes on the bundled data, so that every
workload reports every end-to-end metric.  Fresh interpreters that only set
up give ``setup_s``.  Each part runs its passes back to back.  All load
comes from one process, closed loop, one client; nothing runs concurrently.

A pass times each of its operations, and ``speed.SpeedProbe`` turns each
wall time into seconds at a reference machine speed, with a reference of
its own for fresh processes.  A time metric is the
sum, over the operations it covers, of each operation's median time across
the passes; a rate metric divides the pass's work by that sum.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import portopt.cli
from portopt import (
    ConstraintSet,
    PortoptError,
    average_risk_free,
    cloud_points,
    compute_monthly_returns,
    im_covariance,
    index_model_estimates,
    markowitz_estimates,
    parse_price_table,
    parse_riskfree_table,
    sample_cloud,
    select_bom,
    solve_max_sharpe,
    solve_min_variance,
    trace_frontier,
)
from portopt.estimation import MODEL_IM, MODEL_MM

from . import checks
from .speed import SpeedProbe
from .universe import make_universe

ROOT = Path(__file__).resolve().parents[1]
REGIMES = ("c1", "c2", "c3", "c4", "c5")
PRICES = "data/synthetic_prices.csv"
RISKFREE = "data/synthetic_riskfree.csv"
MARKET = "MKT"

FRONTIER_GRID = 100
CLOUD_COUNT = 2000
FRONTIER_UNIVERSE = (50, 128)       # (N, T) of the seeded frontier universe
SOLVE_SIZES = (100, 200)            # N of the seeded large-N universes
SOLVE_T = 240

WORKLOADS = {                       # workload -> the part it runs at full size
    "frontier-grid": "frontier",
    "large-n-solve": "solve",
}
# full passes of the workload's own part.  A pass takes 8-14 s on a 2-core
# machine; two keep a run under a minute
HOME_MIN_PASSES = 2
# passes of each probe: medians need repeats, and repeated CLI passes give
# the byte-identity check
PROBE_PASSES = {"setup": 3, "cli": 3, "frontier": 3, "solve": 40}


@dataclass(frozen=True)
class Market:
    """One estimated input set: what a solver or a cloud evaluation needs."""

    label: str
    model: str
    cov: np.ndarray
    mean: np.ndarray
    rf: float
    market_index: int
    estimates: object     # MarkowitzEstimates or IndexModelEstimates

    def constraint(self, regime: str) -> ConstraintSet:
        return ConstraintSet(regime, market_index=self.market_index if regime == "c5" else None)


@dataclass
class Inputs:
    bundled: tuple[Market, Market]                 # MM and IM on data/
    universes: list[Market] = field(default_factory=list)


def build_inputs(workload: str, seed: int) -> Inputs:
    """Everything the in-process parts need: parse, generate and estimate."""
    daily = parse_price_table((ROOT / PRICES).read_text(encoding="utf-8"), MARKET,
                              filename=PRICES)
    table = compute_monthly_returns(select_bom(daily))
    rf = average_risk_free(parse_riskfree_table(
        (ROOT / RISKFREE).read_text(encoding="utf-8"), filename=RISKFREE))
    mm = markowitz_estimates(table)
    im = index_model_estimates(table, rf=rf)
    mi = table.market_position
    inputs = Inputs((
        Market("bundled-mm", MODEL_MM, mm.cov, mm.mean, rf, mi, mm),
        Market("bundled-im", MODEL_IM, im_covariance(im), im.expected_returns(), rf, mi, im),
    ))
    if WORKLOADS[workload] == "frontier":
        sizes, t = (FRONTIER_UNIVERSE[0],), FRONTIER_UNIVERSE[1]
    else:
        sizes, t = SOLVE_SIZES, SOLVE_T
    for n in sizes:
        u = make_universe(n, t, seed)
        inputs.universes.append(Market(f"n{n}-mm", MODEL_MM, u.mm.cov, u.mm.mean,
                                       u.rf, u.market_index, u.mm))
    return inputs


@dataclass
class Context:
    workload: str
    seed: int
    scratch: Path                 # CLI output directories live here
    tracer: object = None         # trace.Tracer while tracing
    speed: SpeedProbe | None = None   # samples machine speed between operations
    inprocess_cli: bool = False
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _dirs: int = 0

    def run_op(self, name: str, fn, check, fresh: bool = False):
        """Time one operation and record whether it succeeded.

        ``check(result)`` lists what is wrong with a result; it runs outside
        the timed region; ``fresh`` operations start a process.  Returns
        (result or None, (start, end)).
        """
        if self.speed:
            self.speed.tick(fresh)
        self.attempted += 1
        span = self.tracer.operation(name) if self.tracer else contextlib.nullcontext()
        result = None
        with span:
            t0 = time.perf_counter()
            try:
                result = fn()
                error = None
            except PortoptError as exc:
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        if self.speed:
            self.speed.tick()
        found = [error] if error else check(result)
        if found:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in found)
        return result, (t0, t1)

    def new_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def _solution_problems(*solutions) -> list[str]:
    return [
        f"{s.objective} converged={s.converged} kkt={s.kkt_residual:.3g}"
        for s in solutions if not checks.solution_ok(s)
    ]


class Pass(NamedTuple):
    """One pass of a part: per metric, the (start, end) of each operation
    it covers; per rate metric, the work done; digests of the outputs; and
    whether its operations are fresh processes."""

    times: dict
    work: dict
    digests: object
    fresh: bool = False


# --- parts: each runs one pass -------------------------------------------------

def _python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``args`` from the root, importing ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, **kwargs)


def fresh_python(args: list[str]) -> float:
    """Wall time of a fresh interpreter running ``args``."""
    t0 = time.perf_counter()
    _python(args, check=True)
    return time.perf_counter() - t0


def run_setup(ctx: Context) -> Pass:
    """Interpreter start, import, input generation and estimation, in a fresh process."""
    argv = ["perfbench/run.py", "--setup-only", "--seconds", "0",
            "--workload", ctx.workload, "--seed", str(ctx.seed)]
    _, span = ctx.run_op("setup", lambda: _python(argv).returncode,
                         lambda code: [f"exit code {code}"] if code else [], fresh=True)
    return Pass({"setup_s": {"setup": span}}, {}, None, fresh=True)


def cli_steps(seed: int):
    """(step, output-file prefix, argv) of the documented pipeline."""
    base = ["--prices", PRICES, "--riskfree", RISKFREE, "--market-ticker", MARKET]
    return (
        ("ingest", "monthly_returns", ["ingest", *base]),
        ("solve", "solution_", ["solve", *base, "--constraint", "c2",
                                "--model", "both", "--objective", "both"]),
        ("frontier", "frontier_", ["frontier", *base, "--constraint", "c2",
                                   "--grid", "60", "--cloud-count", "600",
                                   "--seed", str(seed)]),
        ("compare", "comparison", ["compare", *base]),
    )


def _cli_call(ctx: Context, argv: list[str]) -> int:
    if ctx.inprocess_cli:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return portopt.cli.main(argv)
    return _python(["-m", "portopt.cli", *argv], stderr=subprocess.DEVNULL).returncode


def run_cli(ctx: Context, inputs: Inputs, full: bool) -> Pass:
    """The four CLI steps into a fresh directory; the same whatever ``full``."""
    out = ctx.new_dir("cli")
    rel = os.path.relpath(out, ROOT)
    times = {}
    for step, prefix, argv in cli_steps(ctx.seed):
        def check(code, prefix=prefix):
            found = [f"exit code {code}"] if code != 0 else []
            if not any(out.glob(f"{prefix}*")):
                found.append(f"no {prefix}* output")
            return found + checks.cli_outputs_problems(out, prefix)
        _, span = ctx.run_op(
            f"cli.{step}", lambda argv=argv: _cli_call(ctx, [*argv, "--output-dir", rel]), check,
            fresh=not ctx.inprocess_cli)
        times[f"cli_{step}_s"] = {step: span}
    return Pass(times, {}, checks.dir_digests(out), fresh=not ctx.inprocess_cli)


def run_frontier(ctx: Context, inputs: Inputs, full: bool) -> Pass:
    """Per regime: frontiers of every market, then one cloud on the bundled
    universe, evaluated under both of its models.  The probe traces only
    the c2 frontiers of the bundled data but samples every regime."""
    markets = (*inputs.bundled, *inputs.universes) if full else inputs.bundled
    points = portfolios = 0
    trace_s, cloud_s = {}, {}
    digests = []
    for regime in REGIMES:
        curves = {}
        for m in (markets if full or regime == "c2" else ()):
            c = m.constraint(regime)

            def check(curve, m=m):
                found = _solution_problems(curve.tangency, curve.min_variance)
                if len(curve.points) < 2:
                    found.append("degenerate frontier")
                found += checks.frontier_problems(curve.points, curve.min_variance.stats.stdev,
                                                  m.cov, m.mean, exact=regime == "c3")
                return found
            curve, span = ctx.run_op(
                f"frontier.trace.{m.label}.{regime}",
                lambda m=m, c=c: trace_frontier(m.cov, m.mean, m.rf, c, grid=FRONTIER_GRID,
                                                model=m.model),
                check)
            trace_s[f"{m.label}.{regime}"] = span
            if curve is not None:
                curves[m.label] = curve
                points += len(curve.points)
                digests.append(checks.array_digest(curve.points))
        c = inputs.bundled[0].constraint(regime)

        def cloud(c=c):
            sample = sample_cloud(c, len(inputs.bundled[0].mean), CLOUD_COUNT, ctx.seed)
            return [cloud_points(sample, m.estimates, m.rf) for m in inputs.bundled]

        def check(rows):
            bad = 0
            for m, pts in zip(inputs.bundled, rows):
                curve = curves.get(m.label)
                floor = curve.min_variance.stats.stdev if curve else 0.0
                on_c3 = (m.cov, m.mean) if regime == "c3" else (None, None)
                bad += checks.cloud_problems(pts, floor, *on_c3)
            return [f"{bad} sampled portfolios beat the frontier"] if bad else []
        rows, cloud_s[regime] = ctx.run_op(f"frontier.cloud.{regime}", cloud, check)
        if rows is not None:
            portfolios += CLOUD_COUNT * len(rows)
            digests.append(checks.array_digest(*rows))
    return Pass({"frontier_points_per_s": trace_s, "cloud_points_per_s": cloud_s},
                {"frontier_points_per_s": points, "cloud_points_per_s": portfolios}, digests)


def run_solve(ctx: Context, inputs: Inputs, full: bool) -> Pass:
    """Minimum-variance and maximum-Sharpe cells of every market in every regime."""
    split_s, weight_s = {}, {}
    digests = []
    for m in (inputs.universes if full else inputs.bundled):
        for regime in REGIMES:
            c = m.constraint(regime)
            cells = (
                ("minvar", lambda m=m, c=c: solve_min_variance(m.cov, c, mean=m.mean, rf=m.rf,
                                                               model=m.model), None),
                ("maxsharpe", lambda m=m, c=c: solve_max_sharpe(m.cov, m.mean, m.rf, c,
                                                                model=m.model), m.mean),
            )
            for objective, solve, oracle_mean in cells:
                def check(sol, m=m, regime=regime, oracle_mean=oracle_mean):
                    found = _solution_problems(sol)
                    if regime == "c3":
                        gap = checks.closed_form_gap(sol.weights, m.cov, oracle_mean, m.rf)
                        if gap > checks.CLOSED_FORM_TOL:
                            found.append(f"c3 weights off the closed form by {gap:.3g}")
                    return found
                name = f"solve.{m.label}.{regime}.{objective}"
                sol, span = ctx.run_op(name, solve, check)
                (split_s if regime == "c1" else weight_s)[name] = span
                if sol is not None:
                    digests.append(checks.array_digest(sol.weights))
    return Pass({"solve_split_s": split_s, "solve_weight_s": weight_s}, {}, digests)


PARTS = {"cli": run_cli, "frontier": run_frontier, "solve": run_solve}


def _medians(ctx: Context, name: str, passes: list[Pass]) -> dict:
    """Each metric from its operations' median reference-speed times; the
    passes must agree."""
    if any(p.digests != passes[0].digests or p.work != passes[0].work for p in passes[1:]):
        ctx.problems.append(f"{name}: outputs differ between repetitions")
    metrics = {}
    for metric, ops in passes[0].times.items():
        seconds = sum(statistics.median(ctx.speed.reference_seconds(p.times[metric][op], p.fresh)
                                        for p in passes) for op in ops)
        work = passes[0].work.get(metric)
        metrics[metric] = seconds if work is None else work / seconds
    return metrics


def measure(ctx: Context, workload: str, inputs: Inputs, seconds: float) -> dict:
    """The timed loop: the probes' passes, then full passes of the workload's
    own part until ``seconds`` are spent.  Returns every end-to-end metric
    but peak RSS, each from its operations' median times (``_medians``)."""
    home = WORKLOADS[workload]
    ctx.speed = SpeedProbe()
    metrics = _medians(ctx, "setup", [run_setup(ctx) for _ in range(PROBE_PASSES["setup"])])
    for part, fn in PARTS.items():
        if part != home:
            metrics.update(_medians(
                ctx, part, [fn(ctx, inputs, False) for _ in range(PROBE_PASSES[part])]))
    passes = []
    t0 = time.perf_counter()
    while len(passes) < HOME_MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(PARTS[home](ctx, inputs, True))
    metrics.update(_medians(ctx, home, passes))
    return metrics


def one_pass(ctx: Context, workload: str, seed: int) -> list:
    """Inputs plus one pass of every part, as the traced run repeats it."""
    inputs = build_inputs(workload, seed)
    home = WORKLOADS[workload]
    return [fn(ctx, inputs, part == home).digests for part, fn in PARTS.items()]
