"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import portopt.qp
import portopt.solver
from portopt import ConstraintSet, solve_max_sharpe, solve_min_variance, trace_frontier
from portopt.solver import KKT_TOL

from perfbench import checks, trace
from perfbench.speed import BURST, NOMINAL_S, PROCESS_NOMINAL_S, SpeedProbe
from perfbench.trace import Span, Tracer
from perfbench.universe import make_returns, make_universe


def test_generator_is_deterministic_per_seed():
    a = make_returns(20, 60, seed=7)
    b = make_returns(20, 60, seed=7)
    assert a.tickers == b.tickers and a.months == b.months
    assert np.array_equal(a.returns, b.returns)
    assert not np.array_equal(a.returns, make_returns(20, 60, seed=8).returns)


@pytest.mark.parametrize("seed", range(6))
def test_generator_is_well_posed_across_seeds(seed):
    u = make_universe(40, 80, seed)
    mean, cov, mi = u.mm.mean, u.mm.cov, u.market_index
    keep = np.delete(np.arange(len(mean)), mi)
    floors = [
        float(mean @ portopt.solver.closed_form_min_variance(cov)),
        float(mean[keep] @ portopt.solver.closed_form_min_variance(cov[np.ix_(keep, keep)])),
    ]
    assert u.rf < min(floors)
    for regime in ("c1", "c2", "c3", "c4", "c5"):
        c = ConstraintSet(regime, market_index=mi if regime == "c5" else None)
        for sol in (solve_min_variance(cov, c, mean=mean, rf=u.rf),
                    solve_max_sharpe(cov, mean, u.rf, c)):
            assert checks.solution_ok(sol), (regime, sol.objective)


@pytest.mark.parametrize("seed", range(4))
def test_unconstrained_sharpe_well_posed_at_large_n(seed):
    # rf = 0 made c3 degenerate here for some seeds; the rf rule must not
    u = make_universe(200, 240, seed)
    for regime in ("c3", "c5"):
        c = ConstraintSet(regime, market_index=u.market_index if regime == "c5" else None)
        assert checks.solution_ok(solve_max_sharpe(u.mm.cov, u.mm.mean, u.rf, c))


def test_generator_rejects_rank_deficient_shapes():
    with pytest.raises(ValueError):
        make_universe(50, 40, seed=0)


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("op.x", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 4.0, 1, 0),
        Span("c", 7.0, 9.0, 0, 0),
        Span("op.y", 10.0, 11.0, -1, 1),
    ]
    assert trace.self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 2.0, 1.0])
    assert trace.self_time_by_name(spans) == pytest.approx(
        {"op.x": 3.0, "a": 3.5, "b": 1.5, "c": 2.0, "op.y": 1.0})


def test_speed_scale_uses_the_median_reference_time_near_an_operation():
    probe = SpeedProbe()
    probe.kernel.times = [0.0, 1.0, 1.5, 10.0, 20.0]
    probe.kernel.seconds = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S, NOMINAL_S]
    probe.process.times = [1.0]
    probe.process.seconds = [4 * PROCESS_NOMINAL_S]
    # kernel samples at 0.0, 1.0 and 1.5 lie within WINDOW_S of [0.5, 1.0]
    assert probe.kernel.scale(0.5, 1.0) == pytest.approx(0.5)
    assert probe.reference_seconds((0.5, 1.0)) == pytest.approx(0.25)
    # fresh processes scale by the bare interpreter start
    assert probe.reference_seconds((0.5, 1.0), fresh=True) == pytest.approx(0.125)
    # no sample within the window: the nearest one
    assert probe.kernel.scale(14.0, 15.0) == pytest.approx(1.0)
    probe.tick(fresh=True)
    assert len(probe.kernel.seconds) == 5 + BURST and len(probe.process.seconds) == 1 + BURST
    assert probe.kernel.times == sorted(probe.kernel.times)


class _Sol:
    def __init__(self, converged, kkt):
        self.converged = converged
        self.kkt_residual = kkt


def test_success_predicate():
    assert checks.solution_ok(_Sol(True, 0.0))
    assert checks.solution_ok(_Sol(True, KKT_TOL))
    assert not checks.solution_ok(_Sol(False, 0.0))
    assert not checks.solution_ok(_Sol(True, 2.0 * KKT_TOL))
    assert not checks.json_solution_ok({"converged": True, "kkt_residual": 1.0})
    assert not checks.json_solution_ok({"converged": False, "kkt_residual": 0.0})


def test_hyperbola_matches_the_c3_frontier():
    u = make_universe(12, 60, seed=1)
    c = ConstraintSet("c3")
    curve = trace_frontier(u.mm.cov, u.mm.mean, u.rf, c, grid=20)
    assert checks.frontier_hyperbola_error(curve.points, u.mm.cov, u.mm.mean) < 1e-8
    w = solve_min_variance(u.mm.cov, c).weights
    assert checks.closed_form_gap(w, u.mm.cov) < 1e-10
    bumped = np.array(curve.points) * [0.99, 1.0]   # less risk than the frontier
    assert checks.cloud_problems(bumped, 0.0, u.mm.cov, u.mm.mean) == len(bumped)


@pytest.mark.parametrize("regime", ("c1", "c2", "c3", "c4", "c5"))
def test_frontier_check_passes_traced_curves_and_rejects_perturbed_ones(regime):
    u = make_universe(12, 60, seed=3)
    c = ConstraintSet(regime, market_index=u.market_index if regime == "c5" else None)
    curve = trace_frontier(u.mm.cov, u.mm.mean, u.rf, c, grid=20)
    floor = curve.min_variance.stats.stdev
    args = (u.mm.cov, u.mm.mean, regime == "c3")
    assert checks.frontier_problems(curve.points, floor, *args) == []
    pts = np.array(curve.points)
    inside = pts.copy()
    inside[5, 0] = 0.99 * np.sqrt(checks.hyperbola_variance(u.mm.cov, u.mm.mean, pts[5, 1]))
    assert any("inside" in p for p in checks.frontier_problems(inside, floor, *args))
    falling = pts.copy()
    falling[-1, 0] = falling[-2, 0] * 0.999   # risk drops at the top return
    assert any("falls" in p for p in checks.frontier_problems(falling, floor, *args))
    below = pts.copy()
    below[0, 0] = floor * 0.99
    assert any("minimum-variance" in p for p in checks.frontier_problems(below, floor, *args))


def test_tracer_counts_repeat_and_functions_are_restored():
    u = make_universe(15, 60, seed=2)
    original = portopt.qp.solve_qp
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with trace.installed(tracer):
            assert portopt.solver.solve_qp is not original
            with tracer.operation("solve"):
                solve_max_sharpe(u.mm.cov, u.mm.mean, u.rf, ConstraintSet("c4"))
        counts.append(tracer.counts())
    assert portopt.qp.solve_qp is original and portopt.solver.solve_qp is original
    assert counts[0] == counts[1]
    assert counts[0]["qp.solve"] == 1 and counts[0]["qp.iterations"] > 0
    spans = tracer.spans
    assert spans[0].name == "op.solve" and all(s.op == 0 for s in spans)
    assert {s.name for s in spans if s.parent == 0} == {"solver.solve"}


def test_metric_names_match_benchmark_json():
    from perfbench import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layers = trace.layer_metrics(Tracer(), import_s=1.0, overhead_s=0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
