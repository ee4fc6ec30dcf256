"""Frontier tracing, CAL geometry, cloud sampling, dominance."""

import numpy as np
import pytest

import portopt.qp
import portopt.solver
from conftest import (
    constraint_for,
    factor_returns,
    fail_certificate,
    make_table,
    random_monthly_cov,
    small_cases,
    zero_crossing_universe,
)
from portopt import (
    ConstraintSet,
    ConvergenceError,
    DegenerateSharpeError,
    PortfolioStats,
    SamplingError,
    ValidationError,
    capital_allocation_line,
    check_feasible,
    cloud_points,
    markowitz_estimates,
    sample_cloud,
    solve_target_return,
    trace_frontier,
)
from portopt.constraints import RegimeModel, regime_model
from portopt.frontier import frontier_to_csv, points_to_csv

C3 = ConstraintSet("c3")
C4 = ConstraintSet("c4")


def test_trace_two_asset_example_endpoints():
    cov = np.diag([0.01, 0.04])
    mean = np.array([0.01, 0.02])
    curve = trace_frontier(cov, mean, 0.0, C3, grid=3)
    stdevs = [s for s, _ in curve.points]
    rets = [r for _, r in curve.points]
    assert rets[0] == pytest.approx(0.012, abs=1e-10)
    assert stdevs[0] == pytest.approx(np.sqrt(0.008), abs=1e-10)
    assert rets[-1] == pytest.approx(0.02, abs=1e-10)
    assert stdevs[-1] == pytest.approx(0.2, abs=1e-9)
    assert np.allclose(curve.min_variance.weights, [0.8, 0.2], atol=1e-10)


def test_trace_degenerate_equal_means_single_point():
    curve = trace_frontier(np.eye(3), np.full(3, 0.01), 0.0, C3, grid=10)
    assert len(curve.points) == 1
    assert curve.points[0][1] == pytest.approx(0.01, abs=1e-12)


def test_tangency_lies_on_curve():
    rng = np.random.default_rng(1)
    cov = random_monthly_cov(rng, 4)
    mean = rng.normal(0.01, 0.008, 4)
    mean[0] = 0.02
    curve = trace_frontier(cov, mean, 0.002, C4, grid=15)
    t = curve.tangency.stats
    assert curve.interpolated_stdev(t.ret) == pytest.approx(t.stdev, abs=1e-6)


def test_efficient_branch_monotone():
    rng = np.random.default_rng(2)
    cov = random_monthly_cov(rng, 5)
    mean = rng.normal(0.01, 0.008, 5)
    mean[1] = 0.02
    curve = trace_frontier(cov, mean, 0.002, C4, grid=30)
    stdevs = [s for s, r in curve.efficient_points()]
    assert all(a <= b + 1e-12 for a, b in zip(stdevs, stdevs[1:]))


def test_cloud_dominance_vs_frontier():
    # no sampled feasible point sits strictly above-left of the efficient
    # branch (linear interpolation over-estimates a convex frontier, so the
    # comparison runs against the traced nodes themselves)
    rng = np.random.default_rng(4)
    cov = random_monthly_cov(rng, 5)
    mean = rng.normal(0.01, 0.008, 5)
    mean[0] = 0.02
    curve = trace_frontier(cov, mean, 0.002, C4, grid=50)
    cloud = sample_cloud(C4, 5, 1000, seed=9)
    sig = np.sqrt(np.einsum("ij,jk,ik->i", cloud.weights, cov, cloud.weights))
    ret = cloud.weights @ mean
    pts = curve.efficient_points()
    f_sig = np.array([s for s, _ in pts])
    f_ret = np.array([r for _, r in pts])
    above = ret[:, None] >= f_ret[None, :] - 1e-12
    below_left = sig[:, None] < f_sig[None, :] - 1e-8
    assert not np.any(above & below_left)


def test_cal_intercept_and_slope():
    stats = PortfolioStats(ret=0.01, stdev=0.05, sharpe=0.5, model="MM")
    pts = capital_allocation_line(0.0, stats, sigma_max=0.1, grid=3)
    assert pts[0] == (0.0, 0.0)
    assert pts[-1][1] == pytest.approx(0.05, abs=1e-15)


def test_cal_reference_tangency_point():
    stats = PortfolioStats(ret=0.74810589, stdev=1.746113937,
                           sharpe=0.427214947, model="MM")
    pts = capital_allocation_line(0.002139918, stats, sigma_max=1.746113937,
                                  grid=5)
    assert pts[0][1] == pytest.approx(0.002139918, abs=1e-15)
    assert pts[-1][1] == pytest.approx(0.74810589, abs=1e-6)


def test_cal_validation():
    stats = PortfolioStats(ret=0.01, stdev=0.0, sharpe=0.0, model="MM")
    with pytest.raises(ValidationError):
        capital_allocation_line(0.0, stats, 0.1)


def test_cal_supports_frontier_under_c3():
    # supporting line: CAL lies weakly above the frontier, touching at tangency
    rng = np.random.default_rng(5)
    cov = random_monthly_cov(rng, 4)
    mean = rng.normal(0.01, 0.006, 4)
    mean[3] = 0.018
    rf = 0.002
    if np.linalg.solve(cov, mean - rf).sum() < 0.3:
        pytest.skip("degenerate draw")
    curve = trace_frontier(cov, mean, rf, C3, grid=25)
    slope = curve.tangency.stats.sharpe
    for s, r in curve.points:
        assert rf + slope * s >= r - 1e-6


def test_cloud_count_validation():
    with pytest.raises(ValidationError):
        sample_cloud(C4, 3, 0, seed=1)


def test_cloud_simplex_regime():
    cloud = sample_cloud(C4, 3, 200, seed=1)
    assert np.all(cloud.weights >= 0.0)
    assert np.allclose(cloud.weights.sum(axis=1), 1.0, atol=1e-12)


def test_cloud_same_seed_identical():
    for regime in ("c1", "c2", "c3", "c4"):
        c = ConstraintSet(regime)
        a = sample_cloud(c, 4, 100, seed=42)
        b = sample_cloud(c, 4, 100, seed=42)
        assert np.array_equal(a.weights, b.weights)


def test_cloud_leverage_respected_in_bulk():
    cloud = sample_cloud(ConstraintSet("c1"), 6, 1000, seed=5)
    assert np.abs(cloud.weights).sum(axis=1).max() <= 2.0 + 1e-9


def test_cloud_box_and_feasibility_reports():
    c2 = ConstraintSet("c2")
    cloud = sample_cloud(c2, 5, 400, seed=17)
    for w in cloud.weights:
        assert check_feasible(w, c2, tol=1e-9).feasible


def test_cloud_nan_portfolio_rejected(monkeypatch):
    # weight_bound = 1/N leaves only equal weights, so every portfolio is shrunk
    monkeypatch.setattr(RegimeModel, "toward", lambda regime, anchor, w: w * np.nan)
    with pytest.raises(SamplingError, match="infeasible sample 0"):
        sample_cloud(ConstraintSet("c2", weight_bound=0.25), 4, 10, seed=1)


def test_cloud_market_exclusion():
    c5 = ConstraintSet("c5", market_index=1)
    cloud = sample_cloud(c5, 4, 200, seed=8)
    assert np.all(cloud.weights[:, 1] == 0.0)


def test_cloud_points_match_models():
    rng = np.random.default_rng(6)
    table = make_table(factor_returns(rng, 40, 4))
    mm = markowitz_estimates(table)
    cloud = sample_cloud(C4, 4, 50, seed=2)
    pts = cloud_points(cloud, mm, rf=0.002)
    assert pts.shape == (50, 2)
    w0 = cloud.weights[0]
    assert pts[0, 1] == pytest.approx(float(mm.mean @ w0), abs=1e-14)


def test_models_overlap_unconstrained_on_factor_data(bundled_prices_text,
                                                     bundled_riskfree_text):
    # on data generated by a single factor, the two models' unconstrained
    # frontiers and CALs nearly coincide
    from portopt import (
        average_risk_free,
        compute_monthly_returns,
        im_covariance,
        index_model_estimates,
        parse_price_table,
        parse_riskfree_table,
        select_bom,
    )

    table = compute_monthly_returns(
        select_bom(parse_price_table(bundled_prices_text, "MKT")))
    rf = average_risk_free(parse_riskfree_table(bundled_riskfree_text))
    mm = markowitz_estimates(table)
    im = index_model_estimates(table)
    cm = trace_frontier(mm.cov, mm.mean, rf, C3, grid=20, model="MM")
    ci = trace_frontier(im_covariance(im), im.expected_returns(), rf, C3,
                        grid=20, model="IM")
    s_mm = cm.tangency.stats.sharpe
    s_im = ci.tangency.stats.sharpe
    assert abs(s_mm - s_im) <= 0.15 * abs(s_mm)

    mu_lo = max(cm.min_variance.stats.ret, ci.min_variance.stats.ret)
    mu_hi = min(max(r for _, r in cm.points), max(r for _, r in ci.points))
    grid = np.linspace(mu_lo, mu_hi, 30)
    sm = np.array([cm.interpolated_stdev(m) for m in grid])
    si = np.array([ci.interpolated_stdev(m) for m in grid])
    assert np.abs(sm - si).max() <= 0.15 * (sm.max() - sm.min())


def test_points_csv_header_and_shape():
    text = points_to_csv([(0.1, 0.01), (0.2, 0.02)])
    lines = text.strip().split("\n")
    assert lines[0] == "stdev,return"
    assert len(lines) == 3


def test_frontier_csv_matches_points():
    cov = np.diag([0.01, 0.04])
    curve = trace_frontier(cov, [0.01, 0.02], 0.0, C3, grid=3)
    text = frontier_to_csv(curve)
    assert text.count("\n") == len(curve.points) + 1


REGIMES = ("c1", "c2", "c3", "c4", "c5")


def _trace_counting_qps(monkeypatch, cov, mean, rf, c, grid):
    """The curve, with the number of QPs it ran and their total iterations."""
    original, work = portopt.solver.solve_qp, [0, 0]

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        work[0] += 1
        work[1] += res.iterations
        return res

    monkeypatch.setattr(portopt.solver, "solve_qp", counting)
    curve = trace_frontier(cov, mean, rf, c, grid=grid)
    monkeypatch.undo()
    return curve, *work


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("label", ["bundled-mm", "bundled-im", "n30"])
def test_path_points_match_cold_solves(markets, label, regime):
    # every warm-started or two-fund point is the cold solve at its target:
    # the grid from the minimum-variance return to the best feasible one,
    # plus the tangency return
    cov, mean, rf, mi = markets[label]
    c = constraint_for(regime, mi)
    curve = trace_frontier(cov, mean, rf, c, grid=50)
    mu0, tangency = curve.min_variance.stats.ret, curve.tangency.stats.ret
    best = float(mean @ regime_model(c, len(mean)).vertex(mean, highest=True))
    grid = np.linspace(mu0, max(best, tangency, mu0), 50)
    targets = sorted({float(t) for t in (*grid, tangency)})
    assert len(curve.points) == len(targets)
    cold = []
    for (stdev, ret), t in zip(curve.points, targets):
        sol = solve_target_return(cov, mean, t, c)
        assert sol.converged
        assert stdev == pytest.approx(sol.stats.stdev, rel=1e-10, abs=0.0), t
        assert ret == pytest.approx(sol.stats.ret, rel=1e-10, abs=1e-15), t
        cold.append((sol.stats.stdev, sol.stats.ret))
    assert frontier_to_csv(curve) == points_to_csv(cold)


@pytest.mark.parametrize("regime", ["c3", "c5"])
@pytest.mark.parametrize("label", ["bundled-mm", "bundled-im", "n30"])
def test_two_fund_curve_runs_three_qps(monkeypatch, markets, label, regime):
    # minimum variance, maximum Sharpe and the one target at the far end
    cov, mean, rf, mi = markets[label]
    c = constraint_for(regime, mi)
    curve, calls, _ = _trace_counting_qps(monkeypatch, cov, mean, rf, c, 100)
    assert len(curve.points) >= 100
    assert calls <= 3


def _path_counts(monkeypatch, cov, mean, rf, c, grid):
    """The curve, the corners its path certified with their multipliers (one
    per row of each stacked certificate), the QPs the path ran besides
    minimum variance and maximum Sharpe, the KKT solves (``qp._solve_kkt``)
    inside the path, those of its QPs included, and the ``np.linalg.lstsq``
    calls inside the path: a singular KKT system or a certificate recovered
    without the path's multipliers."""
    original, corners, on_path = portopt.solver.kkt_residual_weights, [0], [False]
    corner_path, solve_kkt, solves = portopt.solver.Problem.corner_path, portopt.qp._solve_kkt, [0]
    lstsq, fallbacks = np.linalg.lstsq, [0]

    def counting(w, *args, **kwargs):
        # minimum variance and maximum Sharpe carry multipliers too
        if on_path[0] and kwargs.get("multipliers") is not None:
            corners[0] += len(np.reshape(w, (-1, np.shape(w)[-1])))
        return original(w, *args, **kwargs)

    def solving(K, rhs):
        solves[0] += on_path[0]
        return solve_kkt(K, rhs)

    def least_squares(*args, **kwargs):
        fallbacks[0] += on_path[0]
        return lstsq(*args, **kwargs)

    def tracing(self, *args):
        on_path[0] = True
        try:
            return corner_path(self, *args)
        finally:
            on_path[0] = False

    monkeypatch.setattr(portopt.solver, "kkt_residual_weights", counting)
    monkeypatch.setattr(portopt.solver.Problem, "corner_path", tracing)
    monkeypatch.setattr(portopt.qp, "_solve_kkt", solving)
    monkeypatch.setattr(np.linalg, "lstsq", least_squares)
    curve, calls, _ = _trace_counting_qps(monkeypatch, cov, mean, rf, c, grid)
    return curve, corners[0], calls - 2, solves[0], fallbacks[0]


def test_bundled_frontier_corner_counts(monkeypatch, markets):
    # pins the corner path of every bounded bundled curve at grid 100: its
    # corners, each certified once, and no QP: the path starts from the
    # minimum-variance solve, no corner is degenerate, and the top is the end
    # of the last segment, with one KKT solve per segment and none at the top;
    # no least-squares fallback.  One QP per target took 196-245 active-set
    # iterations per curve
    counts = {"c1": (14, 16), "c2": (12, 12), "c4": (8, 8)}
    for regime, expected in counts.items():
        for label, corners in zip(("bundled-mm", "bundled-im"), expected):
            cov, mean, rf, mi = markets[label]
            _, *path, fallbacks = _path_counts(monkeypatch, cov, mean, rf,
                                               constraint_for(regime, mi), 100)
            assert (*path, fallbacks) == (corners, 0, corners - 1, 0), (regime, label)


def test_n50_frontier_corner_counts(monkeypatch):
    # pins the corner path of the bounded curves of the frontier benchmark's
    # universe at grid 100: its corners, no QP, and the KKT solves inside the
    # path, one per segment and none at the top; no least-squares fallback
    from perfbench.universe import make_universe

    u = make_universe(50, 128, 1)
    counts = {"c1": (54, 0, 53), "c2": (52, 0, 51), "c4": (22, 0, 21)}
    for regime, expected in counts.items():
        _, *path, fallbacks = _path_counts(monkeypatch, u.mm.cov, u.mm.mean, u.rf,
                                           ConstraintSet(regime), 100)
        assert (tuple(path), fallbacks) == (expected, 0), regime


def _assert_matches_cold_solves(curve, cov, mean, c, grid):
    mu0, tangency = curve.min_variance.stats.ret, curve.tangency.stats.ret
    best = float(mean @ regime_model(c, len(mean)).vertex(mean, highest=True))
    hi = max(best, tangency, mu0)
    if hi - mu0 <= 1e-12 * (1.0 + abs(mu0)):
        targets = [mu0]
    else:
        targets = sorted({float(t) for t in (*np.linspace(mu0, hi, grid), tangency)})
    assert len(curve.points) == len(targets)
    for (stdev, ret), t in zip(curve.points, targets):
        sol = solve_target_return(cov, mean, t, c)
        assert sol.converged
        assert stdev == pytest.approx(sol.stats.stdev, rel=1e-10, abs=0.0), t
        assert ret == pytest.approx(sol.stats.ret, rel=1e-10, abs=1e-15), t


@pytest.mark.parametrize("cov, mean, rf, c", list(small_cases()))
def test_small_universe_path_matches_cold_solves(cov, mean, rf, c):
    # a duplicated asset, the tight bounds and near-zero excess returns: every
    # path point is the cold solve at its target.  Where equal weights are the
    # single point and earn no excess return, there is no tangency portfolio
    if c.weight_bound * len(mean) == 1.0 and float(mean.mean()) <= rf:
        with pytest.raises(DegenerateSharpeError):
            trace_frontier(cov, mean, rf, c, grid=15)
        return
    curve = trace_frontier(cov, mean, rf, c, grid=15)
    _assert_matches_cold_solves(curve, cov, mean, c, 15)


def test_zero_crossing_under_slack_leverage_falls_back(monkeypatch):
    # with the leverage row slack, a weight crossing zero moves its split
    # part onto its bound as the other part's multiplier, only the split
    # Hessian's 1e-12 diagonal, reaches zero: a degenerate corner, re-solved
    cov, mean, c = zero_crossing_universe()
    curve, corners, qps, _, _ = _path_counts(monkeypatch, cov, mean, 0.0, c, 20)
    assert qps >= 1 and corners >= 2 * qps      # none at the start
    weights = [solve_target_return(cov, mean, r, c).weights for _, r in curve.points[::19]]
    assert np.sign(weights[0]).tolist() != np.sign(weights[-1]).tolist()
    assert np.abs(weights[-1]).sum() < 50.0
    _assert_matches_cold_solves(curve, cov, mean, c, 20)


def test_degenerate_corners_match_cold_solves(monkeypatch):
    # a tight box on a frontier benchmark universe: the path meets degenerate
    # corners, a QP takes over at each, and the path resumes from the QP's
    # point and multipliers, stepping by direction alone; every point is still
    # the cold solve at its target
    from perfbench.universe import make_universe

    u = make_universe(50, 128, 3)
    c = ConstraintSet("c2", weight_bound=1.2 / 50)
    curve, _, qps, _, _ = _path_counts(monkeypatch, u.mm.cov, u.mm.mean, u.rf, c, 40)
    assert qps >= 1
    _assert_matches_cold_solves(curve, u.mm.cov, u.mm.mean, c, 40)


@pytest.mark.parametrize("regime, k", [
    ("c4", 5),      # a corner inside the path
    ("c3", 2),      # the path's start: c3 has no events, one segment
])
def test_failed_point_certificate_raises(monkeypatch, markets, regime, k):
    cov, mean, rf, mi = markets["bundled-mm"]
    fail_certificate(monkeypatch, k)
    with pytest.raises(ConvergenceError, match=r"target return -?\d.*residual 1\b"):
        trace_frontier(cov, mean, rf, constraint_for(regime, mi), grid=20)


def test_cloud_sample_length_is_its_count():
    for regime in ("c1", "c4"):
        assert len(sample_cloud(ConstraintSet(regime), 4, 37, seed=3)) == 37


def test_frontier_of_near_equal_means_stays_in_the_box():
    # the benchmark's N = 50 covariance under expected returns within a few 1e-9
    # of 0.01 (attainable returns span 7e-8): stepped in raw returns, the path
    # would lose about log10(level / span) digits per step and break a box
    # bound; stepped in the return row's units (``RegimeModel.return_row``),
    # every corner holds its bounds and passes its certificate
    from perfbench.universe import make_universe

    cov = make_universe(50, 128, 1).mm.cov
    mean = 0.01 + 1e-9 * np.random.default_rng(5).normal(size=50)
    curve = trace_frontier(cov, mean, 0.0, ConstraintSet("c2"), grid=20)
    assert len(curve.points) >= 20


def _shifted_curves(cov, z, spread, c):
    """The frontier of means ``level + spread z`` at risk-free rate ``level``, for
    each level 0, 0.01 and 1: the same efficient portfolios under full investment."""
    return [trace_frontier(cov, level + spread * z, level, c, grid=20) for level in (0.0, 0.01, 1.0)]


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("regime", ["c1", "c2", "c4"])
def test_frontier_does_not_depend_on_the_return_level(regime, seed):
    # adding a constant to every mean and to rf changes no efficient portfolio,
    # so at each level, however far above the spread, every curve traces in full
    from perfbench.universe import make_universe

    cov = make_universe(50, 128, 1).mm.cov
    z = np.random.default_rng(seed).normal(size=50)
    for spread in (1e-6, 1e-9):
        for curve in _shifted_curves(cov, z, spread, ConstraintSet(regime)):
            assert len(curve.points) >= 20, spread


def test_shifted_frontiers_agree_up_to_the_shift():
    # inputs level + spread z round at ulp(level), so curves at two levels agree
    # to about ulp(level) / spread: at spread 1e-4, within 1e-9 relative
    from perfbench.universe import make_universe

    cov = make_universe(50, 128, 1).mm.cov
    z = np.random.default_rng(5).normal(size=50)
    for regime in ("c1", "c2", "c4"):
        base, *shifted = _shifted_curves(cov, z, 1e-4, ConstraintSet(regime))
        for curve in shifted:
            assert len(curve.points) == len(base.points), regime
            assert np.allclose([p[0] for p in curve.points], [p[0] for p in base.points],
                               rtol=1e-9, atol=0.0), regime
