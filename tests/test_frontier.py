"""Frontier tracing, CAL geometry, cloud sampling, dominance."""

import numpy as np
import pytest

from conftest import factor_returns, make_table, random_monthly_cov
from portopt import (
    ConstraintSet,
    PortfolioStats,
    ValidationError,
    capital_allocation_line,
    check_feasible,
    cloud_points,
    markowitz_estimates,
    sample_cloud,
    trace_frontier,
)
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
