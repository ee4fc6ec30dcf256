"""Estimation: moments, OLS parameters, reconstructed covariance, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import factor_returns, make_table
from portopt import (
    IndexModelEstimates,
    InsufficientDataError,
    ValidationError,
    estimator_count,
    im_covariance,
    index_model_estimates,
    markowitz_estimates,
    portfolio_stats,
    sharpe_ratio,
)


def test_identical_columns_perfect_correlation():
    col = np.array([0.01, -0.02, 0.03, 0.0])
    table = make_table(np.column_stack([col, col]))
    est = markowitz_estimates(table)
    assert est.corr[0, 1] == pytest.approx(1.0, abs=1e-14)


def test_anticorrelated_columns():
    col = np.array([0.01, -0.02, 0.03, 0.0])
    table = make_table(np.column_stack([col, -col + 0.001]))
    est = markowitz_estimates(table)
    assert est.corr[0, 1] == pytest.approx(-1.0, abs=1e-14)


def test_single_column_hand_values():
    # mean 0.02; cov with T-1: ((-0.01)^2 + 0.01^2) / 1 = 0.0002
    table = make_table(np.array([[0.01], [0.03]]))
    est = markowitz_estimates(table)
    assert est.mean[0] == pytest.approx(0.02, abs=1e-18)
    assert est.cov[0, 0] == pytest.approx(0.0002, abs=1e-18)


def test_population_denominator_switch():
    table = make_table(np.array([[0.01], [0.03]]))
    est = markowitz_estimates(table, ddof=0)
    assert est.cov[0, 0] == pytest.approx(0.0001, abs=1e-18)


def test_markowitz_needs_two_rows():
    with pytest.raises(InsufficientDataError):
        markowitz_estimates(make_table(np.array([[0.01, 0.02]])))


def test_zero_variance_column_names_ticker():
    r = np.column_stack([np.full(4, 0.01), np.array([0.01, 0.02, 0.0, 0.03])])
    with pytest.raises(ValidationError, match="A0"):
        markowitz_estimates(make_table(r))


def test_ols_exact_linear_relation():
    mkt = np.array([0.01, 0.02, 0.03])
    asset = 2.0 * mkt + 0.001
    est = index_model_estimates(make_table(np.column_stack([asset, mkt])))
    assert est.beta[0] == pytest.approx(2.0, abs=1e-12)
    assert est.alpha[0] == pytest.approx(0.001, abs=1e-15)
    assert est.resid_var[0] == pytest.approx(0.0, abs=1e-20)


def test_ols_market_self_parameters_forced():
    mkt = np.array([0.01, 0.02, 0.03, -0.01])
    est = index_model_estimates(make_table(np.column_stack([mkt, mkt])))
    m = est.market_position
    assert (est.alpha[m], est.beta[m], est.resid_var[m]) == (0.0, 1.0, 0.0)
    # non-market copy of the market column regresses to (0, 1, 0) too
    assert est.beta[0] == pytest.approx(1.0, abs=1e-12)
    assert est.alpha[0] == pytest.approx(0.0, abs=1e-15)


def test_ols_hand_computed_slope():
    # slope = cov/var = 0.00005/0.0001 = 0.5; intercept 0.01; SSR/(T-2) = 0.00015
    mkt = np.array([0.01, 0.02, 0.03])
    asset = np.array([0.02, 0.01, 0.03])
    est = index_model_estimates(make_table(np.column_stack([asset, mkt])))
    assert est.beta[0] == pytest.approx(0.5, abs=1e-12)
    assert est.alpha[0] == pytest.approx(0.01, abs=1e-14)
    assert est.resid_var[0] == pytest.approx(0.00015, abs=1e-15)


def test_ols_needs_three_rows():
    with pytest.raises(InsufficientDataError):
        index_model_estimates(make_table(np.array([[0.01, 0.02], [0.02, 0.01]])))


def test_degenerate_market_column():
    r = np.column_stack([np.array([0.01, 0.02, 0.03]), np.full(3, 0.005)])
    with pytest.raises(ValidationError):
        index_model_estimates(make_table(r))


def test_im_covariance_rank_one_case():
    est = IndexModelEstimates(
        tickers=("A", "M"), market_position=1,
        alpha=np.array([0.0, 0.0]), beta=np.array([1.0, 1.0]),
        resid_var=np.array([0.0, 0.0]), market_mean=0.01, market_var=0.04,
    )
    assert np.allclose(im_covariance(est), 0.04)


def test_im_covariance_off_diagonal():
    est = IndexModelEstimates(
        tickers=("A", "B", "M"), market_position=2,
        alpha=np.array([0.001, -0.002, 0.0]),
        beta=np.array([0.5, 2.0, 1.0]),
        resid_var=np.array([0.003, 0.001, 0.0]),
        market_mean=0.01, market_var=0.04,
    )
    cov = im_covariance(est)
    assert cov[0, 1] == pytest.approx(0.5 * 2.0 * 0.04, abs=1e-18)
    # elementwise oracle
    for i in range(3):
        for j in range(3):
            expect = est.beta[i] * est.beta[j] * est.market_var
            if i == j:
                expect += est.resid_var[i]
            assert cov[i, j] == pytest.approx(expect, abs=1e-18)


def test_portfolio_stats_unit_vector():
    rng = np.random.default_rng(5)
    table = make_table(factor_returns(rng, 40, 4))
    mm = markowitz_estimates(table)
    w = np.zeros(4)
    w[1] = 1.0
    st_ = portfolio_stats(w, mm, rf=0.001)
    assert st_.ret == pytest.approx(mm.mean[1], abs=1e-15)
    assert st_.stdev == pytest.approx(np.sqrt(mm.cov[1, 1]), abs=1e-15)


def test_portfolio_stats_double_sum_oracle():
    rng = np.random.default_rng(6)
    table = make_table(factor_returns(rng, 30, 3))
    mm = markowitz_estimates(table)
    w = np.array([0.2, 0.5, 0.3])
    var = portfolio_stats(w, mm).stdev ** 2
    oracle = sum(
        w[i] * w[j] * mm.cov[i, j] for i in range(3) for j in range(3)
    )
    assert var == pytest.approx(oracle, abs=1e-14)


def test_portfolio_stats_weight_sum_contract():
    rng = np.random.default_rng(7)
    mm = markowitz_estimates(make_table(factor_returns(rng, 20, 3)))
    with pytest.raises(ValidationError):
        portfolio_stats(np.array([0.5, 0.5, 0.5]), mm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_portfolio_stats_rejects_nonfinite_weights(bad):
    rng = np.random.default_rng(7)
    table = make_table(factor_returns(rng, 20, 3))
    for est in (markowitz_estimates(table), index_model_estimates(table)):
        with pytest.raises(ValidationError, match="finite"):
            portfolio_stats(np.array([bad, 0.5, 0.5]), est)
        with pytest.raises(ValidationError, match="finite"):
            portfolio_stats(np.array([[0.2, 0.3, 0.5], [0.5, bad, 0.5]]), est)


def test_zero_variance_column_rejected():
    col = np.array([0.01, -0.02, 0.03, 0.0])
    table = make_table(np.column_stack([np.full(4, 0.01), col]))
    with pytest.raises(ValidationError, match="zero-variance column 'A0'"):
        markowitz_estimates(table)


def test_mm_im_same_return_any_weights():
    rng = np.random.default_rng(8)
    table = make_table(factor_returns(rng, 60, 6))
    mm = markowitz_estimates(table)
    im = index_model_estimates(table)
    for _ in range(20):
        z = rng.standard_normal(6)
        z /= z.sum()
        a = portfolio_stats(z, mm, 0.002)
        b = portfolio_stats(z, im, 0.002)
        assert a.ret == pytest.approx(b.ret, abs=1e-12)
        assert a.model == "MM" and b.model == "IM"


def test_market_asset_same_variance_both_models():
    rng = np.random.default_rng(9)
    table = make_table(factor_returns(rng, 50, 5))
    mm = markowitz_estimates(table)
    im = index_model_estimates(table)
    m = table.market_position
    w = np.zeros(5)
    w[m] = 1.0
    # identical by construction (beta=1, resid 0); summation order may differ
    assert portfolio_stats(w, mm).stdev == pytest.approx(
        portfolio_stats(w, im).stdev, rel=1e-14)


def test_excess_mode_keeps_sample_means():
    rng = np.random.default_rng(10)
    table = make_table(factor_returns(rng, 50, 5))
    mm = markowitz_estimates(table)
    im = index_model_estimates(table, mode="excess", rf=0.002)
    assert np.max(np.abs(im.expected_returns() - mm.mean)) < 1e-15


def test_ols_affine_equivariance():
    # shifting the market column by c moves alpha by -beta*c, beta unchanged
    rng = np.random.default_rng(11)
    r = factor_returns(rng, 40, 4)
    base = index_model_estimates(make_table(r))
    shifted = r.copy()
    c = 0.0123
    shifted[:, -1] += c
    est = index_model_estimates(make_table(shifted))
    keep = [i for i in range(4) if i != base.market_position]
    assert np.max(np.abs(est.beta[keep] - base.beta[keep])) < 1e-10
    assert np.max(np.abs(est.alpha[keep] - (base.alpha[keep] - base.beta[keep] * c))) < 1e-10


def test_sharpe_ratio_fixture_rows():
    assert sharpe_ratio(0.002149317, 0.025442836, 0.002139918) == pytest.approx(
        0.000369427, abs=1e-6)
    assert sharpe_ratio(0.001731629, 0.026158764, 0.002139918) == pytest.approx(
        -0.015608123, abs=1e-6)
    assert sharpe_ratio(0.005, 0.02, 0.005) == 0.0
    with pytest.raises(ValidationError):
        sharpe_ratio(0.01, 0.0, 0.002)


def test_estimator_counts():
    assert estimator_count("MM", 11) == 77
    assert estimator_count("IM", 11) == 35
    assert estimator_count("MM", 1) == 2
    with pytest.raises(ValidationError):
        estimator_count("MM", 0)
    with pytest.raises(ValidationError):
        estimator_count("XX", 5)


def test_estimator_gap_grows():
    gaps = [estimator_count("MM", n) - estimator_count("IM", n) for n in range(4, 60)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_json_round_trip_keys():
    rng = np.random.default_rng(12)
    table = make_table(factor_returns(rng, 30, 3))
    mm = markowitz_estimates(table).to_json_dict()
    assert set(mm) >= {"mean", "cov", "corr"}
    im = index_model_estimates(table).to_json_dict()
    assert set(im) >= {"alpha", "beta", "resid_var", "market_mean", "market_var"}


# -- property tests -----------------------------------------------------

@st.composite
def return_panels(draw):
    t = draw(st.integers(min_value=3, max_value=24))
    n = draw(st.integers(min_value=2, max_value=5))
    vals = draw(st.lists(
        st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=n, max_size=n),
        min_size=t, max_size=t,
    ))
    return np.array(vals)


@given(return_panels())
@settings(max_examples=50, deadline=None)
def test_sample_covariance_psd(panel):
    if np.any(np.var(panel, axis=0) <= 1e-18):
        return
    est = markowitz_estimates(make_table(panel))
    eigs = np.linalg.eigvalsh(est.cov)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())
    # corr and cov describe the same matrix
    sd = np.sqrt(np.diag(est.cov))
    assert np.max(np.abs(est.corr * np.outer(sd, sd) - est.cov)) <= 1e-12


@given(return_panels())
@settings(max_examples=50, deadline=None)
def test_im_covariance_psd(panel):
    if np.var(panel[:, -1]) <= 1e-12 or np.any(np.var(panel, axis=0) <= 1e-18):
        return
    est = index_model_estimates(make_table(panel))
    eigs = np.linalg.eigvalsh(im_covariance(est))
    assert eigs.min() >= -1e-12 * max(1.0, eigs.max())


@given(st.floats(-0.5, 0.5), st.floats(1e-6, 0.5), st.floats(-0.01, 0.01))
@settings(max_examples=100, deadline=None)
def test_sharpe_identity(ret, stdev, rf):
    s = sharpe_ratio(ret, stdev, rf)
    assert s * stdev == pytest.approx(ret - rf, abs=1e-12)


@pytest.mark.parametrize("call, fragment", [
    (lambda t: index_model_estimates(t, mode="log"), "unknown regression mode 'log'"),
    (lambda t: sharpe_ratio(np.nan, 0.1, 0.0), "sharpe_ratio requires finite inputs"),
    (lambda t: sharpe_ratio(0.01, np.inf, 0.0), "sharpe_ratio requires finite inputs"),
    (lambda t: sharpe_ratio(0.01, 0.1, -np.inf), "sharpe_ratio requires finite inputs"),
], ids=["im-mode", "sharpe-ret-nan", "sharpe-stdev-inf", "sharpe-rf-inf"])
def test_estimation_rejects_invalid_arguments(call, fragment):
    table = make_table(factor_returns(np.random.default_rng(7), 20, 3))
    with pytest.raises(ValidationError, match=fragment):
        call(table)
