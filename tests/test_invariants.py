"""Every input invariant of the library's public types and functions.

One parametrized test per class or function.  Each case starts from a small
valid input, breaks exactly one invariant and expects the documented error
class with a fragment of its message.
"""

import re
from datetime import date

import numpy as np
import pytest

from portopt import (
    ConfigError,
    ConstraintSet,
    DailyPriceTable,
    IndexModelEstimates,
    MarkowitzEstimates,
    MonthlyReturnTable,
    ParseError,
    PortfolioStats,
    RiskFreeSeries,
    ValidationError,
    capital_allocation_line,
    parse_price_table,
    parse_riskfree_table,
    portfolio_stats,
    sample_cloud,
    trace_frontier,
)
from portopt.constraints import regime_model
from portopt.solver import Problem

NAN = float("nan")

PRICES = {"dates": (date(2020, 1, 2), date(2020, 2, 3)), "tickers": ("A", "MKT"),
          "closes": [[1.0, 2.0], [1.1, 2.1]], "market_ticker": "MKT"}
RETURNS = {"months": ((2020, 1), (2020, 2)), "tickers": ("A", "MKT"),
           "returns": [[0.01, 0.02], [-0.01, 0.0]], "market_ticker": "MKT"}
RISKFREE = {"months": ((2020, 1), (2020, 2)), "annual_rates": [0.02, 0.03]}
MM = {"tickers": ("A", "MKT"), "mean": [0.01, 0.02], "cov": [[0.04, 0.01], [0.01, 0.09]],
      "sample_size": 10}
IM = {"tickers": ("A", "MKT"), "market_position": 1, "alpha": [0.001, 0.0],
      "beta": [0.8, 1.0], "resid_var": [0.002, 0.0], "market_mean": 0.01, "market_var": 0.003}
COV = [[0.04, 0.01], [0.01, 0.09]]
MEAN = [0.01, 0.02]


def _raises(error, fragment):
    return pytest.raises(error, match=re.escape(fragment))


def test_valid_bases_construct():
    DailyPriceTable(**PRICES)
    MonthlyReturnTable(**RETURNS)
    RiskFreeSeries(**RISKFREE)
    portfolio_stats([0.5, 0.5], MarkowitzEstimates(**MM))
    portfolio_stats([0.5, 0.5], IndexModelEstimates(**IM))
    Problem.prepare(COV, ConstraintSet("c3"), mean=MEAN, rf=0.0)


@pytest.mark.parametrize("change, error, fragment", [
    ({"closes": [[1.0, 2.0]]}, ValidationError, "price matrix shape (1, 2) does not match"),
    ({"tickers": ("MKT", "MKT")}, ValidationError, "duplicate ticker names"),
    ({"market_ticker": "X"}, ConfigError, "market ticker 'X' not among columns"),
    ({"dates": (date(2020, 2, 3), date(2020, 1, 2))}, ValidationError,
     "dates must be strictly increasing"),
    ({"closes": [[1.0, 2.0], [NAN, 2.1]]}, ValidationError, "non-finite price"),
    ({"closes": [[1.0, 2.0], [1.1, -2.1]]}, ValidationError,
     "non-positive price -2.1 for MKT on 2020-02-03"),
], ids=["shape", "duplicate-ticker", "market-ticker", "date-order", "non-finite", "non-positive"])
def test_daily_price_table_invariants(change, error, fragment):
    with _raises(error, fragment):
        DailyPriceTable(**{**PRICES, **change})


@pytest.mark.parametrize("change, error, fragment", [
    ({"returns": [[0.01, 0.02, 0.03]] * 2}, ValidationError,
     "return matrix shape (2, 3) does not match"),
    ({"tickers": ("MKT", "MKT")}, ValidationError, "duplicate ticker names"),
    ({"market_ticker": "X"}, ConfigError, "market ticker 'X' not among tickers"),
    ({"months": ((2020, 1), (2020, 13))}, ValidationError, "month number outside 1..12"),
    ({"months": ((2020, 13),), "returns": [[0.01, 0.02]]}, ValidationError,
     "month number outside 1..12"),
    ({"months": ((2020, 2), (2020, 1))}, ValidationError,
     "months must be strictly increasing; saw 2020-02 then 2020-01"),
    ({"months": ((2020, 1), (2020, 1))}, ValidationError,
     "months must be strictly increasing; saw 2020-01 then 2020-01"),
    ({"months": ((2020, 1), (2020, 3))}, ValidationError, "gap between 2020-01 and 2020-03"),
    ({"returns": [[0.01, 0.02], [NAN, 0.0]]}, ValidationError, "non-finite return"),
    ({"returns": [[0.01, 0.02], [-1.0, 0.0]]}, ValidationError, "return <= -1 impossible"),
], ids=["shape", "duplicate-ticker", "market-ticker", "month-number", "one-month-number",
        "month-order", "month-repeat", "gap", "non-finite", "total-loss"])
def test_monthly_return_table_invariants(change, error, fragment):
    with _raises(error, fragment):
        MonthlyReturnTable(**{**RETURNS, **change})


@pytest.mark.parametrize("change, fragment", [
    ({"annual_rates": [0.02]}, "risk-free series lengths disagree"),
    ({"annual_rates": [0.02, NAN]}, "non-finite risk-free rate"),
    ({"annual_rates": [0.02, -1.0]}, "annual risk-free rate must exceed -1"),
    ({"months": ((2020, 0), (2020, 14))}, "month number outside 1..12"),
    ({"months": ((2020, 2), (2020, 2), (2019, 1)), "annual_rates": [0.01, 0.02, 0.03]},
     "months must be strictly increasing; saw 2020-02 then 2020-02"),
    ({"months": ((2020, 2), (2020, 1))}, "months must be strictly increasing; saw 2020-02 then 2020-01"),
], ids=["length", "non-finite", "below-minus-one", "month-number", "month-repeat", "month-order"])
def test_risk_free_series_invariants(change, fragment):
    with _raises(ValidationError, fragment):
        RiskFreeSeries(**{**RISKFREE, **change})


@pytest.mark.parametrize("text, fragment", [
    ("", "empty price file (p.csv)"),
    ("day,A,MKT\n2020-01-02,1.0,2.0\n", "header must be 'date,<ticker>,...' (p.csv, row 1"),
    ("date\n2020-01-02\n", "header must be 'date,<ticker>,...' (p.csv, row 1"),
    ("date,A,MKT\n", "no data rows (p.csv, row 1)"),
    ("date,A,MKT\n2020-01-02,1.0\n", "expected 3 fields, found 2 (p.csv, row 2)"),
], ids=["empty", "header-name", "header-width", "no-rows", "short-row"])
def test_price_parser_rejects_malformed_files(text, fragment):
    with _raises(ParseError, fragment):
        parse_price_table(text, "MKT", filename="p.csv")


@pytest.mark.parametrize("text, error, fragment", [
    ("", ParseError, "empty risk-free file (rf.csv)"),
    ("month,rate\n2020-01,0.02\n", ParseError,
     "header must be 'month,annual_rate' (rf.csv, row 1)"),
    ("month,annual_rate\n2020-01\n", ParseError, "expected 2 fields (rf.csv, row 2)"),
    ("month,annual_rate\n2020-01,nan\n", ValidationError, "non-finite rate (rf.csv, row 2)"),
], ids=["empty", "header", "short-row", "non-finite"])
def test_riskfree_parser_rejects_malformed_files(text, error, fragment):
    with _raises(error, fragment):
        parse_riskfree_table(text, filename="rf.csv")


@pytest.mark.parametrize("change, fragment", [
    ({"mean": [0.01]}, "estimate shapes inconsistent with ticker count"),
    ({"cov": [[0.04]]}, "estimate shapes inconsistent with ticker count"),
    ({"cov": [[0.04, 0.01], [0.02, 0.09]]}, "covariance matrix is not symmetric"),
    ({"cov": [[0.04, 0.1], [0.1, 0.09]]}, "covariance matrix is not positive semidefinite"),
    ({"cov": [[0.0, 0.0], [0.0, 0.09]]}, "zero-variance column 'A'"),
], ids=["mean-shape", "cov-shape", "asymmetric", "indefinite", "zero-variance"])
def test_markowitz_estimates_invariants(change, fragment):
    with _raises(ValidationError, fragment):
        MarkowitzEstimates(**{**MM, **change})


@pytest.mark.parametrize("change, fragment", [
    ({"beta": [0.8]}, "estimate shapes inconsistent with ticker count"),
    ({"mode": "log"}, "unknown regression mode 'log'"),
    ({"market_position": 2}, "market position out of range"),
    ({"resid_var": [-0.002, 0.0]}, "residual variances must be nonnegative"),
    ({"market_var": 0.0}, "market variance must be positive"),
    ({"alpha": [0.001, 0.001]}, "market asset must carry alpha=0, beta=1, resid_var=0"),
], ids=["shape", "mode", "market-position", "negative-resid", "market-var", "market-params"])
def test_index_model_estimates_invariants(change, fragment):
    with _raises(ValidationError, fragment):
        IndexModelEstimates(**{**IM, **change})


# an indefinite covariance just inside MarkowitzEstimates' tolerance
# (eigenvalue -5e-11): a long-short pair of a million units has negative variance
_NEAR_PSD = {**MM, "cov": [[1.0, 1.0 + 5e-11], [1.0 + 5e-11, 1.0]]}


@pytest.mark.parametrize("weights, estimates, fragment", [
    ([0.5, 0.5], dict(IM), "unsupported estimates type dict"),
    ([0.5, 0.25, 0.25], MarkowitzEstimates(**MM), "weight length does not match estimates"),
    ([1e6, 1.0 - 1e6], MarkowitzEstimates(**_NEAR_PSD), "negative portfolio variance"),
], ids=["estimates-type", "weight-length", "negative-variance"])
def test_portfolio_stats_invariants(weights, estimates, fragment):
    with _raises(ValidationError, fragment):
        portfolio_stats(weights, estimates)


@pytest.mark.parametrize("market_index, n", [(3, 3), (7, 3)])
def test_regime_model_market_index_in_range(market_index, n):
    with _raises(ValidationError, f"market index {market_index} out of range for {n} assets"):
        regime_model(ConstraintSet("c5", market_index=market_index), n)


@pytest.mark.parametrize("cov, mean, rf, fragment", [
    ([[0.04, 0.01, 0.0], [0.01, 0.09, 0.0]], MEAN, 0.0,
     "covariance must be square, got shape (2, 3)"),
    (np.zeros((2, 2, 2)), MEAN, 0.0, "covariance must be square, got shape (2, 2, 2)"),
    ([[0.04, NAN], [NAN, 0.09]], MEAN, 0.0, "covariance contains non-finite entries"),
    ([[0.04, np.inf], [np.inf, 0.09]], MEAN, 0.0, "covariance contains non-finite entries"),
    ([[-np.inf, 0.01], [0.01, 0.09]], MEAN, 0.0, "covariance contains non-finite entries"),
    (COV, [0.01, 0.02, 0.03], 0.0, "mean vector length does not match covariance"),
    (COV, [0.01, NAN], 0.0, "mean vector contains non-finite entries"),
    (COV, MEAN, NAN, "risk-free rate rf must be finite"),
], ids=["cov-not-square", "cov-3d", "cov-non-finite", "cov-plus-inf", "cov-minus-inf",
        "mean-length", "mean-non-finite", "rf-non-finite"])
def test_problem_prepare_invariants(cov, mean, rf, fragment):
    with _raises(ValidationError, fragment):
        Problem.prepare(cov, ConstraintSet("c3"), mean=mean, rf=rf)


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_trace_frontier_grid(grid):
    with _raises(ValidationError, "grid must be at least 2"):
        trace_frontier(COV, MEAN, 0.0, ConstraintSet("c3"), grid=grid)


_TANGENCY = PortfolioStats(ret=0.02, stdev=0.1, sharpe=0.2, model="MM")


@pytest.mark.parametrize("tangency, sigma_max, grid, fragment", [
    (PortfolioStats(ret=0.02, stdev=0.0, sharpe=0.0, model="MM"), 0.3, 50,
     "tangency stdev must be positive"),
    (PortfolioStats(ret=0.02, stdev=NAN, sharpe=NAN, model="MM"), 0.3, 50,
     "tangency stdev must be positive"),
    (_TANGENCY, 0.0, 50, "sigma_max must be positive"),
    (_TANGENCY, NAN, 50, "sigma_max must be positive"),
    (_TANGENCY, 0.3, 1, "grid must be at least 2"),
], ids=["stdev-zero", "stdev-nan", "sigma-zero", "sigma-nan", "grid"])
def test_capital_allocation_line_invariants(tangency, sigma_max, grid, fragment):
    with _raises(ValidationError, fragment):
        capital_allocation_line(0.001, tangency, sigma_max, grid=grid)


@pytest.mark.parametrize("n_assets, count, fragment", [
    (3, 0, "count must be at least 1"),
    (0, 5, "n_assets must be at least 1"),
], ids=["count", "n-assets"])
def test_sample_cloud_invariants(n_assets, count, fragment):
    with _raises(ValidationError, fragment):
        sample_cloud(ConstraintSet("c3"), n_assets, count, seed=0)
