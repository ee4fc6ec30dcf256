"""Seeded single-factor return universes for the benchmark.

Modelled on ``scripts/make_synthetic_data.py``: monthly market returns,
per-asset beta, alpha and residual volatility, with the market itself as
the last column.  The risk-free rate is placed strictly below the
closed-form minimum-variance return of both the full universe and the
market-excluded (c5) universe, so every maximum-Sharpe cell is well posed
whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from portopt import (
    MarkowitzEstimates,
    MonthlyReturnTable,
    closed_form_min_variance,
    markowitz_estimates,
)

MARKET = "MKT"
RF_MARGIN = 0.25   # rf sits this many cross-sectional mean-return sds below the floor


@dataclass(frozen=True)
class Universe:
    table: MonthlyReturnTable
    mm: MarkowitzEstimates
    rf: float

    @property
    def market_index(self) -> int:
        return self.table.market_position


def month_labels(t: int) -> list[tuple[int, int]]:
    """``t`` consecutive (year, month) labels from January 2000."""
    y, m = 2000, 1
    out = []
    for _ in range(t):
        out.append((y, m))
        m += 1
        if m > 12:
            y, m = y + 1, 1
    return out


def make_returns(n: int, t: int, seed: int) -> MonthlyReturnTable:
    """T x N monthly returns: N - 1 single-factor stocks plus the market.

    T must exceed N so that the sample covariance has full rank.
    """
    if n < 3 or t <= n:
        raise ValueError(f"need 3 <= N < T, got N={n}, T={t}")
    rng = np.random.default_rng([seed, n, t])
    stocks = n - 1
    market = rng.normal(0.006, 0.04, t).clip(-0.35, 0.35)
    beta = rng.uniform(0.4, 1.6, stocks)
    alpha = rng.normal(0.0, 0.002, stocks)
    resid_sd = rng.uniform(0.02, 0.08, stocks)
    eps = rng.normal(0.0, 1.0, (t, stocks)) * resid_sd
    rets = (alpha + np.outer(market, beta) + eps).clip(-0.6, 0.6)
    tickers = [f"S{i:03d}" for i in range(stocks)] + [MARKET]
    return MonthlyReturnTable(month_labels(t), tickers,
                              np.column_stack([rets, market]), MARKET)


def well_posed_rf(mm: MarkowitzEstimates, market_index: int) -> float:
    """A risk-free rate strictly below both unconstrained min-variance returns."""
    mean = mm.mean
    floor = float(mean @ closed_form_min_variance(mm.cov))
    keep = np.delete(np.arange(len(mean)), market_index)
    w5 = closed_form_min_variance(mm.cov[np.ix_(keep, keep)])
    floor = min(floor, float(mean[keep] @ w5))
    return floor - RF_MARGIN * float(np.std(mean)) - 1e-6


def make_universe(n: int, t: int, seed: int) -> Universe:
    table = make_returns(n, t, seed)
    mm = markowitz_estimates(table)
    return Universe(table, mm, well_posed_rf(mm, table.market_position))
