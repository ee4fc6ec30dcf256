"""Shared fixtures and generators for the test suite."""

from pathlib import Path

import numpy as np
import pytest

import portopt.solver
from portopt import MonthlyReturnTable

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
PRICES_CSV = DATA_DIR / "synthetic_prices.csv"
RISKFREE_CSV = DATA_DIR / "synthetic_riskfree.csv"


def random_spd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T / n + 0.3 * np.eye(n))


def random_monthly_cov(rng, n: int) -> np.ndarray:
    """Covariance with realistic monthly-return magnitudes (~1e-3 variances)."""
    loadings = rng.standard_normal((n, 2)) * 0.02
    return loadings @ loadings.T + np.diag(rng.uniform(2e-4, 2e-3, n))


def make_table(returns, market_ticker="MKT", start=(2015, 1)) -> MonthlyReturnTable:
    """Wrap a (T, N) return array in a table; market is the last column."""
    r = np.asarray(returns, dtype=float)
    t, n = r.shape
    months = []
    y, m = start
    for _ in range(t):
        months.append((y, m))
        m += 1
        if m > 12:
            y, m = y + 1, 1
    tickers = tuple(f"A{i}" for i in range(n - 1)) + (market_ticker,)
    return MonthlyReturnTable(tuple(months), tickers, r, market_ticker)


def factor_returns(rng, t: int, n: int):
    """Single-factor return panel; market in the last column."""
    mkt = rng.normal(0.005, 0.03, t)
    beta = rng.uniform(0.4, 1.6, n - 1)
    alpha = rng.normal(0.0, 0.002, n - 1)
    eps = rng.normal(0.0, 1.0, (t, n - 1)) * rng.uniform(0.01, 0.04, n - 1)
    stocks = alpha[None, :] + np.outer(mkt, beta) + eps
    return np.column_stack([stocks, mkt])


def fail_certificate(monkeypatch, k: int):
    """Make the ``k``-th certificate at a return level report a residual of 1.

    Maximum Sharpe checks the first; a frontier's points come after it.
    """
    original, seen = portopt.solver.kkt_residual_weights, [0]

    def failing(*args, target=None, **kwargs):
        if target is not None:
            seen[0] += 1
            if seen[0] == k:
                return 1.0
        return original(*args, target=target, **kwargs)

    monkeypatch.setattr(portopt.solver, "kkt_residual_weights", failing)


@pytest.fixture(scope="session")
def bundled_prices_text() -> str:
    return PRICES_CSV.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bundled_riskfree_text() -> str:
    return RISKFREE_CSV.read_text(encoding="utf-8")
