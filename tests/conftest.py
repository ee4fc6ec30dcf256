"""Shared fixtures and generators for the test suite."""

from pathlib import Path

import numpy as np
import pytest

import portopt.solver
from portopt import (
    ConstraintSet,
    MonthlyReturnTable,
    average_risk_free,
    compute_monthly_returns,
    im_covariance,
    index_model_estimates,
    markowitz_estimates,
    parse_price_table,
    parse_riskfree_table,
    select_bom,
)

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


def _small_universes():
    """(label, cov, mean, rf) of seeded N <= 6 universes: plain, with the
    first asset duplicated in the last, and with near-zero excess returns."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        n = 4 + seed % 3
        cov, mean = random_monthly_cov(rng, n), rng.normal(0.01, 0.02, n)
        yield f"plain-{seed}", cov, mean, -0.1
        dup, dup_mean = cov.copy(), mean.copy()
        dup[:, -1], dup_mean[-1] = dup[:, 0], mean[0]
        dup[-1] = dup[0]
        yield f"duplicate-{seed}", dup, dup_mean, -0.1
        yield f"near-zero-{seed}", cov, 0.002 + 1e-6 * rng.standard_normal(n), 0.002


def small_cases():
    """``pytest.param(cov, mean, rf, c)`` of the small universes under wide
    and tight c1 and c2 bounds and under c4."""
    for label, cov, mean, rf in _small_universes():
        n = len(mean)
        # weight_bound = 1/N leaves the single point of equal weights
        for c in (ConstraintSet("c1"), ConstraintSet("c1", leverage_cap=1.0), ConstraintSet("c2"),
                  ConstraintSet("c2", weight_bound=1.5 / n), ConstraintSet("c4"),
                  ConstraintSet("c2", weight_bound=1.0 / n)):
            yield pytest.param(cov, mean, rf, c,
                               id=f"{label}-{c.regime}-{c.leverage_cap:g}-{c.weight_bound:.3g}")


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


class CertificateWatch:
    """Records each certificate given a solve's multipliers and counts the
    NNLS recoveries (``solver._stationarity_residual``) that fall back from one."""

    def __init__(self, monkeypatch):
        self.calls = []          # (args, kwargs) of each certificate given multipliers
        self.fallbacks = 0
        self.recoveries = 0      # every NNLS recovery, with or without multipliers
        self._certify = portopt.solver.kkt_residual_weights
        recover = portopt.solver._stationarity_residual

        def counting(*args):
            self.recoveries += 1
            return recover(*args)

        def recording(*args, **kwargs):
            if kwargs.get("multipliers") is None:
                return self._certify(*args, **kwargs)
            self.calls.append((args, kwargs))
            value, fell_back = self.certify(args, kwargs)
            self.fallbacks += fell_back
            return value

        monkeypatch.setattr(portopt.solver, "_stationarity_residual", counting)
        monkeypatch.setattr(portopt.solver, "kkt_residual_weights", recording)

    def certify(self, args, kwargs, **changes) -> tuple[float, bool]:
        """A recorded call's certificate with ``changes`` to its keywords,
        and whether it ran the NNLS recovery."""
        before = self.recoveries
        value = self._certify(*args, **{**kwargs, **changes})
        return value, self.recoveries > before


def constraint_for(regime: str, market_index: int) -> ConstraintSet:
    return ConstraintSet(regime, market_index=market_index if regime == "c5" else None)


@pytest.fixture(scope="session")
def markets():
    """{label: (cov, mean, rf, market index)}: bundled MM and IM, and a seeded N=30 universe."""
    table = compute_monthly_returns(select_bom(parse_price_table(
        PRICES_CSV.read_text(encoding="utf-8"), "MKT")))
    rf = average_risk_free(parse_riskfree_table(RISKFREE_CSV.read_text(encoding="utf-8")))
    mm = markowitz_estimates(table)
    im = index_model_estimates(table, rf=rf)
    universe = make_table(factor_returns(np.random.default_rng(30), 120, 30))
    n30 = markowitz_estimates(universe)
    return {
        "bundled-mm": (mm.cov, mm.mean, rf, table.market_position),
        "bundled-im": (im_covariance(im), im.expected_returns(), rf, table.market_position),
        "n30": (n30.cov, n30.mean, 0.0, universe.market_position),
    }


@pytest.fixture(scope="session")
def bundled_prices_text() -> str:
    return PRICES_CSV.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bundled_riskfree_text() -> str:
    return RISKFREE_CSV.read_text(encoding="utf-8")
