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


def zero_crossing_universe():
    """``(cov, mean, c)`` of N = 4 under c1 with its leverage row slack, where a
    weight crossing zero makes a degenerate corner of the frontier path."""
    rng = np.random.default_rng(1)
    cov, mean = random_monthly_cov(rng, 4), rng.normal(0.01, 0.01, 4)
    return cov, mean, ConstraintSet("c1", leverage_cap=50.0)


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
    """Make the ``k``-th point certified at a return level report a residual of 1.

    Points count one per row: a frontier's corners are certified as a stack,
    and a stack that fails again row by row, where that point fails too.
    Maximum Sharpe checks the first; a frontier's points come after it.
    """
    original, seen, failed = portopt.solver.kkt_residual_weights, [0], []

    def failing(w, *args, target=None, **kwargs):
        if target is not None:
            rows, targets = np.reshape(w, (-1, np.shape(w)[-1])), np.atleast_1d(target)
            if not failed and seen[0] + len(rows) >= k:
                failed.append((rows[k - seen[0] - 1].copy(), targets[k - seen[0] - 1]))
            seen[0] += len(rows)
            if failed and any(np.array_equal(row, failed[0][0]) and t == failed[0][1]
                              for row, t in zip(rows, targets)):
                return 1.0
        return original(w, *args, target=target, **kwargs)

    monkeypatch.setattr(portopt.solver, "kkt_residual_weights", failing)


def one_per_row(args, kwargs):
    """A certificate call as one call per portfolio: each row of a stack with
    its own target, multipliers and excess."""
    w, *rest = args
    if np.ndim(w) == 1:
        return [(args, kwargs)]
    lam, mu = kwargs["multipliers"]
    own = {key: kwargs[key] for key in ("target", "excess") if kwargs.get(key) is not None}
    return [((w[i], *rest), {**kwargs, **{key: v[i] for key, v in own.items()},
                             "multipliers": (lam[i], mu[i])}) for i in range(len(w))]


class CertificateWatch:
    """Records each point certified given a solve's multipliers, one call per
    point (a stack's rows apart), and counts the NNLS recoveries
    (``solver._stationarity_residual``) that fall back from one."""

    def __init__(self, monkeypatch):
        self.calls = []          # (args, kwargs) of each point certified given multipliers
        self.stacks = []         # (args, kwargs, residual) of each call given several points
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
            self.calls.extend(one_per_row(args, kwargs))
            before = self.recoveries
            value = self._certify(*args, **kwargs)
            self.fallbacks += self.recoveries - before      # a recovery per row that falls back
            if np.ndim(args[0]) == 2:
                self.stacks.append((args, kwargs, value))
            return value

        monkeypatch.setattr(portopt.solver, "_stationarity_residual", counting)
        monkeypatch.setattr(portopt.solver, "kkt_residual_weights", recording)

    def certify(self, args, kwargs, **changes) -> tuple[float, bool]:
        """A recorded call's certificate with ``changes`` to its keywords,
        and whether it ran the NNLS recovery."""
        before = self.recoveries
        value = self._certify(*args, **{**kwargs, **changes})
        return value, self.recoveries > before


def dense_rows(rows) -> np.ndarray:
    """``qp.InequalityRows`` written out as one matrix; a bound's other entries are
    ``coef * 0.0``, as a regime's dense rows have them."""
    A = rows.coef[:, None] * (np.arange(rows.n) == rows.var[:, None])
    A[rows.general] = rows.A_general
    return A


def constraint_for(regime: str, market_index: int) -> ConstraintSet:
    return ConstraintSet(regime, market_index=market_index if regime == "c5" else None)


@pytest.fixture(autouse=True)
def _cold_covariances():
    """Each test starts with no prepared covariance (``solver._prepared``), so it does
    the same work in the suite as alone; a test that counts the preparation's own calls
    (eigenvalues, Cholesky factors, LU solves) would otherwise depend on the tests
    before it."""
    portopt.solver._CACHE.clear()


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
