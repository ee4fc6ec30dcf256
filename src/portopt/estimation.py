"""Statistical input sets for the two portfolio models.

The full-covariance model consumes a mean vector plus the complete sample
covariance/correlation matrices.  The single-index model regresses each
asset on the market column and keeps only per-asset intercept, slope and
residual variance along with the market moments; its covariance matrix is
reconstructed as ``beta beta' * market_var + diag(resid_var)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .ingest import MonthlyReturnTable

MODEL_MM = "MM"
MODEL_IM = "IM"
MODE_RAW = "raw"
MODE_EXCESS = "excess"

WEIGHT_SUM_TOL = 1e-9


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MarkowitzEstimates:
    """Mean vector, covariance and correlation matrices of monthly returns."""

    tickers: tuple[str, ...]
    mean: np.ndarray        # (N,)
    cov: np.ndarray         # (N, N)
    corr: np.ndarray        # (N, N)
    sample_size: int

    def __post_init__(self):
        n = len(self.tickers)
        mean = _readonly(self.mean)
        cov = _readonly(self.cov)
        corr = _readonly(self.corr)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "corr", corr)
        if mean.shape != (n,) or cov.shape != (n, n) or corr.shape != (n, n):
            raise ValidationError("estimate shapes inconsistent with ticker count")
        scale = float(np.max(np.abs(cov), initial=0.0))
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12 * max(scale, 1e-30):
            raise ValidationError("covariance matrix is not symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * max(scale, 1.0):
            raise ValidationError("covariance matrix is not positive semidefinite")
        if np.max(np.abs(np.diag(corr) - 1.0), initial=0.0) > 1e-12:
            raise ValidationError("correlation diagonal must be 1")
        if np.max(np.abs(corr), initial=0.0) > 1.0 + 1e-12:
            raise ValidationError("correlation entries must lie in [-1, 1]")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def to_json_dict(self) -> dict:
        return {
            "tickers": list(self.tickers),
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
            "corr": self.corr.tolist(),
            "sample_size": self.sample_size,
        }


@dataclass(frozen=True)
class IndexModelEstimates:
    """Per-asset regression parameters against the market column.

    The market asset itself is carried with parameters fixed analytically to
    (alpha=0, beta=1, resid_var=0) rather than self-regressed.
    """

    tickers: tuple[str, ...]
    market_position: int
    alpha: np.ndarray       # (N,)
    beta: np.ndarray        # (N,)
    resid_var: np.ndarray   # (N,), >= 0
    market_mean: float
    market_var: float
    mode: str = MODE_RAW
    rf_used: float = 0.0
    sample_size: int = 0

    def __post_init__(self):
        n = len(self.tickers)
        alpha = _readonly(self.alpha)
        beta = _readonly(self.beta)
        resid = _readonly(self.resid_var)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "resid_var", resid)
        if alpha.shape != (n,) or beta.shape != (n,) or resid.shape != (n,):
            raise ValidationError("estimate shapes inconsistent with ticker count")
        if self.mode not in (MODE_RAW, MODE_EXCESS):
            raise ValidationError(f"unknown regression mode {self.mode!r}")
        if not 0 <= self.market_position < n:
            raise ValidationError("market position out of range")
        if np.any(resid < 0.0):
            raise ValidationError("residual variances must be nonnegative")
        if not self.market_var > 0.0:
            raise ValidationError("market variance must be positive")
        m = self.market_position
        if alpha[m] != 0.0 or beta[m] != 1.0 or resid[m] != 0.0:
            raise ValidationError(
                "market asset must carry alpha=0, beta=1, resid_var=0 exactly"
            )

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def expected_returns(self) -> np.ndarray:
        """Model-implied expected monthly returns per asset."""
        if self.mode == MODE_RAW:
            return self.alpha + self.beta * self.market_mean
        return self.rf_used + self.alpha + self.beta * (self.market_mean - self.rf_used)

    def to_json_dict(self) -> dict:
        return {
            "tickers": list(self.tickers),
            "market_position": self.market_position,
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "resid_var": self.resid_var.tolist(),
            "market_mean": self.market_mean,
            "market_var": self.market_var,
            "mode": self.mode,
            "rf_used": self.rf_used,
            "sample_size": self.sample_size,
        }


@dataclass(frozen=True)
class PortfolioStats:
    """Expected return, standard deviation and Sharpe ratio of a portfolio
    (arrays, one entry per portfolio, from ``portfolio_stats`` on rows)."""

    ret: float
    stdev: float
    sharpe: float
    model: str = MODEL_MM


def markowitz_estimates(returns: MonthlyReturnTable, *, ddof: int = 1) -> MarkowitzEstimates:
    """Sample mean/covariance/correlation of a monthly return table.

    ``ddof=1`` gives the unbiased T-1 covariance; ``ddof=0`` the population
    form for replication experiments.
    """
    r = returns.returns
    t = returns.sample_size
    if t < 2:
        raise InsufficientDataError(f"need T >= 2 observations, got {t}")
    mean = r.mean(axis=0)
    cov = np.cov(r, rowvar=False, ddof=ddof)
    cov = np.atleast_2d(cov)
    var = np.diag(cov)
    for i, v in enumerate(var):
        if v <= 0.0:
            raise ValidationError(
                f"zero-variance column {returns.tickers[i]!r}: correlation undefined"
            )
    sd = np.sqrt(var)
    corr = cov / np.outer(sd, sd)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return MarkowitzEstimates(returns.tickers, mean, cov, corr, t)


def index_model_estimates(returns: MonthlyReturnTable, *, mode: str = MODE_RAW,
                          rf: float = 0.0, ddof: int = 1) -> IndexModelEstimates:
    """Per-asset OLS of (excess) returns on the (excess) market column.

    Residual variances use the T-2 denominator (two fitted parameters); the
    market asset is assigned (0, 1, 0) analytically.
    """
    if mode not in (MODE_RAW, MODE_EXCESS):
        raise ValidationError(f"unknown regression mode {mode!r}")
    r = returns.returns
    t = returns.sample_size
    if t < 3:
        raise InsufficientDataError(f"need T >= 3 observations for OLS, got {t}")
    mi = returns.market_position
    y = r - rf if mode == MODE_EXCESS else r
    x = y[:, mi]
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx <= 0.0:
        raise ValidationError("market column has zero variance: regression degenerate")
    beta = (dx @ (y - y.mean(axis=0))) / sxx
    alpha = y.mean(axis=0) - beta * x.mean()
    resid = y - (alpha + np.outer(x, beta))
    resid_var = (resid ** 2).sum(axis=0) / (t - 2)

    alpha = alpha.copy()
    beta = beta.copy()
    resid_var = resid_var.copy()
    alpha[mi] = 0.0
    beta[mi] = 1.0
    resid_var[mi] = 0.0

    market = r[:, mi]
    market_mean = float(market.mean())
    market_var = float(np.var(market, ddof=ddof))
    return IndexModelEstimates(
        returns.tickers, mi, alpha, beta, resid_var,
        market_mean, market_var, mode=mode, rf_used=float(rf), sample_size=t,
    )


def im_covariance(est: IndexModelEstimates) -> np.ndarray:
    """Reconstruct the N x N covariance implied by the single-index parameters."""
    return np.outer(est.beta, est.beta) * est.market_var + np.diag(est.resid_var)


def portfolio_stats(weights, estimates, rf: float = 0.0) -> PortfolioStats:
    """Return/stdev/Sharpe of fully-invested weights under either model.

    ``weights`` is one portfolio, or one per row; the statistics are then
    arrays with one entry per row.
    """
    w = np.asarray(weights, dtype=float)
    sums = w.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if off.max() > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights must sum to 1, got {sums.flat[off.argmax()]:.12g}")
    if not isinstance(estimates, (MarkowitzEstimates, IndexModelEstimates)):
        raise ValidationError(f"unsupported estimates type {type(estimates).__name__}")
    if w.shape[-1:] != (estimates.n_assets,):
        raise ValidationError("weight length does not match estimates")
    if isinstance(estimates, MarkowitzEstimates):
        ret = w @ estimates.mean
        var = ((w @ estimates.cov) * w).sum(axis=-1)
        model = MODEL_MM
    else:
        ret = w @ estimates.expected_returns()
        var = (w @ estimates.beta) ** 2 * estimates.market_var + (w ** 2) @ estimates.resid_var
        model = MODEL_IM
    if np.min(var) < -1e-12:
        raise ValidationError(f"negative portfolio variance {np.min(var):.3e}")
    stdev = np.sqrt(np.maximum(var, 0.0))
    sharpe = np.divide(ret - rf, stdev, out=np.zeros_like(stdev), where=stdev > 0.0)
    if w.ndim == 1:
        ret, stdev, sharpe = float(ret), float(stdev), float(sharpe)
    return PortfolioStats(ret=ret, stdev=stdev, sharpe=sharpe, model=model)


def sharpe_ratio(ret: float, stdev: float, rf: float) -> float:
    """Excess return per unit of standard deviation."""
    if not (np.isfinite(ret) and np.isfinite(stdev) and np.isfinite(rf)):
        raise ValidationError("sharpe_ratio requires finite inputs")
    if stdev <= 0.0:
        raise ValidationError(f"standard deviation must be positive, got {stdev}")
    return (ret - rf) / stdev


def estimator_count(model: str, n: int) -> int:
    """Number of statistical inputs each model needs for an n-asset universe.

    Full-covariance: n means + n variances + n(n-1)/2 pairwise entries.
    Single-index: n alphas + n betas + n residual variances + 2 market moments.
    """
    if n < 1:
        raise ValidationError(f"asset count must be >= 1, got {n}")
    tag = model.upper()
    if tag == MODEL_MM:
        return 2 * n + n * (n - 1) // 2
    if tag == MODEL_IM:
        return 3 * n + 2
    raise ValidationError(f"unknown model tag {model!r}")
