"""Efficient frontier tracing, capital allocation lines and random clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, regime_model
from .errors import SamplingError, ValidationError
from .estimation import MODEL_MM, PortfolioStats, portfolio_stats
from .ingest import csv_text
from .solver import PortfolioSolution, Problem


@dataclass(frozen=True)
class FrontierCurve:
    """(stdev, return) samples of the frontier plus the two anchor solutions."""

    points: tuple[tuple[float, float], ...]   # sorted by return
    tangency: PortfolioSolution
    min_variance: PortfolioSolution
    constraint: ConstraintSet
    model: str = MODEL_MM

    def efficient_points(self) -> tuple[tuple[float, float], ...]:
        cut = self.min_variance.stats.ret - 1e-12
        return tuple(p for p in self.points if p[1] >= cut)

    def interpolated_stdev(self, ret: float) -> float:
        """Frontier stdev at a return level (clamped linear interpolation)."""
        pts = self.efficient_points()
        rets = np.array([p[1] for p in pts])
        stds = np.array([p[0] for p in pts])
        return float(np.interp(ret, rets, stds))


def trace_frontier(cov, mean, rf: float, c: ConstraintSet, grid: int = 100, *,
                   model: str = MODEL_MM) -> FrontierCurve:
    """Sample the frontier at ``grid`` equally spaced return targets.

    The upper end of the target span is the best feasible expected return;
    when that is unbounded (regimes without weight bounds) the best single
    feasible asset anchors it.  The tangency return is always inserted so
    the max-Sharpe point lies exactly on the curve.
    """
    if grid < 2:
        raise ValidationError("grid must be at least 2")
    problem = Problem.prepare(cov, c, mean=mean, rf=rf, model=model)
    minvar = problem.min_variance()
    tangency = problem.max_sharpe()
    regime, mean_v = problem.regime, problem.mean
    hi = float(mean_v @ regime.vertex(mean_v, highest=True))
    mu0 = minvar.stats.ret
    hi = max(hi, tangency.stats.ret, mu0)

    span = hi - mu0
    if span <= 1e-12 * (1.0 + abs(mu0)):
        points = ((minvar.stats.stdev, mu0),)
        return FrontierCurve(points, tangency, minvar, c, model)

    targets = list(np.linspace(mu0, hi, grid))
    targets.append(tangency.stats.ret)
    targets = sorted(set(float(t) for t in targets))

    pts: list[tuple[float, float]] = []
    for t in targets:
        sol = problem.target_return(t, anchor=minvar.weights)
        pts.append((sol.stats.stdev, sol.stats.ret))
    pts.sort(key=lambda p: p[1])
    return FrontierCurve(tuple(pts), tangency, minvar, c, model)


def capital_allocation_line(rf: float, tangency: PortfolioStats,
                            sigma_max: float, grid: int = 50) -> list[tuple[float, float]]:
    """Points of the line from (0, rf) through the tangency portfolio."""
    if not tangency.stdev > 0.0:
        raise ValidationError("tangency stdev must be positive")
    if not sigma_max > 0.0:
        raise ValidationError("sigma_max must be positive")
    if grid < 2:
        raise ValidationError("grid must be at least 2")
    slope = tangency.sharpe
    return [(float(s), float(rf + slope * s)) for s in np.linspace(0.0, sigma_max, grid)]


@dataclass(frozen=True)
class CloudSample:
    """Feasible random portfolios, reproducible from (constraint, count, seed)."""

    constraint: ConstraintSet
    seed: int
    weights: np.ndarray   # (count, N)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def _normalized_normal(rng, n: int, pinned: np.ndarray) -> np.ndarray:
    for _ in range(10000):
        z = rng.standard_normal(n)
        z[pinned] = 0.0
        s = z.sum()
        if abs(s) >= 0.05:
            return z / s
    raise SamplingError("could not draw a normalizable weight vector")


def _shrink_to_feasible(w: np.ndarray, holds) -> np.ndarray:
    """Move toward equal weights until ``holds`` accepts the mix."""
    e = np.full(len(w), 1.0 / len(w))
    lo_t, hi_t = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_t + hi_t)
        if holds(e + mid * (w - e)):
            lo_t = mid
        else:
            hi_t = mid
    return e + lo_t * (w - e)


def sample_cloud(c: ConstraintSet, n_assets: int, count: int, seed: int) -> CloudSample:
    """Draw ``count`` feasible fully-invested weight vectors.

    A long-only regime draws a flat Dirichlet on the simplex.  Every other
    regime draws standard normals, zeroes its pinned assets, normalizes
    them to sum to one and accepts the draw when its inequality rows hold;
    after 100 rejections the last draw is shrunk toward equal weights.
    """
    if count < 1:
        raise ValidationError("count must be at least 1")
    if n_assets < 1:
        raise ValidationError("n_assets must be at least 1")
    rng = np.random.default_rng(seed)
    regime = regime_model(c, n_assets)

    def inequality_excess(w) -> np.ndarray:
        return regime.excess(w)[2 * regime.m_eq:]

    if regime.box[0] == 0.0:   # long only: the feasible set is the simplex
        weights = rng.dirichlet(np.ones(n_assets), size=count)
    else:
        weights = np.empty((count, n_assets))
        for k in range(count):
            for _ in range(100):
                w = _normalized_normal(rng, n_assets, regime.pinned)
                if np.all(inequality_excess(w) <= 1e-12):
                    break
            else:
                w = _shrink_to_feasible(w, lambda v: np.all(inequality_excess(v) <= 0.0))
            weights[k] = w

    bad = np.flatnonzero((regime.excess(weights) > 1e-9).any(axis=1))
    if len(bad):
        raise SamplingError(
            f"generated infeasible sample {bad[0]}: {regime.violations(weights[bad[0]], 1e-9)}"
        )
    return CloudSample(constraint=c, seed=seed, weights=weights)


def cloud_points(sample: CloudSample, estimates, rf: float = 0.0) -> np.ndarray:
    """Evaluate each sampled portfolio to a (stdev, return) row under a model."""
    stats = portfolio_stats(sample.weights, estimates, rf)
    return np.column_stack([stats.stdev, stats.ret])


def points_to_csv(points) -> str:
    """Serialize (stdev, return) pairs with the standard two-column header."""
    return csv_text([("stdev", "return"), *points])


def frontier_to_csv(curve: FrontierCurve) -> str:
    return points_to_csv(curve.points)
