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

    The curve is one corner path from the minimum-variance solve upward
    (``Problem.corner_path``, Markowitz's critical line): between two
    corners the working set is fixed and the solution and multipliers
    affine in the target, so each segment costs one KKT solve, for their
    direction alone, and the path carries the point along it.  Without
    inequality rows (c3, c5) there is no corner and the path is one
    segment (two-fund separation).  A QP runs only at a degenerate corner,
    such as a tie of events: at the next target, and the path resumes from
    its point, multipliers and working set.

    Every corner must pass its KKT certificate, checked from the path's
    multipliers as one batch, or ``ConvergenceError`` names the first
    failing target and its residual.  A point between two corners is
    certified through them: on a segment the KKT system is linear in
    ``t``, so the point's residual is at most the larger of theirs.
    """
    if grid < 2:
        raise ValidationError("grid must be at least 2")
    problem = Problem.prepare(cov, c, mean=mean, rf=rf, model=model)
    minvar = problem.min_variance()
    tangency = problem.max_sharpe()
    hi = float(problem.mean @ problem.vertices[1])
    mu0 = minvar.stats.ret
    hi = max(hi, tangency.stats.ret, mu0)

    if hi - mu0 <= 1e-12 * (1.0 + abs(mu0)):
        points = ((minvar.stats.stdev, mu0),)
        return FrontierCurve(points, tangency, minvar, c, model)

    targets = sorted(set(np.linspace(mu0, hi, grid).tolist() + [tangency.stats.ret]))
    stats = problem.stats(problem.corner_path(targets))
    pts = sorted(zip(stats.stdev.tolist(), stats.ret.tolist()), key=lambda p: p[1])
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


def _misses(hit: np.ndarray, before: int) -> np.ndarray:
    """Entries since the last hit (0 at a hit), ``before`` misses preceding."""
    i = np.arange(len(hit))
    return i - np.maximum.accumulate(np.where(hit, i, -1 - before))


def sample_cloud(c: ConstraintSet, n_assets: int, count: int, seed: int) -> CloudSample:
    """Draw ``count`` feasible fully-invested weight vectors.

    A long-only regime draws a flat Dirichlet on the simplex.  Every other
    regime draws standard normals, zeroes its pinned assets, normalizes
    them to sum to one and accepts the draw when its inequality rows hold;
    after 100 rejections the last draw is moved toward equal weights to
    where its rows stop holding (``RegimeModel.toward``).  Draws come in
    blocks, tested at once and given out in stream order.
    """
    if count < 1:
        raise ValidationError("count must be at least 1")
    if n_assets < 1:
        raise ValidationError("n_assets must be at least 1")
    rng = np.random.default_rng(seed)
    regime = regime_model(c, n_assets)

    if regime.box[0] == 0.0:   # long only: the feasible set is the simplex
        weights = rng.dirichlet(np.ones(n_assets), size=count)
    else:
        weights, shrunk = np.empty((count, n_assets)), np.zeros(count, dtype=bool)
        done = drawn = rejected = run = 0   # rejected: rows of the open 100; run: since normalizable
        while done < count:
            need = count - done   # sized by the draws per portfolio so far, within 64 KB
            block = min(max(need, -(-need * drawn // done) if done else 2 * drawn),
                        2**13 // n_assets + 1)
            z = rng.standard_normal((block, n_assets))
            drawn += block
            z[:, regime.pinned] = 0.0
            s = z.sum(axis=1)
            gap = _misses(np.abs(s) >= 0.05, run)
            run, live = gap[-1], np.logical_and.accumulate(gap < 10000)   # live until a stall
            rows = np.flatnonzero((gap == 0) & live)
            w = z[rows] / s[rows, None]
            ok = regime.holds(w, 1e-12)
            # a portfolio is the first accepted row of its next 100, or else the 100th, shrunk
            since = _misses(ok, rejected)
            pick = np.flatnonzero(since % 100 == 0)[:need]
            weights[done:done + len(pick)], shrunk[done:done + len(pick)] = w[pick], ~ok[pick]
            done += len(pick)
            rejected = since[-1] % 100 if len(since) else rejected
            if done < count and not live[-1]:
                raise SamplingError("could not draw a normalizable weight vector")
        if shrunk.any():
            weights[shrunk] = regime.toward(np.full(n_assets, 1.0 / n_assets), weights[shrunk])

    bad = np.flatnonzero(~(regime.excess(weights) <= 1e-9).all(axis=1))   # a NaN row fails too
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
