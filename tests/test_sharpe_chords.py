"""The critical line checks maximum Sharpe: no chord of the frontier beats the tangency.

Any two feasible portfolios ``wa`` and ``wb`` span a chord ``wa + s d`` of
feasible portfolios (``d = wb - wa``, s in [0, 1]).  Along it the return is
affine and the variance quadratic, so the Sharpe ratio has one stationary
point, in closed form::

    s* = (r_d a - r_a b) / (r_a g - r_d b)

with ``a = wa'C wa``, ``b = wa'C d``, ``g = d'C d``, ``r_a = x.wa`` and
``r_d = x.d`` for excess returns ``x = mean - rf``.  On fully invested
portfolios ``x.w = mean.w - rf``, without the cancellation between
``mean.w`` and ``rf`` where excess returns are near zero.  The frontier's
corner path (``Problem.corner_path``) passes through the tangency return,
so the best point on the chords between its consecutive portfolios is the
tangency.  The chords are evaluated here from ``cov`` and ``mean`` alone,
and apart from the return row that both read (``RegimeModel.return_row``)
the path shares no code with the homogenized QP of ``Problem.max_sharpe``
(``_homogenized``, ``_weight_multipliers``, ``_sharpe_start``).
"""

import numpy as np
import pytest

from conftest import constraint_for, small_cases
from portopt import ConstraintSet, DegenerateSharpeError
from portopt.constraints import REGIMES, regime_model
from portopt.solver import Problem


def _sharpe(cov, x, w) -> float:
    return float(x @ w / np.sqrt(w @ cov @ w))


def _best_on_chords(cov, x, weights) -> float:
    """The largest Sharpe ratio, under excess returns ``x``, on the chords
    between consecutive ``weights``."""
    best = max(_sharpe(cov, x, w) for w in weights)
    for wa, wb in zip(weights[:-1], weights[1:]):
        d = wb - wa
        a, b, g = wa @ cov @ wa, wa @ cov @ d, d @ cov @ d
        r_a, r_d = x @ wa, x @ d
        den = r_a * g - r_d * b
        if den != 0.0 and 0.0 < (s := (r_d * a - r_a * b) / den) < 1.0:
            best = max(best, _sharpe(cov, x, wa + s * d))
    return best


def _assert_tangency_is_best_on_chords(cov, mean, rf, c, grid):
    """The corner path on the frontier's own targets (``trace_frontier``'s
    grid plus the tangency return) against ``max_sharpe``, within 1e-12."""
    problem = Problem.prepare(cov, c, mean=mean, rf=rf)
    minvar, tangency = problem.min_variance(), problem.max_sharpe()
    mu0, top = minvar.stats.ret, tangency.stats.ret
    best = float(mean @ regime_model(c, len(mean)).vertex(mean, highest=True))
    targets = sorted({float(t) for t in (*np.linspace(mu0, max(best, top, mu0), grid), top)})
    weights = problem.corner_path(targets)
    x = mean - rf
    expected = _sharpe(cov, x, tangency.weights)
    assert _best_on_chords(cov, x, weights) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("label", ["bundled-mm", "bundled-im"])
def test_bundled_tangency_is_best_on_chords(markets, label, regime):
    cov, mean, rf, mi = markets[label]
    _assert_tangency_is_best_on_chords(cov, mean, rf, constraint_for(regime, mi), 100)


@pytest.mark.parametrize("cov, mean, rf, c", list(small_cases()))
def test_small_universe_tangency_is_best_on_chords(cov, mean, rf, c):
    # where equal weights are the single point and earn no excess return
    # there is no tangency portfolio, and maximum Sharpe raises
    if c.weight_bound * len(mean) == 1.0 and float(mean.mean()) <= rf:
        with pytest.raises(DegenerateSharpeError):
            Problem.prepare(cov, c, mean=mean, rf=rf).max_sharpe()
        return
    _assert_tangency_is_best_on_chords(cov, mean, rf, c, 15)


@pytest.mark.parametrize("n, c", [(50, ConstraintSet("c2", weight_bound=3 / 50)),
                                  (200, ConstraintSet("c4"))], ids=["c2-3/N-50", "c4-200"])
def test_benchmark_universe_tangency_is_best_on_chords(n, c):
    from perfbench.universe import make_universe

    u = make_universe(n, 240, 1)
    _assert_tangency_is_best_on_chords(u.mm.cov, u.mm.mean, u.rf, c, 100)
