"""The bundled c3 and c5 cells against exact rational solves of their equality face.

Without inequality rows (c3; c5 pins the market asset to zero) minimum
variance is ``C_ff^-1 1`` over the free assets and maximum Sharpe is
``C_ff^-1 (mean - rf)``, each normalized to sum to one.  Here both are
solved with ``fractions.Fraction`` on the exactly converted covariance,
mean and risk-free rate, so the reference carries no rounding at all and
shares no code with the engine or the regime model.
"""

from fractions import Fraction

import numpy as np
import pytest

from portopt import ConstraintSet
from portopt.solver import Problem

EXACT_TOL = 1e-13        # the largest weight miss, relative to the largest exact weight


def _exact_solve(A, b):
    """``A^-1 b`` by Gaussian elimination over the rationals (``A`` nonsingular)."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if M[i][k] != 0)
        M[k], M[pivot] = M[pivot], M[k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            if f:
                M[i][k:] = [a - f * p for a, p in zip(M[i][k:], M[k][k:])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (M[k][n] - sum(M[k][j] * x[j] for j in range(k + 1, n))) / M[k][k]
    return x


def _exact_weights(cov, mean, rf, free, objective) -> np.ndarray:
    """The cell's weights from the exactly converted inputs, rounded once at the end."""
    C = [[Fraction(float(cov[i, j])) for j in free] for i in free]
    if objective == "min_variance":
        rhs = [Fraction(1)] * len(free)
    else:
        rhs = [Fraction(float(mean[i])) - Fraction(float(rf)) for i in free]
    z = _exact_solve(C, rhs)
    total = sum(z)
    w = np.zeros(len(mean))
    w[free] = [float(v / total) for v in z]
    return w


@pytest.mark.parametrize("objective", ["min_variance", "max_sharpe"])
@pytest.mark.parametrize("regime", ["c3", "c5"])
@pytest.mark.parametrize("label", ["bundled-mm", "bundled-im"])
def test_equality_faces_match_the_exact_solve(markets, label, regime, objective):
    cov, mean, rf, mi = markets[label]
    assert np.array_equal(cov, cov.T)           # the solver takes it unsymmetrized
    c = ConstraintSet(regime, market_index=mi if regime == "c5" else None)
    problem = Problem.prepare(cov, c, mean=mean, rf=rf)
    assert problem.ridge == 0.0
    sol = getattr(problem, objective)()
    assert sol.converged
    exact = _exact_weights(cov, mean, rf, problem.regime.free, objective)
    miss = np.abs(sol.weights - exact).max() / np.abs(exact).max()
    assert miss <= EXACT_TOL, miss
