"""Brute-force active-set oracle for the bounded regimes at N <= 4.

The oracle enumerates every subset of inequality rows, solves the KKT
system of the equalities plus that subset with plain ``np.linalg``, and
keeps the feasible point whose inequality multipliers are nonnegative.
Its rows are built here in weight space, and c1 is split into sign
orthants instead of the solver's ``w = p - n``, so it shares no code
with the QP engine or the regime model.  Because the covariance is
positive definite, the optimum is unique; and with linear constraints a
nonnegative multiplier vector on some linearly independent subset of the
active rows always exists, so skipping rank-deficient subsets loses
nothing.  On the same cases, the target-return certificate from the
engine's multipliers is held to the NNLS certificate.
"""

from itertools import combinations, product

import numpy as np
import pytest

from conftest import CertificateWatch, random_monthly_cov, random_spd
from portopt import ConstraintSet, attainable_return_range, solve_min_variance, solve_target_return
from portopt.solver import KKT_TOL


def _enumerate(H, A_eq, b_eq, A_in, b_in):
    """argmin 0.5 w'Hw over {A_eq w = b_eq, A_in w <= b_in}, or None if empty."""
    n, m_eq = H.shape[0], len(A_eq)
    tol = 1e-10 * (1.0 + np.abs(b_in).max(initial=0.0))
    best = None
    for size in range(min(len(A_in), n - m_eq) + 1):
        for rows in combinations(range(len(A_in)), size):
            A = np.vstack([A_eq, A_in[list(rows)]])
            if np.linalg.matrix_rank(A) < len(A):
                continue
            K = np.block([[H, A.T], [A, np.zeros((len(A), len(A)))]])
            sol = np.linalg.solve(K, np.concatenate([np.zeros(n), b_eq, b_in[list(rows)]]))
            w, mult = sol[:n], sol[n + m_eq:]
            if np.all(A_in @ w <= b_in + tol) and np.all(mult >= -1e-9 * (1.0 + np.abs(sol).max())):
                f = 0.5 * w @ H @ w
                if best is None or f < best[0]:
                    best = (f, w)
    return best


def oracle(cov, c: ConstraintSet, mean=None, target=None) -> np.ndarray:
    """Minimum-variance weights under c1, c2 or c4 (at ``target`` if given)."""
    n = len(cov)
    A_eq, b_eq = np.ones((1, n)), np.ones(1)
    if target is not None:
        A_eq, b_eq = np.vstack([A_eq, mean]), np.array([1.0, target])
    if c.regime == "c1":
        # sum|w| <= L is, within the orthant of signs s, the linear rows
        # -s_i w_i <= 0 and s'w <= L; the optimum is the best orthant's
        pieces = []
        for s in product((1.0, -1.0), repeat=n):
            s = np.array(s)
            A_in = np.vstack([-np.diag(s), s])
            pieces.append(_enumerate(2.0 * cov, A_eq, b_eq, A_in,
                                     np.append(np.zeros(n), c.leverage_cap)))
        return min((p for p in pieces if p is not None), key=lambda p: p[0])[1]
    if c.regime == "c2":
        A_in, b_in = np.vstack([np.eye(n), -np.eye(n)]), np.full(2 * n, c.weight_bound)
    else:
        A_in, b_in = -np.eye(n), np.zeros(n)
    return _enumerate(2.0 * cov, A_eq, b_eq, A_in, b_in)[1]


def _cases():
    for seed in (1, 2):
        for n in (2, 3, 4):
            for regime in ("c1", "c2", "c4"):
                yield seed, n, ConstraintSet(regime)
            # exactly tight: c1 becomes long-only, c2 leaves the equal weights only
            yield seed, n, ConstraintSet("c1", leverage_cap=1.0)
            yield seed, n, ConstraintSet("c2", weight_bound=1.0 / n)
        yield seed, 4, ConstraintSet("c1", leverage_cap=1.3)
        yield seed, 4, ConstraintSet("c2", weight_bound=0.3)


@pytest.mark.parametrize("seed,n,c", list(_cases()),
                         ids=lambda v: getattr(v, "regime", v))
def test_solvers_match_the_enumeration_oracle(seed, n, c):
    rng = np.random.default_rng(100 * seed + n)
    for cov in (random_monthly_cov(rng, n), random_spd(rng, n)):
        mean = rng.normal(0.01, 0.02, n)
        sol = solve_min_variance(cov, c, mean=mean)
        assert sol.converged
        assert np.allclose(sol.weights, oracle(cov, c), rtol=0.0, atol=1e-9)
        lo, hi = attainable_return_range(mean, c)
        for frac in (0.1, 0.5, 0.9):
            target = lo + frac * (hi - lo)
            sol = solve_target_return(cov, mean, target, c)
            assert sol.converged
            assert np.allclose(sol.weights, oracle(cov, c, mean, target), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed,n,c", list(_cases()),
                         ids=lambda v: getattr(v, "regime", v))
def test_multiplier_certificate_matches_nnls(monkeypatch, seed, n, c):
    # the same target points: the engine's multipliers certify each one
    # without the NNLS fallback, and both certificates read the same residual
    rng = np.random.default_rng(100 * seed + n)
    watch = CertificateWatch(monkeypatch)
    for cov in (random_monthly_cov(rng, n), random_spd(rng, n)):
        mean = rng.normal(0.01, 0.02, n)
        lo, hi = attainable_return_range(mean, c)
        for frac in (0.1, 0.5, 0.9):
            solve_target_return(cov, mean, lo + frac * (hi - lo), c)
    assert len(watch.calls) == 6 and watch.fallbacks == 0
    for args, kwargs in watch.calls:
        fast, _ = watch.certify(args, kwargs)
        nnls, _ = watch.certify(args, kwargs, multipliers=None)
        assert fast <= KKT_TOL and abs(fast - nnls) <= 1e-10


def test_oracle_reads_the_tight_cases():
    # the oracle's own check: at weight_bound 1/N the equal weights are the only point
    cov = random_spd(np.random.default_rng(0), 3)
    assert np.allclose(oracle(cov, ConstraintSet("c2", weight_bound=1.0 / 3)), 1.0 / 3)
    # at leverage_cap 1, c1 is long-only
    assert np.allclose(oracle(cov, ConstraintSet("c1", leverage_cap=1.0)),
                       oracle(cov, ConstraintSet("c4")), atol=1e-12)
