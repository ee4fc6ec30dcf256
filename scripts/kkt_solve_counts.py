#!/usr/bin/env python3
"""KKT solves summed per solve family, for diffing two versions.

Usage: PYTHONPATH=src python scripts/kkt_solve_counts.py [GROUP ...]

A family is one constraint set solved on one group of five universes, for
minimum variance and for maximum Sharpe.  The nine constraint sets are
c1 at leverage caps 2, 1 and 1.3; c2 at weight bounds 1, 1/N and 0.1; c3,
c4 and c5.  The five groups (45 families):

* ``starts`` -- the factor universes of tests/test_starts.py, (N, T, seed)
  = (20, 120, 21), (30, 20, 3) with N > T, (20, 120, 1), (35, 120, 2) and
  (50, 120, 3), at a risk-free rate of 0;
* ``n11``, ``n50``, ``n100``, ``n200`` -- the benchmark universes
  ``perfbench.universe.make_universe(N, 240, seed)`` at seeds 1-5, at their
  own risk-free rates.

It prints one line per family: the group, the constraint set, then the
calls of ``qp._solve_kkt`` summed over the group's universes for minimum
variance and for maximum Sharpe.  Given group names, only those groups
run.  Run it once per version (point PYTHONPATH at the other version's
``src``) and diff the two listings.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
STARTS = ((20, 120, 21), (30, 20, 3), (20, 120, 1), (35, 120, 2), (50, 120, 3))
GROUPS = ("starts", "n11", "n50", "n100", "n200")
CONSTRAINTS = (    # (label, regime, parameters given N)
    ("c1", "c1", lambda n: {}),
    ("c1 leverage_cap=1", "c1", lambda n: {"leverage_cap": 1.0}),
    ("c1 leverage_cap=1.3", "c1", lambda n: {"leverage_cap": 1.3}),
    ("c2", "c2", lambda n: {}),
    ("c2 weight_bound=1/N", "c2", lambda n: {"weight_bound": 1.0 / n}),
    ("c2 weight_bound=0.1", "c2", lambda n: {"weight_bound": 0.1}),
    ("c3", "c3", lambda n: {}),
    ("c4", "c4", lambda n: {}),
    ("c5", "c5", lambda n: {}),
)


def _factor_universe(n: int, t: int, seed: int):
    """tests/test_starts.py's universe: (cov, mean, rf, market index)."""
    from portopt import MonthlyReturnTable, markowitz_estimates

    rng = np.random.default_rng(seed)
    mkt = rng.normal(0.005, 0.03, t)
    beta = rng.uniform(0.4, 1.6, n - 1)
    alpha = rng.normal(0.0, 0.002, n - 1)
    eps = rng.normal(0.0, 1.0, (t, n - 1)) * rng.uniform(0.01, 0.04, n - 1)
    returns = np.column_stack([alpha[None, :] + np.outer(mkt, beta) + eps, mkt])
    months = tuple((2015 + k // 12, 1 + k % 12) for k in range(t))
    tickers = tuple(f"A{i}" for i in range(n - 1)) + ("MKT",)
    est = markowitz_estimates(MonthlyReturnTable(months, tickers, returns, "MKT"))
    return est.cov, est.mean, 0.0, n - 1


def universes(group: str) -> list[tuple]:
    """The group's five universes, each as (cov, mean, rf, market index)."""
    if group == "starts":
        return [_factor_universe(*u) for u in STARTS]
    from perfbench.universe import make_universe

    out = []
    for seed in range(1, 6):
        u = make_universe(int(group[1:]), 240, seed)
        out.append((u.mm.cov, u.mm.mean, u.rf, u.market_index))
    return out


def family_counts(groups=GROUPS) -> list[tuple[str, str, int, int]]:
    """``(group, constraint, min-variance solves, maximum-Sharpe solves)`` per family."""
    import portopt.qp
    from portopt import ConstraintSet, solve_max_sharpe, solve_min_variance

    calls, solve_kkt = [0], portopt.qp._solve_kkt

    def counting(K, rhs):
        calls[0] += 1
        return solve_kkt(K, rhs)

    def solves(fn) -> int:
        before = calls[0]
        fn()
        return calls[0] - before

    rows = []
    portopt.qp._solve_kkt = counting
    try:
        for group in groups:
            cases = universes(group)
            for label, regime, parameters in CONSTRAINTS:
                minvar = sharpe = 0
                for cov, mean, rf, mi in cases:
                    c = ConstraintSet(regime, market_index=mi if regime == "c5" else None,
                                      **parameters(len(mean)))
                    minvar += solves(lambda: solve_min_variance(cov, c, mean=mean, rf=rf))
                    sharpe += solves(lambda: solve_max_sharpe(cov, mean, rf, c))
                rows.append((group, label, minvar, sharpe))
    finally:
        portopt.qp._solve_kkt = solve_kkt
    return rows


def main(argv=None) -> int:
    groups = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(groups) - set(GROUPS))
    if unknown:
        print(f"unknown groups {unknown}; choose from {list(GROUPS)}", file=sys.stderr)
        return 1
    if str(ROOT) not in sys.path:           # perfbench, from this checkout
        sys.path.append(str(ROOT))
    for group, label, minvar, sharpe in family_counts(groups or GROUPS):
        print(f"{group:<7} {label:<20} min_variance {minvar:>5}  max_sharpe {sharpe:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
