"""Constraint regimes, each described once as the linear system the solver reads.

Every regime includes the full-investment equality (weights sum to one).
The five regimes on top of it:

* ``c1`` -- gross exposure capped: sum of |w_i| <= leverage_cap (default 2)
* ``c2`` -- box bounds: |w_i| <= weight_bound (default 1) for every asset
* ``c3`` -- no additional restriction
* ``c4`` -- long only: w_i >= 0 for every asset
* ``c5`` -- market index excluded: w[market_index] = 0

``regime_model`` turns a regime on N assets into its equality and
inequality rows over the solve variables, a centre point and the
closed-form vertices of lowest and highest expected return.  The solve
variables are the weights, or for c1 the split ``w = p - n`` with
``p, n >= 0``, in which the gross cap is linear.  The solvers, the KKT
certificate and ``check_feasible`` all derive from that one description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError, ValidationError

REGIMES = ("c1", "c2", "c3", "c4", "c5")
_PARAMETER = {"c1": "leverage_cap", "c2": "weight_bound", "c5": "market_index"}


@dataclass(frozen=True)
class ConstraintSet:
    regime: str
    market_index: int | None = None
    leverage_cap: float = 2.0
    weight_bound: float = 1.0

    def __post_init__(self):
        regime = self.regime.lower()
        object.__setattr__(self, "regime", regime)
        if regime not in REGIMES:
            raise ValidationError(f"unknown constraint regime {self.regime!r}")
        if regime == "c5":
            if self.market_index is None or self.market_index < 0:
                raise ValidationError("c5 requires a nonnegative market_index")
        for name in ("leverage_cap", "weight_bound"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value}")

    def describe(self) -> str:
        base = "sum(w) = 1"
        extra = {
            "c1": f"sum|w_i| <= {self.leverage_cap:g}",
            "c2": f"|w_i| <= {self.weight_bound:g}",
            "c3": "unconstrained",
            "c4": "w_i >= 0",
            "c5": f"w[{self.market_index}] = 0",
        }[self.regime]
        return f"{base}; {extra}"

    def _parameters(self) -> dict:
        """The regime's own parameter, by name (none for c3 and c4)."""
        name = _PARAMETER.get(self.regime)
        return {name: getattr(self, name)} if name else {}

    def to_json_dict(self) -> dict:
        return {"regime": self.regime, **self._parameters()}


@dataclass(frozen=True, eq=False)
class RegimeModel:
    """One regime on ``n`` assets, every row over the solve variables.

    ``rows @ x <= rhs`` holds each equality twice, as ``a.x <= b`` and
    ``-a.x <= -b``, then the inequalities; row 0 is full investment.  The
    arrays are read-only and shared.
    """

    constraint: ConstraintSet
    n: int
    rows: np.ndarray
    rhs: np.ndarray
    names: tuple[str, ...]        # one per row
    m_eq: int                     # equality rows
    split: bool                   # solve variables are (p, n) with w = p - n
    free: np.ndarray              # assets whose weight may be nonzero
    pinned: np.ndarray            # assets whose weight is pinned to zero
    box: tuple[float, float]      # bounds every free weight shares
    bounded: bool                 # the expected return is bounded on the set

    def system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(A_eq, b_eq, A_in, b_in)``, each equality once."""
        m = self.m_eq
        return self.rows[:m], self.rhs[:m], self.rows[2 * m:], self.rhs[2 * m:]

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Rows over the weights as rows over the solve variables."""
        return np.hstack([rows, -rows]) if self.split else rows

    def to_solve(self, w) -> np.ndarray:
        """Weights (one portfolio, or one per row) in the solve variables."""
        w = np.asarray(w, dtype=float)
        return np.maximum(np.concatenate([w, -w], axis=-1), 0.0) if self.split else w

    def to_weights(self, x) -> np.ndarray:
        w = x[:self.n] - x[self.n:] if self.split else np.array(x, dtype=float)
        w[self.pinned] = 0.0
        return w

    def excess(self, w) -> np.ndarray:
        """How far weights ``w`` (one portfolio, or one per row) exceed each row."""
        return self.to_solve(w) @ self.rows.T - self.rhs

    def violations(self, w: np.ndarray, tol: float) -> list[tuple[str, float]]:
        """Every row violated by more than ``tol``, equalities first."""
        amounts = self.excess(w)
        return [(self.names[k], float(amounts[k])) for k in (amounts > tol).nonzero()[0]]

    def centre(self) -> np.ndarray:
        """Equal weights over the free assets, in the solve variables.

        For all five regimes the set is empty exactly when its centre is
        infeasible, which raises ``InfeasibleError``.
        """
        w = np.zeros(self.n)
        w[self.free] = 1.0 / max(len(self.free), 1)
        if self.violations(w, 1e-12):
            c = self.constraint
            raise InfeasibleError(f"no portfolio of {self.n} assets satisfies {c.describe()} "
                                  f"({', '.join(f'{k}={v:g}' for k, v in c._parameters().items())})")
        return self.to_solve(w)

    def fill(self, order, floor: float) -> np.ndarray:
        """Weights starting at ``floor`` on every free asset, raised in
        ``order`` up to the box's upper bound until they sum to one."""
        w = np.zeros(self.n)
        w[self.free] = floor
        room = 1.0 - floor * len(self.free)
        for i in order:
            if room <= 0.0:
                break
            step = min(self.box[1] - floor, room)
            w[i] += step
            room -= step
        return w

    def vertex(self, mean, highest: bool) -> np.ndarray:
        """Weights of the highest (or lowest) expected return.

        Where the return is unbounded (c3, c5) this is the best (worst)
        single free asset instead.
        """
        mean = np.asarray(mean, dtype=float)
        key = -mean[self.free] if highest else mean[self.free]
        order = self.free[np.argsort(key, kind="stable")]
        if self.constraint.regime == "c1":   # long (1+L)/2 of the first, short (L-1)/2 of the last
            cap = self.constraint.leverage_cap
            w = np.zeros(self.n)
            w[order[0]] += 0.5 * (1.0 + cap)
            w[order[-1]] -= 0.5 * (cap - 1.0)
            return w
        return self.fill(order, self.box[0] if self.bounded else 0.0)

    def return_range(self, mean) -> tuple[float, float]:
        """Attainable interval of expected returns (inf where unbounded)."""
        self.centre()
        mean = np.asarray(mean, dtype=float)
        lo = float(mean @ self.vertex(mean, False))
        hi = float(mean @ self.vertex(mean, True))
        if not self.bounded and hi > lo:
            return -np.inf, np.inf
        return lo, hi


@lru_cache(maxsize=64)
def regime_model(c: ConstraintSet, n: int) -> RegimeModel:
    """The linear description of regime ``c`` on ``n`` assets."""
    free, pinned = np.arange(n), np.zeros(0, dtype=int)
    eq_rows, b_eq, eq_names = [np.ones(n)], [1.0], ["full_investment"]
    if c.regime == "c5":
        if not 0 <= c.market_index < n:
            raise ValidationError(f"market index {c.market_index} out of range for {n} assets")
        free, pinned = np.delete(free, c.market_index), np.array([c.market_index])
        eq_rows.append(np.eye(n)[c.market_index])
        b_eq.append(0.0)
        eq_names.append("market_excluded")

    split = c.regime == "c1"
    box = (-np.inf, np.inf)
    if c.regime == "c1":
        A_in = np.vstack([-np.eye(2 * n), np.ones((1, 2 * n))])
        b_in = np.concatenate([np.zeros(2 * n), [c.leverage_cap]])
        in_names = [f"split_part[{i}]" for i in range(2 * n)] + ["leverage_cap"]
    elif c.regime == "c2":
        A_in = np.vstack([np.eye(n), -np.eye(n)])
        b_in = np.full(2 * n, c.weight_bound)
        in_names = [f"weight_bound[{i}]" for i in range(n)] * 2
        box = (-c.weight_bound, c.weight_bound)
    elif c.regime == "c4":
        A_in, b_in = -np.eye(n), np.zeros(n)
        in_names = [f"long_only[{i}]" for i in range(n)]
        box = (0.0, np.inf)
    else:  # c3, c5
        A_in, b_in, in_names = np.zeros((0, n)), np.zeros(0), []

    A_eq = np.vstack(eq_rows)
    A_eq = np.hstack([A_eq, -A_eq]) if split else A_eq
    b_eq = np.array(b_eq)
    rows = np.vstack([A_eq, -A_eq, A_in])
    rhs = np.concatenate([b_eq, -b_eq, b_in])
    for a in (rows, rhs, free, pinned):
        a.setflags(write=False)
    return RegimeModel(
        constraint=c, n=n, rows=rows, rhs=rhs, names=tuple(eq_names * 2 + in_names),
        m_eq=len(b_eq), split=split, free=free, pinned=pinned, box=box,
        bounded=c.regime in ("c1", "c2", "c4"),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[tuple[str, float], ...]


def check_feasible(weights, c: ConstraintSet, tol: float = 1e-7) -> FeasibilityReport:
    """List every constraint of ``c`` violated by more than ``tol``."""
    w = np.asarray(weights, dtype=float)
    violations = tuple(regime_model(c, len(w)).violations(w, tol))
    return FeasibilityReport(not violations, violations)
