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
from functools import cached_property, lru_cache

import numpy as np

from .errors import InfeasibleError, ValidationError
from .qp import InequalityRows

REGIMES = ("c1", "c2", "c3", "c4", "c5")
PUBLIC_FEAS_TOL = 1e-7   # the violation ``check_feasible`` and every solution tolerate
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

    ``rows`` and ``rhs`` hold each row once: the ``m_eq`` equalities
    ``a.x = b``, then the inequalities ``a.x <= b``; row 0 is full
    investment.  ``inequalities`` are the inequality rows as the engine
    reads them (``qp.InequalityRows``), scanned once from ``rows`` where the
    regime is built, and ``homogenized`` maximum Sharpe's, scanned once at
    first use: every solve hands the engine these, and no solve scans.  The
    arrays are read-only and shared.
    """

    constraint: ConstraintSet
    n: int
    rows: np.ndarray
    rhs: np.ndarray
    inequalities: InequalityRows  # rows[m_eq:] and rhs[m_eq:], scanned
    names: tuple[str, ...]        # one per row
    m_eq: int                     # equality rows
    split: bool                   # solve variables are (p, n) with w = p - n
    free: np.ndarray              # assets whose weight may be nonzero
    pinned: np.ndarray            # assets whose weight is pinned to zero
    box: tuple[float, float]      # bounds every free weight shares
    bounded: bool                 # the expected return is bounded on the set

    @property
    def one_point(self) -> bool:
        """Whether the centre is the set's only point: c2 at ``weight_bound * N <= 1``."""
        return self.box[1] * len(self.free) <= 1.0 + 1e-12

    def system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(A_eq, b_eq, A_in, b_in)``, each equality once."""
        m = self.m_eq
        return self.rows[:m], self.rhs[:m], self.rows[m:], self.rhs[m:]

    @cached_property
    def homogenized(self) -> InequalityRows:
        """The inequality rows of maximum Sharpe over ``y = kappa w``, ``kappa = 1'w``
        (``solver._homogenized``), scanned once at first use: each ``a.w <= b`` as
        ``a.y - b 1'y <= 0``, then ``-1'y <= 0``, formed as one dense block and scanned
        (``qp.InequalityRows``), so each is a bound exactly where it has a single nonzero
        (c1 at cap 1 on one asset: its cap row becomes ``2 n <= 0``)."""
        _, _, A_in, b_in = self.system()
        kappa = self.lift(np.ones(self.n))
        block = np.empty((len(A_in) + 1, len(kappa)))          # one array, no temporaries
        np.multiply(b_in[:, None], kappa, out=block[:-1])
        np.subtract(A_in, block[:-1], out=block[:-1])
        block[-1] = -kappa
        return InequalityRows(block, np.zeros(len(block)))

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Rows over the weights as rows over the solve variables."""
        return np.concatenate([rows, -rows], axis=-1) if self.split else rows

    def return_row(self, mean) -> tuple[np.ndarray, float, float]:
        """``(row, mid, sigma)``: the return equality as ``row.x = (t - mid) / sigma``, centred on
        the free assets' mean return ``mid`` and scaled to unit range: under full investment the
        same equality as ``mean.w = t``, but not nearly parallel to the full-investment row.  Where
        the free means spread by at most ``1e-12 (1 + |mid|)`` it says nothing that rounding does
        not: the row is zero and ``sigma`` infinite, so the right-hand side is zero too."""
        mid = float(mean[self.free].mean())
        sigma = float(np.abs(mean - mid)[self.free].max())
        if sigma <= 1e-12 * (1.0 + abs(mid)):
            return np.zeros(self.rows.shape[1]), mid, math.inf
        return self.lift((mean - mid) / sigma), mid, sigma

    def to_solve(self, w) -> np.ndarray:
        """Weights (one portfolio, or one per row) in the solve variables."""
        w = np.asarray(w, dtype=float)
        return np.maximum(np.concatenate([w, -w], axis=-1), 0.0) if self.split else w

    def to_weights(self, x) -> np.ndarray:
        """Solve variables (one point, or one per row) as weights."""
        w = x[..., :self.n] - x[..., self.n:] if self.split else np.array(x, dtype=float)
        w[..., self.pinned] = 0.0
        return w

    def excess(self, w, alone: bool = False) -> np.ndarray:
        """How far weights ``w`` (one portfolio, or one per row) miss each
        row: ``|a.x - b|`` for an equality, ``a.x - b`` for an inequality
        (negative where it holds with room).  Given ``alone``, each row's
        product is taken alone, bit for bit as that portfolio's own; one
        matrix product over many rows is faster but rounds differently."""
        x = self.to_solve(w)
        alone = alone and x.ndim > 1                  # one portfolio's product is its own
        e = (self.rows @ x[..., None])[..., 0] - self.rhs if alone else x.dot(self.rows.T) - self.rhs
        np.abs(e[..., :self.m_eq], out=e[..., :self.m_eq])
        return e

    def holds(self, w, tol: float) -> np.ndarray:
        """Whether the inequality rows hold within ``tol`` at weights ``w``
        (one portfolio, or one per row).  The split's bound rows hold by
        construction (``to_solve`` clips), which leaves its gross cap
        ``sum |w_i| <= leverage_cap``: no product with the split rows."""
        if self.split:
            return np.abs(w).sum(axis=-1) - self.constraint.leverage_cap <= tol
        return np.all(self.excess(w)[..., self.m_eq:] <= tol, axis=-1)

    def violations(self, w: np.ndarray, tol: float) -> list[tuple[str, float]]:
        """Every row whose ``excess`` is not within ``tol``, in row order; NaN
        on exactly the rows with a nonzero coefficient on a NaN weight."""
        amounts = self.excess(np.where(np.isnan(w), 0.0, w))
        amounts[self.rows[:, np.isnan(self.to_solve(w))].any(axis=1)] = np.nan
        return [(self.names[k], float(amounts[k])) for k in (~(amounts <= tol)).nonzero()[0]]

    def toward(self, anchor, w) -> np.ndarray:
        """The point ``anchor + s (w - anchor)`` of largest ``s`` in [0, 1] at
        which the inequality rows hold, for feasible weights ``anchor`` and
        weights ``w`` (one portfolio, or one per row).

        In closed form: a ratio test over the rows, or for the split, whose
        rows bound ``sum |w_i|``, that piecewise-linear function of ``s``
        evaluated at its kinks, where a weight changes sign (row by row).
        """
        d = w - anchor
        if self.split:
            if d.ndim == 2:
                return np.array([self.toward(anchor, v) for v in w]).reshape(w.shape)
            kinks = -anchor[d != 0.0] / d[d != 0.0]
            at = np.concatenate([[0.0], np.sort(kinks[(kinks > 0.0) & (kinks < 1.0)]), [1.0]])
            gross = np.abs(anchor + at[:, None] * d).sum(axis=1)
            cap = self.constraint.leverage_cap
            j = int(np.argmax(gross > cap))
            if gross[j] <= cap:
                return w
            if j == 0:
                return anchor
            frac = (cap - gross[j - 1]) / (gross[j] - gross[j - 1])   # in [0, 1)
            return anchor + (at[j - 1] + frac * (at[j] - at[j - 1])) * d
        _, _, A_in, b_in = self.system()
        step = d @ A_in.T
        room = np.maximum(b_in - A_in @ anchor, 0.0)
        s = np.divide(room, step, out=np.full(step.shape, np.inf), where=step > 0.0)
        s = s.min(axis=-1, initial=1.0)[..., None]
        return np.where(s >= 1.0, w, anchor + s * d)

    @cached_property
    def _centre(self) -> np.ndarray | None:
        """Equal weights over the free assets, read-only, or None where they break a row:
        decided once."""
        w = np.zeros(self.n)
        w[self.free] = 1.0 / max(len(self.free), 1)
        if not np.all(self.excess(w) <= 1e-12):
            return None
        w.setflags(write=False)
        return w

    def centre(self) -> np.ndarray:
        """Equal weights over the free assets, in the solve variables, as a new array.

        For all five regimes the set is empty exactly when its centre is
        infeasible, which raises ``InfeasibleError`` at every call.
        """
        w = self._centre
        if w is None:
            c = self.constraint
            raise InfeasibleError(f"no portfolio of {self.n} assets satisfies {c.describe()} "
                                  f"({', '.join(f'{k}={v:g}' for k, v in c._parameters().items())})")
        return self.to_solve(w.copy())

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

    def vertices(self, mean) -> tuple[np.ndarray, np.ndarray]:
        """The lowest- and the highest-return ``vertex``."""
        return self.vertex(mean, highest=False), self.vertex(mean, highest=True)

    def return_range(self, mean, vertices=None) -> tuple[float, float]:
        """Attainable interval of expected returns (inf where unbounded),
        read off ``vertices`` (built from ``mean`` when not given)."""
        self.centre()
        mean = np.asarray(mean, dtype=float)
        lo, hi = (float(mean @ v) for v in vertices or self.vertices(mean))
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
        in_names = [f"weight_{side}[{i}]" for side in ("upper", "lower") for i in range(n)]
        box = (-c.weight_bound, c.weight_bound)
    elif c.regime == "c4":
        A_in, b_in = -np.eye(n), np.zeros(n)
        in_names = [f"long_only[{i}]" for i in range(n)]
        box = (0.0, np.inf)
    else:  # c3, c5
        A_in, b_in, in_names = np.zeros((0, n)), np.zeros(0), []

    A_eq = np.vstack(eq_rows)
    rows = np.vstack([np.hstack([A_eq, -A_eq]) if split else A_eq, A_in])
    rhs = np.concatenate([b_eq, b_in])
    for a in (rows, rhs, free, pinned):
        a.setflags(write=False)
    return RegimeModel(
        constraint=c, n=n, rows=rows, rhs=rhs, inequalities=InequalityRows(A_in, b_in),
        names=tuple(eq_names + in_names),
        m_eq=len(b_eq), split=split, free=free, pinned=pinned, box=box,
        bounded=c.regime in ("c1", "c2", "c4"),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[tuple[str, float], ...]


def check_feasible(weights, c: ConstraintSet, tol: float = PUBLIC_FEAS_TOL) -> FeasibilityReport:
    """List every constraint of ``c`` violated by more than ``tol`` or by NaN."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValidationError(f"weights must be one vector, got shape {w.shape}")
    violations = tuple(regime_model(c, len(w)).violations(w, tol))
    return FeasibilityReport(not violations, violations)
