"""Constrained portfolio solvers with closed-form oracles and KKT diagnostics.

Every problem is a quadratic program in the solve variables of the regime
model (``constraints.regime_model``): the weights, or for the gross
exposure regime (c1) the split ``w = p - n``, with a tiny diagonal term
keeping the split Hessian strictly convex; the perturbation is orders of
magnitude below every contract tolerance.  Maximum Sharpe is rewritten as a
convex QP through the homogenization change of variables ``y = kappa * w``
with the excess return normalized to one; every regime row rewrites
exactly because it is linear in the solve variables.

Every solve starts from a feasible point near its answer.  Minimum
variance, and maximum Sharpe under the split (c1) and the long-only box
(c4), start with a block exchange (``qp.block_start``): from the
unconstrained optimum, one KKT solve per round, the rows the point breaks
join a working set at their bounds and the working rows with negative
multipliers leave it, until the face's minimizer breaks none.  Where a
face has no point of the set, minimum variance starts at the
unconstrained portfolio mixed toward the centre as far as the rows hold.
A target return starts at a mix of a feasible portfolio with a return
vertex; maximum Sharpe otherwise at the unconstrained optimum, the
long-only fill (under a two-sided box mixed toward the tangency
portfolio), the highest-return vertex or a zero-investment pair; without
one, maximum Sharpe is degenerate.  Each mix is one closed-form step, not
a search.

A frontier is one corner path (``Problem.corner_path``): between two
changes of the working set the target-return solution is affine in the
target, so each change costs one KKT solve, not a QP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constraints import PUBLIC_FEAS_TOL, ConstraintSet, RegimeModel, regime_model
from .errors import (
    ConvergenceError,
    DegenerateSharpeError,
    InfeasibleError,
    SingularMatrixError,
    ValidationError,
)
from .estimation import MODEL_MM, PortfolioStats
from .qp import InequalityRows, block_start, face_point, solve_qp

OBJECTIVE_MIN_VARIANCE = "min_variance"
OBJECTIVE_MAX_SHARPE = "max_sharpe"
OBJECTIVE_TARGET_RETURN = "target_return"

KKT_TOL = 1e-6

_ACT_TOL = 1e-7          # active-constraint detection in KKT diagnostics


@dataclass(frozen=True)
class PortfolioSolution:
    """Solved weight vector plus statistics and solver diagnostics."""

    weights: np.ndarray
    stats: PortfolioStats
    objective: str
    constraint: ConstraintSet
    kkt_residual: float
    iterations: int
    converged: bool
    regularization: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float) + 0.0   # a copy, with -0.0 as 0.0
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def to_json_dict(self, tickers=None) -> dict:
        names = list(tickers) if tickers is not None else [
            f"w{i}" for i in range(len(self.weights))
        ]
        def _num(x):
            return None if (x is None or not math.isfinite(x)) else float(x)
        return {
            "weights": {t: float(v) for t, v in zip(names, self.weights)},
            "return": _num(self.stats.ret),
            "stdev": _num(self.stats.stdev),
            "sharpe": _num(self.stats.sharpe),
            "model": self.stats.model,
            "objective": self.objective,
            "constraint": self.constraint.to_json_dict(),
            "kkt_residual": float(self.kkt_residual),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "regularization_applied": float(self.regularization),
        }


def _prepare_cov(cov) -> tuple[np.ndarray, np.ndarray, float]:
    """Validate/symmetrize; return (raw, factorizable, ridge)."""
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("covariance contains non-finite entries")
    scale = max(float(np.max(np.abs(c), initial=0.0)), 1e-300)
    if np.max(np.abs(c - c.T), initial=0.0) > 1e-8 * scale:
        raise ValidationError("covariance matrix is not symmetric")
    c = 0.5 * (c + c.T)
    # a Cholesky factor exists only where the smallest eigenvalue exceeds
    # about -n eps |c|, far above the threshold below: the spectrum is
    # needed only when it fails, or when a pivot is at rounding level (an
    # exactly duplicated asset), where the matrix is singular all the same
    try:
        if np.min(np.diag(np.linalg.cholesky(c))) ** 2 > 1e-12 * scale:
            return c, c, 0.0
    except np.linalg.LinAlgError:
        pass
    if float(np.min(np.linalg.eigvalsh(c))) < -1e-8 * scale:
        raise ValidationError("covariance matrix is not positive semidefinite")
    ridge = 1e-10 * float(np.trace(c)) / c.shape[0]
    solve_c = c + ridge * np.eye(c.shape[0])
    try:
        np.linalg.cholesky(solve_c)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "covariance cannot be factorized even after ridge regularization"
        ) from None
    return c, solve_c, ridge


def _hessian(C2: np.ndarray, split: bool) -> np.ndarray:
    if not split:
        return C2
    n = C2.shape[0]
    # [[C2, -C2], [-C2, C2]] + eps I, block by block into one array; C2 + 0 and
    # 0 - C2 write a zero entry as +0.0, as that sum does
    H = np.empty((2 * n, 2 * n))
    np.add(C2, 0.0, out=H[:n, :n])
    np.subtract(0.0, C2, out=H[:n, n:])
    H[n:, :n] = H[:n, n:]
    H[n:, n:] = H[:n, :n]
    # keeps the split Hessian strictly convex; far below contract tolerances
    eps = 1e-12 * max(1.0, float(np.trace(C2)) / n)
    H.flat[::2 * n + 1] += eps
    return H


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson non-negative least squares: argmin ||Ax - b|| over x >= 0.

    The unconstrained least-squares solution is returned when it is
    nonnegative; otherwise the passive set starts from its positive
    support when that support's own solution is positive, else from empty.
    """
    k = A.shape[1]

    def least_squares(passive: np.ndarray) -> np.ndarray:
        z = np.zeros(k)
        z[passive], *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
        return z

    x = least_squares(np.ones(k, dtype=bool))
    if np.all(x >= 0.0):
        return x
    passive = x > 0.0
    x = least_squares(passive)
    if not np.all(x[passive] > 0.0):
        passive[:] = False
        x = np.zeros(k)
    tol = 1e-12 * max(1.0, float(np.abs(A).max(initial=0.0) * np.abs(b).max(initial=0.0)))
    for _ in range(3 * k):
        dual = A.T @ (b - A @ x)
        candidates = np.flatnonzero(~passive & (dual > tol))
        if not len(candidates):
            break
        passive[candidates[np.argmax(dual[candidates])]] = True
        while True:
            z = least_squares(passive)
            if np.all(z[passive] > 0.0):
                x = z
                break
            # step back to the last feasible point on the segment x -> z
            blocked = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[blocked] / (x[blocked] - z[blocked])
            x = x + float(ratios.min()) * (z - x)
            x[blocked[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    return x


def _stationarity_residual(grad, E, F, slacks) -> tuple[float, float]:
    """(stationarity, complementary-slackness) with sign-correct multipliers.

    ``E`` and ``F`` hold the equality and active inequality rows as
    columns.  Multipliers are non-unique at degenerate active sets, so
    inequality multipliers are recovered under their nonnegativity
    constraint (NNLS on the component orthogonal to the equality span);
    plain least squares can miss a valid certificate.
    """
    def perp(v: np.ndarray) -> np.ndarray:
        coef, *_ = np.linalg.lstsq(E, v, rcond=None)
        return v - E @ coef

    lam_in = _nnls(perp(F), -perp(grad)) if F.shape[1] else np.zeros(0)
    r = grad + F @ lam_in
    lam_eq, *_ = np.linalg.lstsq(E, -r, rcond=None)
    r = r + E @ lam_eq
    comp = float(np.max(np.abs(lam_in) * np.maximum(slacks, 0.0), initial=0.0))
    return float(np.max(np.abs(r), initial=0.0)), comp


def kkt_residual_weights(w, cov, c: ConstraintSet, *, mean=None, target=None,
                         multipliers=None, excess=None) -> float:
    """First-order optimality residual of ``min w'Cov w`` at ``w``.

    Combines the stationarity gap, complementary slackness and primal
    feasibility into a single max-norm.  When ``target`` is given the return
    equality is part of the problem.  Conditions are scored in the regime's
    solve variables (split ``(p, n)`` for the gross-exposure regime), where
    they are plain QP optimality.  The primal part is the excess over the
    regime's rows and, given a target, the return gap ``|mean.w - target|``.

    ``multipliers`` are the ``(equality, inequality)`` multipliers of a
    solve over those rows, the return row last.  They are checked
    first: stationarity, ``-min(mu)``, ``|mu| * slack`` and the primal
    excess in one max-norm.  A feasible point of a convex QP with such
    multipliers is optimal, so when that norm is within ``KKT_TOL`` it is
    the residual.  Otherwise, and without multipliers, the multipliers are
    recovered from scratch over the rows active within ``_ACT_TOL`` (NNLS,
    then least squares), a test independent of the engine's multipliers.
    ``excess`` is ``RegimeModel.excess(w)`` where the caller has it already.
    """
    w = np.asarray(w, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    regime = regime_model(c, len(w))
    eq, _, A_in, _ = regime.system()
    if target is not None:
        if mean is None:
            raise ValidationError("target-return KKT check requires the mean vector")
        eq = np.vstack([eq, regime.lift(np.asarray(mean, dtype=float))])
    if excess is None:
        excess = regime.excess(w)          # on the inequality rows, minus the slack
    primal = excess.max(initial=0.0)
    if target is not None:
        primal = max(primal, abs(float(np.asarray(mean, dtype=float) @ w) - target))
    slacks = -excess[2 * regime.m_eq:]
    grad = regime.lift(2.0 * (cov @ w))
    if multipliers is not None:
        lam, mu = (np.asarray(m, dtype=float) for m in multipliers)
        residual = max(np.abs(grad + eq.T @ lam + A_in.T @ mu).max(initial=0.0),
                       -mu.min(initial=0.0),
                       np.max(np.abs(mu) * np.maximum(slacks, 0.0), initial=0.0),
                       primal)
        if residual <= KKT_TOL:
            return float(residual)
    active = slacks <= _ACT_TOL
    stationarity, comp = _stationarity_residual(grad, eq.T, A_in[active].T, slacks[active])
    return float(max(stationarity, comp, primal))


def kkt_residual(solution: PortfolioSolution, cov, mean=None) -> float:
    """Re-verify first-order optimality for a finished solution.

    Max-Sharpe solutions are scored as the variance minimizer at their own
    return level, which they must also solve.
    """
    target = None
    if solution.objective in (OBJECTIVE_MAX_SHARPE, OBJECTIVE_TARGET_RETURN):
        target = solution.stats.ret
    return kkt_residual_weights(
        solution.weights, cov, solution.constraint, mean=mean, target=target
    )


def _homogenized(regime: RegimeModel, excess: np.ndarray):
    """Rows of the maximum-Sharpe QP over ``y = kappa w`` with ``kappa = 1'w``.

    ``a.w <= b`` becomes ``a.y - b 1'y <= 0``, the full-investment row
    becomes ``excess.y = 1``, and ``1'y >= 0`` is appended; that row is
    redundant, and never active, where the regime bounds the weights.
    """
    A_eq, b_eq, A_in, b_in = regime.system()
    kappa = regime.lift(np.ones(regime.n))
    A_eq = np.vstack([regime.lift(excess), A_eq[1:] - b_eq[1:, None] * kappa])
    rows = np.empty((len(A_in) + 1, len(kappa)))      # one array, no temporaries
    np.multiply(b_in[:, None], kappa, out=rows[:-1])
    np.subtract(A_in, rows[:-1], out=rows[:-1])
    rows[-1] = -kappa
    return A_eq, np.append(1.0, np.zeros(len(A_eq) - 1)), rows, np.zeros(len(rows))


def _weight_multipliers(regime: RegimeModel, res, kappa: float, rf: float):
    """The multipliers of the maximum-Sharpe QP (``_homogenized``) at
    ``y = kappa w`` as those of minimum variance at ``w``'s own return:
    ``(equality, inequality)`` over the regime's rows, the return row last.

    With ``1`` the full-investment row, the QP's stationarity reads
    ``H y + l0 (mean - rf 1) + sum_j lj (a_j - b_j 1) + sum_i mi (a_i - b_i 1)
    - m_kappa 1 = 0`` (j over the other equalities, i over the inequality
    rows).  Divided by ``kappa > 0`` it is the stationarity at ``w`` with
    ``l0 / kappa`` on the return row, ``lj / kappa``, ``mi / kappa`` and
    ``-(l0 rf + sum_j lj b_j + sum_i mi b_i + m_kappa) / kappa`` on the
    full-investment row.  Complementary slackness scales the same way:
    ``mi (a_i y - b_i kappa) = kappa mi (a_i w - b_i)``.
    """
    _, b_eq, _, b_in = regime.system()
    lam, mu = res.eq_multipliers / kappa, res.in_multipliers / kappa
    mu, m_kappa = mu[:-1], mu[-1]
    budget = -(lam[0] * rf + lam[1:] @ b_eq[1:] + mu @ b_in + m_kappa)
    return np.concatenate([[budget], lam[1:], lam[:1]]), mu


@dataclass(frozen=True, eq=False)
class Problem:
    """One regime's solves on a validated covariance, prepared once."""

    cov: np.ndarray            # validated and symmetrized
    cov_solve: np.ndarray      # cov plus the ridge applied, factorizable
    ridge: float
    hessian: np.ndarray        # of the solve variables, from 2 cov_solve
    regime: RegimeModel
    mean: np.ndarray | None
    rf: float
    model: str

    @classmethod
    def prepare(cls, cov, c: ConstraintSet, *, mean=None, rf: float = 0.0,
                model: str = MODEL_MM) -> Problem:
        cov_raw, cov_solve, ridge = _prepare_cov(cov)
        n = cov_raw.shape[0]
        regime = regime_model(c, n)
        if mean is not None:
            mean = np.asarray(mean, dtype=float)
            if mean.shape != (n,):
                raise ValidationError("mean vector length does not match covariance")
            if not np.all(np.isfinite(mean)):
                raise ValidationError("mean vector contains non-finite entries")
        if not math.isfinite(rf):
            raise ValidationError(f"risk-free rate rf must be finite, got {rf}")
        hessian = _hessian(2.0 * cov_solve, regime.split)
        return cls(cov_raw, cov_solve, ridge, hessian, regime, mean, float(rf), model)

    def _mean(self) -> np.ndarray:
        if self.mean is None:
            raise ValidationError("this objective requires the mean vector")
        return self.mean

    def stats(self, w) -> PortfolioStats:
        """Return, stdev and Sharpe of weights ``w``, as every solution reports them."""
        var = float(w @ self.cov @ w)
        stdev = float(np.sqrt(max(var, 0.0)))
        if self.mean is None:
            return PortfolioStats(ret=float("nan"), stdev=stdev, sharpe=float("nan"),
                                  model=self.model)
        ret = float(self.mean @ w)
        sharpe = (ret - self.rf) / stdev if stdev > 0.0 else 0.0
        return PortfolioStats(ret=ret, stdev=stdev, sharpe=sharpe, model=self.model)

    @cached_property
    def vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the lowest and of the highest expected return
        (``RegimeModel.vertex``), built once."""
        return self.regime.vertices(self._mean())

    @cached_property
    def return_range(self) -> tuple[float, float]:
        """Attainable interval of expected returns, read off ``vertices``."""
        return self.regime.return_range(self._mean(), self.vertices)

    def _solve(self, A_eq, b_eq, A_in, b_in, x0):
        return solve_qp(self.hessian, np.zeros(len(self.hessian)), A_eq, b_eq, A_in, b_in, x0)

    def _check(self, w, target, multipliers) -> tuple[float, bool]:
        """The KKT certificate of weights ``w`` and whether they are feasible
        (``check_feasible``'s verdict), from one evaluation of the rows."""
        excess = self.regime.excess(w)
        kkt = kkt_residual_weights(w, self.cov, self.regime.constraint, mean=self.mean,
                                   target=target, multipliers=multipliers, excess=excess)
        return kkt, bool(np.all(excess <= PUBLIC_FEAS_TOL))

    def _solution(self, w, res, objective: str, target=None, multipliers=None,
                  rounds: int = 0) -> PortfolioSolution:
        kkt, feasible = self._check(w, target, multipliers)
        converged = bool(feasible and kkt <= KKT_TOL)
        return PortfolioSolution(
            weights=w, stats=self.stats(w), objective=objective, constraint=self.regime.constraint,
            kkt_residual=kkt, iterations=rounds + res.iterations, converged=converged,
            regularization=self.ridge,
        )

    def min_variance(self) -> PortfolioSolution:
        """Smallest variance under the regime.

        The solve starts with a block exchange (``qp.block_start``, block
        principal pivoting after Judice & Pires 1994 and Kim & Park 2011).
        Its first point is the unconstrained minimum-variance portfolio of
        the free assets, ``cov_solve[free, free]^-1 1`` normalized to sum to
        one, where Goldfarb & Idnani (1983) start their dual method.  Every
        inequality row that point holds tight or breaks joins a working set
        at its bound, and each round moves to the face's minimizer with one
        KKT solve (``qp.face_point``); then the rows the new point breaks
        join and the working rows with negative multipliers leave, all at
        once, until the point breaks none.  The engine then certifies the
        point, usually in one iteration.  Where a face holds no point of
        the set, the start is the first point mixed toward the centre as far
        as the rows hold (``RegimeModel.toward``).  Each round is one KKT
        solve and counts in ``iterations``.  Without inequality rows (c3,
        c5) the first point is the answer.
        """
        r, H = self.regime, self.hessian
        centre = r.to_weights(r.centre())           # raises when the set is empty
        w = np.zeros(r.n)
        w[r.free] = np.linalg.solve(self.cov_solve[np.ix_(r.free, r.free)],
                                    np.ones(len(r.free)))
        w /= w.sum()
        A_eq, b_eq, A_in, b_in = r.system()
        x, rounds = block_start(H, r.to_solve(w), A_eq, b_eq, A_in, b_in)
        if x is None:                               # a face without a point
            x = r.to_solve(r.toward(centre, w))
        res = self._solve(A_eq, b_eq, A_in, b_in, x)
        return self._solution(r.to_weights(res.x), res, OBJECTIVE_MIN_VARIANCE,
                              multipliers=(res.eq_multipliers, res.in_multipliers),
                              rounds=rounds)

    def target_return(self, target: float) -> PortfolioSolution:
        """Minimum variance at expected return ``target``.

        The start mixes the regime's centre with the return vertex on the
        target's side (``_target_qp``).
        """
        r = self.regime
        self._mean()                                # raises without a mean
        if not math.isfinite(target):
            raise ValidationError(f"target return target must be finite, got {target}")
        lo, hi = self.return_range
        slack = 1e-9 * (1.0 + abs(target))
        if target < lo - slack or target > hi + slack:
            raise InfeasibleError(
                f"target return {target:.10g} outside attainable interval "
                f"[{lo:.10g}, {hi:.10g}]"
            )
        t = min(max(target, lo), hi)
        res = self._target_qp(t, r.to_weights(r.centre()))
        return self._solution(r.to_weights(res.x), res, OBJECTIVE_TARGET_RETURN, target=t,
                              multipliers=(res.eq_multipliers, res.in_multipliers))

    def _target_qp(self, t: float, anchor: np.ndarray):
        """The QP at return ``t``, started at the mix of feasible weights
        ``anchor`` with the return vertex on ``t``'s side that earns ``t``."""
        r, mean = self.regime, self.mean
        a_ret = float(mean @ anchor)
        v = self.vertices[t >= a_ret]
        gap = float(mean @ v) - a_ret
        s = (t - a_ret) / gap if gap != 0.0 else 0.0
        A_eq, b_eq, A_in, b_in = r.system()
        return self._solve(np.vstack([A_eq, r.lift(mean)]), np.append(b_eq, t),
                           A_in, b_in, r.to_solve(anchor + s * (v - anchor)))

    def corner_path(self, targets, anchor) -> list[np.ndarray]:
        """Minimum-variance weights at each of the increasing ``targets``,
        traced as one parametric path from feasible weights ``anchor``.

        While the working set of the return-constrained QP stays fixed, its
        solution and multipliers are affine in the target return ``t``
        (Markowitz's critical line).  The path starts with one QP at
        ``targets[0]``, from ``anchor``.  At each corner one factorization of
        the working set's reduced KKT system (``qp.reduced_kkt``) re-solves
        the point and gives the direction ``d(x, lam)/dt``; the next corner
        is the nearest ``t`` at which an inactive row reaches its bound or
        a working multiplier reaches zero, where that row joins or leaves
        the working set.  Each target in between is the mix of the two
        re-solved corners around it, so an error in the direction moves the
        corners' returns, not the points.  The return row enters the system
        centred on the mean return and scaled to unit range: the same row
        under full investment, but not nearly parallel to it.

        A QP at the next target, started from the corner, takes over at a
        degenerate corner: a zero-length step, several events within a
        relative 1e-12 of the return, or working rows that fix the point
        and leave no direction.  The path resumes from its working set.
        Where the regime has inequality rows, the last target is such a QP
        too, from ``anchor``: that start mixes onto the return vertex
        exactly, and the top of the curve is a face of the attainable set.

        Each corner is certified from its multipliers (``_corner``), and so
        is a segment's end where a QP takes over; a failure raises
        ``ConvergenceError`` naming its target and residual.  On a segment
        every term of the certificate is a max-norm of a function affine in
        ``t`` (the working rows keep zero slack), so a point between two
        corners has a residual of at most the larger of theirs.
        """
        r, mean, H = self.regime, self.mean, self.hessian
        A_eq, b_eq, A_in, b_in = r.system()
        # the return row, last, as ((mean - mid) / sigma) w = (t - mid) / sigma: the same
        # row under full investment, but not near the full-investment row's span
        mid = float(mean[r.free].mean())
        sigma = float(np.abs(mean - mid)[r.free].max()) or 1.0
        A_eq = np.vstack([A_eq, r.lift((mean - mid) / sigma)])
        m_eq = len(A_eq)
        rows_in = InequalityRows(A_in)
        bound, row_scale = rows_in.bound, rows_in.scale
        top = targets[-1]
        tie = 1e-12 * max(abs(targets[0]), abs(top))      # events this close coincide
        working = np.zeros(len(b_in), dtype=bool)

        def resolve(x, t):
            """The working set's point at ``t`` and ``d(x, lam)/dt`` from one
            factorization (``qp.face_point``); the point is None where it
            would not hold the working rows, or leave another row by more
            than ``solve_qp``'s activity tolerance (a nearly singular system)."""
            act = np.flatnonzero(working)
            general = act[~bound[act]]
            rate = np.zeros(m_eq + len(general))
            rate[m_eq - 1] = 1.0 / sigma
            x, p, lam = face_point(H, x, A_eq, np.append(b_eq, (t - mid) / sigma), A_in, b_in,
                                   rows_in, act, rate)
            if x is not None and np.any(rows_in.dot(x) - b_in > 1e-9 * row_scale):
                x = None
            return x, p[:, 1], lam[:, 0], lam[:, 1], act, general

        def split(lam, act):
            """Multipliers in working-set order as (equality, every inequality row)."""
            mu = np.zeros(len(b_in))
            mu[act] = lam[m_eq:]
            eq = lam[:m_eq].copy()
            eq[-1] /= sigma
            eq[0] -= mid * eq[-1]
            return eq, mu

        weights, i, t0 = [], 0, targets[0]

        def emit(xa, ta, xb, tb):
            """The targets up to ``tb`` on the segment from ``xa`` at ``ta`` to ``xb`` at ``tb``."""
            nonlocal i
            while i < len(targets) and targets[i] <= tb:
                t = targets[i]
                weights.append(r.to_weights(xb if t == tb else xa + (t - ta) / (tb - ta) * (xb - xa)))
                i += 1

        res = self._target_qp(t0, anchor)
        xa = ta = None                                    # the start of the segment being traced
        while True:
            if res is not None:                           # resume from a QP's working set
                working[:] = False
                working[list(res.active)] = True
                x, arrived = res.x, (res.eq_multipliers, res.in_multipliers)
            x1, dx, lam, dlam, act, general = resolve(x, t0)
            miss = np.concatenate([A_eq @ dx, A_in[general] @ dx])
            miss[m_eq - 1] -= 1.0 / sigma
            # working rows that fix the point leave no direction
            stuck = np.abs(miss).max() > 1e-9 * (1.0 + np.abs(dx).max())
            if res is not None:                           # a QP's point and multipliers stand
                res = None
            elif x1 is None:                              # the point stays as it came
                stuck = True
            elif not stuck:
                x, arrived = x1, split(lam, act)
            self._corner(x, *arrived, t0)
            emit(xa, ta, x, t0)
            if t0 == top:
                return weights
            xa, ta, s, end = x, t0, 0.0, top - t0
            if not stuck:
                # the next corner: an inactive row reaching its bound, a multiplier reaching zero
                rate = rows_in.dot(dx)
                hit = np.flatnonzero(~working & (rate > 1e-13 * row_scale * (1.0 + np.abs(dx).max())))
                fall = np.flatnonzero(dlam[m_eq:] < -1e-12 * np.abs(dlam).max())
                room = (b_in - rows_in.dot(x))[hit]
                steps = np.concatenate([np.maximum(room, 0.0) / rate[hit],
                                        np.maximum(lam[m_eq:][fall], 0.0) / -dlam[m_eq:][fall]])
                s = float(steps.min(initial=end))
                near = np.concatenate([hit, act[fall]])[steps <= s + tie]
                if s >= end - tie and not len(b_in):      # no rows: one segment to the top
                    x, t0, arrived = x + end * dx, top, split(lam + end * dlam, act)
                    continue
                if tie < s < end - tie and len(near) == 1:   # one row joins or leaves
                    working[near[0]] = not working[near[0]]
                    x, t0, arrived = x + s * dx, t0 + s, split(lam + s * dlam, act)
                    continue
            # a degenerate corner, or the top, which is a face of the attainable set:
            # certify the segment's end, then a QP at the next target (from the path's
            # anchor at the top, where that start mixes onto the return vertex exactly)
            if 0.0 < s < end - tie:
                x1 = resolve(x + s * dx, t0 + s)[0]
                x1 = x + s * dx if x1 is None else x1
                self._corner(x1, *split(lam + s * dlam, act), t0 + s)
                emit(x, t0, x1, t0 + s)
                xa, ta = x1, t0 + s
            t0 = top if s >= end - tie else targets[i]
            res = self._target_qp(t0, anchor if t0 == top else r.to_weights(x + s * dx))

    def _corner(self, x, eq, mu, target: float) -> None:
        """Certify a point of the corner path from its multipliers, or raise."""
        kkt, feasible = self._check(self.regime.to_weights(x), target, (eq, mu))
        if not (feasible and kkt <= KKT_TOL):
            raise ConvergenceError(f"frontier point at target return {target:.10g} failed its "
                                   f"KKT certificate (residual {kkt:.3g})")

    def max_sharpe(self) -> PortfolioSolution:
        r, mean = self.regime, self._mean()
        r.centre()                                  # raises when the set is empty
        rows = _homogenized(r, mean - self.rf)
        y0, rounds = self._sharpe_start(mean - self.rf, *rows)
        res = self._solve(*rows, y0)
        y = r.to_weights(res.x)
        kappa = float(y.sum())
        if kappa <= 1e-12 * (1.0 + float(np.abs(y).sum())):
            raise DegenerateSharpeError(
                "maximum Sharpe is approached only asymptotically (zero normalizer)"
            )
        w = y / kappa
        return self._solution(w, res, OBJECTIVE_MAX_SHARPE, target=float(mean @ w),
                              multipliers=_weight_multipliers(r, res, kappa, self.rf),
                              rounds=rounds)

    def _sharpe_start(self, excess, A_eq, b_eq, A_in, b_in) -> tuple[np.ndarray, int]:
        """A feasible point of the homogenized problem, and the KKT solves
        spent finding it.

        The unconstrained optimum, the tangency ``cov_solve^-1 excess``
        scaled to unit excess return, when it is feasible (it is then
        optimal).  Where the box bounds the weights on one side or through
        the split (c1, c4), the block start from that point
        (``qp.block_start``).  Else, or where the tangency earns no excess
        or a face has no point, the long-only fill, or failing that the
        highest-return vertex, scaled to unit excess return; where the box
        bounds the weights on both sides (c2), that point is first mixed
        toward the tangency portfolio as far as the rows hold
        (``RegimeModel.toward``): a block start there measured more KKT
        solves, since the homogenized box rows are general rows.  On a
        bounded set (c1, c2, c4) the vertex maximizes the excess return, so
        when it earns none there is no point: ``1'y = 0`` would force ``y = 0``.
        On c3 and c5 the zero-investment pair long the best and short the
        worst free asset is one, unless all their excess returns are equal.
        """
        r = self.regime
        two_sided = np.all(np.isfinite(r.box))
        tangency, rounds = None, 0
        z = np.linalg.solve(self.cov_solve, excess)
        denom, kappa = float(excess @ z), float(z.sum())
        if denom > 0.0:
            y = r.to_solve(z / denom)
            if r.bounded and not two_sided and kappa > 0.0:   # the tangency earns excess
                start, rounds = block_start(self.hessian, y, A_eq, b_eq, A_in, b_in)
                if start is not None:
                    return start, rounds
            elif (np.max(np.abs(A_eq @ y - b_eq), initial=0.0) <= 1e-9
                    and np.all(A_in @ y <= b_in + 1e-12)):
                return y, rounds
            if kappa > 0.0 and two_sided:
                tangency = z / kappa
        order = r.free[np.argsort(-excess[r.free], kind="stable")]
        w = r.fill(order, 0.0)
        if float(excess @ w) <= 0.0:
            w = r.vertex(excess, highest=True)
        gain = float(excess @ w)
        if gain > 0.0:
            if tangency is not None:
                w = r.toward(w, tangency)
                gain = float(excess @ w)
            return r.to_solve(w) / gain, rounds
        best, worst = order[0], order[-1]
        spread = float(excess[best] - excess[worst])
        if r.bounded or spread <= 0.0:
            raise DegenerateSharpeError("no feasible portfolio earns a positive excess return")
        y = np.zeros(r.n)
        y[best], y[worst] = 1.0 / spread, -1.0 / spread
        return y, rounds


def solve_min_variance(cov, c: ConstraintSet, *, mean=None, rf: float = 0.0,
                       model: str = MODEL_MM) -> PortfolioSolution:
    """Feasible portfolio with the smallest variance under regime ``c``.

    ``mean``/``rf`` only feed the reported statistics; without a mean the
    return and Sharpe fields are NaN.
    """
    return Problem.prepare(cov, c, mean=mean, rf=rf, model=model).min_variance()


def solve_target_return(cov, mean, target: float, c: ConstraintSet, *,
                        rf: float = 0.0, model: str = MODEL_MM) -> PortfolioSolution:
    """Minimum-variance portfolio whose expected return equals ``target``."""
    return Problem.prepare(cov, c, mean=mean, rf=rf, model=model).target_return(target)


def solve_max_sharpe(cov, mean, rf: float, c: ConstraintSet, *,
                     model: str = MODEL_MM) -> PortfolioSolution:
    """Feasible portfolio maximizing (mean.w - rf) / stdev under regime ``c``."""
    return Problem.prepare(cov, c, mean=mean, rf=rf, model=model).max_sharpe()


def solve_objective(objective: str, cov, mean, rf: float, c: ConstraintSet, *,
                    model: str = MODEL_MM) -> PortfolioSolution:
    """Minimum variance or maximum Sharpe, named by ``OBJECTIVE_*``."""
    if objective == OBJECTIVE_MIN_VARIANCE:
        return solve_min_variance(cov, c, mean=mean, rf=rf, model=model)
    if objective == OBJECTIVE_MAX_SHARPE:
        return solve_max_sharpe(cov, mean, rf, c, model=model)
    raise ValidationError(f"unknown objective {objective!r}")


def attainable_return_range(mean, c: ConstraintSet) -> tuple[float, float]:
    """Feasible interval of expected returns under ``c`` (inf for unbounded)."""
    mean_v = np.asarray(mean, dtype=float)
    return regime_model(c, len(mean_v)).return_range(mean_v)


def _cholesky_solve(cov, rhs: np.ndarray) -> np.ndarray:
    """``C^-1 rhs`` through the Cholesky factor of the symmetrized ``C``."""
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    try:
        L = np.linalg.cholesky(0.5 * (c + c.T))
    except np.linalg.LinAlgError:
        raise SingularMatrixError("covariance is singular or indefinite") from None
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def closed_form_min_variance(cov) -> np.ndarray:
    """Analytic unconstrained minimum-variance weights ``C^-1 1 / (1'C^-1 1)``."""
    ones = np.ones(np.atleast_2d(cov).shape[0])
    y = _cholesky_solve(cov, ones)
    return y / float(ones @ y)


def closed_form_tangency(cov, mean, rf: float) -> np.ndarray:
    """Analytic unconstrained tangency weights ``C^-1 (mean - rf 1)``, normalized."""
    y = _cholesky_solve(cov, np.asarray(mean, dtype=float) - rf)
    denom = float(y.sum())
    if abs(denom) <= 1e-12 * (1.0 + float(np.abs(y).sum())):
        raise DegenerateSharpeError("tangency normalizer is zero")
    return y / denom
