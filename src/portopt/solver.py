"""Constrained portfolio solvers with closed-form oracles and KKT diagnostics.

Every problem is a quadratic program in the solve variables of the regime
model (``constraints.regime_model``): the weights, or for the gross
exposure regime (c1) the split ``w = p - n``, with a tiny diagonal term
keeping the split Hessian strictly convex; the perturbation is orders of
magnitude below every contract tolerance.  Maximum Sharpe is rewritten as a
convex QP through the homogenization change of variables ``y = kappa * w``
with the excess return normalized to one; every regime row rewrites
exactly because it is linear in the solve variables.

Every solve is one engine call (``qp.solve_qp``) from a start near its
answer.  Minimum variance and maximum Sharpe start, in every regime, at
the free assets' unconstrained optimum, where the engine's block exchange
begins; where a face has no point of the set, the engine falls back on
that optimum mixed toward the centre as far as the rows hold (minimum
variance) or on the long-only fill, the highest-return vertex or a
zero-investment pair (maximum Sharpe; without one, it is degenerate).  A
target return starts at a mix of a feasible portfolio with a return
vertex.  Each mix is one closed-form step, not a search.

A frontier is one corner path (``Problem.corner_path``): between two
changes of the working set the target-return solution is affine in the
target, so each segment costs one KKT solve, for its direction, not a QP.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field, replace
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
from .qp import reduced_kkt, solve_qp

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


def _prepare_cov(cov) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Validate/symmetrize; return (raw, factorizable, ridge, key), never the caller's
    array: ``key`` holds the input's float64 bits, ``raw`` itself where the input was
    symmetric, else the input's own copy."""
    c = key = np.array(cov, dtype=float, ndmin=2)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {c.shape}")
    scale = float(np.max(np.abs(c), initial=0.0))
    if not math.isfinite(scale):                # a NaN or an infinite entry makes it so
        raise ValidationError("covariance contains non-finite entries")
    scale = max(scale, 1e-300)
    # a symmetric c is its own 0.5 (c + c') bit for bit: c + c and * 0.5 are exact
    if not np.array_equal(c, c.T):
        if np.max(np.abs(c - c.T), initial=0.0) > 1e-8 * scale:
            raise ValidationError("covariance matrix is not symmetric")
        c = 0.5 * (c + c.T)
    # a Cholesky factor exists only where the smallest eigenvalue exceeds
    # about -n eps |c|, far above the threshold below: the spectrum is
    # needed only when it fails, or when a pivot is at rounding level (an
    # exactly duplicated asset), where the matrix is singular all the same
    try:
        if np.min(np.diag(np.linalg.cholesky(c))) ** 2 > 1e-12 * scale:
            return c, c, 0.0, key
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
    return c, solve_c, ridge, key


# the paper's table (``compare``) solves on 2 covariances, a regime-outer frontier
# grid on 3; a free-asset solve takes ones or mean - rf, each with and without
# c5's pinned asset
_COV_ENTRIES = 3
_FREE_SOLVES = 4


@dataclass(frozen=True, eq=False)
class _Prepared:
    """One covariance as ``_prepare_cov`` returns it, every array read-only, under the
    float64 bits it was prepared from (``key``: the validated matrix itself where the
    input was symmetric), with its free-asset solves (``Problem._free_solve``) and the
    solve Hessians it has served (``hessian``)."""

    key: np.ndarray
    cov: np.ndarray
    cov_solve: np.ndarray
    ridge: float
    free_solves: OrderedDict = field(default_factory=OrderedDict)
    hessians: dict = field(default_factory=dict)

    def hessian(self, split: bool) -> np.ndarray:
        """The Hessian of the solve variables from ``2 cov_solve`` (``_hessian``), built at
        first use and kept read-only: at most one of the weights and one of the split.
        Threads that race on one may each build it: a race repeats work, and every
        caller gets the one kept (``dict.setdefault`` is atomic)."""
        H = self.hessians.get(split)
        if H is None:
            H = _hessian(2.0 * self.cov_solve, split)
            H.setflags(write=False)
            H = self.hessians.setdefault(split, H)
        return H


_CACHE: list[_Prepared] = []       # most recently used first, at most _COV_ENTRIES
_CACHE_LOCK = threading.Lock()     # guards _CACHE and every entry's free_solves


def _prepared(cov) -> _Prepared:
    """``cov`` prepared (``_prepare_cov``) once per exact input: a later call on the same
    shape and float64 bits (compared as ``uint64``, so ``-0.0`` is not ``0.0``, and a
    write into the caller's array makes a new key) returns the same entry, while it is
    among the last ``_COV_ENTRIES`` used.  An input that fails validation raises, and is
    not kept."""
    a = np.atleast_2d(np.asarray(cov, dtype=float))
    bits, row = a.view(np.uint64), a[:1].tobytes()

    def same(b: np.ndarray) -> bool:   # the first row's bytes part most matrices at once
        return b.shape == a.shape and b[:1].tobytes() == row and (b.view(np.uint64) == bits).all()

    with _CACHE_LOCK:
        for k, entry in enumerate(_CACHE):
            if same(entry.key):
                _CACHE.insert(0, _CACHE.pop(k))
                return entry
    c, solve_c, ridge, key = _prepare_cov(a)
    for x in (key, c, solve_c):
        x.setflags(write=False)
    entry = _Prepared(key, c, solve_c, ridge)
    with _CACHE_LOCK:
        _CACHE.insert(0, entry)
        del _CACHE[_COV_ENTRIES:]
    return entry


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


def _each(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``A @ w`` for each row ``w`` of ``W``, one matrix-vector product per row: bit
    for bit that row's own, which one matrix product over the rows is not."""
    return A.dot(W[0])[None] if len(W) == 1 else (A @ W[..., None])[..., 0]


def kkt_residual_weights(w, cov, c: ConstraintSet, *, mean=None, target=None,
                         multipliers=None, excess=None) -> float:
    """First-order optimality residual of ``min w'Cov w`` at ``w``.

    Combines the stationarity gap, complementary slackness and primal feasibility into a
    single max-norm.  When ``target`` is given the return equality is part of the
    problem: its row (``RegimeModel.return_row``) in stationarity, the raw gap
    ``|mean.w - target|`` in the primal part, which is also the excess over the regime's
    rows.  Conditions are scored in the regime's solve variables (split ``(p, n)`` for
    the gross-exposure regime), where they are plain QP optimality.

    ``multipliers`` are the ``(equality, inequality)`` multipliers of a solve over those
    rows, the return row last in ``return_row``'s scaling.  They are checked first:
    stationarity, ``-min(mu)``, ``|mu| * slack`` and the primal excess in one max-norm.
    A feasible point of a convex QP with such multipliers is optimal, so when that norm
    is within ``KKT_TOL`` it is the residual.  Otherwise, and without multipliers, the
    multipliers are recovered from scratch over the rows active within ``_ACT_TOL``
    (NNLS, then least squares), a test independent of the engine's multipliers.
    ``excess`` is ``RegimeModel.excess(w)`` where the caller has it already.  ``w`` may
    be a stack, a portfolio per row with its own target and multipliers: the residual is
    the largest row's, each bit for bit as checked alone.  Weights that ``cov`` or
    ``mean`` do not match, or a ``w`` that is a scalar, raise ``ValidationError``.
    """
    if np.ndim(w) == 0:
        raise ValidationError("weights must be a vector or a stack of vectors, got shape ()")
    n = np.shape(w)[-1]
    W = np.asarray(w, dtype=float).reshape(-1, n)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape != (n, n):
        raise ValidationError(f"covariance of shape {cov.shape} does not match {n} weights")
    if mean is not None:
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (n,):
            raise ValidationError("mean vector length does not match the weights")
    regime = regime_model(c, n)
    eq, _, A_in, _ = regime.system()
    if target is not None:
        if mean is None:
            raise ValidationError("target-return KKT check requires the mean vector")
        eq = np.concatenate([eq, regime.return_row(mean)[0][None]])
    if excess is None:
        excess = regime.excess(W, alone=True)   # on every row; an inequality's is minus its slack
    excess = excess.reshape(len(W), -1)
    primal = excess.max(axis=1, initial=0.0)
    if target is not None:
        primal = np.maximum(primal, np.abs((W[:, None] @ mean[:, None])[:, 0, 0] - target))
    slacks = -excess[:, regime.m_eq:]
    grad = regime.lift(2.0 * _each(cov, W))
    if multipliers is None:
        residual = np.full(len(W), np.inf)
    else:
        lam, mu = (np.asarray(m, dtype=float).reshape(len(W), -1) for m in multipliers)
        stationarity = grad + _each(eq.T, lam) + _each(A_in.T, mu)
        terms = np.concatenate([np.abs(stationarity), -mu, np.abs(mu) * np.maximum(slacks, 0.0),
                                primal[:, None]], axis=1)
        worst = terms.max(initial=0.0)
        if worst <= KKT_TOL:
            return float(worst)
        residual = terms.max(axis=1, initial=0.0)
    for i in (~(residual <= KKT_TOL)).nonzero()[0]:
        active = slacks[i] <= _ACT_TOL
        stationarity, comp = _stationarity_residual(grad[i], eq.T, A_in[active].T, slacks[i][active])
        residual[i] = max(stationarity, comp, primal[i])
    return float(residual.max())


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
    """``(A_eq, b_eq, rows)``: the rows of the maximum-Sharpe QP over ``y = kappa w`` with
    ``kappa = 1'w``.

    ``a.w <= b`` becomes ``a.y - b 1'y <= 0``, the full-investment row
    becomes ``excess.y = 1``, and ``1'y >= 0`` is appended; that row is
    redundant, and never active, where the regime bounds the weights.  The
    inequality rows do not depend on ``excess``: they are the regime's
    ``RegimeModel.homogenized``, built once; only the equalities are formed here.
    """
    A_eq, b_eq, _, _ = regime.system()
    kappa = regime.lift(np.ones(regime.n))
    A_eq = np.vstack([regime.lift(excess), A_eq[1:] - b_eq[1:, None] * kappa])
    return A_eq, np.append(1.0, np.zeros(len(A_eq) - 1)), regime.homogenized


def _weight_multipliers(regime: RegimeModel, res, kappa: float, mean, rf: float):
    """The multipliers of the maximum-Sharpe QP (``_homogenized``) at ``y = kappa w`` as
    those of minimum variance at ``w``'s own return: ``(equality, inequality)`` over the
    regime's rows, the return row last.

    With ``1`` the full-investment row, the QP's stationarity reads ``H y + l0 (mean - rf
    1) + sum_j lj (a_j - b_j 1) + sum_i mi (a_i - b_i 1) - m_kappa 1 = 0`` (j over the
    other equalities, i over the inequality rows).  With ``mean = sigma row + mid 1``
    (``RegimeModel.return_row``; a zero row takes 0) and divided by ``kappa > 0``, it is
    the stationarity at ``w`` with ``l0 sigma / kappa`` on the return row, ``lj /
    kappa``, ``mi / kappa`` and ``-(l0 (rf - mid) + sum_j lj b_j + sum_i mi b_i +
    m_kappa) / kappa`` on the full-investment row.  Complementary slackness scales the
    same way: ``mi (a_i y - b_i kappa) = kappa mi (a_i w - b_i)``.
    """
    _, b_eq, _, b_in = regime.system()
    _, mid, sigma = regime.return_row(mean)
    lam, mu = res.eq_multipliers / kappa, res.in_multipliers / kappa
    mu, m_kappa = mu[:-1], mu[-1]
    budget = -(lam[0] * (rf - mid) + lam[1:] @ b_eq[1:] + mu @ b_in + m_kappa)
    return np.concatenate([[budget], lam[1:], [lam[0] * sigma if sigma < math.inf else 0.0]]), mu


@dataclass(frozen=True, eq=False)
class Problem:
    """One regime's solves on a validated covariance, prepared once."""

    cov: np.ndarray            # validated and symmetrized, read-only
    cov_solve: np.ndarray      # cov plus the ridge applied, factorizable, read-only
    ridge: float
    free_solves: OrderedDict   # the covariance's free-asset solves, shared (_free_solve)
    hessian: np.ndarray        # of the solve variables, from 2 cov_solve, shared read-only
    regime: RegimeModel
    mean: np.ndarray | None
    rf: float
    model: str

    @classmethod
    def prepare(cls, cov, c: ConstraintSet, *, mean=None, rf: float = 0.0,
                model: str = MODEL_MM) -> Problem:
        """The problem of regime ``c`` on ``cov``.  Every problem on the same input bits
        shares the covariance's preparation, its validation, Cholesky test and ridge,
        its free-asset solves and its Hessians (``_prepared``, ``_free_solve``,
        ``_Prepared.hessian``), all read-only: a hit gives what a cold preparation
        would, bit for bit, so every output is the same.
        Threads that race on one covariance may each prepare it: a race repeats work,
        and never returns a wrong entry."""
        p = _prepared(cov)
        n = p.cov.shape[0]
        regime = regime_model(c, n)
        if mean is not None:
            mean = np.asarray(mean, dtype=float)
            if mean.shape != (n,):
                raise ValidationError("mean vector length does not match covariance")
            if not np.all(np.isfinite(mean)):
                raise ValidationError("mean vector contains non-finite entries")
        if not math.isfinite(rf):
            raise ValidationError(f"risk-free rate rf must be finite, got {rf}")
        return cls(p.cov, p.cov_solve, p.ridge, p.free_solves, p.hessian(regime.split), regime,
                   mean, float(rf), model)

    def _mean(self) -> np.ndarray:
        if self.mean is None:
            raise ValidationError("this objective requires the mean vector")
        return self.mean

    def stats(self, w) -> PortfolioStats:
        """Return, stdev and Sharpe of weights ``w`` (one portfolio, or one per row:
        the statistics are then arrays), as every solution reports them.  Each
        product is a stack of one-row matrix products, which numpy hands to BLAS
        a row at a time as it would one portfolio's vector: a row's statistics
        are bit for bit those of that portfolio alone (a matrix product is not)."""
        row = w[..., None, :]
        stdev = np.sqrt(np.maximum((row @ self.cov @ w[..., None])[..., 0, 0], 0.0))
        ret = sharpe = np.full_like(stdev, np.nan)
        if self.mean is not None:
            ret = (row @ self.mean[:, None])[..., 0, 0]
            sharpe = np.divide(ret - self.rf, stdev, out=np.zeros_like(stdev), where=stdev > 0.0)
        if w.ndim == 1:
            ret, stdev, sharpe = float(ret), float(stdev), float(sharpe)
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

    def _solve(self, A_eq, b_eq, rows, x0, fallback):
        return solve_qp(self.hessian, np.zeros(len(self.hessian)), A_eq, b_eq, rows, x0, fallback)

    def _free_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``cov_solve[free, free]^-1 rhs[free]``, zero on the pinned asset: the free
        assets' unnormalized minimum-variance (``rhs`` ones) or tangency portfolio, as a
        new array the caller may write.

        Every problem on one covariance shares its solves (``free_solves``), keyed by the
        pinned set and the bits of ``rhs``; the last ``_FREE_SOLVES`` are kept read-only,
        and a hit returns a copy.  The paper's table needs four per covariance: ones and
        mean - rf, each with and without c5's pinned asset, so c1-c4 share one LU per
        right-hand side.  Only results are kept, not LU factors.  Threads that race on
        one key may each solve it: a race repeats work, and never returns a wrong
        result."""
        r, solves = self.regime, self.free_solves
        key = (r.pinned.tobytes(), rhs.tobytes())
        with _CACHE_LOCK:
            z = solves.get(key)
            if z is not None:
                solves.move_to_end(key)
        if z is None:
            if not len(r.pinned):                   # every asset free: no gather
                z = np.linalg.solve(self.cov_solve, rhs)
            else:
                z = np.zeros(r.n)
                z[r.free] = np.linalg.solve(self.cov_solve.take(r.free, 0).take(r.free, 1),
                                            rhs[r.free])
            z.setflags(write=False)
            with _CACHE_LOCK:
                solves[key] = z
                while len(solves) > _FREE_SOLVES:
                    solves.popitem(last=False)
        return z.copy()

    def _check(self, w, target, multipliers) -> tuple[float, bool]:
        """The KKT certificate of weights ``w`` (one portfolio, or a stack) and whether they
        are feasible (``check_feasible``'s verdict), from one evaluation of the rows."""
        excess = self.regime.excess(w, alone=True)
        kkt = kkt_residual_weights(w, self.cov, self.regime.constraint, mean=self.mean,
                                   target=target, multipliers=multipliers, excess=excess)
        return kkt, bool(excess.max() <= PUBLIC_FEAS_TOL)

    def _solution(self, w, res, objective: str, target=None, multipliers=None) -> PortfolioSolution:
        multipliers = multipliers or (res.eq_multipliers, res.in_multipliers)
        kkt, feasible = self._check(w, target, multipliers)
        converged = bool(feasible and kkt <= KKT_TOL)
        return PortfolioSolution(
            weights=w, stats=self.stats(w), objective=objective, constraint=self.regime.constraint,
            kkt_residual=kkt, iterations=res.iterations, converged=converged,
            regularization=self.ridge,
        )

    def min_variance(self) -> PortfolioSolution:
        """Smallest variance under the regime.

        The engine (``qp.solve_qp``) runs its block exchange (block
        principal pivoting after Judice & Pires 1994 and Kim & Park 2011)
        from the free assets' unconstrained optimum ``cov_solve[free,
        free]^-1 1`` (``_free_solve``) normalized to sum to one, where
        Goldfarb & Idnani (1983) start their dual method: each round moves
        to a face's minimizer with one KKT solve, and counts in
        ``iterations``.  It runs on however far the start lies outside the
        set.  Where a face holds no point of the set, the engine's loop
        starts from that point mixed toward the centre as far as the rows
        hold (``RegimeModel.toward``).  Where the centre is the set's only
        point (``RegimeModel.one_point``), the loop starts there with no
        exchange.  Where the start holds no row tight or broken (c3, c5, and
        c2 where it lies inside the box) it is the minimizer on the
        equalities alone, and so the answer: the engine finds it stationary
        there and returns it with no KKT solve, and ``iterations`` is 0.
        """
        res = self._min_variance_qp
        return self._solution(self.regime.to_weights(res.x), res, OBJECTIVE_MIN_VARIANCE)

    @cached_property
    def _min_variance_qp(self):
        """The QP result of ``min_variance``, solved once: ``corner_path`` starts from it."""
        r = self.regime
        centre = r.to_weights(r.centre())           # raises when the set is empty
        A_eq, b_eq, _, _ = r.system()
        if r.one_point:                             # the loop starts at the answer
            return self._solve(A_eq, b_eq, r.inequalities, None, r.centre)
        w = self._free_solve(np.ones(r.n))
        w /= w.sum()
        return self._solve(A_eq, b_eq, r.inequalities, r.to_solve(w),
                           lambda: r.to_solve(r.toward(centre, w)))

    def target_return(self, target: float) -> PortfolioSolution:
        """Minimum variance at expected return ``target``.

        The start mixes the regime's centre with the return vertex on the
        target's side (``_target_qp``).
        """
        r = self.regime
        t, = self._targets([target])
        res = self._target_qp(t, r.to_weights(r.centre()))
        return self._solution(r.to_weights(res.x), res, OBJECTIVE_TARGET_RETURN, target=t)

    def _targets(self, targets) -> list[float]:
        """``targets`` as floats clipped into ``return_range``, or
        ``ValidationError`` for the first that is not finite and
        ``InfeasibleError`` for the first outside the range by more than
        ``1e-9 (1 + |target|)``.  The floats come first: a float32 target
        would round ``hi + slack`` to float32 and trace the path in float32."""
        self._mean()                                # raises without a mean
        t = np.asarray(targets, dtype=float)
        bad = ~np.isfinite(t)
        if bad.any():
            raise ValidationError(f"target return target must be finite, got {t[bad][0]}")
        lo, hi = self.return_range
        slack = 1e-9 * (1.0 + np.abs(t))
        bad = (t < lo - slack) | (t > hi + slack)
        if bad.any():
            raise InfeasibleError(
                f"target return {t[bad][0]:.10g} outside attainable interval "
                f"[{lo:.10g}, {hi:.10g}]"
            )
        return np.minimum(np.maximum(t, lo), hi).tolist()

    def _target_qp(self, t: float, anchor: np.ndarray):
        """The QP at return ``t`` (its row ``RegimeModel.return_row``'s, last), its loop started
        at the mix of feasible weights ``anchor`` with the return vertex on ``t``'s side that
        earns ``t``, with no exchange: the mix may break a row by rounding, which would start
        one.  ``target_return`` anchors it at the regime's centre, and ``corner_path`` at a
        degenerate corner, or at ``targets[0]`` off the minimum-variance start.  A zero
        return row (``sigma`` infinite) says nothing, and would make every KKT system
        singular: the engine solves without it, and its multiplier is 0."""
        r, mean = self.regime, self.mean
        a_ret = float(mean @ anchor)
        v = self.vertices[t >= a_ret]
        gap = float(mean @ v) - a_ret
        s = (t - a_ret) / gap if gap != 0.0 else 0.0
        A_eq, b_eq, _, _ = r.system()
        row, mid, sigma = r.return_row(mean)

        def start():
            return r.to_solve(anchor + s * (v - anchor))

        if sigma == math.inf:
            res = self._solve(A_eq, b_eq, r.inequalities, None, start)
            return replace(res, eq_multipliers=np.append(res.eq_multipliers, 0.0))
        return self._solve(np.vstack([A_eq, row]), np.append(b_eq, (t - mid) / sigma),
                           r.inequalities, None, start)

    def corner_path(self, targets) -> np.ndarray:
        """Minimum-variance weights at each of the increasing ``targets``, a row each,
        traced as one parametric path; each target is taken as ``target_return`` takes it
        (``_targets``).

        While the working set of the return-constrained QP stays fixed, its solution and
        multipliers are affine in the return row's right-hand side ``tau = (t - mid) /
        sigma`` (``RegimeModel.return_row``; Markowitz's critical line), and the path runs
        in ``tau``: its targets, steps, ties, corners and mix.  Where ``targets[0]`` is the
        minimum-variance return, the path starts from that solve's point, multipliers and
        working set (``_min_variance_qp``), the return row's multiplier zero; else with a
        QP at ``targets[0]`` (``_target_qp``) from the minimum-variance weights.  Each
        segment costs one reduced KKT solve, under a zero gradient with the return row's
        rate 1 as its only right-hand side (``reduced_kkt``): ``d(x, lam)/dtau``, one
        multiplier per row, zero off the working set.  Both are carried along it; the next
        corner is the nearest ``tau`` at which an inactive row reaches its bound or a
        working multiplier reaches zero, where that row joins or leaves the working set
        with a multiplier of exactly zero, and a bound that joins holds its variable
        exactly on it.  Each target in between is the mix of the two corners around it,
        all mixed as one array expression at the end.

        A QP at the next target, started from the corner, takes over at a degenerate
        corner: a zero-length step, several events within a relative 1e-12 of ``tau``, or
        working rows that fix the point and leave no direction (the direction solve misses
        the rate).  The path resumes from its point, multipliers and working set.  Where no
        event comes before the last target, the last segment ends there and the top is one
        more corner, with no solve: on that segment every working row stays tight and every
        working multiplier nonnegative, so the working set's point and multipliers at the
        top satisfy KKT.

        Each corner, and a segment's end where a QP takes over, is certified from its
        multipliers at the raw return read off the targets around its ``tau``, queued and
        checked as one stack before each QP and at the top; the first that fails raises
        ``ConvergenceError`` naming its target and residual.  On a segment every term of
        the certificate is a max-norm of a function affine in ``tau`` (the working rows
        keep zero slack), so a point between two corners has a residual of at most the
        larger of theirs.
        """
        r, mean, H = self.regime, self.mean, self.hessian
        targets = self._targets(targets)
        row, mid, sigma = r.return_row(mean)
        taus = [(t - mid) / sigma for t in targets]
        A_eq, m_eq = np.vstack([r.system()[0], row]), r.m_eq + 1
        rows_in = r.inequalities
        top = taus[-1]
        tie = 1e-12 * max(abs(taus[0]), abs(top))        # events this close coincide
        working = np.zeros(len(rows_in.b), dtype=bool)
        zero = np.zeros(len(H))                           # the direction's gradient
        rate = np.zeros(m_eq + len(rows_in.general))      # d b / dtau, then the general rows' zeros
        rate[m_eq - 1] = 1.0

        # every corner, in order: (point, tau, multipliers of each equality, then inequality row)
        corners, checked = [], 0

        def certify():
            """Certify the corners since the last call as one stack (``_check``); where
            it fails, the first corner failing alone raises."""
            nonlocal checked
            x, tau, lam = zip(*corners[checked:])
            checked = len(corners)
            w, t, lam = r.to_weights(np.array(x)), np.interp(tau, taus, targets), np.array(lam)
            eq, mu = lam[:, :m_eq], lam[:, m_eq:]
            kkt, feasible = self._check(w, t, (eq, mu))
            if feasible and kkt <= KKT_TOL:
                return
            for k, target in enumerate(t.tolist()):
                kkt, feasible = self._check(w[k], target, (eq[k], mu[k]))
                if not (feasible and kkt <= KKT_TOL):
                    raise ConvergenceError(f"frontier point at target return {target:.10g} failed "
                                           f"its KKT certificate (residual {kkt:.3g})")

        def mix():
            """Every target's point, mixed from the first corner at or above it and the
            one before as one elementwise array expression, so each as if mixed alone."""
            x, t = np.array([c[0] for c in corners]), np.array([c[1] for c in corners])
            tt = np.array(taus)
            b = np.searchsorted(t, tt)
            a = np.maximum(b - 1, 0)
            on = tt == t[b]                               # a corner's own target
            s = np.divide(tt - t[a], t[b] - t[a], out=np.zeros(len(tt)), where=~on)
            w = x[a] + s[:, None] * (x[b] - x[a])
            w[on] = x[b][on]
            return w

        t0, res = targets[0], self._min_variance_qp
        if t0 == float(mean @ r.to_weights(res.x)):       # bit for bit as stats
            res = replace(res, eq_multipliers=np.append(res.eq_multipliers, 0.0))
        else:
            res = self._target_qp(t0, r.to_weights(res.x))
        t0 = taus[0]
        while True:
            if res is not None:                           # a QP's point and multipliers stand
                working[:] = False
                working[list(res.active)] = True
                x, act = res.x, working.nonzero()[0]
                lam = np.concatenate([res.eq_multipliers, res.in_multipliers])
                corners.append((x, t0, lam))
                if t0 == top:
                    break
                res = None
            face = rows_in.face(act, A_eq)
            rhs = rate[:len(face[2])]
            dx, dlam, miss = reduced_kkt(H, zero, A_eq, rows_in, act, rhs, face)
            # working rows that fix the point leave no direction
            stuck = np.abs(miss).max() > 1e-9 * (1.0 + np.abs(dx).max())
            s, end = 0.0, top - t0
            if not stuck:
                # the next corner: an inactive row reaching its bound, a multiplier reaching zero
                hit, ahead = rows_in.reach(x, dx, working)
                dmu = dlam[m_eq:]
                fall = (dmu < -1e-12 * np.abs(dlam).max()).nonzero()[0]
                steps = np.concatenate([ahead, np.maximum(lam[m_eq:][fall], 0.0) / -dmu[fall]])
                s = float(steps.min(initial=end))
                if s >= end - tie:                        # no event before the top: the path ends there
                    corners.append((x + end * dx, top, lam + end * dlam))
                    break
                near = np.concatenate([hit, fall])[steps <= s + tie]
                if tie < s and len(near) == 1:            # one row joins or leaves, at multiplier 0
                    j = near[0]
                    x, t0, lam = x + s * dx, t0 + s, lam + s * dlam
                    lam[m_eq + j] = 0.0
                    if not working[j] and rows_in.bound[j]:   # a bound joins on its bound exactly
                        x[rows_in.var[j]] = rows_in.b[j] / rows_in.coef[j]
                    working[j] = not working[j]
                    act = working.nonzero()[0]
                    corners.append((x, t0, lam))
                    continue
            # a degenerate corner: the segment's end is one more corner; certify them all,
            # then a QP at the next target, started from that end
            if 0.0 < s:
                corners.append((x + s * dx, t0 + s, lam + s * dlam))
            certify()
            k = bisect_right(taus, corners[-1][1])
            t0, res = taus[k], self._target_qp(targets[k], r.to_weights(x + s * dx))
        certify()
        return r.to_weights(mix())

    def max_sharpe(self) -> PortfolioSolution:
        r, mean = self.regime, self._mean()
        r.centre()                                  # raises when the set is empty
        excess = mean - self.rf
        res = self._solve(*_homogenized(r, excess), *self._sharpe_start(excess))
        y = r.to_weights(res.x)
        kappa = float(y.sum())
        if kappa <= 1e-12 * (1.0 + float(np.abs(y).sum())):
            raise DegenerateSharpeError(
                "maximum Sharpe is approached only asymptotically (zero normalizer)"
            )
        w = y / kappa
        return self._solution(w, res, OBJECTIVE_MAX_SHARPE, target=float(mean @ w),
                              multipliers=_weight_multipliers(r, res, kappa, mean, self.rf))

    def _sharpe_start(self, excess):
        """The start of the homogenized problem and its fallback, for ``qp.solve_qp``.

        The start is the free assets' tangency portfolio ``cov_solve[free,
        free]^-1 excess`` (``_free_solve``) scaled to unit excess return,
        where it earns excess; the engine's block exchange runs from it, and
        in c3 and c5, where it breaks no row, it is the answer as it is, with
        no KKT solve.  The fallback is the centre where that is the set's
        only point (``RegimeModel.one_point``, where there is no start
        either), else the long-only fill, or failing that the highest-return
        vertex, scaled to unit excess return.  On a
        bounded set (c1, c2, c4) the vertex maximizes the excess return, so
        when it earns none there is no point: ``1'y = 0`` would force
        ``y = 0``.  On c3 and c5 the zero-investment pair long the best and
        short the worst free asset is one, unless all their excess returns are
        equal.
        """
        r = self.regime

        def fallback():
            order = r.free[np.argsort(-excess[r.free], kind="stable")]
            w = r.to_weights(r.centre()) if r.one_point else r.fill(order, 0.0)
            if float(excess @ w) <= 0.0:
                w = r.vertex(excess, highest=True)
            gain = float(excess @ w)
            if gain > 0.0:
                return r.to_solve(w) / gain
            best, worst = order[0], order[-1]
            spread = float(excess[best] - excess[worst])
            if r.bounded or spread <= 0.0:
                raise DegenerateSharpeError("no feasible portfolio earns a positive excess return")
            y = np.zeros(r.n)
            y[best], y[worst] = 1.0 / spread, -1.0 / spread
            return y

        if not r.one_point:
            z = self._free_solve(excess)
            denom = float(excess @ z)
            if denom > 0.0 and z.sum() > 0.0:       # the tangency earns excess
                return r.to_solve(z / denom), fallback
        return None, fallback


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
    if mean_v.ndim != 1:
        raise ValidationError(f"mean must be one vector, got shape {mean_v.shape}")
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
