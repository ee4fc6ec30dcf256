"""Dense primal active-set solver for small convex quadratic programs.

Solves ``min 0.5 x'Hx + g'x`` subject to ``A_eq x = b_eq`` and
``A_in x <= b_in``.  Each iteration solves the KKT system of the working
set directly, so the returned point satisfies the active constraints and
first-order conditions to linear-algebra precision; ties are broken by
smallest index, making the method deterministic for fixed inputs.

Without a start point, ``find_feasible_point`` builds one: the
least-squares solution of the equalities, moved onto the inequalities by
an elastic phase-1 that this same method solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError

_STALL_LIMIT = 30          # consecutive zero steps before switching to Bland's rule
_ELASTIC_DELTA = 1e-9      # proximal weight of the elastic phase-1
_FEAS_TOL = 1e-9           # phase-1 verdict, relative to the right-hand sides


@dataclass(frozen=True)
class QPResult:
    x: np.ndarray
    eq_multipliers: np.ndarray
    in_multipliers: np.ndarray   # full length, zero on inactive rows
    active: tuple[int, ...]      # active inequality rows at the solution
    iterations: int
    converged: bool


def _as_matrix(a, n: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, n))
    m = np.atleast_2d(np.asarray(a, dtype=float))
    return m.reshape((0, n)) if m.size == 0 else m


def _as_vector(b) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    return np.atleast_1d(np.asarray(b, dtype=float))


def find_feasible_point(A_eq, b_eq, A_in, b_in, n: int) -> np.ndarray:
    """A well-scaled feasible point, or ``InfeasibleError``.

    Starts from the least-squares solution of the equalities.  With
    inequalities present it then solves the elastic problem

        min 1's + delta/2 (|x|^2 + |s|^2)
        s.t. A_eq x = b_eq,  A_in x - s <= b_in,  s >= 0

    from that point with ``s = max(A_in x - b_in, 0)``; the constraints are
    consistent exactly when the optimal ``s`` vanishes.  The small proximal
    term keeps the phase-1 bounded and its point well scaled even on
    unbounded feasible sets.
    """
    A_eq = _as_matrix(A_eq, n)
    b_eq = _as_vector(b_eq)
    A_in = _as_matrix(A_in, n)
    b_in = _as_vector(b_in)
    m_eq, m_in = A_eq.shape[0], A_in.shape[0]
    x = np.zeros(n)
    if m_eq:
        x, *_ = np.linalg.lstsq(A_eq, b_eq, rcond=None)
        if np.max(np.abs(A_eq @ x - b_eq), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(b_eq), initial=0.0)):
            raise InfeasibleError("equality constraints are inconsistent")
    if not m_in:
        return x
    s = np.maximum(A_in @ x - b_in, 0.0)
    res = solve_qp(
        _ELASTIC_DELTA * np.eye(n + m_in),
        np.concatenate([np.zeros(n), np.ones(m_in)]),
        np.hstack([A_eq, np.zeros((m_eq, m_in))]), b_eq,
        np.block([[A_in, -np.eye(m_in)], [np.zeros((m_in, n)), -np.eye(m_in)]]),
        np.concatenate([b_in, np.zeros(m_in)]),
        x0=np.concatenate([x, s]),
    )
    x = res.x[:n]
    if np.max(A_in @ x - b_in) > _FEAS_TOL * (1.0 + np.max(np.abs(b_in))):
        raise InfeasibleError("constraint set is infeasible")
    return x


def _solve_kkt(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    try:
        sol = np.linalg.solve(K, rhs)
        if np.max(np.abs(K @ sol - rhs), initial=0.0) <= 1e-7 * scale:
            return sol
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol


def solve_qp(H, g, A_eq=None, b_eq=None, A_in=None, b_in=None,
             x0=None, max_iter: int = 10000) -> QPResult:
    """Minimize a convex quadratic under linear equalities/inequalities."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    n = H.shape[0]
    A_eq = _as_matrix(A_eq, n)
    b_eq = _as_vector(b_eq)
    A_in = _as_matrix(A_in, n)
    b_in = _as_vector(b_in)
    m_eq, m_in = A_eq.shape[0], A_in.shape[0]

    x = find_feasible_point(A_eq, b_eq, A_in, b_in, n) if x0 is None else np.array(x0, dtype=float)

    row_scale = 1.0 + np.max(np.abs(A_in), axis=1, initial=0.0) if m_in else np.zeros(0)
    working: list[int] = []
    if m_in:
        resid = b_in - A_in @ x
        working = [int(i) for i in np.flatnonzero(resid <= 1e-9 * row_scale)]

    stall = 0
    quiet = 0
    f_prev = np.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        grad = H @ x + g
        act = sorted(working)
        A_act = np.vstack([A_eq, A_in[act]]) if (m_eq or act) else np.zeros((0, n))
        m_act = A_act.shape[0]
        K = np.block([
            [H, A_act.T],
            [A_act, np.zeros((m_act, m_act))],
        ])
        rhs = np.concatenate([-grad, np.zeros(m_act)])
        sol = _solve_kkt(K, rhs)
        p = sol[:n]
        lam = sol[n:]
        f = 0.5 * float(x @ (H @ x)) + float(g @ x)

        # KKT solve noise grows with the multiplier scale; steps below it
        # (or steps that have stopped moving the objective) count as zero
        step_tol = (1e-13 * (1.0 + np.max(np.abs(x), initial=0.0))
                    + 4e-13 * np.max(np.abs(lam), initial=0.0))
        if np.max(np.abs(p), initial=0.0) <= step_tol or quiet >= 5:
            mult_in_w = lam[m_eq:]
            gscale = 1.0 + float(np.max(np.abs(grad), initial=0.0))
            neg = [j for j, m in enumerate(mult_in_w) if m < -1e-9 * gscale]
            if not neg:
                eq_mult = lam[:m_eq].copy()
                in_mult = np.zeros(m_in)
                for j, row in enumerate(act):
                    in_mult[row] = max(mult_in_w[j], 0.0)
                return QPResult(x, eq_mult, in_mult, tuple(act), iterations, True)
            if stall > _STALL_LIMIT:
                drop = act[min(neg)]                      # Bland's rule
            else:
                drop = act[neg[int(np.argmin([mult_in_w[j] for j in neg]))]]
            working.remove(drop)
            stall += 1
            quiet = 0
            continue

        # ratio test over inactive inequalities
        alpha = 1.0
        blocking = -1
        if m_in:
            for i in range(m_in):
                if i in working:
                    continue
                d = float(A_in[i] @ p)
                if d <= 1e-13 * row_scale[i] * (1.0 + np.max(np.abs(p))):
                    continue
                room = max(float(b_in[i] - A_in[i] @ x), 0.0)
                a_i = room / d
                if a_i < alpha - 1e-15:
                    alpha = a_i
                    blocking = i
        x = x + alpha * p
        made_progress = f < f_prev - 1e-14 * (1.0 + abs(f))
        f_prev = min(f, f_prev)
        if blocking >= 0:
            working.append(blocking)
            stall = stall + 1 if alpha <= 1e-14 else 0
            quiet = 0
        else:
            stall = 0
            quiet = 0 if made_progress else quiet + 1

    raise ConvergenceError(
        f"active-set iteration cap {max_iter} reached ({len(working)} active rows)"
    )
