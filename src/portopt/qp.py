"""Dense primal active-set solver for small convex quadratic programs.

Solves ``min 0.5 x'Hx + g'x`` subject to ``A_eq x = b_eq`` and
``A_in x <= b_in``.  An inequality row with a single nonzero is a bound:
while it is in the working set it fixes its variable, so each iteration
solves the KKT system over the free variables only, with the equalities
and the working general rows, and reads each bound's multiplier off the
stationarity of its fixed coordinate.  The rest of an iteration's array
work follows the free block too: bounds are read as vectors
(``InequalityRows``), only the general rows go through a matrix product,
``H`` is touched only at the free rows, and ``H x`` is recomputed only
after a step.  The returned point satisfies the active constraints and
first-order conditions to linear-algebra precision; ties are broken by
smallest index, making the method deterministic for fixed inputs.

Every call passes all constraint arrays (empty ones included) and a
feasible start point; the solvers build theirs near the answer, some
through ``block_start``, which exchanges rows between faces of the working
rows, each solved by ``face_point`` for its minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError

_STALL_LIMIT = 30          # consecutive zero steps before switching to Bland's rule
_ELASTIC_DELTA = 1e-9      # proximal weight of the elastic phase-1
_FEAS_TOL = 1e-9           # phase-1 verdict, relative to the right-hand sides
_MAX_ITER = 10000          # active-set iterations before ``ConvergenceError``
_PATIENCE = 3              # block-start rounds without a new best before rows only join


@dataclass(frozen=True)
class QPResult:
    x: np.ndarray
    eq_multipliers: np.ndarray
    in_multipliers: np.ndarray   # full length, zero on inactive rows
    active: tuple[int, ...]      # active inequality rows at the solution
    iterations: int


def find_feasible_point(A_eq, b_eq, A_in, b_in, n: int) -> np.ndarray:
    """A well-scaled feasible point, or ``InfeasibleError``.

    Starts from the least-squares solution of the equalities.  With
    inequalities present it then solves the elastic problem

        min 1's + delta/2 (|x|^2 + |s|^2)
        s.t. A_eq x = b_eq,  A_in x - s <= b_in,  s >= 0

    from that point with ``s = max(A_in x - b_in, 0)``; the constraints are
    consistent exactly when the optimal ``s`` vanishes.  The small proximal
    term keeps the phase-1 bounded and its point well scaled even on
    unbounded feasible sets.  The arrays are as for ``solve_qp``.  The
    library no longer calls this: every solve starts in closed form.
    """
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
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    try:
        sol = np.linalg.solve(K, rhs)
        if np.abs(K @ sol - rhs).max(initial=0.0) <= 1e-7 * scale:
            return sol
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol


def bound_rows(A_in) -> tuple[np.ndarray, np.ndarray]:
    """Which inequality rows are bounds (a single nonzero), and each row's variable."""
    nonzero = A_in != 0.0
    return nonzero.sum(axis=1) == 1, nonzero.argmax(axis=1)


class InequalityRows:
    """The inequality rows ``A_in``, each bound read as a vector.

    ``dot(v)`` is ``A_in @ v``: a bound's product is ``coef * v[var]``,
    which the dense product equals bit for bit (it only adds exact zeros),
    and the general rows alone go through a matrix product.  ``scale`` is
    ``1 + max |a_ij|`` of each row.
    """

    def __init__(self, A_in):
        self.bound, self.var = bound_rows(A_in)
        self.general = (~self.bound).nonzero()[0]
        self.A_general = A_in[self.general]
        # a general row's entry here is its first nonzero, overwritten in both uses
        self.coef = A_in[np.arange(len(A_in)), self.var]
        self.scale = 1.0 + np.abs(self.coef)
        if self.general.size:
            self.scale[self.general] = 1.0 + np.abs(self.A_general).max(axis=1)

    def dot(self, v) -> np.ndarray:
        out = self.coef * v[self.var]
        if self.general.size:
            out[self.general] = self.A_general @ v
        return out


def _independent_start(working, A_eq, A_in, bound, var) -> None:
    """Drop from the boolean mask ``working`` the general rows that depend on
    the others, so that the first KKT system is regular.

    Working bounds only fix their variables (``reduced_kkt``), so only the
    working general rows can make the system singular: in index order, each
    stays when over the free variables it is independent of the equalities
    and of the rows kept before it.  The usual case, all of them plainly
    independent, needs no rank test: the Cholesky factor ``L`` of the rows'
    Gram matrix ``G`` bounds their squared condition number by
    ``trace(G) |L^-1|_F^2``, and below 1e12 that is far inside the rank
    tolerance of ``matrix_rank``.
    """
    general = (working & ~bound).nonzero()[0]
    if not general.size:
        return
    free = np.ones(A_in.shape[1], dtype=bool)
    free[var[working & bound]] = False
    kept = A_eq[:, free]
    rows = np.vstack([kept, A_in[general][:, free]])
    gram = rows @ rows.T
    try:
        with np.errstate(over="ignore", invalid="ignore"):    # inf or NaN fails the test
            inverse = np.linalg.inv(np.linalg.cholesky(gram))
            plain = np.trace(gram) * (inverse * inverse).sum() < 1e12
    except np.linalg.LinAlgError:
        plain = False
    if plain or _rank(rows) == len(rows):
        return
    rank = _rank(kept)
    for j in general:
        trial = np.vstack([kept, A_in[j, free]])
        if _rank(trial) > rank:
            kept, rank = trial, rank + 1
        else:
            working[j] = False


def _rank(M) -> int:
    """``np.linalg.matrix_rank``, and 0 for an empty matrix (numpy 1.x's
    takes the maximum of an empty spectrum there and raises)."""
    return int(np.linalg.matrix_rank(M)) if M.size else 0


def reduced_kkt(H, grad, A_eq, A_in, act, bound, var, rows=None):
    """Solve the KKT system of the working rows ``act`` over the free variables.

    The working bounds fix their variables; the system spans the free
    ones under the equalities and the working general rows, with right-hand
    side ``-grad`` on the free variables and ``rows`` (zeros by default) on
    the equalities, then the working general rows.  Returns ``(p, lam)``:
    the step, zero on the fixed variables, and the multipliers of the
    equalities, then of the working rows in ``act`` order.  A bound's
    multiplier closes the stationarity ``H p + grad + A' lam`` of its
    variable, and bounds on one variable share it in proportion to their
    coefficients (the least-norm split).  ``grad`` and ``rows`` may carry a
    trailing axis of right-hand sides, solved with one factorization.
    """
    n, m_eq = H.shape[0], A_eq.shape[0]
    on_bound = bound[act]
    general = ~on_bound
    fixing = act[on_bound]
    A_gen = np.concatenate([A_eq, A_in[act[general]]])   # equalities, then general rows
    if fixing.size:
        fixed = var[fixing]
        free = np.zeros(n, dtype=bool)
        free[fixed] = True
        free = (~free).nonzero()[0]
        H_rows = H[free]                 # rows, then columns: one pass over H's free rows
        H_f, A_f = H_rows[:, free], A_gen[:, free]
    else:
        free, H_f, A_f = slice(None), H, A_gen
    nf, m = H_f.shape[0], A_gen.shape[0]
    tail = grad.shape[1:]
    K = np.zeros((nf + m,) * 2)
    K[:nf, :nf] = H_f
    K[nf:, :nf] = A_f
    K[:nf, nf:] = A_f.T
    rhs = np.zeros((m,) + tail) if rows is None else rows
    sol = _solve_kkt(K, np.concatenate([-grad[free], rhs]))
    lam = np.empty((m_eq + act.size,) + tail)       # equalities, then the working set
    lam[:m_eq] = sol[nf:nf + m_eq]
    mult_in = lam[m_eq:]
    mult_in[general] = sol[nf + m_eq:]
    p = np.zeros((n,) + tail)
    p[free] = sol[:nf]
    if fixing.size:
        # H p from the free rows alone: H is symmetric and p is zero off them
        r = (H_rows.T @ sol[:nf] + grad + A_gen.T @ sol[nf:])[fixed]
        c = A_in[fixing, fixed]
        share = np.bincount(fixed, c * c, n)[fixed]
        if tail:
            c, share = c[:, None], share[:, None]
        mult_in[on_bound] = -r * c / share
    return p, lam


def face_point(H, x, A_eq, b_eq, A_in, b_in, rows: InequalityRows, act, rate=None):
    """The minimizer of ``0.5 x'Hx`` on the face where the equalities and
    the working rows ``act`` hold, from ``x``, with one reduced KKT solve.

    The working bounds are set exactly, and the gaps of the equalities and
    of the working general rows go on the right-hand side of
    ``reduced_kkt``, under the gradient ``H x``.  Returns ``(x, p, lam)``:
    the face's point, None where it leaves one of those gaps above 1e-12
    (the face has no point, or its system is nearly singular), then the
    step and the multipliers.  Given ``rate``, a second right-hand side over
    the same rows, ``p`` and ``lam`` get a second column: the solution of
    that system under a zero gradient, from the same factorization.
    """
    fixing, general = act[rows.bound[act]], act[~rows.bound[act]]
    x = x.copy()
    x[rows.var[fixing]] = b_in[fixing] / rows.coef[fixing]        # on the bounds exactly

    def gap(x):
        return np.concatenate([b_eq - A_eq @ x, b_in[general] - A_in[general] @ x])

    grad, rhs = H @ x, gap(x)
    if rate is not None:
        grad, rhs = np.column_stack([grad, np.zeros(len(x))]), np.column_stack([rhs, rate])
    p, lam = reduced_kkt(H, grad, A_eq, A_in, act, rows.bound, rows.var, rhs)
    x = x + (p if rate is None else p[:, 0])
    if np.abs(gap(x)).max(initial=0.0) > 1e-12:
        x = None
    return x, p, lam


def _within_reach(A_eq, b_eq, b_in, rows: InequalityRows, working) -> bool:
    """Whether every equality row can hold with the working bounds fixing
    their variables and the other bound rows boxing theirs (to 1e-12): each
    row's least and greatest value over that box must bracket its
    right-hand side."""
    k = rows.bound.nonzero()[0]
    at, upper, fixed = b_in[k] / rows.coef[k], rows.coef[k] > 0.0, working[k]
    lo, hi = np.full(A_eq.shape[1], -np.inf), np.full(A_eq.shape[1], np.inf)
    np.maximum.at(lo, rows.var[k[~upper]], at[~upper])
    np.minimum.at(hi, rows.var[k[upper]], at[upper])
    lo[rows.var[k[fixed]]] = hi[rows.var[k[fixed]]] = at[fixed]
    pos, neg = A_eq > 0.0, A_eq < 0.0          # a zero coefficient adds 0, not 0 * inf
    least = (A_eq * np.where(pos, lo, np.where(neg, hi, 0.0))).sum(axis=1)
    most = (A_eq * np.where(pos, hi, np.where(neg, lo, 0.0))).sum(axis=1)
    return bool(np.all((least <= b_eq + 1e-12) & (most >= b_eq - 1e-12)))


def block_start(H, x, A_eq, b_eq, A_in, b_in):
    """A feasible start for minimizing ``0.5 x'Hx`` by block principal
    pivoting from ``x``: ``(x, rounds)``, x None where a face has no point
    of the feasible set.

    The first face holds every row that ``x`` holds tight or breaks, at its
    bound; each round moves to its face's minimizer (``face_point``, one
    KKT solve).  Then every row the point breaks joins and every working
    row whose multiplier is below ``solve_qp``'s ``-1e-9 (1 + |H x|)``
    leaves, all at once (Judice & Pires 1994; Kim & Park 2011); where a
    general row's is, only general rows leave, since each bound's
    multiplier is read off the stationarity that carries it.  A round that
    does not lower the best count of broken rows plus leaving rows spends
    one of ``_PATIENCE`` rounds, a new best restores them, and a round that
    would move a single row spends them all; from then on rows only join,
    so the point is feasible within one round per row.  Where the first
    face's bounds leave an equality out of reach of the box the other bound
    rows allow (``_within_reach``), no face near ``x`` holds a point of the
    set, and the start ends without a solve.  Where ``x`` breaks an
    equality, at least one round runs.
    """
    m_eq, rows = len(b_eq), InequalityRows(A_in)
    excess = rows.dot(x) - b_in
    if np.all(excess <= 0.0) and np.abs(A_eq @ x - b_eq).max(initial=0.0) <= 1e-12:
        return x, 0
    working = excess >= 0.0                     # every tight or broken row, at its bound
    if not _within_reach(A_eq, b_eq, b_in, rows, working):
        return None, 0
    best, patience, rounds = np.inf, _PATIENCE, 0
    while True:
        act = working.nonzero()[0]
        rounds += 1
        x, _, lam = face_point(H, x, A_eq, b_eq, A_in, b_in, rows, act)
        if x is None:
            return None, rounds
        leave = np.zeros(len(b_in), dtype=bool)
        leave[act[lam[m_eq:] < -1e-9 * (1.0 + np.abs(H @ x).max())]] = True
        if np.any(leave & ~rows.bound):
            leave &= ~rows.bound
        join = ~working & (rows.dot(x) > b_in)
        moves = np.count_nonzero(join) + np.count_nonzero(leave)
        if moves < best:
            best, patience = moves, _PATIENCE
        else:
            patience -= 1
        if moves <= 1:
            patience = 0
        if patience <= 0:                       # rows only join
            if not join.any():
                return x, rounds
            leave[:] = False
        working = (working | join) & ~leave


def solve_qp(H, g, A_eq, b_eq, A_in, b_in, x0) -> QPResult:
    """Minimize a convex quadratic under linear equalities/inequalities.

    Every argument is a float array, a matrix without rows has shape
    ``(0, n)``, and ``x0`` must satisfy every row.  The working set is a
    boolean mask over the inequality rows.  Each iteration solves the KKT
    system of the working set over the free variables (``reduced_kkt``);
    the step is zero on the variables the working bounds fix.  A zero step
    either returns (no negative multiplier) or drops the most negative
    working row, and a nonzero step is cut by the ratio test at the
    nearest blocking row, the lowest index winning an exact tie.
    """
    m_eq = A_eq.shape[0]
    x = x0
    rows_in = InequalityRows(A_in)
    bound, var = rows_in.bound, rows_in.var
    room = np.maximum(b_in - rows_in.dot(x), 0.0)
    working = room <= 1e-9 * rows_in.scale
    _independent_start(working, A_eq, A_in, bound, var)
    blocking = 1e-13 * rows_in.scale

    stall = 0
    quiet = 0
    f_prev = np.inf
    Hx = None                      # H x, the gradient and max |x|: new only after a step

    for iterations in range(1, _MAX_ITER + 1):
        if Hx is None:
            Hx = H @ x
            grad = Hx + g
            x_max = np.abs(x).max()
        act = working.nonzero()[0]
        p, lam = reduced_kkt(H, grad, A_eq, A_in, act, bound, var)
        mult_in = lam[m_eq:]

        # KKT solve noise grows with the multiplier scale; steps below it
        # (or steps that have stopped moving the objective) count as zero
        step_tol = (1e-13 * (1.0 + x_max)
                    + 4e-13 * np.abs(lam).max(initial=0.0))
        p_max = np.abs(p).max()
        if p_max <= step_tol or quiet >= 5:
            gscale = 1.0 + float(np.abs(grad).max())
            neg = (mult_in < -1e-9 * gscale).nonzero()[0]
            if not neg.size:
                in_mult = np.zeros(working.size)
                in_mult[act] = np.maximum(mult_in, 0.0)
                return QPResult(x, lam[:m_eq].copy(), in_mult, tuple(act.tolist()),
                                iterations)
            # Bland's rule after a long stall, else the most negative multiplier
            working[act[neg[0] if stall > _STALL_LIMIT else mult_in.argmin()]] = False
            stall += 1
            quiet = 0
            continue

        f = 0.5 * float(x @ Hx) + float(g @ x)
        # ratio test over the rows outside the working set that p moves toward
        d = rows_in.dot(p)
        cand = (~working & (d > blocking * (1.0 + p_max))).nonzero()[0]
        ratio = np.concatenate([room[cand] / d[cand], (1.0,)])   # last: the full step
        k = ratio.argmin()                              # the lowest index wins an exact tie
        blocked = ratio[k] < 1.0 - 1e-15
        alpha = ratio[k] if blocked else 1.0
        x = x + alpha * p
        made_progress = f < f_prev - 1e-14 * (1.0 + abs(f))
        f_prev = min(f, f_prev)
        if blocked:
            j = cand[k]
            working[j] = True
            if bound[j]:       # land on the bound exactly, not a rounding away
                x[var[j]] = b_in[j] / rows_in.coef[j]
            stall = stall + 1 if alpha <= 1e-14 else 0
            quiet = 0
        else:
            stall = 0
            quiet = 0 if made_progress else quiet + 1
        room = np.maximum(b_in - rows_in.dot(x), 0.0)
        Hx = None

    raise ConvergenceError(
        f"active-set iteration cap {_MAX_ITER} reached ({np.count_nonzero(working)} active rows)"
    )
