"""Dense primal active-set solver for small convex quadratic programs.

Solves ``min 0.5 x'Hx + g'x`` subject to ``A_eq x = b_eq`` and
``A x <= b``.  An inequality row with a single nonzero is a bound:
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

Every call passes all constraint arrays (empty ones included) and a start
near the answer that may break rows: ``solve_qp`` exchanges rows between
faces from it (``face_point``), and iterates only where rows were still
leaving, a face had no point or there was no start.  Each round takes one
product with ``H``, the gradient at its start; the leave test reads the
gradient at the face's point as that one plus the ``H p`` its KKT solve
already forms (``reduced_kkt``'s ``moved``).  A start that holds no row
tight or broken and already minimizes on the equalities
(``_equality_minimizer``) is the answer as it is, with no KKT solve.
The loop and ``solver``'s corner path share one ratio test, ``reach``.
Every multiplier array is the equalities' multipliers, then one per
inequality row, zero off the working rows (``reduced_kkt``).  The
inequality rows come only as ``InequalityRows``, scanned once by whoever
builds them: a regime where it is built (``constraints.RegimeModel``), so
no solve scans a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError

_STALL_LIMIT = 30          # consecutive zero steps before switching to Bland's rule
_ELASTIC_DELTA = 1e-9      # proximal weight of the elastic phase-1
_FEAS_TOL = 1e-9           # phase-1 verdict, relative to the right-hand sides
_MAX_ITER = 10000          # active-set iterations before ``ConvergenceError``
_PATIENCE = 3              # block-exchange rounds without a new best before rows only join
# a start on the equalities whose stationarity residual, under their least-squares
# multipliers, is within this times 1 + |H x + g| is their face's minimizer
# (``_block_exchange``).  The 115 such starts of scripts/kkt_solve_counts.py read at
# most 3.5e-16 of it, and 6.4e-13 of |H x + g| alone outside the N > T universes, so
# they pass at any scale of the covariance; it is a thousandth of the
# -1e-9 (1 + |H x + g|) below which the engine reads a multiplier as negative
_START_TOL = 1e-12


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
    unbounded feasible sets.  Every argument is a float array, and a matrix
    without rows has shape ``(0, n)``.  The library no longer calls this:
    every solve starts in closed form.
    """
    A_eq, b_eq, A_in, b_in = (np.asarray(a, dtype=float) for a in (A_eq, b_eq, A_in, b_in))
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
        InequalityRows(np.block([[A_in, -np.eye(m_in)], [np.zeros((m_in, n)), -np.eye(m_in)]]),
                       np.concatenate([b_in, np.zeros(m_in)])),
        x0=np.concatenate([x, s]),
    )
    x = res.x[:n]
    if np.max(A_in @ x - b_in) > _FEAS_TOL * (1.0 + np.max(np.abs(b_in))):
        raise InfeasibleError("constraint set is infeasible")
    return x


def _solve_kkt(K: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sol, residual)``: ``K sol = rhs`` solved by LU, or by least squares where LU
    fails or misses by over ``1e-7 (1 + |rhs|)``, and the residual ``K sol - rhs``."""
    try:
        sol = np.linalg.solve(K, rhs)
        residual = K.dot(sol) - rhs
        miss = np.abs(residual).max(initial=0.0)
        # within 1e-7 (1 + |rhs|); a miss of at most 1e-7 is, whatever rhs is
        if miss <= 1e-7 or miss <= 1e-7 * (1.0 + float(np.abs(rhs).max(initial=0.0))):
            return sol, residual
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol, K.dot(sol) - rhs


class InequalityRows:
    """The inequality rows ``A x <= b``, each bound read as a vector.

    ``InequalityRows(A_in, b_in)`` scans the dense ``A_in`` once: a row with
    a single nonzero is a bound, ``coef * x[var] <= b``, and every other row
    is general, kept in row order in ``A_general``.  Every array it keeps is
    read-only (``b`` a copy of ``b_in``), so rows scanned once may be shared:
    a regime scans its rows where it is built (``constraints.RegimeModel``).
    ``dot(v)`` is ``A @ v``: a bound's product is ``coef * v[var]``, which
    the dense product equals bit for bit (it only adds exact zeros), and the
    general rows alone go through a matrix product.  ``scale`` is ``1 + max
    |a_ij|`` of each row.  ``reach(x, p, working)`` is the ratio test: the
    rows off the mask that ``p`` moves toward by over ``1e-13 scale (1 +
    |p|)``, and the multiple of ``p`` taking ``x`` to each (room >= 0).
    """

    def __init__(self, A_in, b_in):
        nonzero = A_in != 0.0                   # a bound has a single nonzero, on its variable
        bound = nonzero.sum(axis=1) == 1
        m, self.n = len(A_in), A_in.shape[1]    # rows, variables
        self.b, self.bound, self.A_general = np.array(b_in, dtype=float), bound, A_in[~bound]
        self.general = (~bound).nonzero()[0]
        self.slot = np.cumsum(~bound) - 1       # a general row's index in A_general
        # a general row's entries here are 0, overwritten in both uses
        self.var, self.coef = np.zeros(m, dtype=int), np.zeros(m)
        if self.n:                              # argmax needs a column; no column, no bound
            self.var[bound] = nonzero.argmax(axis=1)[bound]
            self.coef[bound] = A_in[bound.nonzero()[0], self.var[bound]]
        self.scale = 1.0 + np.abs(self.coef)
        self.scale[self.general] = 1.0 + np.abs(self.A_general).max(axis=1, initial=0.0)
        for a in (self.b, bound, self.A_general, self.general, self.slot, self.var, self.coef,
                  self.scale):
            a.setflags(write=False)

    def take(self, general) -> np.ndarray:
        """The general rows ``general`` (row indices), as a matrix."""
        return self.A_general.take(self.slot[general], 0)

    def face(self, act, A_eq):
        """The working rows ``act`` split: the bound rows, the general rows, and the
        face's system rows (``A_eq``, then the working general rows)."""
        on_bound = self.bound[act]
        general = act[~on_bound]
        return act[on_bound], general, (
            np.concatenate([A_eq, self.take(general)]) if general.size else A_eq)

    def dot(self, v) -> np.ndarray:
        out = self.coef * v[self.var]
        if self.general.size:
            out[self.general] = self.A_general.dot(v)
        return out

    def reach(self, x, p, working):
        d = self.dot(p)
        cand = (~working & (d > 1e-13 * self.scale * (1.0 + np.abs(p).max()))).nonzero()[0]
        return cand, np.maximum(self.b[cand] - self.dot(x)[cand], 0.0) / d[cand]


def _independent_start(working, A_eq, rows: InequalityRows) -> None:
    """Clear from the boolean mask ``working`` the general rows that depend on
    the others, so that the first KKT system is regular.

    Working bounds only fix their variables (``reduced_kkt``), so one sweep in
    index order over the equalities, then the working general rows, over the
    free variables, projects each row twice off the orthonormal rows kept
    before it (classical Gram-Schmidt run twice: Giraud, Langou & Rozloznik
    2005).  A row whose remainder exceeds ``1e3 max(m, n) eps`` times its norm
    (``m`` rows, ``n`` variables) is kept; a general row not kept leaves the mask.
    """
    general = (working & ~rows.bound).nonzero()[0]
    if not general.size:
        return
    free = np.ones(rows.n, dtype=bool)
    free[rows.var[working & rows.bound]] = False
    system = np.vstack([A_eq[:, free], rows.take(general)[:, free]])
    tol = 1e3 * max(system.shape) * np.finfo(float).eps
    Q, k = np.empty_like(system), 0             # the orthonormal rows kept, Q[:k]
    for i, r in enumerate(system):
        v = r - Q[:k].T @ (Q[:k] @ r)
        v -= Q[:k].T @ (Q[:k] @ v)
        norm = np.linalg.norm(v)
        if norm > tol * np.linalg.norm(r):
            Q[k] = v / norm
            k += 1
        elif i >= len(A_eq):
            working[general[i - len(A_eq)]] = False


def reduced_kkt(H, grad, A_eq, rows: InequalityRows, act, rhs=None, face=None, moved=None):
    """Solve the KKT system of the working rows ``act`` over the free variables.

    The working bounds fix their variables; the system spans the free
    ones under the equalities and the working general rows, with right-hand
    side ``-grad`` on the free variables and ``rhs`` (zeros by default) on
    the equalities, then the working general rows.  Returns ``(p, lam,
    miss)``: the step, zero on the fixed variables, the multipliers of the
    equalities, then one per inequality row, zero off ``act``, and how far
    the solve misses the system's rows, ``A p - rhs`` over those rows (the
    residual ``_solve_kkt`` formed; the corner path reads it).  A bound's
    multiplier closes the stationarity ``H p + grad + A' lam`` of its
    variable, and bounds on one variable share it in proportion to their
    coefficients (the least-norm split).  Under a zero ``grad``, with the
    rate of change of the right-hand sides as ``rhs``, the solution is the
    rate of change of the face's point and multipliers (``solver``'s corner
    path).  ``face`` is ``rows.face(act, A_eq)`` where the caller has it already.
    ``moved``, where given, receives the gradient at the step's end, ``grad + H p``,
    with no product with the whole of ``H``: ``H p`` from the free rows where bounds
    fix variables, else read off the stationarity rows of the solve's residual.
    """
    n, m_eq = H.shape[0], A_eq.shape[0]
    fixing, gen, A_gen = rows.face(act, A_eq) if face is None else face
    if fixing.size:
        fixed = rows.var[fixing]
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        free = free.nonzero()[0]
        H_rows = H.take(free, 0)         # rows, then columns: one pass over H's free rows
        H_f, A_f, g_f = H_rows.take(free, 1), A_gen.take(free, 1), grad.take(free, 0)
    else:
        free, H_f, A_f, g_f = slice(None), H, A_gen, grad
    nf, m = H_f.shape[0], A_gen.shape[0]
    K = np.zeros((nf + m,) * 2)
    K[:nf, :nf] = H_f
    K[nf:, :nf] = A_f
    K[:nf, nf:] = A_f.T
    rhs = np.zeros(m) if rhs is None else rhs
    sol, residual = _solve_kkt(K, np.concatenate([-g_f, rhs]))
    p = np.zeros(n)
    p[free] = sol[:nf]
    lam = np.zeros(m_eq + len(rows.b))  # the equalities, then every inequality row
    lam[:m_eq], lam[m_eq + gen] = sol[nf:nf + m_eq], sol[nf + m_eq:]
    if fixing.size:
        # H p from the free rows alone: H is symmetric and p is zero off them
        Hp = H_rows.T.dot(sol[:nf])
        r = (Hp + grad + A_gen.T.dot(sol[nf:])).take(fixed, 0)
        c = rows.coef[fixing]
        lam[m_eq + fixing] = -r * c / np.bincount(fixed, c * c, n)[fixed]
        if moved is not None:
            np.add(grad, Hp, out=moved)
    elif moved is not None:     # H p + grad + A' lam is the residual's first rows
        np.subtract(residual[:nf], A_gen.T.dot(sol[nf:]), out=moved)
    return p, lam, residual[nf:]


def face_point(H, x, A_eq, b_eq, rows: InequalityRows, act, g=0.0):
    """The minimizer of ``0.5 x'Hx + g'x`` on the face where the equalities and
    the working rows ``act`` hold, from ``x``, with one reduced KKT solve.

    The working bounds are set exactly, and the gaps of the equalities and
    of the working general rows go on the right-hand side of
    ``reduced_kkt``, under the gradient ``H x + g``, the one product with ``H``.
    Returns ``(x, lam, grad)``: the face's point, None where it leaves one of
    those gaps above 1e-12 (the face has no point, or its system is nearly
    singular), ``reduced_kkt``'s multipliers, one per equality, then per
    inequality row, and the gradient at the face's point (``reduced_kkt``'s
    ``moved``).
    """
    face = rows.face(act, A_eq)
    fixing, general, A_gen = face
    x = x.copy()
    x[rows.var[fixing]] = rows.b[fixing] / rows.coef[fixing]        # on the bounds exactly
    A_G, b_G = A_gen[len(A_eq):], rows.b[general]                   # the working general rows

    def gap(x):
        return np.concatenate([b_eq - A_eq.dot(x), b_G - A_G.dot(x)]) if general.size else b_eq - A_eq.dot(x)

    grad = np.empty(len(x))
    p, lam, _ = reduced_kkt(H, H.dot(x) + g, A_eq, rows, act, gap(x), face, grad)
    x = x + p
    return (None if np.abs(gap(x)).max(initial=0.0) > 1e-12 else x), lam, grad


def _equality_minimizer(H, g, x, A_eq, b_eq):
    """The least-squares multipliers of the equalities at ``x`` where ``x`` already
    is the minimizer of ``0.5 x'Hx + g'x`` on them, with no KKT solve, else None.

    ``x`` qualifies where it meets every equality within 1e-12 (``face_point``'s
    rule) and ``|H x + g + A_eq' lam|`` is within ``_START_TOL (1 + |H x + g|)``
    (max norms), ``lam`` the least-squares multipliers over the equality rows."""
    if np.abs(b_eq - A_eq.dot(x)).max(initial=0.0) > 1e-12:
        return None
    grad = H.dot(x) + g
    lam = np.linalg.lstsq(A_eq.T, -grad, rcond=None)[0] if len(b_eq) else np.zeros(0)
    miss = np.abs(grad + A_eq.T.dot(lam)).max()
    return lam if miss <= _START_TOL * (1.0 + np.abs(grad).max()) else None


def _block_exchange(H, g, x, A_eq, b_eq, rows: InequalityRows):
    """Block principal pivoting from ``x`` for ``solve_qp``: ``(x, rounds,
    face)``, x None where a face has no point of the feasible set, and
    ``face`` the multipliers (``reduced_kkt``'s layout) and working rows of
    a last round that moved no row, whose point is then the QP's answer
    (else None).

    The first face holds every row that ``x`` holds tight or breaks, at its
    bound.  Where it holds none and ``x`` already is the minimizer on the
    equalities (``_equality_minimizer``), ``x`` and its least-squares
    multipliers are the answer, with no round (c3, c5, and c2 where the start
    lies inside the box).  Else each round moves to its face's minimizer
    (``face_point``, one KKT solve); a point off a working row by over 1e-9
    scale (two bounds on one side of a variable) counts as none.  Then every
    row the point breaks joins and every working row whose multiplier is below
    ``solve_qp``'s ``-1e-9 (1 + |H x + g|)`` leaves, all at once (Judice &
    Pires 1994; Kim & Park 2011); where a general row's is, only general rows
    leave, since each bound's multiplier is read off the stationarity that
    carries it.  A round that does not lower the best count of broken rows plus
    leaving rows spends one of ``_PATIENCE`` rounds, a new best restores them,
    and a round that would move a single row spends them all; from then on rows
    only join, so the point is feasible within one round per row.  A first
    face whose bounds put an equality out of the box's reach still has a
    point: it breaks the bounds of free variables, and they join.
    """
    working = rows.dot(x) >= rows.b             # every tight or broken row, at its bound
    if not working.any():                       # the face of the equalities alone
        lam = _equality_minimizer(H, g, x, A_eq, b_eq)
        if lam is not None:
            return x.copy(), 0, (np.append(lam, np.zeros(len(rows.b))), working.nonzero()[0])
    best, patience, rounds = np.inf, _PATIENCE, 0
    while True:
        act = working.nonzero()[0]
        rounds += 1
        x, lam, grad = face_point(H, x, A_eq, b_eq, rows, act, g=g)
        Ax = None if x is None else rows.dot(x)
        if x is None or (np.abs(Ax - rows.b)[act] > 1e-9 * rows.scale[act]).any():
            return None, rounds, None
        leave = lam[len(b_eq):] < -1e-9 * (1.0 + np.abs(grad).max())
        if (leave & ~rows.bound).any():
            leave &= ~rows.bound
        join = ~working & (Ax > rows.b)
        moves = np.count_nonzero(join) + np.count_nonzero(leave)
        if not moves:
            return x, rounds, (lam, act)
        if moves < best:
            best, patience = moves, _PATIENCE
        else:
            patience -= 1
        if moves == 1:
            patience = 0
        if patience <= 0:                       # rows only join
            if not join.any():
                return x, rounds, None
            leave[:] = False
        working = (working | join) & ~leave


def _answer(x, lam, act, m_in: int, iterations: int) -> QPResult:
    """``x`` with the multipliers ``lam`` of the equalities, then of the ``m_in`` inequality rows."""
    m_eq = len(lam) - m_in
    in_mult = np.maximum(lam[m_eq:], 0.0)                      # clipped at zero
    return QPResult(x, lam[:m_eq].copy(), in_mult, tuple(act.tolist()), iterations)


def solve_qp(H, g, A_eq, b_eq, rows: InequalityRows, x0, fallback=None) -> QPResult:
    """Minimize a convex quadratic under linear equalities/inequalities.

    ``rows`` are the inequality rows ``A x <= b``, scanned by their builder
    (``InequalityRows``); every other argument is a float array, and ``A_eq``
    without rows has shape ``(0, n)``.  ``x0`` may break rows: the block
    exchange runs from it (``_block_exchange``), and the solve returns where
    its last round moved no row, or with no round where ``x0`` holds no row
    tight or broken and already minimizes on the equalities.  Else the
    active-set loop runs from its point, or where a face had no point (or
    ``x0`` is None), from ``fallback()``, a feasible point the caller
    supplies lazily (else ``x0``).  The loop's working set is a boolean
    mask over the inequality rows.  Each iteration solves the KKT system of
    the working set over the free variables (``reduced_kkt``); the step is
    zero on the variables the working bounds fix.  A zero step either
    returns (no negative multiplier) or drops the most negative working
    row, and a nonzero step is cut by the ratio test at the nearest blocking
    row, the lowest index winning an exact tie.  ``iterations`` counts every
    KKT solve, the exchange's rounds included (0 where ``x0`` is the answer
    as it is).
    """
    x, rounds, face = (None, 0, None) if x0 is None else _block_exchange(
        H, g, x0, A_eq, b_eq, rows)
    if face is not None:                        # the last round moved no row: the answer
        return _answer(x, *face, len(rows.b), rounds)
    if x is None:                               # no start, or a face without a point
        x = x0 if fallback is None else fallback()
    working = rows.dot(x) - rows.b >= -1e-9 * rows.scale
    _independent_start(working, A_eq, rows)

    stall = 0
    quiet = 0
    f_prev = np.inf
    Hx = None                      # H x, the gradient and max |x|: new only after a step

    for iterations in range(rounds + 1, rounds + _MAX_ITER + 1):
        if Hx is None:
            Hx = H.dot(x)
            grad = Hx + g
            x_max = np.abs(x).max()
        act = working.nonzero()[0]
        p, lam, _ = reduced_kkt(H, grad, A_eq, rows, act)
        mult_in = lam[len(b_eq):]

        # KKT solve noise grows with the multiplier scale; steps below it
        # (or steps that have stopped moving the objective) count as zero
        step_tol = (1e-13 * (1.0 + x_max)
                    + 4e-13 * np.abs(lam).max(initial=0.0))
        p_max = np.abs(p).max()
        if p_max <= step_tol or quiet >= 5:
            gscale = 1.0 + float(np.abs(grad).max())
            neg = (mult_in < -1e-9 * gscale).nonzero()[0]
            if not neg.size:
                return _answer(x, lam, act, working.size, iterations)
            # Bland's rule after a long stall, else the most negative multiplier
            working[neg[0] if stall > _STALL_LIMIT else mult_in.argmin()] = False
            stall += 1
            quiet = 0
            continue

        f = 0.5 * float(x.dot(Hx)) + float(g.dot(x))
        # ratio test over the rows outside the working set that p moves toward
        cand, ratio = rows.reach(x, p, working)
        ratio = np.append(ratio, 1.0)                   # last: the full step
        k = ratio.argmin()                              # the lowest index wins an exact tie
        blocked = ratio[k] < 1.0 - 1e-15
        alpha = ratio[k] if blocked else 1.0
        x = x + alpha * p
        made_progress = f < f_prev - 1e-14 * (1.0 + abs(f))
        f_prev = min(f, f_prev)
        if blocked:
            j = cand[k]
            working[j] = True
            if rows.bound[j]:          # land on the bound exactly, not a rounding away
                x[rows.var[j]] = rows.b[j] / rows.coef[j]
            stall = stall + 1 if alpha <= 1e-14 else 0
            quiet = 0
        else:
            stall = 0
            quiet = 0 if made_progress else quiet + 1
        Hx = None

    raise ConvergenceError(
        f"active-set iteration cap {_MAX_ITER} reached ({np.count_nonzero(working)} active rows)"
    )
