"""Active-set QP engine against hand-solvable and library-checkable cases."""

import sys

import numpy as np
import pytest
from scipy.optimize import minimize

import portopt.qp
from conftest import dense_rows, random_spd
from portopt import ConstraintSet, solve_max_sharpe, solve_min_variance
from portopt.constraints import REGIMES, regime_model
from portopt.errors import ConvergenceError, InfeasibleError
from portopt.qp import _STALL_LIMIT, InequalityRows, find_feasible_point, solve_qp
from portopt.solver import KKT_TOL, Problem, _homogenized


def test_unconstrained_equality_qp():
    # min (x-1)'(x-1) s.t. sum x = 0 -> x = 1 - mean(1) = 0 shifted
    h = 2.0 * np.eye(3)
    g = -2.0 * np.ones(3)
    res = solve_qp(h, g, A_eq=np.ones((1, 3)), b_eq=np.zeros(1),
                   rows=InequalityRows(np.zeros((0, 3)), np.zeros(0)), x0=np.zeros(3))
    assert np.allclose(res.x, 0.0, atol=1e-12)


def test_simple_bound_activation():
    # min x'x s.t. sum x = 1, x2 <= 0.1 -> x = (0.45, 0.45, 0.1)
    h = 2.0 * np.eye(3)
    a_in = np.zeros((1, 3))
    a_in[0, 2] = 1.0
    res = solve_qp(h, np.zeros(3), A_eq=np.ones((1, 3)), b_eq=np.ones(1),
                   rows=InequalityRows(a_in, np.array([0.1])), x0=np.array([0.5, 0.5, 0.0]))
    assert np.allclose(res.x, [0.45, 0.45, 0.1], atol=1e-12)
    assert res.in_multipliers[0] > 0.0


def test_inactive_inequality_multiplier_zero():
    h = 2.0 * np.eye(2)
    a_in = np.array([[1.0, 0.0]])
    res = solve_qp(h, np.zeros(2), A_eq=np.ones((1, 2)), b_eq=np.ones(1),
                   rows=InequalityRows(a_in, np.array([10.0])), x0=np.array([0.5, 0.5]))
    assert res.in_multipliers[0] == 0.0
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-12)


def test_matches_scipy_on_random_boxes():
    # box rows alone, then box rows plus random dense rows that hold at the
    # equal-weight point with random slack
    rng = np.random.default_rng(3)
    for trial in range(16):
        n = rng.integers(3, 7)
        a = rng.standard_normal((n, n))
        h = a @ a.T / n + 0.5 * np.eye(n)
        g = rng.standard_normal(n)
        a_in = np.vstack([np.eye(n), -np.eye(n)])
        b_in = np.full(2 * n, 0.8)
        if trial >= 8:
            dense = rng.standard_normal((rng.integers(1, 2 * n), n))
            a_in = np.vstack([a_in, dense])
            b_in = np.concatenate([b_in, dense.sum(axis=1) / n + rng.uniform(0.0, 0.3, len(dense))])
        res = solve_qp(h, g, A_eq=np.ones((1, n)), b_eq=np.ones(1),
                       rows=InequalityRows(a_in, b_in), x0=np.full(n, 1.0 / n))

        def f(x):
            return 0.5 * x @ h @ x + g @ x

        sp = minimize(
            f, np.full(n, 1.0 / n), method="SLSQP",
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0},
                         {"type": "ineq", "fun": lambda x: b_in - a_in @ x}],
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert sp.success
        # active-set optimum must be at least as good as SLSQP's
        assert f(res.x) <= f(sp.x) + 1e-9
        assert abs(res.x.sum() - 1.0) < 1e-10
        assert np.all(a_in @ res.x <= b_in + 1e-10)


def test_infeasible_detected():
    a_in = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(InfeasibleError):
        find_feasible_point(np.ones((1, 2)), np.ones(1), a_in, np.array([-5.0, -5.0]), 2)


def test_find_feasible_point_respects_constraints():
    a_eq = np.array([[1.0, 1.0, 1.0]])
    a_in = -np.eye(3)
    x = find_feasible_point(a_eq, [1.0], a_in, np.zeros(3), 3)
    assert abs(x.sum() - 1.0) < 1e-9
    assert np.all(x >= -1e-9)


def test_determinism_same_inputs_same_output():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5))
    h = a @ a.T / 5 + 0.4 * np.eye(5)
    g = rng.standard_normal(5)
    a_in = -np.eye(5)
    args = dict(A_eq=np.ones((1, 5)), b_eq=np.ones(1), rows=InequalityRows(a_in, np.zeros(5)),
                x0=np.full(5, 0.2))
    r1 = solve_qp(h, g, **args)
    r2 = solve_qp(h, g, **args)
    assert np.array_equal(r1.x, r2.x)
    assert r1.active == r2.active


def _tie_problem():
    # min |x - (2, 2)|^2 with x1 <= 1 and x2 <= 1: from 0 both rows block at alpha = 0.5;
    # the loop starts there through the fallback, as a start would be exchanged first
    return dict(H=2.0 * np.eye(2), g=np.array([-4.0, -4.0]), A_eq=np.zeros((0, 2)),
                b_eq=np.zeros(0), rows=InequalityRows(np.eye(2), np.ones(2)), x0=None,
                fallback=lambda: np.zeros(2))


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(portopt.qp, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="iteration cap"):
        solve_qp(**_tie_problem())


def test_exact_tie_blocks_the_lowest_index_first():
    res = solve_qp(**_tie_problem())
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)
    assert res.active == (0, 1)
    assert res.iterations == 3     # step to row 0, zero step to row 1, optimality


def test_a_start_that_breaks_a_row_is_exchanged_under_the_linear_term():
    # the tie problem from (3, 0), which breaks row 0: the block exchange's
    # first face fixes x1 = 1, and its minimizer under g, (1, 2), breaks row
    # 1, which joins; the next face's point (1, 1) moves no row, so the solve
    # ends there in two KKT solves, with no loop iteration (under 0.5 x'Hx
    # alone the first face's point would be (1, 0))
    res = solve_qp(**{**_tie_problem(), "x0": np.array([3.0, 0.0])})
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)
    assert res.active == (0, 1) and res.iterations == 2
    assert np.allclose(res.in_multipliers, [2.0, 2.0], atol=1e-12)


def _solve_counting(monkeypatch, **problem):
    """Solve, counting least-squares fallbacks and the longest run of zero steps.

    The run is the ``stall`` counter of ``solve_qp``, read at every line of
    its frame; a drop made with ``stall > _STALL_LIMIT`` follows Bland's rule.
    """
    fallbacks, stalls = [0], [0]
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        fallbacks[0] += 1
        return lstsq(*args, **kwargs)

    def trace(frame, event, arg):
        if frame.f_code is not solve_qp.__code__:
            return None

        def line(frame, event, arg):
            stalls[0] = max(stalls[0], frame.f_locals.get("stall", 0))
            return line
        return line

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    sys.settrace(trace)
    try:
        res = solve_qp(**problem)
    finally:
        sys.settrace(None)
    return res, fallbacks[0], stalls[0]


def test_singular_kkt_and_blands_rule(monkeypatch):
    # 40 copies of -x1 <= 0, all active at the start, and dropping them one
    # by one is a run of more than 30 zero steps (Bland's rule).  Bound rows
    # fix their variable instead of entering the KKT matrix, so it stays
    # regular: no least-squares fallback (general-row copies start as one, below)
    res, fallbacks, stall = _solve_counting(
        monkeypatch, H=2.0 * np.eye(3), g=np.array([-2.0, 0.0, 0.0]),
        A_eq=np.ones((1, 3)), b_eq=np.ones(1),
        rows=InequalityRows(np.tile([-1.0, 0.0, 0.0], (40, 1)), np.zeros(40)),
        x0=None, fallback=lambda: np.array([0.0, 0.5, 0.5]))
    assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-12)
    assert res.active == ()
    assert res.iterations == 42    # 40 drops, one step, optimality
    assert fallbacks == 0
    assert stall > _STALL_LIMIT + 1  # some drop was made past the limit


def test_blands_rule_drops_the_lowest_index_after_the_stall_limit(monkeypatch):
    # 40 bounds -(1 + k/10) x1 <= 0, k = 0..39, all active at the start, as in the
    # test above: their multipliers share x1's stationarity in proportion to the
    # coefficients, so the most negative is the highest k's.  The first 31 drops
    # take it (39, 38, ..., 9); from then on the stall exceeds _STALL_LIMIT and
    # Bland's rule drops the first negative multiplier, the lowest index (0, 1,
    # 2, ...), where the most negative would drop 8, 7, 6
    faces, solve = [], portopt.qp.reduced_kkt

    def recording(H, grad, A_eq, rows, act, *args):
        faces.append(act)
        return solve(H, grad, A_eq, rows, act, *args)

    monkeypatch.setattr(portopt.qp, "reduced_kkt", recording)
    res = solve_qp(H=2.0 * np.eye(3), g=np.array([-2.0, 0.0, 0.0]),
                   A_eq=np.ones((1, 3)), b_eq=np.ones(1),
                   rows=InequalityRows(-(1.0 + np.arange(40.0)[:, None] / 10.0) * np.eye(3)[:1],
                                       np.zeros(40)),
                   x0=None, fallback=lambda: np.array([0.0, 0.5, 0.5]))
    assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-12)
    left = [int(k) for a, b in zip(faces, faces[1:]) for k in np.setdiff1d(a, b)]
    most_negative = _STALL_LIMIT + 1
    assert left == list(range(39, 39 - most_negative, -1)) + list(range(40 - most_negative))


def test_dependent_general_rows_start_as_one(monkeypatch):
    # 40 copies of the general row -x1 - x2 <= 0, all active at the start:
    # only the first enters the working set, so the KKT matrix is regular
    # from the start (no least-squares fallback); the other 39 never block,
    # since every step keeps the row or leaves it
    res, fallbacks, stall = _solve_counting(
        monkeypatch, H=2.0 * np.eye(3), g=np.array([-2.0, 0.0, 0.0]),
        A_eq=np.ones((1, 3)), b_eq=np.ones(1),
        rows=InequalityRows(np.tile([-1.0, -1.0, 0.0], (40, 1)), np.zeros(40)),
        x0=None, fallback=lambda: np.array([0.0, 0.0, 1.0]))
    assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-12)
    assert res.active == ()
    assert res.iterations == 4     # a step along the row, its drop, a step, optimality
    assert fallbacks == 0
    assert stall == 1


def test_plainly_independent_start_rows_take_no_rank_test(monkeypatch, markets):
    # on the bundled MM data, the engine loop of c1 maximum Sharpe starts
    # from the block exchange's point with the leverage row working, and at
    # weight_bound 0.2 that of c2 maximum Sharpe with five homogenized box
    # rows; the independence sweep takes no SVD there, nor where all N
    # homogenized rows of c2 at 1/N start working (N = 100)
    from perfbench.universe import make_universe

    svds, general = [0], []
    start = portopt.qp._independent_start

    def recording(working, A_eq, rows):
        general.append(int(np.count_nonzero(working & ~rows.bound)))
        return start(working, A_eq, rows)

    def counting(f):
        def call(*args, **kwargs):
            svds[0] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(portopt.qp, "_independent_start", recording)
    for name in ("svd", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    cov, mean, rf, _ = markets["bundled-mm"]
    for c in (ConstraintSet("c1"), ConstraintSet("c2", weight_bound=0.2)):
        assert solve_max_sharpe(cov, mean, rf, c).converged
    assert general == [1, 5]
    u = make_universe(100, 240, 1)
    assert solve_max_sharpe(u.mm.cov, u.mm.mean, u.rf,
                            ConstraintSet("c2", weight_bound=0.01)).converged
    assert general[2:] == [100]
    assert svds[0] == 0


def _reference_start(working, A_eq, A_in):
    """The greedy rank test, as the oracle of ``_independent_start``: in
    index order, a working general row stays when, over the variables no
    working bound fixes, it raises the rank of the equalities and of the
    rows kept before it (one SVD per row)."""
    def rank(M):
        return int(np.linalg.matrix_rank(M)) if M.size else 0

    nonzero = A_in != 0.0
    bound = nonzero.sum(axis=1) == 1
    free = ~nonzero[working & bound].any(axis=0)
    kept = A_eq[:, free]
    for j in (working & ~bound).nonzero()[0]:
        trial = np.vstack([kept, A_in[j, free]])
        if rank(trial) > rank(kept):
            kept = trial
        else:
            working[j] = False


def _start_systems():
    """Seeded ``(A_eq, A_in, working)`` systems whose rows are dependent
    exactly or independent by a clear margin."""
    rng = np.random.default_rng(27)
    for _ in range(6):
        n = int(rng.integers(4, 12))
        # duplicated rows and scaled copies, with a working bound on x0
        base = rng.standard_normal((3, n))
        A_in = np.vstack([base[0], np.eye(n)[0], base[1], -2.5 * base[0], base[0],
                          base[2], 1e3 * base[1], 1e-3 * base[2]])
        yield np.ones((1, n)), A_in, np.ones(len(A_in), dtype=bool)
        # rows that sum to zero: c2's homogenized boxes y_i - 1'y / n <= 0
        # at weight bound 1/n, under a unit-excess row
        yield (rng.standard_normal((1, n)), np.eye(n) - 1.0 / n,
               np.ones(n, dtype=bool))
        # rows in the span of the equalities, a zero row, rows that differ
        # only on a variable a working bound fixes, and a row off the mask
        A_eq = rng.standard_normal((2, n))
        r = rng.standard_normal(n)
        shifted = r.copy()
        shifted[1] += 3.0
        A_in = np.vstack([rng.standard_normal(2) @ A_eq, np.zeros(n), r,
                          -np.eye(n)[1], shifted, 4.0 * A_eq[1] - A_eq[0], r + A_eq[0]])
        working = np.ones(len(A_in), dtype=bool)
        working[-1] = False
        yield A_eq, A_in, working
        # no equalities at all
        A_in = rng.standard_normal((n + 2, n))
        A_in[3] = A_in[0] - 2.0 * A_in[1]
        yield np.zeros((0, n)), A_in, np.ones(n + 2, dtype=bool)
        # rows independent of those before them by 1e-6 relative, or
        # dependent exactly, at row scales from 1e-3 to 1e3
        m = n - 1
        A_eq = rng.standard_normal((1, n))
        A_in = rng.standard_normal((m, n))
        for j in range(1, m):
            span = np.vstack([A_eq, A_in[:j]])
            combo = rng.standard_normal(len(span)) @ span
            if rng.random() < 0.5:
                q, _ = np.linalg.qr(span.T)
                z = rng.standard_normal(n)
                z -= q @ (q.T @ z)
                combo += 1e-6 * np.linalg.norm(combo) * z / np.linalg.norm(z)
            A_in[j] = combo
        A_in *= 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
        yield A_eq, A_in, np.ones(m, dtype=bool)


def test_independent_start_keeps_the_rows_the_rank_test_keeps():
    # the one-sweep independence test and the greedy rank test give the same
    # mask wherever the rows are dependent exactly or independent clearly,
    # and each of the five kinds of system has rows cleared
    cleared = np.zeros(5, dtype=int)
    for i, (A_eq, A_in, working) in enumerate(_start_systems()):
        expected = working.copy()
        _reference_start(expected, A_eq, A_in)
        got = working.copy()
        portopt.qp._independent_start(got, A_eq, InequalityRows(A_in, np.zeros(len(A_in))))
        assert np.array_equal(got, expected), (A_eq, A_in)
        cleared[i % 5] += np.count_nonzero(working & ~got)
    assert cleared.all()


def test_multipliers_are_indexed_by_row(monkeypatch):
    # c1 minimum variance at leverage cap 1.3 on a seeded N = 11 universe: the
    # last KKT solve's face holds bounds and the leverage row.  Its multipliers
    # are the equalities', then one per inequality row, exactly zero off the
    # working rows, and the answer's in_multipliers are that tail clipped at zero
    from perfbench.universe import make_universe

    solves, solve = [], portopt.qp.reduced_kkt

    def recording(H, grad, A_eq, rows, act, *args):
        p, lam, miss = solve(H, grad, A_eq, rows, act, *args)
        solves.append((rows, act, lam))
        return p, lam, miss

    monkeypatch.setattr(portopt.qp, "reduced_kkt", recording)
    problem = Problem.prepare(make_universe(11, 240, 1).mm.cov, ConstraintSet("c1", leverage_cap=1.3))
    res = problem._min_variance_qp
    A_eq, _, A_in, _ = problem.regime.system()
    rows, act, lam = solves[-1]
    assert rows.bound[act].any() and not rows.bound[act].all()  # bounds and the leverage row
    assert lam.shape == (len(A_eq) + len(A_in),)
    off = np.ones(len(A_in), dtype=bool)
    off[act] = False
    assert np.all(lam[len(A_eq):][off] == 0.0)
    assert res.active == tuple(act.tolist())
    assert np.array_equal(res.in_multipliers, np.maximum(lam[len(A_eq):], 0.0))


def test_reduced_kkt_returns_the_miss_of_its_rows():
    # the third value of reduced_kkt is A p - rhs over the face's system rows
    # (the equalities, then the working general rows), the residual its KKT
    # solve formed: the product taken afresh, to rounding, on a face with a
    # general row and on one whose bounds fix every variable, where the step
    # is zero and the miss is -rhs
    rows = InequalityRows(np.vstack([np.eye(3), [[1.0, 2.0, 0.0]]]), np.array([0.5, 0.5, 0.5, 1.0]))
    A_eq, rhs = np.ones((1, 3)), np.array([0.3, -0.2])
    H, grad = np.diag([1.0, 2.0, 3.0]), np.array([0.1, -0.4, 0.2])
    for act, system in ((np.array([0, 3]), 2), (np.array([0, 1, 2]), 1)):
        face = rows.face(act, A_eq)
        p, _, miss = portopt.qp.reduced_kkt(H, grad, A_eq, rows, act, rhs[:system], face)
        assert miss.shape == (system,)
        assert np.abs(miss - (face[2].dot(p) - rhs[:system])).max() <= 1e-15
    assert np.all(p == 0.0) and np.array_equal(miss, -rhs[:1])


def test_reduced_kkt_moves_the_gradient_to_the_steps_end():
    # given moved, reduced_kkt writes the gradient at the step's end, grad + H p,
    # to rounding: from the free rows on a face with a working bound, and from
    # the stationarity rows of its residual on faces without one
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    H, grad = a @ a.T + np.eye(5), rng.standard_normal(5)
    rows = InequalityRows(np.vstack([np.eye(5), rng.standard_normal((1, 5))]), np.full(6, 0.3))
    A_eq, rhs = np.ones((1, 5)), np.array([0.2, -0.1])
    for act in (np.array([0, 5]), np.array([1]), np.array([5]), np.zeros(0, dtype=int)):
        system = len(rows.face(act, A_eq)[2])
        moved = np.full(5, np.nan)
        p, _, _ = portopt.qp.reduced_kkt(H, grad, A_eq, rows, act, rhs[:system], None, moved)
        assert np.abs(moved - (grad + H @ p)).max() <= 1e-14 * (1.0 + np.abs(grad).max()), act


def test_max_sharpe_at_a_one_point_set_terminates():
    # c2 at weight_bound = 1/N leaves equal weights as the only portfolio;
    # the homogenized rows y_i - 1'y / 4 <= 0 are all active there and sum
    # to the zero row, so with all four working every KKT system is
    # singular: the solve must start from three of them and terminate
    rng = np.random.default_rng(115)
    cov = random_spd(rng, 4, 1e-3)
    mean = 1e-2 * rng.normal(size=4)
    sol = solve_max_sharpe(cov, mean, 0.0, ConstraintSet("c2", weight_bound=0.25))
    assert sol.converged and sol.kkt_residual <= KKT_TOL
    assert np.allclose(sol.weights, 0.25, rtol=0.0, atol=1e-15)
    assert sol.iterations <= 10


def test_multipliers_certify_their_point():
    # random box-bounded QPs with a dense row, and x0 >= 0 written as two to
    # four scaled copies of one bound row, active from the start: the
    # returned multipliers must close stationarity (the copies share x0's
    # multiplier, none carries all of it), be nonnegative and vanish off
    # the active rows
    rng = np.random.default_rng(8)
    for _ in range(24):
        n = int(rng.integers(3, 7))
        a = rng.standard_normal((n, n))
        h = a @ a.T / n + 0.3 * np.eye(n)
        g = rng.standard_normal(n)
        g[0] += 3.0                                   # keeps x0 on its bound
        copies = -rng.uniform(0.5, 3.0, (int(rng.integers(2, 5)), 1)) * np.eye(n)[:1]
        dense = rng.standard_normal((1, n))
        x0 = np.append(0.0, np.full(n - 1, 1.0 / (n - 1)))
        a_in = np.vstack([np.eye(n), -np.eye(n), copies, dense])
        b_in = np.concatenate([np.full(2 * n, 0.8), np.zeros(len(copies)), dense @ x0 + 0.2])
        a_eq = np.ones((1, n))
        res = solve_qp(h, g, A_eq=a_eq, b_eq=np.ones(1), rows=InequalityRows(a_in, b_in), x0=x0)
        assert set(range(2 * n, 2 * n + len(copies))) <= set(res.active)
        mu = res.in_multipliers
        stationarity = h @ res.x + g + a_eq.T @ res.eq_multipliers + a_in.T @ mu
        assert np.abs(stationarity).max() <= 1e-10 * (1.0 + np.abs(g).max())
        assert np.all(mu >= 0.0)
        assert np.all(np.delete(mu, res.active) == 0.0)
        assert np.abs(mu * (b_in - a_in @ res.x)).max() <= 1e-12


@pytest.mark.parametrize("order", [(0.0, 0.8), (0.8, 0.0)], ids=["tight-first", "tight-last"])
def test_bounds_on_one_side_of_a_variable_keep_the_answer(order):
    # x0 >= 0 and x0 >= -0.8 in a box |x_i| <= 5, sum x = 1: the start
    # (-2, 1.5, 1.5) breaks both, so both join the first face, which can fix
    # x0 at only one of them; a face point off a working row ends the
    # exchange like a face without a point, and the loop runs from the
    # fallback to the answer (0, 0.5, 0.5), where x0 >= 0 carries 9.5
    a_in = np.vstack([-np.eye(3)[:1], -np.eye(3)[:1], np.eye(3), -np.eye(3)])
    b_in = np.concatenate([order, np.full(6, 5.0)])
    res = solve_qp(np.eye(3), np.array([10.0, 0.0, 0.0]), np.ones((1, 3)), np.ones(1),
                   InequalityRows(a_in, b_in), x0=np.array([-2.0, 1.5, 1.5]),
                   fallback=lambda: np.full(3, 1.0 / 3))
    assert np.allclose(res.x, [0.0, 0.5, 0.5], atol=1e-12)
    assert np.all(a_in @ res.x <= b_in + 1e-12)
    mu = res.in_multipliers
    assert np.abs(mu * (b_in - a_in @ res.x)).max() <= 1e-12
    assert np.isclose(mu[order.index(0.0)], 9.5, atol=1e-12)


def _dense_reach(A, b, x, p, working, scale):
    """The ratio test over the dense products ``A @ p`` and ``b - A @ x``."""
    d = A @ p
    cand = (~working & (d > 1e-13 * scale * (1.0 + np.abs(p).max()))).nonzero()[0]
    return cand, np.maximum(b - A @ x, 0.0)[cand] / d[cand]


@pytest.mark.parametrize("n", [1, 2, 11, 50])
def test_inequality_rows_equal_the_dense_product(n):
    # every regime's inequality rows and their homogenized (maximum-Sharpe)
    # rows, read through InequalityRows: a bound's product equals the dense
    # A_in @ v bit for bit for any v, and so does every row where the sums
    # are exact (integer v); a general row's own product may sum in another
    # order than the dense one, so real v gets the two orders' rounding
    # bound there (2 k eps |a| . |v| over k terms).  The ratio test reach
    # returns the dense test's rows and ratios bit for bit where the sums
    # are exact, under random working masks, and for real x and p it is bit
    # for bit the test over rows.dot that the loop and the corner path ran
    rng = np.random.default_rng(n)
    for regime in REGIMES:
        model = regime_model(ConstraintSet(regime, market_index=0 if regime == "c5" else None), n)
        homogenized = _homogenized(model, rng.normal(size=n))[2]
        for A, b in (model.system()[2:], (dense_rows(homogenized), homogenized.b)):
            rows = InequalityRows(A, b)
            assert np.array_equal(rows.scale, 1.0 + np.abs(A).max(axis=1, initial=0.0))
            for v in (rng.integers(-4, 5, A.shape[1]).astype(float),
                      rng.normal(size=A.shape[1]) * 10.0 ** rng.integers(-6, 3, A.shape[1])):
                v[rng.random(len(v)) < 0.3] = 0.0
                got, dense = rows.dot(v), A @ v
                assert np.array_equal(got[rows.bound], dense[rows.bound]), regime
                if np.all(v == np.round(v)):
                    assert np.array_equal(got, dense), regime
                else:
                    room = 2 * A.shape[1] * np.finfo(float).eps * (np.abs(A) @ np.abs(v))
                    assert np.all(np.abs(got - dense) <= room), regime
            for _ in range(4):
                working = rng.random(len(b)) < 0.3
                x, p = (rng.integers(-3, 4, A.shape[1]).astype(float) for _ in range(2))
                cand, ratio = rows.reach(x, p, working)
                ref_cand, ref_ratio = _dense_reach(A, b, x, p, working, rows.scale)
                assert np.array_equal(cand, ref_cand) and np.array_equal(ratio, ref_ratio), regime
                # p's entries spread across the threshold 1e-13 scale (1 + |p|)
                x, p = rng.normal(size=A.shape[1]), rng.normal(size=A.shape[1])
                p *= 10.0 ** rng.integers(-15, 1, A.shape[1])
                d, room = rows.dot(p), np.maximum(b - rows.dot(x), 0.0)
                ref_cand = (~working & (d > 1e-13 * rows.scale * (1.0 + np.abs(p).max()))).nonzero()[0]
                cand, ratio = rows.reach(x, p, working)
                assert np.array_equal(cand, ref_cand), regime
                assert np.array_equal(ratio, room[cand] / d[cand]), regime
