"""Active-set QP engine against hand-solvable and library-checkable cases."""

import numpy as np
import pytest
from scipy.optimize import minimize

from portopt.errors import ConvergenceError, InfeasibleError
from portopt.qp import find_feasible_point, solve_qp


def test_unconstrained_equality_qp():
    # min (x-1)'(x-1) s.t. sum x = 0 -> x = 1 - mean(1) = 0 shifted
    h = 2.0 * np.eye(3)
    g = -2.0 * np.ones(3)
    res = solve_qp(h, g, A_eq=np.ones((1, 3)), b_eq=np.zeros(1),
                   A_in=np.zeros((0, 3)), b_in=np.zeros(0), x0=np.zeros(3))
    assert res.converged
    assert np.allclose(res.x, 0.0, atol=1e-12)


def test_simple_bound_activation():
    # min x'x s.t. sum x = 1, x2 <= 0.1 -> x = (0.45, 0.45, 0.1)
    h = 2.0 * np.eye(3)
    a_in = np.zeros((1, 3))
    a_in[0, 2] = 1.0
    res = solve_qp(h, np.zeros(3), A_eq=np.ones((1, 3)), b_eq=np.ones(1),
                   A_in=a_in, b_in=np.array([0.1]), x0=np.array([0.5, 0.5, 0.0]))
    assert res.converged
    assert np.allclose(res.x, [0.45, 0.45, 0.1], atol=1e-12)
    assert res.in_multipliers[0] > 0.0


def test_inactive_inequality_multiplier_zero():
    h = 2.0 * np.eye(2)
    a_in = np.array([[1.0, 0.0]])
    res = solve_qp(h, np.zeros(2), A_eq=np.ones((1, 2)), b_eq=np.ones(1),
                   A_in=a_in, b_in=np.array([10.0]), x0=np.array([0.5, 0.5]))
    assert res.converged
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
                       A_in=a_in, b_in=b_in, x0=np.full(n, 1.0 / n))
        assert res.converged

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
    args = dict(A_eq=np.ones((1, 5)), b_eq=np.ones(1), A_in=a_in, b_in=np.zeros(5),
                x0=np.full(5, 0.2))
    r1 = solve_qp(h, g, **args)
    r2 = solve_qp(h, g, **args)
    assert np.array_equal(r1.x, r2.x)
    assert r1.active == r2.active


def _tie_problem():
    # min |x - (2, 2)|^2 with x1 <= 1 and x2 <= 1: from 0 both rows block at alpha = 0.5
    return dict(H=2.0 * np.eye(2), g=np.array([-4.0, -4.0]), A_eq=np.zeros((0, 2)),
                b_eq=np.zeros(0), A_in=np.eye(2), b_in=np.ones(2), x0=np.zeros(2))


def test_iteration_cap_raises():
    with pytest.raises(ConvergenceError, match="iteration cap"):
        solve_qp(**_tie_problem(), max_iter=1)


def test_exact_tie_blocks_the_lowest_index_first():
    res = solve_qp(**_tie_problem())
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)
    assert res.active == (0, 1)
    assert res.iterations == 3     # step to row 0, zero step to row 1, optimality


def test_singular_kkt_and_blands_rule():
    # 40 copies of -x1 <= 0, all active at the start: the KKT matrix is
    # singular (least-squares fallback), and dropping them one by one is a
    # run of more than 30 zero steps (Bland's rule)
    res = solve_qp(2.0 * np.eye(3), np.array([-2.0, 0.0, 0.0]),
                   A_eq=np.ones((1, 3)), b_eq=np.ones(1),
                   A_in=np.tile([-1.0, 0.0, 0.0], (40, 1)), b_in=np.zeros(40),
                   x0=np.array([0.0, 0.5, 0.5]))
    assert res.converged
    assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-12)
    assert res.active == ()
    assert res.iterations == 42    # 40 drops, one step, optimality
