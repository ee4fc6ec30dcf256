"""The starts of minimum variance and maximum Sharpe.

Minimum variance starts on a block-pivoted face: from the unconstrained
minimum-variance portfolio of the free assets, every row it holds tight or
breaks joins a working set at its bound, and each round moves to the
face's minimizer with one KKT solve, until the point breaks no row; where
a face has no point, the start is that portfolio mixed toward the centre
as far as the rows hold.  Maximum Sharpe under a two-sided box starts at
the fill mixed toward the tangency.  Each start must satisfy every row of
the QP it starts, each answer must be the one the engine reaches from the
regime's centre, and each round counts in ``iterations``.
"""

import numpy as np
import pytest

import portopt.qp
import portopt.solver
from conftest import factor_returns, make_table, random_spd
from portopt import ConstraintSet, ValidationError, check_feasible, markowitz_estimates
from portopt.constraints import RegimeModel
from portopt.qp import solve_qp
from portopt.solver import Problem, _homogenized

RF = 0.0


def _universe(n: int, t: int, seed: int):
    table = make_table(factor_returns(np.random.default_rng(seed), t, n))
    est = markowitz_estimates(table)
    return est.cov, est.mean, table.market_position


def _constraints(n: int, market_index: int) -> list[ConstraintSet]:
    return [
        ConstraintSet("c1"), ConstraintSet("c1", leverage_cap=1.0),
        ConstraintSet("c1", leverage_cap=1.3),
        ConstraintSet("c2"), ConstraintSet("c2", weight_bound=1.0 / n),
        ConstraintSet("c2", weight_bound=0.1),
        ConstraintSet("c3"), ConstraintSet("c4"),
        ConstraintSet("c5", market_index=market_index),
    ]


def _recording(monkeypatch) -> list[tuple]:
    """The arguments of every QP the solver runs, in order."""
    calls, original = [], portopt.solver.solve_qp

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(portopt.solver, "solve_qp", recording)
    return calls


@pytest.mark.parametrize("n, t, seed", [
    (20, 120, 21),
    (30, 20, 3),        # N > T: a singular covariance, solved through the ridge
])
def test_every_start_is_feasible(monkeypatch, n, t, seed):
    cov, mean, mi = _universe(n, t, seed)
    for c in _constraints(n, mi):
        calls = _recording(monkeypatch)
        problem = Problem.prepare(cov, c, mean=mean, rf=RF)
        assert (problem.ridge > 0.0) == (t < n)
        minvar, sharpe = problem.min_variance(), problem.max_sharpe()
        monkeypatch.undo()
        assert minvar.converged and sharpe.converged, c
        r = problem.regime
        for _, _, A_eq, b_eq, A_in, b_in, x0 in calls:
            assert np.abs(A_eq @ x0 - b_eq).max() <= 1e-12, c
            assert np.all(A_in @ x0 <= b_in + 1e-12), c
        assert check_feasible(r.to_weights(calls[0][-1]), c).feasible, c
        y = r.to_weights(calls[1][-1])
        assert check_feasible(y / y.sum(), c).feasible, c
        if not len(r.system()[2]) and t > n:   # c3, c5: the start is the answer
            assert minvar.iterations == 1, c


@pytest.mark.parametrize("n, seed", [(20, 1), (35, 2), (50, 3)])
def test_answers_match_solves_from_the_centre(n, seed):
    cov, mean, mi = _universe(n, 120, seed)
    for c in _constraints(n, mi):
        problem = Problem.prepare(cov, c, mean=mean, rf=RF)
        r, zero = problem.regime, np.zeros(len(problem.hessian))
        centre = r.centre()
        ref = solve_qp(problem.hessian, zero, *r.system(), centre)
        assert np.abs(problem.min_variance().weights - r.to_weights(ref.x)).max() <= 1e-9, c

        rows = _homogenized(r, mean - RF)
        gain = float((mean - RF) @ r.to_weights(centre))
        assert gain > 0.0
        y = r.to_weights(solve_qp(problem.hessian, zero, *rows, centre / gain).x)
        assert np.abs(problem.max_sharpe().weights - y / y.sum()).max() <= 1e-9, c


def test_iterations_count_every_kkt_solve(monkeypatch, markets):
    # a block-start round is one KKT solve, and it counts in iterations: a
    # minimum-variance solve's iterations are its KKT solves, rounds included
    kkt_calls, rounds, solve_kkt = [0], [0], portopt.qp._solve_kkt
    face_point = portopt.solver.face_point

    def counting(K, rhs):
        kkt_calls[0] += 1
        return solve_kkt(K, rhs)

    def counting_rounds(*args):
        rounds[0] += 1
        return face_point(*args)

    monkeypatch.setattr(portopt.qp, "_solve_kkt", counting)
    monkeypatch.setattr(portopt.solver, "face_point", counting_rounds)
    cov, mean, mi = _universe(50, 120, 3)
    cases = [(*markets[key][:2], markets[key][3]) for key in ("bundled-mm", "bundled-im")]
    for cov, mean, mi in cases + [(cov, mean, mi)]:
        for c in _constraints(len(mean), mi):
            kkt_calls[0] = 0
            sol = Problem.prepare(cov, c, mean=mean, rf=RF).min_variance()
            assert sol.converged, c
            assert sol.iterations == kkt_calls[0], c
    assert rounds[0] > 0


@pytest.mark.parametrize("n, t, seed", [(20, 120, 21), (30, 20, 3)])
@pytest.mark.parametrize("bound", [1.0, 1.5])
def test_face_without_a_point_falls_back_to_the_centre_mix(monkeypatch, n, t, seed, bound):
    # c2 at weight_bound = 1/N and 1.5/N: the rounds fix every weight at a
    # bound with the weights not summing to one, so the last face has no
    # point; the start is then the unconstrained optimum mixed toward the
    # centre, and the answer is the one reached from the centre
    cov, mean, _ = _universe(n, t, seed)
    problem = Problem.prepare(cov, ConstraintSet("c2", weight_bound=bound / n), mean=mean, rf=RF)
    anchors, toward = [], RegimeModel.toward

    def recording(self, anchor, w):
        anchors.append(anchor)
        return toward(self, anchor, w)

    monkeypatch.setattr(RegimeModel, "toward", recording)
    sol = problem.min_variance()
    monkeypatch.undo()
    assert len(anchors) == 1 and np.all(anchors[0] == 1.0 / n)
    assert sol.converged
    r = problem.regime
    ref = solve_qp(problem.hessian, np.zeros(n), *r.system(), r.centre())
    assert np.abs(sol.weights - r.to_weights(ref.x)).max() <= 1e-9


def test_spectrum_only_when_cholesky_fails(monkeypatch):
    # a positive definite covariance needs no eigenvalues; a singular one
    # takes one look at them before its ridge; an indefinite one is
    # rejected with the same message as before
    counted, eigvalsh = [0], np.linalg.eigvalsh

    def counting(a):
        counted[0] += 1
        return eigvalsh(a)

    cov, _, _ = _universe(20, 120, 5)
    singular, _, _ = _universe(30, 20, 5)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert Problem.prepare(cov, ConstraintSet("c3")).ridge == 0.0
    assert counted[0] == 0
    assert Problem.prepare(singular, ConstraintSet("c3")).ridge > 0.0
    assert counted[0] == 1
    shift = eigvalsh(cov).min() + 1e-7 * np.abs(cov).max()   # to 10x past the threshold
    for indefinite in (np.array([[1.0, 2.0], [2.0, 1.0]]), cov - shift * np.eye(20)):
        with pytest.raises(ValidationError,
                           match=r"^covariance matrix is not positive semidefinite$"):
            Problem.prepare(indefinite, ConstraintSet("c3"))


def test_duplicated_asset_takes_the_ridge():
    # an exact copy of an asset makes the covariance singular, yet its
    # Cholesky factor can exist with a pivot at rounding level; such a
    # factor must not leave the matrix without its ridge, where the
    # minimum-variance start's solve raised numpy's LinAlgError
    rng = np.random.default_rng(5)
    factorized = 0
    for _ in range(20):
        cov = random_spd(rng, 3, 1e-3)
        cov[:, -1] = cov[:, 0]
        cov[-1] = cov[0]
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            continue
        factorized += 1
        for regime in ("c1", "c3", "c4"):
            problem = Problem.prepare(cov, ConstraintSet(regime))
            assert problem.ridge > 0.0
            assert problem.min_variance().converged
    assert factorized >= 3
