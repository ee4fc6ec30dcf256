"""The starts of minimum variance and maximum Sharpe.

Minimum variance, and maximum Sharpe under the split (c1) and the long-only
box (c4), start with a block exchange (``qp.block_start``): from the
unconstrained optimum every row it holds tight or breaks joins a working
set at its bound, each round moves to the face's minimizer with one KKT
solve, and then every broken row joins and every working row with a
negative multiplier leaves, until a point breaks no row; where a face holds
no point of the set, the start falls back to a closed-form mix.  Maximum
Sharpe under a two-sided box starts at the fill mixed toward the tangency.
Each start must satisfy every row of the QP it starts, each answer must be
the one the engine reaches from the regime's centre, and each round counts
in ``iterations``.
"""

import numpy as np
import pytest

import portopt.qp
import portopt.solver
from conftest import factor_returns, make_table, random_spd
from portopt import ConstraintSet, ValidationError, check_feasible, markowitz_estimates
from portopt.constraints import RegimeModel
from portopt.qp import block_start, solve_qp
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


def _answers_match_solves_from_the_centre(cov, mean, constraints) -> None:
    for c in constraints:
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


@pytest.mark.parametrize("n, seed", [(20, 1), (35, 2), (50, 3)])
def test_answers_match_solves_from_the_centre(n, seed):
    cov, mean, mi = _universe(n, 120, seed)
    _answers_match_solves_from_the_centre(
        cov, mean, _constraints(n, mi) + [ConstraintSet("c2", weight_bound=1.5 / n)])


@pytest.mark.parametrize("n, t, seed", [
    (20, 120, 21),
    (30, 20, 3),        # N > T: a singular covariance, solved through the ridge
])
def test_block_started_answers_match_solves_from_the_centre(n, t, seed):
    # the two universes of test_every_start_is_feasible.  At N > T the
    # covariance is singular: where no inequality row holds the answer (c2
    # at weight_bound 1, c3, c5) only the 1e-13 ridge fixes it, and
    # answers from two starts differ by up to 1e-6 in weight at variances
    # equal to 1e-19 (maximum Sharpe is near-degenerate there), so those
    # cells are compared on the other universe only
    cov, mean, mi = _universe(n, t, seed)
    constraints = _constraints(n, mi) + [ConstraintSet("c2", weight_bound=1.5 / n)]
    if t < n:
        constraints = [c for c in constraints
                       if c.regime in ("c1", "c4") or (c.regime == "c2" and c.weight_bound < 1.0)]
    _answers_match_solves_from_the_centre(cov, mean, constraints)


def _counting_kkt(monkeypatch) -> list[int]:
    """A one-item counter of ``qp._solve_kkt`` calls."""
    calls, solve_kkt = [0], portopt.qp._solve_kkt

    def counting(K, rhs):
        calls[0] += 1
        return solve_kkt(K, rhs)

    monkeypatch.setattr(portopt.qp, "_solve_kkt", counting)
    return calls


def _recording_faces(monkeypatch) -> list[np.ndarray]:
    """The working rows of every face the block start solves, in order."""
    faces, face_point = [], portopt.qp.face_point

    def recording(*args):
        faces.append(args[7])
        return face_point(*args)

    monkeypatch.setattr(portopt.qp, "face_point", recording)
    return faces


def test_iterations_count_every_kkt_solve(monkeypatch, markets):
    # a block-start round is one KKT solve, and it counts in iterations: a
    # solve's iterations are its KKT solves, rounds included, for minimum
    # variance and for maximum Sharpe
    kkt_calls, faces = _counting_kkt(monkeypatch), _recording_faces(monkeypatch)
    cov, mean, mi = _universe(50, 120, 3)
    cases = [(*markets[key][:2], markets[key][3]) for key in ("bundled-mm", "bundled-im")]
    for cov, mean, mi in cases + [(cov, mean, mi)]:
        for c in _constraints(len(mean), mi):
            problem = Problem.prepare(cov, c, mean=mean, rf=RF)
            for solve in (problem.min_variance, problem.max_sharpe):
                kkt_calls[0] = 0
                sol = solve()
                assert sol.converged, c
                assert sol.iterations == kkt_calls[0], (c, solve)
    assert len(faces) > 0


@pytest.mark.parametrize("objective", ["min_variance", "max_sharpe"])
def test_working_rows_leave_the_block_start(monkeypatch, objective):
    # on the N = 50 c1 universe some working row leaves the block start
    # between two faces: the exchange, not only rows that join
    cov, mean, _ = _universe(50, 120, 3)
    faces = _recording_faces(monkeypatch)
    sol = getattr(Problem.prepare(cov, ConstraintSet("c1"), mean=mean, rf=RF), objective)()
    assert sol.converged
    assert len(faces) >= 2
    assert any(np.setdiff1d(a, b).size for a, b in zip(faces, faces[1:]))


@pytest.mark.parametrize("c", [ConstraintSet("c1", leverage_cap=1.3), ConstraintSet("c4")],
                         ids=["c1", "c4"])
def test_a_general_row_leaves_alone(monkeypatch, c):
    # maximum Sharpe on the N > T universe: the 1'y >= 0 row's multiplier
    # turns negative on a face, and it leaves without the bounds whose
    # multipliers are read off the stationarity that carries it
    cov, mean, _ = _universe(30, 20, 3)
    faces = _recording_faces(monkeypatch)
    sol = Problem.prepare(cov, c, mean=mean, rf=RF).max_sharpe()
    assert sol.converged
    bounds = 60 if c.regime == "c1" else 30              # the bound rows come first
    steps = [np.setdiff1d(a, b) for a, b in zip(faces, faces[1:])]
    general = [left for left in steps if np.any(left >= bounds)]
    assert general and all(np.all(left >= bounds) for left in general)


@pytest.mark.parametrize("n, t, seed", [(20, 120, 21), (30, 20, 3), (50, 120, 3)])
@pytest.mark.parametrize("cap", [2.0, 1.3, 1.0])
def test_split_faces_with_both_parts_free(monkeypatch, n, t, seed, cap):
    # a start whose two split parts are both positive leaves them both free on
    # the first face, which the split Hessian's 1e-12 diagonal alone makes
    # regular; the face's point is then checked to 1e-12 (face_point), and the
    # block start ends either without a point (the fallback) or at a point
    # that breaks no row, from which the engine reaches the centre's answer
    cov, mean, _ = _universe(n, t, seed)
    problem = Problem.prepare(cov, ConstraintSet("c1", leverage_cap=cap), mean=mean, rf=RF)
    r, H = problem.regime, problem.hessian
    A_eq, b_eq, A_in, b_in = r.system()
    w = np.linalg.solve(problem.cov_solve, np.ones(n))
    x0 = r.to_solve(w / w.sum()) + 0.5          # every p_i and n_i positive, w unchanged
    faces = _recording_faces(monkeypatch)
    x, rounds = block_start(H, x0, A_eq, b_eq, A_in, b_in)
    monkeypatch.undo()
    assert rounds == len(faces) >= 1
    assert not np.isin(np.arange(2 * n), faces[0]).any()      # both parts free, every asset
    ref = solve_qp(H, np.zeros(2 * n), A_eq, b_eq, A_in, b_in, r.centre())
    if x is not None:
        assert np.abs(A_eq @ x - b_eq).max() <= 1e-12
        assert np.all(A_in @ x <= b_in + 1e-12)
        res = solve_qp(H, np.zeros(2 * n), A_eq, b_eq, A_in, b_in, x)
        assert np.abs(r.to_weights(res.x) - r.to_weights(ref.x)).max() <= 1e-9


@pytest.mark.parametrize("regime", ["c1", "c4"])
def test_faces_that_lose_their_point_fall_back(monkeypatch, regime):
    # where face_point finds no point (its 1e-12 gap check), the block start
    # ends: minimum variance mixes toward the centre, maximum Sharpe starts
    # at the fill, and both answers are still the ones reached from the centre
    cov, mean, mi = _universe(20, 120, 1)
    face_point, anchors, toward = portopt.qp.face_point, [], RegimeModel.toward

    def pointless(*args):
        return (None, *face_point(*args)[1:])

    def recording(self, anchor, w):
        anchors.append(anchor)
        return toward(self, anchor, w)

    monkeypatch.setattr(portopt.qp, "face_point", pointless)
    monkeypatch.setattr(RegimeModel, "toward", recording)
    constraints = [c for c in _constraints(20, mi) if c.regime == regime]
    _answers_match_solves_from_the_centre(cov, mean, constraints)
    assert len(anchors) == len(constraints)            # one centre mix per minimum variance


def test_a_start_off_an_equality_takes_a_face_solve():
    # c5 has no inequality rows, so a start that breaks no row returns at once;
    # one that breaks the market-exclusion row must take at least one face
    # solve, which lands on the equalities and, without inequality rows, on
    # the answer; the same holds off the unit-excess row of maximum Sharpe
    cov, mean, mi = _universe(20, 120, 1)
    problem = Problem.prepare(cov, ConstraintSet("c5", market_index=mi), mean=mean, rf=RF)
    r, H = problem.regime, problem.hessian
    A_eq, b_eq, A_in, b_in = r.system()
    answer = problem.min_variance().weights
    x, rounds = block_start(H, answer.copy(), A_eq, b_eq, A_in, b_in)
    assert rounds == 0 and np.array_equal(x, answer)
    w = np.linalg.solve(problem.cov_solve, np.ones(20))
    w /= w.sum()
    assert abs(w[mi]) > 1e-3                        # off the market-exclusion row
    x, rounds = block_start(H, w, A_eq, b_eq, A_in, b_in)
    assert rounds >= 1
    assert np.abs(A_eq @ x - b_eq).max() <= 1e-12
    assert np.abs(x - answer).max() <= 1e-9

    split = Problem.prepare(cov, ConstraintSet("c1"), mean=mean, rf=RF)
    A_eq, b_eq, A_in, b_in = _homogenized(split.regime, mean - RF)
    y0 = split.regime.centre()                      # breaks no row, but earns no unit excess
    assert abs(A_eq[0] @ y0 - 1.0) > 1e-3
    y, rounds = block_start(split.hessian, y0, A_eq, b_eq, A_in, b_in)
    assert rounds >= 1
    assert np.abs(A_eq @ y - b_eq).max() <= 1e-12
    assert np.all(A_in @ y <= b_in + 1e-12)


@pytest.mark.parametrize("n, t, seed", [(20, 120, 21), (30, 20, 3)])
@pytest.mark.parametrize("bound", [1.0, 1.5])
def test_face_without_a_point_falls_back_to_the_centre_mix(monkeypatch, n, t, seed, bound):
    # c2 at weight_bound = 1/N and 1.5/N: the first face fixes every weight
    # the unconstrained optimum puts past a bound at that bound, and so many
    # sit at -b that the weights cannot sum to one within the box: that face
    # holds no point of the set, and the start is the unconstrained optimum
    # mixed toward the centre, with no KKT solve before it; the answer is the
    # one reached from the centre
    cov, mean, _ = _universe(n, t, seed)
    problem = Problem.prepare(cov, ConstraintSet("c2", weight_bound=bound / n), mean=mean, rf=RF)
    anchors, toward = [], RegimeModel.toward

    def recording(self, anchor, w):
        anchors.append(anchor)
        return toward(self, anchor, w)

    monkeypatch.setattr(RegimeModel, "toward", recording)
    faces = _recording_faces(monkeypatch)
    sol = problem.min_variance()
    monkeypatch.undo()
    assert len(anchors) == 1 and np.all(anchors[0] == 1.0 / n)
    assert not faces
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
