"""The starts of minimum variance and maximum Sharpe.

Both are one ``solve_qp`` call, which starts, in every regime, with a block
exchange (``qp._block_exchange``): from the free assets' unconstrained
optimum (for maximum Sharpe their tangency portfolio, where it earns
excess) every row it holds tight or breaks joins a working set at its
bound, each round moves to the face's minimizer with one KKT solve, and
then every broken row joins and every working row with a negative
multiplier leaves; a round that moves no row ends the solve on the answer.
A start that holds no row tight or broken and already minimizes on the
equalities (c3, c5) is the answer as it is, with no round.
Where rows were still leaving, the engine's active-set loop runs from the
exchange's point, and where a face holds no point of the set, from a
closed-form fallback; where the centre is the set's only point, it starts
there with no exchange.  Each point the loop starts from must satisfy every
row of its QP, each answer must be the one the engine reaches from the
regime's centre, and each round counts in ``iterations``.
"""

import numpy as np
import pytest

import portopt.qp
import portopt.solver
from conftest import factor_returns, make_table, random_spd
from portopt import ConstraintSet, ValidationError, check_feasible, markowitz_estimates
from portopt.constraints import RegimeModel
from portopt.qp import InequalityRows, _block_exchange, solve_qp
from portopt.solver import KKT_TOL, Problem, _homogenized

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
        ConstraintSet("c2", weight_bound=0.1), ConstraintSet("c2", weight_bound=3.0 / n),
        ConstraintSet("c3"), ConstraintSet("c4"),
        ConstraintSet("c5", market_index=market_index),
    ]


def _dense_homogenized(regime, excess):
    """``_homogenized``'s rows with the inequality rows as a dense matrix:
    ``(A_eq, b_eq, A_in, b_in)``."""
    A_eq, b_eq, rows = _homogenized(regime, excess)
    return A_eq, b_eq, rows.dense(), rows.b


def _recording_starts(monkeypatch) -> list[tuple]:
    """``(A_eq, b_eq, A_in, b_in, x)`` of every QP the solver runs, in order,
    with ``A_in`` dense and ``x`` the point its block exchange ends on, or where
    the exchange has no point (or no start), the fallback's."""
    starts, exchange, solve = [], portopt.qp._block_exchange, portopt.solver.solve_qp

    def exchanging(H, g, x, A_eq, b_eq, rows):
        out = exchange(H, g, x, A_eq, b_eq, rows)
        if out[0] is not None:
            starts.append((A_eq, b_eq, rows.dense(), rows.b, out[0]))
        return out

    def solving(H, g, A_eq, b_eq, A_in, b_in, x0, fallback=None):
        def recorded():
            x = fallback()
            starts.append((A_eq, b_eq, A_in.dense(), b_in, x))
            return x
        return solve(H, g, A_eq, b_eq, A_in, b_in, x0, fallback and recorded)

    monkeypatch.setattr(portopt.qp, "_block_exchange", exchanging)
    monkeypatch.setattr(portopt.solver, "solve_qp", solving)
    return starts


def _exchange(H, x, A_eq, b_eq, A_in, b_in):
    """``solve_qp``'s block exchange from ``x``: (point, rounds)."""
    x, rounds, _ = _block_exchange(H, np.zeros(len(x)), x, A_eq, b_eq,
                                   InequalityRows(A_in, b_in))
    return x, rounds


@pytest.mark.parametrize("n, t, seed", [
    (20, 120, 21),
    (30, 20, 3),        # N > T: a singular covariance, solved through the ridge
])
def test_every_start_is_feasible(monkeypatch, n, t, seed):
    cov, mean, mi = _universe(n, t, seed)
    for c in _constraints(n, mi):
        calls = _recording_starts(monkeypatch)
        problem = Problem.prepare(cov, c, mean=mean, rf=RF)
        assert (problem.ridge > 0.0) == (t < n)
        minvar, sharpe = problem.min_variance(), problem.max_sharpe()
        monkeypatch.undo()
        assert minvar.converged and sharpe.converged, c
        assert len(calls) == 2, c                      # one start per solve
        r = problem.regime
        for A_eq, b_eq, A_in, b_in, x0 in calls:
            assert np.abs(A_eq @ x0 - b_eq).max() <= 1e-12, c
            assert np.all(A_in @ x0 <= b_in + 1e-12), c
        assert check_feasible(r.to_weights(calls[0][-1]), c).feasible, c
        y = r.to_weights(calls[1][-1])
        assert check_feasible(y / y.sum(), c).feasible, c
        if not len(r.system()[2]):             # c3, c5: the start is the answer, no KKT solve
            assert minvar.iterations == sharpe.iterations == 0, c


def _answers_match_solves_from_the_centre(cov, mean, constraints) -> None:
    for c in constraints:
        problem = Problem.prepare(cov, c, mean=mean, rf=RF)
        r, zero = problem.regime, np.zeros(len(problem.hessian))
        centre = r.centre()
        ref = solve_qp(problem.hessian, zero, *r.system(), centre)
        assert np.abs(problem.min_variance().weights - r.to_weights(ref.x)).max() <= 1e-9, c

        rows = _dense_homogenized(r, mean - RF)
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


@pytest.mark.parametrize("n, seed", [(35, 2), (50, 3)])
@pytest.mark.parametrize("bound", [lambda n: 0.1, lambda n: 3.0 / n], ids=["0.1", "3/N"])
def test_tight_box_sharpe_starts_near_its_answer(n, seed, bound):
    # c2 maximum Sharpe at tight boxes block-exchanges the tangency of the
    # free assets like every other regime: a few KKT solves, where a fill
    # mixed toward the tangency took 28 to 60
    cov, mean, _ = _universe(n, 120, seed)
    c = ConstraintSet("c2", weight_bound=bound(n))
    sol = Problem.prepare(cov, c, mean=mean, rf=RF).max_sharpe()
    assert sol.converged
    assert sol.iterations <= 12


def _counting_kkt(monkeypatch) -> list[int]:
    """A one-item counter of ``qp._solve_kkt`` calls."""
    calls, solve_kkt = [0], portopt.qp._solve_kkt

    def counting(K, rhs):
        calls[0] += 1
        return solve_kkt(K, rhs)

    monkeypatch.setattr(portopt.qp, "_solve_kkt", counting)
    return calls


def _recording_faces(monkeypatch) -> list[np.ndarray]:
    """The working rows of every face the block exchange solves, in order."""
    faces, face_point = [], portopt.qp.face_point

    def recording(*args, **kwargs):
        faces.append(args[5])
        return face_point(*args, **kwargs)

    monkeypatch.setattr(portopt.qp, "face_point", recording)
    return faces


def test_iterations_count_every_kkt_solve(monkeypatch, markets):
    # a block-exchange round is one KKT solve, and it counts in iterations: a
    # solve's iterations are its KKT solves, rounds included, for minimum
    # variance and for maximum Sharpe; each solve is one solve_qp call, whose
    # own iterations (what a tracer of solve_qp reads) are the same count
    kkt_calls, faces = _counting_kkt(monkeypatch), _recording_faces(monkeypatch)
    results, solve_qp = [], portopt.solver.solve_qp

    def recording(*args):
        results.append(solve_qp(*args))
        return results[-1]

    monkeypatch.setattr(portopt.solver, "solve_qp", recording)
    cov, mean, mi = _universe(50, 120, 3)
    cases = [(*markets[key][:2], markets[key][3]) for key in ("bundled-mm", "bundled-im")]
    for cov, mean, mi in cases + [(cov, mean, mi)]:
        for c in _constraints(len(mean), mi):
            problem = Problem.prepare(cov, c, mean=mean, rf=RF)
            for solve in (problem.min_variance, problem.max_sharpe):
                kkt_calls[0] = 0
                results.clear()
                sol = solve()
                assert sol.converged, c
                assert sol.iterations == kkt_calls[0], (c, solve)
                assert len(results) == 1 and results[0].iterations == sol.iterations, (c, solve)
    assert len(faces) > 0


def _recording_loops(monkeypatch) -> tuple[list, list]:
    """The working set of every engine loop (each starts with
    ``qp._independent_start``) and the anchor of every ``RegimeModel.toward``
    mix, in order."""
    loops, anchors = [], []
    start, toward = portopt.qp._independent_start, RegimeModel.toward

    def starting(*args):
        loops.append(args[0])
        return start(*args)

    def recording(self, anchor, w):
        anchors.append(anchor)
        return toward(self, anchor, w)

    monkeypatch.setattr(portopt.qp, "_independent_start", starting)
    monkeypatch.setattr(RegimeModel, "toward", recording)
    return loops, anchors


def test_the_engine_loop_runs_only_past_the_exchange(monkeypatch, markets):
    # solve_qp returns from its block exchange where the last round moved no
    # row, with no engine iteration; it runs its active-set loop (which
    # starts with _independent_start) where rows were still leaving, or
    # where a face had no point and the fallback starts it
    faces, (loops, anchors) = _recording_faces(monkeypatch), _recording_loops(monkeypatch)

    def solve(cov, mean, rf, c, objective):
        for log in (faces, loops, anchors):
            log.clear()
        sol = getattr(Problem.prepare(cov, c, mean=mean, rf=rf), objective)()
        assert sol.converged
        return sol.iterations, len(faces), len(loops), len(anchors)

    cov, mean, rf, _ = markets["bundled-mm"]
    # one round that moves no row is the whole solve
    assert solve(cov, mean, rf, ConstraintSet("c4"), "min_variance") == (1, 1, 0, 0)
    # three rounds end with a row still leaving, then three loop iterations
    assert solve(cov, mean, rf, ConstraintSet("c1"), "max_sharpe") == (6, 3, 1, 0)
    for n, t, seed in ((20, 120, 21), (30, 20, 3)):
        # the first face's bounds put full investment out of the box's reach,
        # yet the exchange runs on, with no centre mix: to the answer, or on
        # the N > T universe to a feasible point once patience runs out,
        # from which the loop takes three iterations
        cov, mean, _ = _universe(n, t, seed)
        c = ConstraintSet("c2", weight_bound=1.5 / n)
        iterations, rounds, runs, mixes = solve(cov, mean, RF, c, "min_variance")
        assert (runs, mixes) == (int(t < n), 0) and rounds > 1
        assert iterations == rounds + 3 * runs



def test_a_target_return_starts_its_loop_with_no_exchange(monkeypatch):
    # the target-return start, the centre mixed onto the lowest-return
    # vertex, breaks a box row by rounding on this universe: it is handed to
    # the engine as the fallback, with no start, so no face is solved
    cov, mean, _ = _universe(20, 120, 21)
    problem = Problem.prepare(cov, ConstraintSet("c2", weight_bound=0.1), mean=mean, rf=RF)
    starts, faces = _recording_starts(monkeypatch), _recording_faces(monkeypatch)
    assert problem.target_return(problem.return_range[0]).converged
    (_, _, A_in, b_in, x0), = starts
    assert np.any(A_in @ x0 > b_in) and not faces

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
    x, rounds = _exchange(H, x0, A_eq, b_eq, A_in, b_in)
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
    face_point, (_, anchors) = portopt.qp.face_point, _recording_loops(monkeypatch)

    def pointless(*args, **kwargs):
        return None, face_point(*args, **kwargs)[1]

    monkeypatch.setattr(portopt.qp, "face_point", pointless)
    constraints = [c for c in _constraints(20, mi) if c.regime == regime]
    _answers_match_solves_from_the_centre(cov, mean, constraints)
    assert len(anchors) == len(constraints)            # one centre mix per minimum variance


@pytest.mark.parametrize("seed", range(1, 11))
def test_free_regimes_take_no_kkt_solve_on_the_benchmark_universes(monkeypatch, seed):
    # c3 and c5 have no inequality rows, so the free assets' unconstrained
    # minimum-variance and tangency portfolios are the answers: the block
    # exchange finds the start already stationary on the equality face and
    # returns it with no KKT solve, and no engine iteration steps at
    # rounding noise after it
    from perfbench.universe import make_universe

    u = make_universe(200, 240, seed)
    kkt_calls = _counting_kkt(monkeypatch)
    for c in (ConstraintSet("c3"), ConstraintSet("c5", market_index=u.market_index)):
        problem = Problem.prepare(u.mm.cov, c, mean=u.mm.mean, rf=u.rf)
        for solve in (problem.min_variance, problem.max_sharpe):
            kkt_calls[0] = 0
            sol = solve()
            assert sol.converged and sol.iterations == kkt_calls[0] == 0, (c, solve)


def test_a_start_off_an_equality_takes_a_face_solve():
    # c5 has no inequality rows, so a start at the answer takes no face
    # solve: the exchange returns it as it is; one that breaks the
    # market-exclusion row must take at least one face solve, which lands on
    # the equalities and, without inequality rows, on the answer; the same
    # holds off the unit-excess row of maximum Sharpe
    cov, mean, mi = _universe(20, 120, 1)
    problem = Problem.prepare(cov, ConstraintSet("c5", market_index=mi), mean=mean, rf=RF)
    r, H = problem.regime, problem.hessian
    A_eq, b_eq, A_in, b_in = r.system()
    answer = problem.min_variance().weights
    x, rounds = _exchange(H, answer.copy(), A_eq, b_eq, A_in, b_in)
    assert rounds == 0 and np.array_equal(x, answer)
    w = np.linalg.solve(problem.cov_solve, np.ones(20))
    w /= w.sum()
    assert abs(w[mi]) > 1e-3                        # off the market-exclusion row
    x, rounds = _exchange(H, w, A_eq, b_eq, A_in, b_in)
    assert rounds >= 1
    assert np.abs(A_eq @ x - b_eq).max() <= 1e-12
    assert np.abs(x - answer).max() <= 1e-9

    split = Problem.prepare(cov, ConstraintSet("c1"), mean=mean, rf=RF)
    A_eq, b_eq, A_in, b_in = _dense_homogenized(split.regime, mean - RF)
    y0 = split.regime.centre()                      # breaks no row, but earns no unit excess
    assert abs(A_eq[0] @ y0 - 1.0) > 1e-3
    y, rounds = _exchange(split.hessian, y0, A_eq, b_eq, A_in, b_in)
    assert rounds >= 1
    assert np.abs(A_eq @ y - b_eq).max() <= 1e-12
    assert np.all(A_in @ y <= b_in + 1e-12)


@pytest.mark.parametrize("regime", ["c3", "c5"])
def test_a_start_on_the_equalities_off_their_minimizer_takes_a_face_solve(monkeypatch, regime):
    # the centre, and the answer moved by 1e-6 along the face, meet every
    # equality of c3 and c5 and break no row, but neither is the face's
    # minimizer: the exchange does not take either as it is, and its one
    # face solve lands on the answer; the same holds for maximum Sharpe from
    # the centre scaled to unit excess
    cov, mean, mi = _universe(20, 120, 1)
    c = ConstraintSet(regime, market_index=mi if regime == "c5" else None)
    problem = Problem.prepare(cov, c, mean=mean, rf=RF)
    r, H = problem.regime, problem.hessian
    minvar, sharpe = problem.min_variance().weights, problem.max_sharpe().weights
    centre = r.centre()
    nudged = minvar.copy()
    nudged[[0, 1]] += (1e-6, -1e-6)                 # neither is the market asset
    rows = _dense_homogenized(r, mean - RF)
    gain = float((mean - RF) @ r.to_weights(centre))
    assert gain > 0.0
    kkt_calls = _counting_kkt(monkeypatch)
    for start, system, answer in ((centre, r.system(), minvar), (nudged, r.system(), minvar),
                                  (centre / gain, rows, sharpe)):
        A_eq, b_eq, A_in, b_in = system
        assert np.abs(A_eq @ start - b_eq).max() <= 1e-12 and np.all(A_in @ start < b_in)
        kkt_calls[0] = 0
        x, rounds = _exchange(H, start, *system)
        assert rounds == kkt_calls[0] == 1
        w = r.to_weights(x)
        assert np.abs(w / w.sum() - answer).max() <= 1e-12


@pytest.mark.parametrize("gate", ["as is", "refused"])
def test_equality_faces_converge_on_the_ridge_universe(monkeypatch, gate):
    # N > T: the covariance is singular, and its ridge alone makes each
    # equality face's minimizer unique.  Whether the exchange takes the start
    # as the face's minimizer (no KKT solve) or solves the face (one), every
    # c3 and c5 cell converges with its certificate
    if gate == "refused":
        monkeypatch.setattr(portopt.qp, "_equality_minimizer", lambda *args: None)
    solves = (1,) if gate == "refused" else (0, 1)
    cov, mean, mi = _universe(30, 20, 3)
    for c in (ConstraintSet("c3"), ConstraintSet("c5", market_index=mi)):
        problem = Problem.prepare(cov, c, mean=mean, rf=RF)
        assert problem.ridge > 0.0
        for sol in (problem.min_variance(), problem.max_sharpe()):
            assert sol.converged and sol.kkt_residual <= KKT_TOL, c
            assert sol.iterations in solves, c


@pytest.mark.parametrize("n, t, seed", [(20, 120, 21), (30, 20, 3)])
@pytest.mark.parametrize("bound", [1.0, 1.5])
def test_tight_boxes_exchange_on_and_the_one_point_set_starts_at_the_centre(
        monkeypatch, n, t, seed, bound):
    # c2 at weight_bound = 1.5/N: the first face fixes every weight the
    # unconstrained optimum puts past a bound at that bound, and so many sit
    # at -b that the other weights cannot make full investment within the
    # box; the face's point breaks their bounds, they join, and the exchange
    # runs on, with no centre mix: to the answer, or at N > T to a feasible
    # point from which the engine loop finishes.  At 1/N the centre is the
    # set's only point: the loop starts there, with no face solved.  Either
    # answer is the one reached from the centre
    cov, mean, _ = _universe(n, t, seed)
    problem = Problem.prepare(cov, ConstraintSet("c2", weight_bound=bound / n), mean=mean, rf=RF)
    starts, faces = _recording_starts(monkeypatch), _recording_faces(monkeypatch)
    loops, anchors = _recording_loops(monkeypatch)
    sol = problem.min_variance()
    monkeypatch.undo()
    assert sol.converged and not anchors
    (*_, x0), = starts
    if bound == 1.0:
        assert not faces and len(loops) == 1 and np.all(x0 == 1.0 / n)
    else:
        assert len(faces) > 1 and len(loops) == int(t < n)
        assert loops or np.all(x0 == sol.weights)     # no loop: the exchange's point
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
