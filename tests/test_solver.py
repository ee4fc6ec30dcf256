"""Portfolio solvers: closed forms, grid oracles, KKT diagnostics, edge cases."""

import numpy as np
import pytest

import portopt.constraints
import portopt.qp
import portopt.solver
from conftest import factor_returns, make_table, random_monthly_cov, random_spd
from portopt import (
    ConstraintSet,
    DegenerateSharpeError,
    InfeasibleError,
    SingularMatrixError,
    ValidationError,
    attainable_return_range,
    check_feasible,
    closed_form_min_variance,
    closed_form_tangency,
    kkt_residual,
    markowitz_estimates,
    solve_max_sharpe,
    solve_min_variance,
    solve_target_return,
    trace_frontier,
)
from portopt.solver import Problem, kkt_residual_weights, solve_objective

C3 = ConstraintSet("c3")
C4 = ConstraintSet("c4")


def simplex_grid(step=0.01):
    k = round(1.0 / step)
    ii, jj = np.meshgrid(np.arange(k + 1), np.arange(k + 1))
    mask = ii + jj <= k
    return np.column_stack([ii[mask], jj[mask], k - ii[mask] - jj[mask]]) / k


def test_closed_form_min_variance_diag():
    w = closed_form_min_variance(np.diag([0.01, 0.04]))
    assert np.allclose(w, [0.8, 0.2], atol=1e-14)


def test_closed_form_min_variance_identity():
    w = closed_form_min_variance(np.eye(4))
    assert np.allclose(w, 0.25, atol=1e-14)


def test_closed_form_tangency_diag():
    w = closed_form_tangency(np.diag([0.01, 0.04]), [0.01, 0.02], 0.0)
    assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_closed_form_tangency_collinear_equals_min_variance():
    # constant excess return: tangency direction is the min-variance direction
    rng = np.random.default_rng(0)
    cov = random_spd(rng, 5)
    rf = 0.02
    mean = rf + 0.03 * np.ones(5)
    assert np.allclose(
        closed_form_tangency(cov, mean, rf), closed_form_min_variance(cov),
        atol=1e-12,
    )


def test_closed_form_singular_rejected():
    singular = np.array([[0.04, 0.04], [0.04, 0.04]])
    with pytest.raises(SingularMatrixError):
        closed_form_min_variance(singular)
    with pytest.raises(SingularMatrixError):
        closed_form_tangency(singular, [0.01, 0.02], 0.0)


def test_tangency_zero_normalizer():
    cov = np.diag([0.01, 0.01])
    # excess (a, -a): C^-1 excess sums to zero
    with pytest.raises(DegenerateSharpeError):
        closed_form_tangency(cov, [0.01, -0.01], 0.0)


def test_min_variance_diag_qp():
    sol = solve_min_variance(np.diag([0.01, 0.04]), C3)
    assert np.allclose(sol.weights, [0.8, 0.2], atol=1e-12)
    assert sol.stats.stdev ** 2 == pytest.approx(0.008, abs=1e-15)
    assert sol.converged and sol.kkt_residual <= 1e-10


def test_min_variance_identity_equal_weights():
    sol = solve_min_variance(np.eye(5), C3)
    assert np.allclose(sol.weights, 0.2, atol=1e-12)


def test_min_variance_qp_matches_closed_form_random():
    rng = np.random.default_rng(1)
    cov = random_spd(rng, 5)
    assert np.allclose(
        solve_min_variance(cov, C3).weights, closed_form_min_variance(cov),
        atol=1e-8,
    )


def test_max_sharpe_diag_example():
    sol = solve_max_sharpe(np.diag([0.01, 0.04]), [0.01, 0.02], 0.0, C3)
    assert np.allclose(sol.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
    assert sol.stats.sharpe == pytest.approx(0.14142, abs=1e-5)


def test_max_sharpe_duplicate_assets_objective_unique():
    # identical assets: the split is arbitrary but the Sharpe is pinned
    cov = np.array([[0.04, 0.04], [0.04, 0.04]])
    mean = np.array([0.01, 0.01])
    sol = solve_max_sharpe(cov, mean, 0.002, C3)
    single = (0.01 - 0.002) / 0.2
    assert sol.stats.sharpe == pytest.approx(single, rel=1e-6)
    assert sol.regularization > 0.0


def test_max_sharpe_c4_beats_grid():
    rng = np.random.default_rng(2)
    for _ in range(5):
        cov = random_monthly_cov(rng, 3)
        mean = rng.normal(0.008, 0.01, 3)
        mean[rng.integers(3)] = 0.015
        rf = 0.002
        grid = simplex_grid()
        var = np.einsum("ij,jk,ik->i", grid, cov, grid)
        best = (((grid @ mean) - rf) / np.sqrt(var)).max()
        sol = solve_max_sharpe(cov, mean, rf, C4)
        assert sol.stats.sharpe >= best - 1e-6


def test_min_variance_c4_beats_grid():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cov = random_monthly_cov(rng, 3)
        grid = simplex_grid()
        best = np.einsum("ij,jk,ik->i", grid, cov, grid).min()
        sol = solve_min_variance(cov, C4)
        assert sol.stats.stdev ** 2 <= best + 1e-6


def test_target_return_at_min_variance_is_free():
    rng = np.random.default_rng(4)
    cov = random_spd(rng, 4)
    mean = rng.normal(0.5, 0.1, 4)
    mv = solve_min_variance(cov, C3, mean=mean)
    sol = solve_target_return(cov, mean, mv.stats.ret, C3)
    assert np.allclose(sol.weights, mv.weights, atol=1e-8)


def test_target_return_endpoint_unique_solution():
    sol = solve_target_return(np.diag([0.01, 0.04]), [0.01, 0.02], 0.02, C3)
    assert np.allclose(sol.weights, [0.0, 1.0], atol=1e-9)


def test_target_return_infeasible_names_interval():
    with pytest.raises(InfeasibleError, match=r"\[0.01, 0.02\]"):
        solve_target_return(np.diag([0.01, 0.04]), [0.01, 0.02], 0.05, C4)


def test_attainable_range_per_regime():
    mean = np.array([0.01, 0.02, 0.03])
    lo, hi = attainable_return_range(mean, C4)
    assert (lo, hi) == (pytest.approx(0.01), pytest.approx(0.03))
    lo, hi = attainable_return_range(mean, C3)
    assert lo == -np.inf and hi == np.inf
    lo, hi = attainable_return_range(mean, ConstraintSet("c1"))
    # gross cap 2: long 1.5 units of best, short 0.5 of worst
    assert hi == pytest.approx(1.5 * 0.03 - 0.5 * 0.01, abs=1e-9)
    lo, hi = attainable_return_range(mean, ConstraintSet("c2"))
    # +1 best, +1 middle, -1 worst
    assert hi == pytest.approx(0.03 + 0.02 - 0.01, abs=1e-9)


def test_c5_market_weight_exactly_zero():
    rng = np.random.default_rng(5)
    cov = random_monthly_cov(rng, 6)
    mean = rng.normal(0.01, 0.008, 6)
    mean[0] = 0.02
    c5 = ConstraintSet("c5", market_index=5)
    for sol in (
        solve_min_variance(cov, c5, mean=mean),
        solve_max_sharpe(cov, mean, 0.002, c5),
        solve_target_return(cov, mean, float(mean[:5].mean()), c5),
    ):
        assert sol.weights[5] == 0.0
        assert sol.converged


def test_homogenization_consistency_feasible_and_same_sharpe():
    rng = np.random.default_rng(6)
    for regime in ("c1", "c2", "c4"):
        cov = random_monthly_cov(rng, 5)
        mean = rng.normal(0.01, 0.01, 5)
        mean[0] = 0.02
        rf = 0.002
        c = ConstraintSet(regime)
        sol = solve_max_sharpe(cov, mean, rf, c)
        assert check_feasible(sol.weights, c, tol=1e-7).feasible
        direct = (float(mean @ sol.weights) - rf) / np.sqrt(
            float(sol.weights @ cov @ sol.weights))
        assert sol.stats.sharpe == pytest.approx(direct, abs=1e-12)


def test_max_sharpe_dominates_sampled_portfolios():
    rng = np.random.default_rng(7)
    cov = random_monthly_cov(rng, 5)
    mean = rng.normal(0.01, 0.01, 5)
    mean[2] = 0.02
    rf = 0.002
    sol = solve_max_sharpe(cov, mean, rf, C4)
    samples = rng.dirichlet(np.ones(5), size=500)
    sh = ((samples @ mean) - rf) / np.sqrt(
        np.einsum("ij,jk,ik->i", samples, cov, samples))
    assert sol.stats.sharpe >= sh.max() - 1e-8


def test_scale_invariance_of_max_sharpe():
    rng = np.random.default_rng(8)
    cov = random_spd(rng, 4)
    mean = rng.normal(0.5, 0.1, 4)
    rf = 0.1
    if np.linalg.solve(cov, mean - rf).sum() < 0.2:
        pytest.skip("degenerate draw")
    for c in (C3, ConstraintSet("c1"), ConstraintSet("c2"), C4):
        w1 = solve_max_sharpe(cov, mean, rf, c).weights
        w2 = solve_max_sharpe(5.0 * cov, mean, rf, c).weights
        assert np.max(np.abs(w1 - w2)) < 1e-8


def test_degenerate_sharpe_under_long_only():
    cov = np.diag([0.01, 0.04])
    with pytest.raises(DegenerateSharpeError):
        solve_max_sharpe(cov, [0.001, 0.002], 0.01, C4)


@pytest.mark.parametrize("solve, cause", [
    (lambda cov: solve_max_sharpe(cov, [0.1, np.nan, 0.2], 0.0, C3), "mean"),
    (lambda cov: solve_max_sharpe(cov, [0.1, 0.15, 0.2], np.nan, C4), "rf"),
    (lambda cov: solve_max_sharpe(cov, [0.1, np.inf, 0.2], 0.0, ConstraintSet("c1")), "mean"),
    (lambda cov: solve_max_sharpe(cov, [0.1, 0.15, 0.2], np.inf, ConstraintSet("c2")), "rf"),
    (lambda cov: solve_min_variance(cov, C3, mean=[0.1, np.nan, 0.2]), "mean"),
    (lambda cov: solve_target_return(cov, [0.1, 0.15, 0.2], np.nan, ConstraintSet("c1")), "target"),
    (lambda cov: solve_target_return(cov, [0.1, 0.15, 0.2], np.nan, C3), "target"),
    (lambda cov: solve_target_return(cov, [0.1, 0.15, 0.2], np.nan, C4), "target"),
    (lambda cov: solve_target_return(cov, [0.1, 0.15, 0.2], np.inf, ConstraintSet("c1")), "target"),
    (lambda cov: solve_target_return(cov, [0.1, 0.15, 0.2], -np.inf, C3), "target"),
    (lambda cov: solve_target_return(cov, [0.1, 0.15, 0.2], np.inf, C4), "target"),
], ids=["mean-nan-c3", "rf-nan-c4", "mean-inf-c1", "rf-inf-c2", "min-variance-mean-nan",
        "target-nan-c1", "target-nan-c3", "target-nan-c4", "target-inf-c1", "target-minus-inf-c3",
        "target-inf-c4"])
def test_nonfinite_mean_or_rf_rejected(solve, cause):
    with pytest.raises(ValidationError, match=rf"\b{cause}\b"):
        solve(np.diag([0.01, 0.02, 0.04]))


def test_non_psd_rejected():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues 3, -1
    with pytest.raises(ValidationError):
        solve_min_variance(bad, C3)


def test_asymmetric_rejected():
    bad = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ValidationError):
        solve_min_variance(bad, C3)


def test_kkt_residual_exact_solution_tiny():
    cov = np.diag([0.01, 0.04])
    sol = solve_min_variance(cov, C3)
    assert kkt_residual(sol, cov) < 1e-10


def test_kkt_residual_grows_off_optimum():
    cov = np.diag([0.01, 0.04])
    base = kkt_residual_weights(np.array([0.8, 0.2]), cov, C3)
    moved = kkt_residual_weights(np.array([0.8 + 1e-3, 0.2 - 1e-3]), cov, C3)
    assert moved > base
    assert moved > 1e-6 * 0.01  # gradient component is visible


def test_kkt_residual_flags_infeasibility():
    cov = np.diag([0.01, 0.04])
    res = kkt_residual_weights(np.array([1.5, 0.5]), cov, C3)
    assert res >= 1.0 - 1e-12   # full-investment violated by 1.0


def test_kkt_residual_public_max_sharpe_path():
    rng = np.random.default_rng(9)
    cov = random_monthly_cov(rng, 4)
    mean = rng.normal(0.01, 0.01, 4)
    mean[0] = 0.02
    sol = solve_max_sharpe(cov, mean, 0.002, C4)
    assert kkt_residual(sol, cov, mean=mean) <= 1e-6


def test_variance_convex_in_target():
    rng = np.random.default_rng(10)
    cov = random_monthly_cov(rng, 4)
    mean = rng.normal(0.01, 0.008, 4)
    mean[1] = 0.02
    mv = solve_min_variance(cov, C4, mean=mean)
    t0, t2 = mv.stats.ret, float(mean.max()) - 1e-9
    t1 = 0.5 * (t0 + t2)
    v = [solve_target_return(cov, mean, t, C4).stats.stdev ** 2 for t in (t0, t1, t2)]
    assert v[1] <= 0.5 * (v[0] + v[2]) + 1e-12


# -- property tests -----------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def spd_problems(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    entries = draw(st.lists(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ))
    a = np.array(entries)
    cov = a @ a.T / n + 0.5 * np.eye(n)
    mean = np.array(draw(st.lists(
        st.floats(-0.05, 0.08, allow_nan=False), min_size=n, max_size=n)))
    return cov, mean


@given(spd_problems())
@settings(max_examples=40, deadline=None)
def test_min_variance_never_beaten_by_equal_weights(problem):
    cov, _ = problem
    n = cov.shape[0]
    sol = solve_min_variance(cov, C3)
    assert sol.converged
    assert abs(float(sol.weights.sum()) - 1.0) < 1e-9
    ew = np.full(n, 1.0 / n)
    assert sol.stats.stdev ** 2 <= float(ew @ cov @ ew) + 1e-12


@given(spd_problems())
@settings(max_examples=40, deadline=None)
def test_long_only_solution_feasible_and_dominant(problem):
    cov, mean = problem
    n = cov.shape[0]
    sol = solve_min_variance(cov, C4, mean=mean)
    assert sol.converged
    assert check_feasible(sol.weights, C4, tol=1e-7).feasible
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        assert sol.stats.stdev ** 2 <= cov[i, i] + 1e-12


def test_solution_json_shape():
    cov = np.diag([0.01, 0.04])
    sol = solve_min_variance(cov, C3, mean=[0.01, 0.02], rf=0.001)
    d = sol.to_json_dict(("A", "B"))
    assert set(d) == {
        "weights", "return", "stdev", "sharpe", "model", "objective",
        "constraint", "kkt_residual", "iterations", "converged",
        "regularization_applied",
    }
    assert d["weights"]["A"] == pytest.approx(0.8)
    sol_no_mean = solve_min_variance(cov, C3)
    assert sol_no_mean.to_json_dict()["return"] is None


def test_large_universe_iteration_counts_and_reduced_kkt(monkeypatch):
    # c1 and c4 on a seeded N = 100 factor universe: minimum variance starts
    # with a block exchange, its rounds counted (from the centre it took 194
    # and 81 iterations, from the unconstrained optimum pulled into the set
    # 43 and 37, with rows that only join 14 and 11); maximum Sharpe starts
    # at the fill, since at rf = 0.002 the unconstrained tangency portfolio
    # earns no excess return; and since the bounds p, n >= 0 and w >= 0 fix
    # variables instead of entering the KKT matrix, no matrix has more than
    # N + 2 rows (the full-space one reached 380-400 on c1)
    mm = markowitz_estimates(make_table(factor_returns(np.random.default_rng(1), 240, 100)))
    rows, solve_kkt = [], portopt.qp._solve_kkt

    def recording(K, rhs):
        rows.append(K.shape[0])
        return solve_kkt(K, rhs)

    monkeypatch.setattr(portopt.qp, "_solve_kkt", recording)
    pins = {("c1", "min_variance"): 5, ("c1", "max_sharpe"): 62,
            ("c4", "min_variance"): 6, ("c4", "max_sharpe"): 15}
    for (regime, objective), iterations in pins.items():
        rows.clear()
        sol = solve_objective(objective, mm.cov, mm.mean, 0.002, ConstraintSet(regime))
        assert sol.converged and sol.kkt_residual <= 1e-12
        assert sol.iterations == iterations
        assert max(rows) <= 100 + 2


def test_large_universe_iteration_counts_at_n200():
    # the N = 100 pins above on a seeded N = 200 factor universe, where c1's
    # split has 400 variables and the engine's array work is the widest
    mm = markowitz_estimates(make_table(factor_returns(np.random.default_rng(1), 240, 200)))
    pins = {("c1", "min_variance"): 10, ("c1", "max_sharpe"): 95,
            ("c4", "min_variance"): 8, ("c4", "max_sharpe"): 17}
    for (regime, objective), iterations in pins.items():
        sol = solve_objective(objective, mm.cov, mm.mean, 0.002, ConstraintSet(regime))
        assert sol.converged and sol.kkt_residual <= 1e-12
        assert sol.iterations == iterations, (regime, objective)


@pytest.mark.parametrize("n", [1, 2, 11, 60])
def test_split_hessian_written_in_place_bit_for_bit(n):
    # the split Hessian, block by block, against np.block plus eps I, bit for
    # bit (signed zeros too): a zero covariance entry, and a -0.0 one
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    c2 = 2.0 * (a @ a.T / n)
    if n > 1:
        c2[0, -1] = c2[-1, 0] = 0.0
        c2[1, 0] = c2[0, 1] = -0.0
    eps = 1e-12 * max(1.0, float(np.trace(c2)) / n)
    expected = np.block([[c2, -c2], [-c2, c2]]) + eps * np.eye(2 * n)
    got = portopt.solver._hessian(c2, True)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert portopt.solver._hessian(c2, False) is c2


def test_certificate_and_feasibility_read_one_row_excess(monkeypatch, markets):
    # each solution's KKT certificate and feasibility verdict come from one
    # evaluation of the regime's rows, with the values and verdicts that the
    # two separate evaluations give
    excess, check, calls, per_check = portopt.constraints.RegimeModel.excess, Problem._check, [0], []

    def counting(self, w):
        calls[0] += 1
        return excess(self, w)

    def checking(self, w, target, multipliers):
        before = calls[0]
        kkt, feasible = check(self, w, target, multipliers)
        per_check.append(calls[0] - before)
        assert kkt == kkt_residual_weights(w, self.cov, self.regime.constraint, mean=self.mean,
                                           target=target, multipliers=multipliers)
        assert feasible == check_feasible(w, self.regime.constraint).feasible
        return kkt, feasible

    monkeypatch.setattr(portopt.constraints.RegimeModel, "excess", counting)
    monkeypatch.setattr(Problem, "_check", checking)
    cov, mean, rf, mi = markets["bundled-mm"]
    for regime in ("c1", "c2", "c3", "c4", "c5"):
        trace_frontier(cov, mean, rf, ConstraintSet(regime, market_index=mi if regime == "c5"
                                                    else None), grid=10)
    assert len(per_check) > 30 and set(per_check) == {1}
    # a long-only point moved off a zero weight by less, then by more, than
    # check_feasible's tolerance: the same verdicts, feasible then not
    problem = Problem.prepare(cov, ConstraintSet("c4"), mean=mean, rf=rf)
    w = problem.min_variance().weights
    zero, top = int(np.argmin(w)), int(np.argmax(w))
    assert w[zero] == 0.0
    verdicts = []
    for shift in (1e-9, 1e-6):
        v = w.copy()
        v[zero] -= shift
        v[top] += shift
        verdicts.append(problem._check(v, None, None)[1])
    assert verdicts == [True, False]


def test_curve_builds_hessian_and_return_range_once(monkeypatch):
    # one Problem per curve: the split Hessian is computed once for it, and
    # the attainable return range is read off the two return vertices it
    # builds once, not once per target or per range
    calls = {"hessian": 0, "vertex": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(portopt.solver, "_hessian", counting("hessian", portopt.solver._hessian))
    monkeypatch.setattr(portopt.constraints.RegimeModel, "vertex",
                        counting("vertex", portopt.constraints.RegimeModel.vertex))
    rng = np.random.default_rng(4)
    cov, mean = random_monthly_cov(rng, 6), rng.normal(0.01, 0.02, 6)
    problem = Problem.prepare(cov, ConstraintSet("c1"), mean=mean)
    assert problem.return_range == tuple(float(mean @ v) for v in problem.vertices)
    assert calls == {"hessian": 1, "vertex": 2}
    curve = trace_frontier(cov, mean, 0.0, ConstraintSet("c1"), grid=20)
    assert len(curve.points) >= 20
    assert calls == {"hessian": 2, "vertex": 4}


def test_curve_builds_the_return_vertices_once(monkeypatch):
    # the two vertices a target's start mixes toward are built once per
    # Problem, so a finer grid builds no more of them, and the maximum-Sharpe
    # start builds none while the long-only fill earns an excess return
    counts = []
    for grid in (20, 60):
        calls = [0]
        vertex = portopt.constraints.RegimeModel.vertex

        def counting(*args, **kwargs):
            calls[0] += 1
            return vertex(*args, **kwargs)

        monkeypatch.setattr(portopt.constraints.RegimeModel, "vertex", counting)
        rng = np.random.default_rng(4)
        cov, mean = random_monthly_cov(rng, 6), rng.normal(0.01, 0.02, 6)
        trace_frontier(cov, mean, 0.0, ConstraintSet("c4"), grid=grid)
        monkeypatch.undo()
        counts.append(calls[0])
    assert counts == [2, 2]
