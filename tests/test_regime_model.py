"""Regime model, feasible starts and NNLS against scipy, used here only as an oracle."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

import portopt.constraints
from conftest import dense_rows
from portopt import (
    ConstraintSet,
    DegenerateSharpeError,
    InfeasibleError,
    PortfolioSolution,
    PortfolioStats,
    attainable_return_range,
    check_feasible,
    solve_max_sharpe,
    solve_min_variance,
    solve_target_return,
    trace_frontier,
)
from portopt.constraints import regime_model
from portopt.qp import InequalityRows, find_feasible_point, solve_qp
from portopt.solver import Problem, _homogenized, _nnls

SRC = Path(__file__).resolve().parents[1] / "src"


def _lp_range(mean, c):
    """(lo, hi) of mean.w over regime ``c`` by HiGHS; None when infeasible."""
    n = len(mean)
    A_eq = [np.ones(n)]
    b_eq = [1.0]
    A_ub, b_ub, obj = None, None, mean
    bounds = [(None, None)] * n
    if c.regime == "c5":
        A_eq.append(np.eye(n)[c.market_index])
        b_eq.append(0.0)
    if c.regime == "c1":         # split w = p - n, both parts nonnegative
        A_eq = [np.concatenate([a, -a]) for a in A_eq]
        A_ub, b_ub = np.ones((1, 2 * n)), [c.leverage_cap]
        obj = np.concatenate([mean, -mean])
        bounds = [(0, None)] * (2 * n)
    elif c.regime == "c2":
        bounds = [(-c.weight_bound, c.weight_bound)] * n
    elif c.regime == "c4":
        bounds = [(0, None)] * n
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * obj, A_ub=A_ub, b_ub=b_ub, A_eq=np.array(A_eq), b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.status == 2:
            return None
        out.append(-sign * np.inf if res.status == 3 else sign * res.fun)
    return tuple(out)


def _regimes(n, rng):
    yield ConstraintSet("c1")
    yield ConstraintSet("c1", leverage_cap=1.0)
    yield ConstraintSet("c1", leverage_cap=float(rng.uniform(1.0, 3.0)))
    yield ConstraintSet("c2")
    yield ConstraintSet("c2", weight_bound=1.0 / n)
    yield ConstraintSet("c2", weight_bound=float(rng.uniform(1.0 / n, 1.0)))
    yield ConstraintSet("c2", weight_bound=0.9 / n)                 # empty
    yield ConstraintSet("c3")
    yield ConstraintSet("c4")
    yield ConstraintSet("c5", market_index=int(rng.integers(n)))


def test_return_range_and_vertices_match_linprog():
    rng = np.random.default_rng(11)
    for n in range(2, 13):
        for _ in range(3):
            mean = rng.normal(0.01, 0.02, n)
            if rng.random() < 0.2:
                mean[rng.integers(n)] = mean[0]                      # ties
            for c in _regimes(n, rng):
                expected = _lp_range(mean, c)
                if expected is None:
                    with pytest.raises(InfeasibleError, match="weight_bound"):
                        attainable_return_range(mean, c)
                    continue
                lo, hi = attainable_return_range(mean, c)
                assert np.allclose((lo, hi), expected, rtol=0.0, atol=1e-12), (c, n)
                model = regime_model(c, n)
                if model.one_point:                 # the centre alone: one return
                    assert expected[1] - expected[0] <= 1e-12, (c, n)
                for highest, value in ((False, expected[0]), (True, expected[1])):
                    v = model.vertex(mean, highest)
                    assert check_feasible(v, c, tol=1e-12).feasible, (c, v)
                    if np.isfinite(value):
                        assert float(mean @ v) == pytest.approx(value, abs=1e-12)


def test_constant_mean_gives_a_point_range_in_unbounded_regimes():
    mean = np.full(5, 0.01)
    mean[4] = 0.03                        # the excluded market asset differs
    assert attainable_return_range(mean[:4], ConstraintSet("c3")) == (
        pytest.approx(0.01), pytest.approx(0.01))
    lo, hi = attainable_return_range(mean, ConstraintSet("c5", market_index=4))
    assert lo == pytest.approx(0.01) and hi == pytest.approx(0.01)
    assert _lp_range(mean, ConstraintSet("c5", market_index=4)) == (
        pytest.approx(0.01), pytest.approx(0.01))


def test_empty_sets_name_their_parameter():
    cases = (
        (ConstraintSet("c2", weight_bound=0.2), 4, "weight_bound"),
        (ConstraintSet("c1", leverage_cap=0.5), 4, "leverage_cap"),
        (ConstraintSet("c5", market_index=0), 1, "market_index"),
    )
    for c, n, name in cases:
        cov = np.eye(n)
        mean = np.linspace(0.01, 0.02, n)
        for solve in (lambda: solve_min_variance(cov, c),
                      lambda: solve_max_sharpe(cov, mean, 0.0, c),
                      lambda: solve_target_return(cov, mean, 0.015, c)):
            with pytest.raises(InfeasibleError, match=name):
                solve()


def test_the_centre_is_decided_once_and_raises_at_every_call(monkeypatch):
    # a regime decides its centre's feasibility once, in one evaluation of its
    # rows: an empty set (c2 at weight_bound * N < 1, c1 at a cap below 1)
    # raises at every call, and a feasible one hands out a new array each time
    calls, excess = [0], portopt.constraints.RegimeModel.excess

    def counting(self, w, alone=False):
        calls[0] += 1
        return excess(self, w, alone)

    monkeypatch.setattr(portopt.constraints.RegimeModel, "excess", counting)
    for c, name in ((ConstraintSet("c2", weight_bound=0.2), "weight_bound"),
                    (ConstraintSet("c1", leverage_cap=0.5), "leverage_cap")):
        model, calls[0] = regime_model.__wrapped__(c, 4), 0
        for _ in range(3):
            with pytest.raises(InfeasibleError, match=name):
                model.centre()
        assert calls[0] == 1, c
    for c in (ConstraintSet("c1"), ConstraintSet("c2", weight_bound=0.25), ConstraintSet("c4")):
        model, calls[0] = regime_model.__wrapped__(c, 4), 0
        first = model.centre()
        first[:] = 7.0
        second = model.centre()
        assert second is not first and np.array_equal(model.to_weights(second), np.full(4, 0.25))
        model.return_range(np.linspace(0.01, 0.02, 4))
        assert calls[0] == 1, c


def _random_system(rng, feasible):
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 3))
    m_in = int(rng.integers(1, 8))
    A_eq = rng.standard_normal((m_eq, n))
    A_in = rng.standard_normal((m_in, n))
    x_star = rng.standard_normal(n)
    b_eq = A_eq @ x_star
    b_in = A_in @ x_star + rng.uniform(0.0, 1.0, m_in)
    if not feasible:
        # a row and its negation that cannot both hold
        k = int(rng.integers(m_in))
        A_in = np.vstack([A_in, -A_in[k]])
        b_in = np.append(b_in, -b_in[k] - rng.uniform(0.01, 1.0))
    return n, A_eq, b_eq, A_in, b_in


def test_find_feasible_point_verdict_matches_linprog():
    rng = np.random.default_rng(12)
    verdicts = []
    for k in range(120):
        n, A_eq, b_eq, A_in, b_in = _random_system(rng, feasible=k % 3 != 0)
        lp = linprog(np.zeros(n), A_ub=A_in, b_ub=b_in,
                     A_eq=A_eq if len(A_eq) else None, b_eq=b_eq if len(A_eq) else None,
                     bounds=[(None, None)] * n, method="highs")
        assert lp.status in (0, 2)
        try:
            x = find_feasible_point(A_eq, b_eq, A_in, b_in, n)
        except InfeasibleError:
            verdicts.append(False)
            assert lp.status == 2, k
            continue
        verdicts.append(True)
        assert lp.status == 0, k
        assert np.max(A_in @ x - b_in) <= 1e-9 * (1.0 + np.max(np.abs(b_in)))
        if len(A_eq):
            assert np.allclose(A_eq @ x, b_eq, atol=1e-9)
    assert 20 < verdicts.count(False) < 100


def _excess(rng, n, kind):
    if kind == "negative":
        return -rng.uniform(0.001, 0.05, n)
    if kind == "constant":
        return np.full(n, float(rng.choice([-0.01, 0.0, 0.01])))
    if kind == "single_zero":
        excess = -rng.uniform(0.001, 0.05, n)
        excess[rng.integers(n)] = 0.0
        return excess
    return rng.normal(0.0, 0.02, n)


def test_sharpe_start_verdict_matches_linprog():
    # the maximum-Sharpe start and its fallback, run through the engine as
    # max_sharpe runs them: DegenerateSharpeError exactly where the
    # homogenized rows admit no point, else a point that holds them
    rng = np.random.default_rng(14)
    verdicts = {True: 0, False: 0}
    for k in range(60):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n + 0.3 * np.eye(n)
        excess = _excess(rng, n, ("negative", "constant", "single_zero", "mixed")[k % 4])
        for c in _regimes(n, rng):
            try:
                regime_model(c, n).centre()
            except InfeasibleError:
                continue                                          # an empty set
            problem = Problem.prepare(cov, c, mean=excess)
            A_eq, b_eq, rows = _homogenized(problem.regime, excess)
            A_in, b_in = dense_rows(rows), rows.b
            lp = linprog(np.zeros(A_eq.shape[1]), A_ub=A_in, b_ub=b_in, A_eq=A_eq, b_eq=b_eq,
                         bounds=[(None, None)] * A_eq.shape[1], method="highs")
            assert lp.status in (0, 2)
            try:
                y = solve_qp(problem.hessian, np.zeros(A_eq.shape[1]), A_eq, b_eq,
                             InequalityRows(A_in, b_in), *problem._sharpe_start(excess)).x
            except DegenerateSharpeError:
                verdicts[False] += 1
                assert lp.status == 2, (c, excess)
                continue
            verdicts[True] += 1
            assert lp.status == 0, (c, excess)
            assert np.max(np.abs(A_eq @ y - b_eq)) <= 1e-9, (c, excess)
            assert np.all(A_in @ y <= b_in + 1e-12), (c, excess)
    assert min(verdicts.values()) > 100


def test_lawson_hanson_matches_scipy_nnls():
    rng = np.random.default_rng(13)
    for k in range(200):
        m = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        A = rng.standard_normal((m, cols))
        if k % 4 == 0 and cols > 1:          # duplicated column: rank deficient
            A[:, -1] = A[:, 0]
        b = rng.standard_normal(m)
        x = _nnls(A, b)
        ref, rnorm = nnls(A, b)
        assert np.all(x >= 0.0)
        assert np.linalg.norm(A @ x - b) <= rnorm + 1e-10 * (1.0 + rnorm)
        if m >= cols and k % 4:
            assert np.allclose(x, ref, atol=1e-9)


def test_signed_zero_weights_are_normalized():
    stats = PortfolioStats(ret=0.01, stdev=0.1, sharpe=0.1, model="MM")
    sol = PortfolioSolution(weights=np.array([-0.0, 1.0, 0.0]), stats=stats,
                            objective="max_sharpe", constraint=ConstraintSet("c4"),
                            kkt_residual=0.0, iterations=1, converged=True)
    assert not np.signbit(sol.weights).any()
    assert sol.to_json_dict()["weights"]["w0"] == 0.0
    assert str(sol.to_json_dict()["weights"]["w0"]) == "0.0"


def test_import_loads_no_scipy():
    code = "import sys, portopt; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("cap", [1.0, 1.3, 2.0])
@pytest.mark.parametrize("n", [2, 11, 50, 200])
def test_split_holds_reads_the_gross_cap_alone(n, cap):
    # a c1 block is tested as sum |w| - L <= tol: the split's bound rows hold
    # by construction, so the product with every split row is not needed.
    # At the cloud's 1e-12 (and at 1e-9) the verdicts are those of that
    # product, on blocks whose gross exposure is L plus or minus a few ulps,
    # L + 1e-11, and NaN
    r = regime_model(ConstraintSet("c1", leverage_cap=cap), n)
    rng = np.random.default_rng(n)
    w = rng.standard_normal((40, n))
    w /= w.sum(axis=1, keepdims=True)
    long, short = np.maximum(w, 0.0).sum(axis=1), np.maximum(-w, 0.0).sum(axis=1)
    w, long, short = w[short > 0.0], long[short > 0.0], short[short > 0.0]

    def grossed(gross):
        # longs scaled to (1 + gross) / 2, shorts to (gross - 1) / 2
        return np.where(w > 0.0, w * ((1.0 + gross) / (2.0 * long))[:, None],
                        w * ((gross - 1.0) / (2.0 * short))[:, None])

    at_cap, k = grossed(cap), np.abs(w).argmax(axis=1)
    blocks = [grossed(cap + 1e-11)]
    for ulps in range(-4, 5):
        block = at_cap.copy()
        rows = np.arange(len(block))
        block[rows, k] += ulps * np.spacing(block[rows, k])
        blocks.append(block)
    blocks.append(np.full((1, n), np.nan))
    for block in blocks:
        for tol in (1e-12, 1e-9):
            product = np.all(r.excess(block)[:, r.m_eq:] <= tol, axis=1)
            assert np.array_equal(r.holds(block, tol), product)
    assert r.holds(blocks[5], 1e-12).all() and not r.holds(blocks[0], 1e-12).any()


def test_split_toward_keeps_a_segment_that_holds_the_cap():
    # on the c1 split the gross exposure is convex along a segment, so where
    # both ends hold the cap the whole segment does, and toward returns w
    # itself; a w past the cap stops on it
    r = regime_model(ConstraintSet("c1", leverage_cap=1.3), 5)
    anchor = np.full(5, 0.2)
    inside = np.array([0.55, 0.3, 0.2, 0.05, -0.1])            # gross 1.2
    assert np.array_equal(r.toward(anchor, inside), inside)
    batch = r.toward(anchor, np.array([inside, [1.0, 0.5, 0.0, 0.0, -0.5]]))   # gross 1.2, 2
    assert np.array_equal(batch[0], inside)
    assert np.abs(batch[1]).sum() == pytest.approx(1.3, abs=1e-15)


def _row_constraints(n):
    return [ConstraintSet("c1"), ConstraintSet("c1", leverage_cap=1.0),
            ConstraintSet("c1", leverage_cap=1.3), ConstraintSet("c2"),
            ConstraintSet("c2", weight_bound=1.0 / n), ConstraintSet("c2", weight_bound=2.0 / n),
            ConstraintSet("c3"), ConstraintSet("c4"), ConstraintSet("c5", market_index=0)]


def _written_rows(c, n):
    """The inequality rows of regime ``c`` over its solve variables, written out densely."""
    if c.regime == "c1":
        return np.vstack([-np.eye(2 * n), np.ones((1, 2 * n))])
    if c.regime == "c2":
        return np.vstack([np.eye(n), -np.eye(n)])
    return -np.eye(n) if c.regime == "c4" else np.zeros((0, n))


_FIELDS = ("bound", "var", "coef", "general", "slot", "scale", "b", "A_general")


def _described_rows(c, n):
    """The fields of regime ``c``'s inequality rows, written by hand from what the
    regime knows of each: its bounds ``coef * x[var] <= b`` first, then its general
    rows; a general row's ``var`` and ``coef`` are 0."""
    general = np.zeros((0, n))
    if c.regime == "c1":                            # p, n >= 0, then the gross cap
        var, coef, general = np.arange(2 * n), np.full(2 * n, -1.0), np.ones((1, 2 * n))
        b = np.append(np.zeros(2 * n), c.leverage_cap)
    elif c.regime == "c2":
        var, coef = np.tile(np.arange(n), 2), np.repeat([1.0, -1.0], n)
        b = np.full(2 * n, c.weight_bound)
    elif c.regime == "c4":
        var, coef, b = np.arange(n), np.full(n, -1.0), np.zeros(n)
    else:  # c3, c5
        var, coef, b = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
    bound = np.arange(len(b)) < len(var)
    scale = 1.0 + np.abs(np.append(coef, np.zeros(len(general))))
    scale[len(var):] = 1.0 + np.abs(general).max(axis=1, initial=0.0)
    return SimpleNamespace(bound=bound, var=np.append(var, np.zeros(len(general), dtype=int)),
                           coef=np.append(coef, np.zeros(len(general))),
                           general=(~bound).nonzero()[0], slot=np.cumsum(~bound) - 1,
                           scale=scale, b=b, A_general=general)


def _same_rows(got, want, label):
    """``InequalityRows`` equal field by field, bit for bit."""
    for field in _FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (label, field)


@pytest.mark.parametrize("n", [1, 2, 11])
def test_regime_rows_read_as_a_dense_scan_reads_them(n):
    # each regime scans its dense system once where it is built (a row with a
    # single nonzero is a bound); the scan reads the rows the regime knows,
    # bounds then general rows, field by field as described by hand, and that
    # system is the rows written out by hand, bit for bit
    for c in _row_constraints(n):
        r = regime_model(c, n)
        _, _, A_in, b_in = r.system()
        assert A_in.tobytes() == _written_rows(c, n).tobytes(), (c, n)
        _same_rows(r.inequalities, _described_rows(c, n), (c, n))
        _same_rows(r.inequalities, InequalityRows(A_in, b_in), (c, n))


@pytest.mark.parametrize("n", [1, 11])
def test_scanned_rows_are_read_only(n):
    # every array a scan keeps is read-only, so rows scanned once are shared
    # safely: a regime's rows, its maximum-Sharpe rows and rows scanned from
    # writable arrays, whose right-hand side is a copy the caller may still write
    b_in = np.array([0.5, 1.0, 2.0])
    A_in = np.array([[1.0, 0.0], [0.0, -2.0], [1.0, 1.0]])
    scanned = InequalityRows(A_in, b_in)
    b_in[0] = 9.0
    assert scanned.b[0] == 0.5 and A_in.flags.writeable
    for c in _row_constraints(n):
        r = regime_model(c, n)
        for rows in (r.inequalities, r.homogenized, scanned):
            for field in _FIELDS:
                assert not getattr(rows, field).flags.writeable, (c, field)


@pytest.mark.parametrize("regime", ["c1", "c2", "c3", "c4"])
def test_rows_over_no_variables_scan(regime):
    # a regime on no assets scans blocks with no columns: (0, 0), or c1's
    # cap row alone, a general row with no entries and scale 1; every
    # portfolio of no assets breaks full investment
    r = regime_model(ConstraintSet(regime), 0)
    for rows in (r.inequalities, r.homogenized):
        assert rows.n == 0 and not rows.bound.any() and np.all(rows.scale == 1.0)
    report = check_feasible([], ConstraintSet(regime))
    assert not report.feasible and report.violations == (("full_investment", 1.0),)


def _dense_homogenized_rows(r):
    """The maximum-Sharpe inequality rows as one block, formed densely: ``a - b kappa``
    for every row ``a.w <= b``, then ``-kappa``."""
    _, _, A_in, b_in = r.system()
    kappa = r.lift(np.ones(r.n))
    block = np.empty((len(A_in) + 1, len(kappa)))
    np.multiply(b_in[:, None], kappa, out=block[:-1])
    np.subtract(A_in, block[:-1], out=block[:-1])
    block[-1] = -kappa
    return block


@pytest.mark.parametrize("n", [1, 2, 11])
def test_homogenized_rows_are_the_dense_block(n):
    # the maximum-Sharpe rows, built from the regime's rows with no block:
    # rebuilt dense they are the block entry for entry (a bound row's zeros
    # may differ in sign, which no product reads), their general rows are its
    # rows bit for bit, and a scan of the block reads the same rows
    for c in _row_constraints(n):
        r = regime_model(c, n)
        block, rows = _dense_homogenized_rows(r), r.homogenized
        assert np.array_equal(dense_rows(rows), block), (c, n)
        _same_rows(rows, InequalityRows(block, np.zeros(len(block))), (c, n))
    # c1 at cap 1 on one asset: the cap row p + n <= 1 becomes 2 n <= 0, which
    # has a single nonzero, so the scan and the rows read it as a bound
    rows = regime_model(ConstraintSet("c1", leverage_cap=1.0), 1).homogenized
    assert rows.bound.tolist() == [True, True, True, False]
    assert (rows.var[2], rows.coef[2]) == (1, 2.0)


def test_solves_scan_no_dense_rows_after_the_regimes_first_use(monkeypatch):
    # a frontier (minimum variance, maximum Sharpe and the corner path) and a
    # c1 maximum-Sharpe solve hand the engine the rows their regime scanned:
    # the first use of each regime scans two dense blocks, its rows where it
    # is built and the maximum-Sharpe rows at its first maximum-Sharpe solve,
    # and every later solve scans none; rows built for a call are scanned
    # at that call
    from perfbench.universe import make_universe

    u = make_universe(50, 128, 1)
    scans, scan = [0], InequalityRows.__init__

    def scanning(self, *args):
        scans[0] += 1
        scan(self, *args)

    def solves():
        for regime in ("c1", "c2", "c4"):
            trace_frontier(u.mm.cov, u.mm.mean, u.rf, ConstraintSet(regime), grid=20)
        solve_max_sharpe(u.mm.cov, u.mm.mean, u.rf, ConstraintSet("c1"))

    monkeypatch.setattr(InequalityRows, "__init__", scanning)
    regime_model.cache_clear()
    solves()
    assert scans[0] == 6                        # two per regime
    scans[0] = 0
    solves()
    assert scans[0] == 0
    problem = Problem.prepare(u.mm.cov, ConstraintSet("c4"))
    A_eq, b_eq, A_in, b_in = problem.regime.system()
    solve_qp(problem.hessian, np.zeros(50), A_eq, b_eq, InequalityRows(A_in, b_in),
             problem.regime.centre())
    assert scans[0] == 1
