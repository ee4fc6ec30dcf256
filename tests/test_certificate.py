"""The certificate of every solve: the engine's multipliers first, the NNLS recovery as fallback.

``kkt_residual_weights`` given a solve's multipliers checks them in one
max-norm and, when they fall short, recovers multipliers from scratch
(``solver._stationarity_residual``).  These tests hold the two paths to
the same verdicts: they agree on solved points, a corrupted multiplier
sends a good point to the fallback, which still certifies it, and a
wrong point fails under both.  Target-return points and corners carry
their QP's multipliers, minimum variance too, and maximum Sharpe those of
its homogenized QP mapped to the weights (``solver._weight_multipliers``),
each return row's multiplier in the scaling of ``RegimeModel.return_row``.
A frontier's corners are certified as one stack per path, and a stack
that fails again row by row, so that the first failing corner names
itself.
"""

import re

import numpy as np
import pytest

from conftest import (
    CertificateWatch,
    constraint_for,
    factor_returns,
    fail_certificate,
    make_table,
    one_per_row,
    random_spd,
    zero_crossing_universe,
)
from portopt import (
    ConstraintSet,
    ConvergenceError,
    check_feasible,
    markowitz_estimates,
    trace_frontier,
)
from portopt.solver import KKT_TOL, Problem

REGIMES = ("c1", "c2", "c3", "c4", "c5")


def _traced(monkeypatch, cov, mean, rf, c, grid) -> CertificateWatch:
    watch = CertificateWatch(monkeypatch)
    trace_frontier(cov, mean, rf, c, grid=grid)
    return watch


def _traced_path(monkeypatch, cov, mean, rf, c, grid):
    """The certificate calls of a traced curve that carry a target from its
    corner path, past the minimum-variance and maximum-Sharpe solves."""
    watch, corner_path, start = CertificateWatch(monkeypatch), Problem.corner_path, []

    def tracing(self, *args):
        start.append(len(watch.calls))
        return corner_path(self, *args)

    monkeypatch.setattr(Problem, "corner_path", tracing)
    trace_frontier(cov, mean, rf, c, grid=grid)
    return watch, watch.calls[start[0]:]


def _middle_call(calls):
    return calls[len(calls) // 2]


def _other_target(calls, kwargs):
    """The multipliers of the first recorded target other than ``kwargs``'s."""
    return next(kw["multipliers"] for _, kw in calls if kw["target"] != kwargs["target"])


@pytest.mark.parametrize("regime", ["c1", "c2", "c4"])
def test_certificates_agree_on_n50_curves(monkeypatch, regime):
    universe = make_table(factor_returns(np.random.default_rng(50), 128, 50))
    est = markowitz_estimates(universe)
    watch = _traced(monkeypatch, est.cov, est.mean, 0.0, ConstraintSet(regime), 100)
    assert len(watch.calls) >= 10 and watch.fallbacks == 0      # one per corner
    for args, kwargs in watch.calls:
        fast, fell_back = watch.certify(args, kwargs)
        nnls, _ = watch.certify(args, kwargs, multipliers=None)
        assert not fell_back and fast <= KKT_TOL
        assert abs(fast - nnls) <= 1e-10


@pytest.mark.parametrize("regime", ["c1", "c2", "c4"])
def test_corrupted_multipliers_fall_back_and_still_certify(monkeypatch, markets, regime):
    cov, mean, rf, _ = markets["bundled-mm"]
    watch, path = _traced_path(monkeypatch, cov, mean, rf, ConstraintSet(regime), 20)
    # the point with the largest multiplier on an active row
    args, kwargs = max(path, key=lambda call: call[1]["multipliers"][1].max())
    lam, mu = kwargs["multipliers"]
    nnls, _ = watch.certify(args, kwargs, multipliers=None)
    assert nnls <= KKT_TOL

    flipped = mu.copy()
    k = int(np.argmax(mu))
    assert mu[k] > KKT_TOL
    flipped[k] = -mu[k]
    assert watch.certify(args, kwargs, multipliers=(lam, flipped)) == (nnls, True)

    other = _other_target(path, kwargs)
    assert watch.certify(args, kwargs, multipliers=other) == (nnls, True)


def test_each_multiplier_condition_sends_to_the_fallback(monkeypatch):
    # at weight_bound 1/N the equal weights are the only point, every upper
    # bound is active and the multipliers are not unique: the budget's
    # multiplier can move against the bounds' without breaking stationarity
    n = 3
    rng = np.random.default_rng(7)
    cov, mean = random_spd(rng, n), rng.normal(0.01, 0.02, n)
    w = np.full(n, 1.0 / n)
    c = ConstraintSet("c2", weight_bound=1.0 / n)
    g = 2.0 * cov @ w
    watch = CertificateWatch(monkeypatch)

    def certify(lam0, mu):
        kwargs = {"mean": mean, "target": float(mean @ w),
                  "multipliers": (np.array([lam0, 0.0]), mu)}
        return watch.certify((w, cov, c), kwargs)

    def upper(lam0):          # closes stationarity on the active upper bounds
        return np.concatenate([-g - lam0, np.zeros(n)])

    lam0 = -g.max() - 0.01
    fast, fell_back = certify(lam0, upper(lam0))
    assert fast <= 1e-15 and not fell_back
    nnls, _ = watch.certify((w, cov, c), {"mean": mean, "target": float(mean @ w)})
    assert nnls <= KKT_TOL
    # a negative multiplier on an active row: only -min(mu) sees it
    lam0 = -g.min() + 0.01
    assert certify(lam0, upper(lam0)) == (nnls, True)
    # a multiplier on an inactive row, cancelled on the same variable's
    # active bound: only complementary slackness sees it
    lam0 = -g.max() - 0.01
    mu = upper(lam0)
    mu[[0, n]] += 0.01
    assert certify(lam0, mu) == (nnls, True)


def _moved(w, mean):
    """``w`` moved along a direction that keeps the budget and the return,
    over assets far from every bound, so the point stays feasible."""
    inner = np.flatnonzero((w > 0.05) & (w < 0.95))
    assert len(inner) >= 3
    _, _, vt = np.linalg.svd(np.vstack([np.ones(len(inner)), mean[inner]]))
    d = np.zeros(len(w))
    d[inner] = vt[-1]
    return w + 0.5 * w[inner].min() / np.abs(d).max() * d


@pytest.mark.parametrize("regime", ["c2", "c4"])
def test_wrong_point_fails_under_both_paths(monkeypatch, markets, regime):
    cov, mean, rf, _ = markets["bundled-mm"]
    watch, path = _traced_path(monkeypatch, cov, mean, rf, ConstraintSet(regime), 20)
    (w, *rest), kwargs = _middle_call(path)
    wrong = (_moved(w, mean), *rest)
    assert mean @ wrong[0] == pytest.approx(mean @ w, abs=1e-15)

    nnls, _ = watch.certify(wrong, kwargs, multipliers=None)
    assert nnls > KKT_TOL
    assert watch.certify(wrong, kwargs) == (nnls, True)
    other = _other_target(path, kwargs)
    assert watch.certify(wrong, kwargs, multipliers=other) == (nnls, True)


def test_bundled_target_points_never_fall_back(monkeypatch, markets):
    # tripwire for the fast path: every target point of the bundled MM and
    # IM curves is certified by its own multipliers, without an NNLS recovery
    for label in ("bundled-mm", "bundled-im"):
        cov, mean, rf, mi = markets[label]
        for regime in REGIMES:
            watch = _traced(monkeypatch, cov, mean, rf, constraint_for(regime, mi), 60)
            monkeypatch.undo()
            assert watch.calls, (label, regime)
            assert watch.fallbacks == 0, (label, regime)


def test_point_fails_at_another_target_under_both_paths(monkeypatch, markets):
    # the point solved at 70% of the bundled MM c4 return range, certified
    # at 30%: every regime row holds and stationarity closes, so only the
    # return row itself shows that the point misses the target
    cov, mean, rf, _ = markets["bundled-mm"]
    problem = Problem.prepare(cov, ConstraintSet("c4"), mean=mean, rf=rf)
    lo, hi = problem.return_range
    watch = CertificateWatch(monkeypatch)
    problem.target_return(lo + 0.7 * (hi - lo))
    (args, kwargs), = watch.calls
    assert watch.certify(args, kwargs)[0] <= 1e-15
    wrong = lo + 0.3 * (hi - lo)
    nnls, _ = watch.certify(args, kwargs, target=wrong, multipliers=None)
    assert nnls > KKT_TOL
    assert watch.certify(args, kwargs, target=wrong) == (nnls, True)


def _anchor_markets(markets):
    """(label, cov, mean, rf, market index): the bundled MM and IM data and a seeded N = 50 universe."""
    for label in ("bundled-mm", "bundled-im"):
        yield (label, *markets[label])
    universe = make_table(factor_returns(np.random.default_rng(50), 128, 50))
    est = markowitz_estimates(universe)
    yield "n50", est.cov, est.mean, 0.0, universe.market_position


def _anchor_call(monkeypatch, cov, mean, rf, c, objective):
    """The watch over one minimum-variance or maximum-Sharpe solve, and its one certificate."""
    problem = Problem.prepare(cov, c, mean=mean, rf=rf)
    watch = CertificateWatch(monkeypatch)
    getattr(problem, objective)()
    (call,) = watch.calls
    return watch, call


def test_anchor_solves_certify_from_their_multipliers(monkeypatch, markets):
    # every minimum-variance and maximum-Sharpe cell is certified by the
    # multipliers of its own QP, runs no NNLS recovery, and reads the
    # residual the NNLS recovery reads
    for label, cov, mean, rf, mi in _anchor_markets(markets):
        for regime in REGIMES:
            for objective in ("min_variance", "max_sharpe"):
                watch, (args, kwargs) = _anchor_call(
                    monkeypatch, cov, mean, rf, constraint_for(regime, mi), objective)
                monkeypatch.undo()
                case = (label, regime, objective)
                assert watch.fallbacks == 0 and watch.recoveries == 0, case
                fast, fell_back = watch.certify(args, kwargs)
                nnls, _ = watch.certify(args, kwargs, multipliers=None)
                assert not fell_back and fast <= KKT_TOL, case
                assert abs(fast - nnls) <= 1e-10, case


@pytest.mark.parametrize("regime", ["c1", "c2", "c4"])
def test_flipped_sharpe_multiplier_falls_back_and_still_certifies(monkeypatch, markets, regime):
    cov, mean, rf, _ = markets["bundled-mm"]
    watch, (args, kwargs) = _anchor_call(monkeypatch, cov, mean, rf, ConstraintSet(regime),
                                         "max_sharpe")
    lam, mu = kwargs["multipliers"]
    nnls, _ = watch.certify(args, kwargs, multipliers=None)
    assert nnls <= KKT_TOL
    flipped = mu.copy()
    k = int(np.argmax(mu))
    assert mu[k] > KKT_TOL
    flipped[k] = -mu[k]
    assert watch.certify(args, kwargs, multipliers=(lam, flipped)) == (nnls, True)


@pytest.mark.parametrize("objective, regime", [("min_variance", "c4"), ("max_sharpe", "c2")])
def test_moved_anchor_fails_under_both_paths(monkeypatch, markets, objective, regime):
    cov, mean, rf, _ = markets["bundled-mm"]
    watch, ((w, *rest), kwargs) = _anchor_call(monkeypatch, cov, mean, rf,
                                               ConstraintSet(regime), objective)
    wrong = (_moved(w, mean), *rest)
    assert check_feasible(wrong[0], ConstraintSet(regime)).feasible
    nnls, _ = watch.certify(wrong, kwargs, multipliers=None)
    assert nnls > KKT_TOL
    assert watch.certify(wrong, kwargs) == (nnls, True)


def _rows_of(args, kwargs, keep):
    """A stacked certificate call cut to the rows ``keep``."""
    (w, *rest), lam, mu = args, *kwargs["multipliers"]
    return ((w[keep], *rest), {**kwargs, "target": kwargs["target"][keep],
                               "excess": kwargs["excess"][keep], "multipliers": (lam[keep], mu[keep])})


def test_stacked_certificate_is_the_largest_row_certificate(monkeypatch, markets):
    # every grid-100 curve of the bundled MM and IM data and of the N = 50
    # universe certifies its corners in stacks, and each stack's residual is
    # bit for bit the largest of its rows' residuals, each row certified
    # alone; so is the residual of the stack cut to the rows whose own
    # residual is at most any one row's, so every row of a stack reads as alone
    stacks = 0
    for label, cov, mean, rf, mi in _anchor_markets(markets):
        for regime in REGIMES:
            watch = _traced(monkeypatch, cov, mean, rf, constraint_for(regime, mi), 100)
            monkeypatch.undo()
            for args, kwargs, value in watch.stacks:
                alone = np.array([watch.certify(*call)[0] for call in one_per_row(args, kwargs)])
                assert isinstance(value, float) and value.hex() == alone.max().hex(), (label, regime)
                for r in alone:
                    cut = watch.certify(*_rows_of(args, kwargs, alone <= r))[0]
                    assert cut.hex() == r.hex(), (label, regime)
                stacks += 1
    assert stacks >= 3 * len(REGIMES)


def _corner_targets(monkeypatch, cov, mean, rf, c, grid):
    """The target of each corner a traced curve's path certified, one per
    point in certificate order, and how many it had certified when each of
    its QPs started."""
    watch, start, before_qp = CertificateWatch(monkeypatch), [], []
    corner_path, target_qp = Problem.corner_path, Problem._target_qp

    def tracing(self, *args):
        start.append(len(watch.calls))
        return corner_path(self, *args)

    def solving(self, *args):
        before_qp.append(len(watch.calls) - start[0])
        return target_qp(self, *args)

    monkeypatch.setattr(Problem, "corner_path", tracing)
    monkeypatch.setattr(Problem, "_target_qp", solving)
    trace_frontier(cov, mean, rf, c, grid=grid)
    monkeypatch.undo()
    return [float(kwargs["target"]) for _, kwargs in watch.calls[start[0]:]], before_qp


@pytest.mark.parametrize("where", ["mid-path", "before-qp"])
def test_corrupted_corner_names_its_own_target(monkeypatch, markets, where):
    # the corner whose certificate reads 1 raises, naming its own target: one
    # in the middle of the bundled MM c4 path, and the segment's end certified
    # just before the zero-crossing path's first degenerate-corner QP, which
    # then never runs.  Maximum Sharpe is the first point certified at a
    # return level, so the path's corner j is the (j + 2)-th
    if where == "mid-path":
        cov, mean, rf, _ = markets["bundled-mm"]
        curve = (cov, mean, rf, ConstraintSet("c4"), 100)
    else:
        cov, mean, c = zero_crossing_universe()
        curve = (cov, mean, 0.0, c, 20)
    targets, before_qp = _corner_targets(monkeypatch, *curve)
    j = len(targets) // 2 if where == "mid-path" else before_qp[0] - 1
    assert 0 < j < len(targets) - 1
    qps = []
    target_qp = Problem._target_qp

    def solving(self, *args):
        qps.append(args[0])
        return target_qp(self, *args)

    monkeypatch.setattr(Problem, "_target_qp", solving)
    fail_certificate(monkeypatch, j + 2)
    message = (f"frontier point at target return {targets[j]:.10g} failed its KKT "
               f"certificate (residual 1)")
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        trace_frontier(*curve[:4], grid=curve[4])
    assert len(qps) == sum(b <= j for b in before_qp)
