"""Constraint regimes and feasibility checks, including transcribed rows."""

import numpy as np
import pytest

from conftest import constraint_for
from portopt import ConstraintSet, ValidationError, check_feasible
from portopt.constraints import REGIMES, regime_model
from reference_rows import BOUND_HIT_LONG, MARKET, ROWS


def _row(regime, model, objective):
    for r in ROWS:
        if (r.regime, r.model, r.objective) == (regime, model, objective):
            return r
    raise KeyError((regime, model, objective))


def test_regime_validation():
    with pytest.raises(ValidationError):
        ConstraintSet("c9")
    with pytest.raises(ValidationError):
        ConstraintSet("c5")            # market index required
    ConstraintSet("c5", market_index=3)
    with pytest.raises(ValidationError):
        ConstraintSet("c1", leverage_cap=0.0)


@pytest.mark.parametrize("name", ["leverage_cap", "weight_bound"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_nonfinite_or_nonpositive_parameter_rejected(name, value):
    for regime in ("c1", "c2", "c3"):
        with pytest.raises(ValidationError, match=name):
            ConstraintSet(regime, **{name: value})


def test_describe_mentions_full_investment():
    for regime in ("c1", "c2", "c3", "c4"):
        assert "sum(w) = 1" in ConstraintSet(regime).describe()


def test_sign_violation_reported():
    rep = check_feasible([2.0, -1.0], ConstraintSet("c4"), tol=1e-9)
    assert not rep.feasible
    names = dict(rep.violations)
    assert names["long_only[1]"] == pytest.approx(1.0)


def test_full_investment_always_checked():
    rep = check_feasible([0.7, 0.7], ConstraintSet("c3"), tol=1e-9)
    assert not rep.feasible
    assert rep.violations[0][0] == "full_investment"
    assert rep.violations[0][1] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("regime", ["c1", "c2", "c3", "c4", "c5"])
def test_nan_weight_is_a_violation(regime):
    rep = check_feasible([np.nan, 0.5, 0.5], ConstraintSet(regime, market_index=0))
    assert not rep.feasible
    assert rep.violations[0][0] == "full_investment" and np.isnan(rep.violations[0][1])


@pytest.mark.parametrize("regime, market_index, expected", [
    ("c1", None, ["full_investment", "split_part[0]", "split_part[3]", "leverage_cap"]),
    ("c2", None, ["full_investment", "weight_upper[0]", "weight_lower[0]"]),
    ("c3", None, ["full_investment"]),
    ("c4", None, ["full_investment", "long_only[0]"]),
    ("c5", 0, ["full_investment", "market_excluded"]),
])
def test_nan_weight_marks_only_its_own_rows(regime, market_index, expected):
    # every equality is reported once, and a NaN weight makes NaN only the
    # rows with a nonzero coefficient on it: the dense product's 0 * NaN is
    # no violation of a row that does not read that weight
    rep = check_feasible([np.nan, 0.5, 0.5], ConstraintSet(regime, market_index=market_index))
    assert [name for name, _ in rep.violations] == expected
    assert all(np.isnan(amount) for _, amount in rep.violations)


def test_each_equality_reported_once_in_row_order():
    # weights summing to 0.5 miss full investment from below, and 0.1 on
    # the market misses its exclusion from above: each equality is listed
    # once, by how far it misses, full investment first
    rep = check_feasible([0.1, 0.2, 0.2], ConstraintSet("c5", market_index=0), tol=1e-9)
    assert rep.violations == (("full_investment", pytest.approx(0.5)),
                              ("market_excluded", pytest.approx(0.1)))
    rep = check_feasible([np.nan, 0.5, 0.5], ConstraintSet("c5", market_index=1))
    assert [name for name, _ in rep.violations] == ["full_investment", "market_excluded"]
    assert np.isnan(rep.violations[0][1]) and rep.violations[1][1] == 0.5


def test_leverage_magnitude():
    rep = check_feasible([2.0, -1.0], ConstraintSet("c1"), tol=1e-9)
    assert dict(rep.violations)["leverage_cap"] == pytest.approx(1.0, abs=1e-12)


def test_box_and_market_exclusion():
    rep = check_feasible([1.4, -0.4], ConstraintSet("c2"), tol=1e-6)
    assert ("weight_upper[0]", pytest.approx(0.4)) in [
        (n, pytest.approx(v)) for n, v in rep.violations
    ]
    # each side of a box is named apart: -1.4 breaks the lower bound
    rep = check_feasible([2.4, -1.4], ConstraintSet("c2"), tol=1e-6)
    assert [(n, pytest.approx(v)) for n, v in rep.violations] == [
        ("weight_upper[0]", pytest.approx(1.4)), ("weight_lower[1]", pytest.approx(0.4))]
    rep = check_feasible([0.9, 0.1], ConstraintSet("c5", market_index=1), tol=1e-6)
    assert dict(rep.violations)["market_excluded"] == pytest.approx(0.1)


def test_reference_long_only_minvar_feasible():
    row = _row("c4", "MM", "min_variance")
    rep = check_feasible(np.array(row.weights), ConstraintSet("c4"), tol=1e-4)
    assert rep.feasible
    assert min(row.weights) >= 0.0
    assert abs(sum(row.weights) - 1.0) < 1e-5


def test_reference_box_maxsharpe_bounds_active():
    row = _row("c2", "MM", "max_sharpe")
    rep = check_feasible(np.array(row.weights), ConstraintSet("c2"), tol=1e-4)
    assert rep.feasible
    assert abs(row.weights[BOUND_HIT_LONG] - 1.0) < 1e-5
    assert abs(row.weights[MARKET] + 1.0) < 1e-5


def test_reference_leverage_maxsharpe_binding():
    row = _row("c1", "MM", "max_sharpe")
    gross = float(np.abs(np.array(row.weights)).sum())
    assert abs(gross - 2.0) < 5e-4
    assert check_feasible(np.array(row.weights), ConstraintSet("c1"), tol=1e-4).feasible


def test_reference_market_exclusion_rows():
    for model in ("MM", "IM"):
        for objective in ("min_variance", "max_sharpe"):
            row = _row("c5", model, objective)
            assert row.weights[MARKET] == 0.0
            rep = check_feasible(
                np.array(row.weights), ConstraintSet("c5", market_index=MARKET),
                tol=1e-4,
            )
            assert rep.feasible


def test_all_reference_rows_sum_to_one():
    for row in ROWS:
        assert abs(sum(row.weights) - 1.0) < 5e-7, (row.regime, row.model, row.objective)


@pytest.mark.parametrize("regime", REGIMES)
def test_each_row_is_held_once(regime):
    # an equality is one row, not a pair a.x <= b, -a.x <= -b: its excess
    # is how far a portfolio misses it from either side, and check_feasible
    # lists it once; the split's own rows never show for a weight vector
    c = constraint_for(regime, 4)
    r = regime_model(c, 5)
    _, _, _, b_in = r.system()
    assert len(r.rows) == len(r.rhs) == len(r.names) == r.m_eq + len(b_in)
    assert len(set(r.names)) == len(r.names) and r.names[0] == "full_investment"
    w = np.array([0.6, -0.2, 0.3, 0.3, 0.0])
    for total in (1.3, 0.7):
        assert r.excess(total * w)[0] == pytest.approx(0.3, abs=1e-12)
        rep = check_feasible(total * w, c, tol=1e-9)
        amounts = [amount for name, amount in rep.violations if name == "full_investment"]
        assert amounts == [pytest.approx(0.3, abs=1e-12)]
    if regime == "c1":
        for v in (1.3 * w, 0.7 * w, w, np.array([2.0, -1.5, 0.5, 0.0, 0.0])):
            assert not any(name.startswith("split_part") for name, _ in
                           check_feasible(v, c, tol=1e-9).violations)
