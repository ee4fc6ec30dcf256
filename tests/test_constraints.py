"""Constraint regimes and feasibility checks, including transcribed rows."""

import numpy as np
import pytest

from portopt import ConstraintSet, ValidationError, check_feasible
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


def test_leverage_magnitude():
    rep = check_feasible([2.0, -1.0], ConstraintSet("c1"), tol=1e-9)
    assert dict(rep.violations)["leverage_cap"] == pytest.approx(1.0, abs=1e-12)


def test_box_and_market_exclusion():
    rep = check_feasible([1.4, -0.4], ConstraintSet("c2"), tol=1e-6)
    assert ("weight_bound[0]", pytest.approx(0.4)) in [
        (n, pytest.approx(v)) for n, v in rep.violations
    ]
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
