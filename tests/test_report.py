"""Comparison reports: cell coverage, degradation, serialization, deltas."""

import numpy as np
import pytest

from conftest import PRICES_CSV, RISKFREE_CSV, factor_returns, make_table
from portopt import (
    ConstraintSet,
    ValidationError,
    average_risk_free,
    compare_models,
    compute_monthly_returns,
    index_model_estimates,
    markowitz_estimates,
    parse_price_table,
    parse_riskfree_table,
    select_bom,
)
from portopt.report import (
    expected_cell_deltas,
    report_to_csv,
    report_to_json_dict,
)

RF = 0.002


@pytest.fixture(scope="module")
def estimates():
    # seed chosen so the unconstrained tangency exists under both models
    rng = np.random.default_rng(78)
    table = make_table(factor_returns(rng, 90, 6))
    return table, markowitz_estimates(table), index_model_estimates(table)


def all_constraints(table):
    return [
        ConstraintSet(r, market_index=table.market_position if r == "c5" else None)
        for r in ("c1", "c2", "c3", "c4", "c5")
    ]


def test_report_covers_all_cells(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, RF, all_constraints(table))
    assert len(rep.cells) == 5 * 2 * 2
    combos = {(c.constraint.regime, c.model, c.objective) for c in rep.cells}
    assert len(combos) == 20
    assert rep.estimator_counts == (2 * 6 + 15, 3 * 6 + 2)


def test_report_mm_im_returns_close_on_factor_data(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, RF, [ConstraintSet("c3")])
    sharpes = {}
    for cell in rep.cells:
        assert cell.solution is not None, cell.error
        if cell.objective == "max_sharpe":
            sharpes[cell.model] = cell.solution.stats.sharpe
    # data generated by a single-factor process: models agree within 5%
    assert abs(sharpes["MM"] - sharpes["IM"]) <= 0.05 * abs(sharpes["MM"])


def test_report_degrades_per_cell(estimates):
    table, mm, im = estimates
    # shift every mean below rf: max-Sharpe cells fail under c4, min-variance fine
    rep = compare_models(mm, im, 10.0, [ConstraintSet("c4")])
    failed = [c for c in rep.cells if c.solution is None]
    fine = [c for c in rep.cells if c.solution is not None]
    assert {c.objective for c in failed} == {"max_sharpe"}
    assert {c.objective for c in fine} == {"min_variance"}
    for cell in failed:
        assert cell.error


def test_report_csv_marks_failed_cells(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, 10.0, [ConstraintSet("c4")])
    lines = report_to_csv(rep).strip().split("\n")
    failed_lines = [ln for ln in lines[1:] if ln.split(",")[2] == "max_sharpe"]
    assert failed_lines
    for ln in failed_lines:
        assert "excess return" in ln   # error message carried in the last column


def test_report_mismatched_universes_rejected(estimates):
    table, mm, im = estimates
    rng = np.random.default_rng(1)
    other = make_table(factor_returns(rng, 30, 3))
    with pytest.raises(ValidationError):
        compare_models(mm, index_model_estimates(other), RF, [ConstraintSet("c3")])


def test_report_csv_layout(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, RF, all_constraints(table))
    lines = report_to_csv(rep).strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["constraint", "model", "objective"]
    assert header[3:9] == list(table.tickers)
    assert header[-6:] == ["return", "stdev", "sharpe", "kkt_residual",
                           "converged", "error"]
    assert len(lines) == 21


def test_report_json_layout(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, RF, all_constraints(table))
    doc = report_to_json_dict(rep)
    assert doc["estimator_counts"] == {"mm": 27, "im": 20}
    assert len(doc["cells"]) == 20
    sol_cells = [c for c in doc["cells"] if "solution" in c]
    assert sol_cells and all("weights" in c["solution"] for c in sol_cells)


def test_expected_cell_deltas(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, RF, [ConstraintSet("c3")])
    cell = next(c for c in rep.cells
                if c.model == "MM" and c.objective == "min_variance")
    expected = {
        "c3_mm_min_variance": {
            "return": cell.solution.stats.ret + 0.001,
            "weights": list(cell.solution.weights),
        }
    }
    rows = expected_cell_deltas(rep, expected)
    ret_row = next(r for r in rows if r["field"] == "return")
    assert ret_row["delta"] == pytest.approx(-0.001, abs=1e-12)
    wrows = [r for r in rows if r["field"].startswith("weight[")]
    assert len(wrows) == 6
    assert all(abs(r["delta"]) < 1e-12 for r in wrows)


def test_expected_cell_deltas_rejects_unknown_keys_and_wrong_lengths(estimates):
    table, mm, im = estimates
    rep = compare_models(mm, im, RF, [ConstraintSet("c3")])
    for expected, cause in (
        ({"c3_mm_min_variance": {"weights": [0.5, 0.5]}}, "has 2 weights for 6 tickers"),
        ({"c3_mm_min_variance": {"weights": [0.1] * 7}}, "has 7 weights for 6 tickers"),
        ({"c4_mm_min_variance": {"return": 0.01}}, "'c4_mm_min_variance' names no report cell"),
        ({"c3_MM_min_variance": {"return": 0.01}}, "'c3_MM_min_variance' names no report cell"),
    ):
        with pytest.raises(ValueError, match=cause):
            expected_cell_deltas(rep, expected)


def test_bundled_report_iteration_counts():
    # pins the active-set path of every cell on the bundled data: a changed
    # count means the engine took another route to its answer
    table = compute_monthly_returns(select_bom(parse_price_table(
        PRICES_CSV.read_text(encoding="utf-8"), "MKT")))
    rf = average_risk_free(parse_riskfree_table(RISKFREE_CSV.read_text(encoding="utf-8")))
    rep = compare_models(markowitz_estimates(table), index_model_estimates(table, rf=rf), rf,
                         all_constraints(table))
    assert len(rep.cells) == 20
    counts = {   # (min variance, maximum Sharpe) of MM, then of IM
        "c1": ((2, 6), (2, 5)), "c2": ((2, 10), (2, 10)), "c3": ((1, 1), (1, 1)),
        "c4": ((2, 4), (2, 3)), "c5": ((1, 2), (1, 2)),
    }
    for cell in rep.cells:
        model = ("MM", "IM").index(cell.model)
        objective = ("min_variance", "max_sharpe").index(cell.objective)
        assert cell.solution.iterations == counts[cell.constraint.regime][model][objective], (
            cell.constraint.regime, cell.model, cell.objective)
