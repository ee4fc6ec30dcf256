"""Dual-model comparison reports across constraint regimes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .errors import PortoptError, ValidationError
from .estimation import (
    MODEL_IM,
    MODEL_MM,
    IndexModelEstimates,
    MarkowitzEstimates,
    estimator_count,
    im_covariance,
)
from .ingest import csv_text
from .solver import (
    OBJECTIVE_MAX_SHARPE,
    OBJECTIVE_MIN_VARIANCE,
    PortfolioSolution,
    solve_objective,
)


@dataclass(frozen=True)
class ReportCell:
    constraint: ConstraintSet
    model: str
    objective: str
    solution: PortfolioSolution | None = None
    error: PortoptError | None = None   # what failed the cell, when it has no solution


@dataclass(frozen=True)
class ComparisonReport:
    tickers: tuple[str, ...]
    rf: float
    cells: tuple[ReportCell, ...]
    estimator_counts: tuple[int, int]   # (full-covariance, single-index)


def model_inputs(mm: MarkowitzEstimates, im: IndexModelEstimates) -> dict:
    """``{model: (covariance, mean)}`` for the full-covariance and single-index models."""
    return {
        MODEL_MM: (mm.cov, mm.mean),
        MODEL_IM: (im_covariance(im), im.expected_returns()),
    }


def compare_models(mm: MarkowitzEstimates, im: IndexModelEstimates, rf: float,
                   constraints, *, models=(MODEL_MM, MODEL_IM),
                   objectives=(OBJECTIVE_MIN_VARIANCE, OBJECTIVE_MAX_SHARPE)) -> ComparisonReport:
    """Solve each objective under each model for each constraint regime.

    Failed cells keep their error instead of aborting the report.
    """
    if tuple(mm.tickers) != tuple(im.tickers):
        raise ValidationError("estimate sets cover different asset universes")
    n = mm.n_assets
    inputs = model_inputs(mm, im)
    cells: list[ReportCell] = []
    for c in constraints:
        for model in models:
            cov, mean = inputs[model]
            for objective in objectives:
                try:
                    sol = solve_objective(objective, cov, mean, rf, c, model=model)
                    cells.append(ReportCell(c, model, objective, solution=sol))
                except PortoptError as exc:
                    cells.append(ReportCell(c, model, objective, error=exc))
    counts = (estimator_count(MODEL_MM, n), estimator_count(MODEL_IM, n))
    return ComparisonReport(tuple(mm.tickers), float(rf), tuple(cells), counts)


def report_to_csv(report: ComparisonReport) -> str:
    """One row per constraint x model x objective, one column per ticker."""
    rows = [["constraint", "model", "objective", *report.tickers,
             "return", "stdev", "sharpe", "kkt_residual", "converged", "error"]]
    for cell in report.cells:
        row = [cell.constraint.regime, cell.model, cell.objective]
        s = cell.solution
        if s is not None:
            row += [*s.weights, s.stats.ret, s.stats.stdev, s.stats.sharpe, s.kkt_residual,
                    str(s.converged).lower(), ""]
        else:
            row += [""] * (len(report.tickers) + 5) + [str(cell.error) or "failed"]
        rows.append(row)
    return csv_text(rows)


def report_to_json_dict(report: ComparisonReport) -> dict:
    cells = []
    for cell in report.cells:
        d: dict = {
            "constraint": cell.constraint.to_json_dict(),
            "model": cell.model,
            "objective": cell.objective,
        }
        if cell.solution is not None:
            d["solution"] = cell.solution.to_json_dict(report.tickers)
        else:
            d["error"] = str(cell.error)
        cells.append(d)
    mm_count, im_count = report.estimator_counts
    return {
        "tickers": list(report.tickers),
        "rf": report.rf,
        "estimator_counts": {"mm": mm_count, "im": im_count},
        "cells": cells,
    }


def expected_cell_deltas(report: ComparisonReport, expected: dict) -> list[dict]:
    """Differences between report cells and externally supplied expectations.

    ``expected`` maps ``"<constraint>_<model>_<objective>"`` (lowercase model,
    e.g. ``c3_mm_min_variance``) to dicts with any of ``return``, ``stdev``,
    ``sharpe`` and ``weights`` (list ordered like the report tickers).  A key
    that names no report cell, a value that is no dict, any other field, a
    boolean for a number, or a weights list of another length than the
    tickers, raises ``ValueError``.
    """
    keys = [f"{c.constraint.regime}_{c.model.lower()}_{c.objective}" for c in report.cells]
    for key, exp in expected.items():
        if key not in keys:
            raise ValueError(f"{key!r} names no report cell")
        if not isinstance(exp, dict):
            raise ValueError(f"{key!r} holds a {type(exp).__name__}, not an object")
        for field, value in exp.items():
            if field not in ("return", "stdev", "sharpe", "weights"):
                raise ValueError(f"{key!r} has unknown field {field!r}")
            if any(isinstance(v, bool) for v in (value if field == "weights" else [value])):
                raise ValueError(f"{key!r} field {field!r} holds a boolean, not a number")
        if "weights" in exp and len(exp["weights"]) != len(report.tickers):
            raise ValueError(f"{key!r} has {len(exp['weights'])} weights "
                             f"for {len(report.tickers)} tickers")
    rows: list[dict] = []
    for key, cell in zip(keys, report.cells):
        if key not in expected or cell.solution is None:
            continue
        exp = expected[key]
        sol = cell.solution
        actual = {
            "return": sol.stats.ret,
            "stdev": sol.stats.stdev,
            "sharpe": sol.stats.sharpe,
        }
        for field in ("return", "stdev", "sharpe"):
            if field in exp:
                rows.append({
                    "cell": key, "field": field,
                    "expected": float(exp[field]),
                    "actual": actual[field],
                    "delta": actual[field] - float(exp[field]),
                })
        if "weights" in exp:
            wexp = np.asarray(exp["weights"], dtype=float)
            for ticker, a, b in zip(report.tickers, sol.weights, wexp):
                rows.append({
                    "cell": key, "field": f"weight[{ticker}]",
                    "expected": float(b), "actual": float(a),
                    "delta": float(a - b),
                })
    return rows
