"""Dual-model comparison reports across constraint regimes."""

from __future__ import annotations

import csv
import io
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
    error: str | None = None


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
                   constraints) -> ComparisonReport:
    """Solve both objectives under both models for each constraint regime.

    Failed cells are recorded with their error message instead of aborting
    the report.
    """
    if tuple(mm.tickers) != tuple(im.tickers):
        raise ValidationError("estimate sets cover different asset universes")
    n = mm.n_assets
    inputs = model_inputs(mm, im)
    cells: list[ReportCell] = []
    for c in constraints:
        for model, (cov, mean) in inputs.items():
            for objective in (OBJECTIVE_MIN_VARIANCE, OBJECTIVE_MAX_SHARPE):
                try:
                    sol = solve_objective(objective, cov, mean, rf, c, model=model)
                    cells.append(ReportCell(c, model, objective, solution=sol))
                except PortoptError as exc:
                    cells.append(ReportCell(c, model, objective, error=str(exc)))
    counts = (estimator_count(MODEL_MM, n), estimator_count(MODEL_IM, n))
    return ComparisonReport(tuple(mm.tickers), float(rf), tuple(cells), counts)


def report_to_csv(report: ComparisonReport) -> str:
    """One row per constraint x model x objective, one column per ticker."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "constraint", "model", "objective", *report.tickers,
        "return", "stdev", "sharpe", "kkt_residual", "converged", "error",
    ])
    for cell in report.cells:
        row = [cell.constraint.regime, cell.model, cell.objective]
        if cell.solution is not None:
            s = cell.solution
            row += [format(v, ".10g") for v in s.weights]
            row += [
                format(s.stats.ret, ".10g"),
                format(s.stats.stdev, ".10g"),
                format(s.stats.sharpe, ".10g"),
                format(s.kkt_residual, ".10g"),
                str(s.converged).lower(),
                "",
            ]
        else:
            row += [""] * (len(report.tickers) + 5)
            row.append(cell.error or "failed")
        writer.writerow(row)
    return out.getvalue()


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
            d["error"] = cell.error
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
    ``sharpe`` and ``weights`` (list ordered like the report tickers).
    """
    rows: list[dict] = []
    for cell in report.cells:
        key = f"{cell.constraint.regime}_{cell.model.lower()}_{cell.objective}"
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
