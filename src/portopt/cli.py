"""Command-line pipeline: ingest -> solve -> frontier -> compare.

Every command is deterministic for fixed inputs, configuration and seed;
no output embeds a timestamp.  Exit codes: 0 success, 1 input/validation
error, 2 solver non-convergence (or undefined Sharpe), 3 infeasible
constraints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .constraints import REGIMES, ConstraintSet
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSharpeError,
    InfeasibleError,
    InsufficientDataError,
    ParseError,
    SamplingError,
    SingularMatrixError,
    ValidationError,
)
from .estimation import (
    MODEL_IM,
    MODEL_MM,
    index_model_estimates,
    markowitz_estimates,
)
from .frontier import (
    capital_allocation_line,
    cloud_points,
    frontier_to_csv,
    points_to_csv,
    sample_cloud,
    trace_frontier,
)
from .ingest import (
    average_risk_free,
    compute_monthly_returns,
    csv_text,
    format_number,
    month_label,
    monthly_returns_to_csv,
    parse_price_table,
    parse_riskfree_table,
    select_bom,
)
from .report import (
    compare_models,
    expected_cell_deltas,
    model_inputs,
    report_to_csv,
    report_to_json_dict,
)
from .solver import OBJECTIVE_MAX_SHARPE, OBJECTIVE_MIN_VARIANCE
from .svgplot import Series, render_plot

OUTPUT_DIR_ENV = "PORTOPT_OUTPUT_DIR"

_MODEL_CHOICES = ("mm", "im", "both")
_OBJECTIVE_CHOICES = ("minvar", "maxsharpe", "both")
_FORMAT_CHOICES = ("csv", "json", "svg")
_OBJECTIVE_NAMES = {OBJECTIVE_MIN_VARIANCE: "minvar", OBJECTIVE_MAX_SHARPE: "maxsharpe"}
# the JSON types a config file may give each RunConfig field, by annotation;
# matched exactly, since JSON true is a Python bool and bool subclasses int
_CONFIG_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,),
                 "None": (type(None),), "tuple[str, ...]": (list, str)}

# (failure classes, exit code, stderr prefix), gravest first: a command
# that failed several ways exits with the first row any failure matches
_EXITS = (
    ((InfeasibleError,), 3, "infeasible"),
    ((ConvergenceError, DegenerateSharpeError, SamplingError), 2, "solver failure"),
    ((ParseError, ValidationError, ConfigError, InsufficientDataError, SingularMatrixError,
      OSError), 1, "error"),
)

_COLORS = {
    ("frontier", MODEL_MM): "#1f77b4",
    ("frontier", MODEL_IM): "#ff7f0e",
    ("cal", MODEL_MM): "#2ca02c",
    ("cal", MODEL_IM): "#d62728",
    ("cloud", MODEL_MM): "#aec7e8",
    ("cloud", MODEL_IM): "#ffbb78",
}


@dataclass
class RunConfig:
    prices_path: str | None = None
    riskfree_path: str | None = None
    market_ticker: str | None = None
    model: str = "both"
    objective: str = "both"
    constraint: str = "c3"
    rf_override: float | None = None
    covariance_denominator: str = "sample"
    regression_mode: str = "raw"
    seed: int = 0
    output_dir: str = "."
    formats: tuple[str, ...] = ("csv", "json", "svg")
    grid: int = 100
    cloud_count: int = 500
    expected_dir: str | None = None
    forward_fill: bool = False
    leverage_cap: float = 2.0
    weight_bound: float = 1.0

    def validate(self) -> None:
        if self.model not in _MODEL_CHOICES:
            raise ConfigError(f"model must be one of {_MODEL_CHOICES}, got {self.model!r}")
        if self.objective not in _OBJECTIVE_CHOICES:
            raise ConfigError(
                f"objective must be one of {_OBJECTIVE_CHOICES}, got {self.objective!r}"
            )
        if self.constraint not in REGIMES:
            raise ConfigError(f"constraint must be one of {REGIMES}, got {self.constraint!r}")
        if self.covariance_denominator not in ("sample", "population"):
            raise ConfigError("covariance denominator must be 'sample' or 'population'")
        if self.regression_mode not in ("raw", "excess"):
            raise ConfigError("regression mode must be 'raw' or 'excess'")
        bad = [f for f in self.formats if f not in _FORMAT_CHOICES]
        if bad:
            raise ConfigError(f"unknown output formats {bad}")
        if self.grid < 2:
            raise ConfigError("grid must be at least 2")
        if self.cloud_count < 1:
            raise ConfigError("cloud count must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.rf_override is not None and not math.isfinite(self.rf_override):
            raise ConfigError(f"the risk-free rate (--rf) must be finite, got {self.rf_override}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_text(path) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"input file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"input file {path} is not UTF-8 text: byte "
                          f"{exc.object[exc.start]:#04x} at offset {exc.start}") from None


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(cfg: RunConfig, *, estimate: bool = True):
    """``(table, rf, mm, im)`` from the configured inputs; the estimates are
    ``None`` unless ``estimate``.  Every file is read before any parsing."""
    if not cfg.prices_path:
        raise ConfigError("a prices file is required (--prices)")
    if not cfg.market_ticker:
        raise ConfigError("the market ticker is required (--market-ticker)")
    prices = _read_text(cfg.prices_path)
    riskfree = None
    if cfg.rf_override is None:
        if not cfg.riskfree_path:
            raise ConfigError("either a risk-free file (--riskfree) or --rf is required")
        riskfree = _read_text(cfg.riskfree_path)
    if cfg.expected_dir and not Path(cfg.expected_dir).is_dir():
        raise ConfigError(f"expected-values directory not found: {cfg.expected_dir}")
    daily = parse_price_table(prices, cfg.market_ticker,
                              forward_fill=cfg.forward_fill, filename=cfg.prices_path)
    table = compute_monthly_returns(select_bom(daily))
    if riskfree is None:
        rf = float(cfg.rf_override)
    else:
        rf = average_risk_free(parse_riskfree_table(riskfree, filename=cfg.riskfree_path))
    if not estimate:
        return table, rf, None, None
    ddof = 1 if cfg.covariance_denominator == "sample" else 0
    return (table, rf, markowitz_estimates(table, ddof=ddof),
            index_model_estimates(table, mode=cfg.regression_mode, rf=rf, ddof=ddof))


def _constraint(cfg: RunConfig, table, regime: str | None = None) -> ConstraintSet:
    regime = regime or cfg.constraint
    return ConstraintSet(
        regime,
        market_index=table.market_position if regime == "c5" else None,
        leverage_cap=cfg.leverage_cap,
        weight_bound=cfg.weight_bound,
    )


def cmd_ingest(cfg: RunConfig) -> int:
    table, rf, _, _ = _load(cfg, estimate=False)
    out = _outdir(cfg)
    path = out / "monthly_returns.csv"
    path.write_text(monthly_returns_to_csv(table), encoding="utf-8")
    print(f"observations: {table.sample_size}")
    print(f"assets: {table.n_assets}")
    print(f"months: {month_label(table.months[0])} .. {month_label(table.months[-1])}")
    print(f"average monthly risk-free rate: {format_number(rf)}")
    print(f"wrote {path}")
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    table, rf, mm, im = _load(cfg)
    c = _constraint(cfg, table)
    report = compare_models(
        mm, im, rf, [c],
        models=[m for m in (MODEL_MM, MODEL_IM) if cfg.model in (m.lower(), "both")],
        objectives=[o for o, name in _OBJECTIVE_NAMES.items() if cfg.objective in (name, "both")],
    )
    out = _outdir(cfg)
    failures: list[tuple[str, str, Exception]] = []
    for cell in report.cells:
        model, obj, sol = cell.model, _OBJECTIVE_NAMES[cell.objective], cell.solution
        if sol is None:
            failures.append((model, obj, cell.error))
            print(f"{model} {obj} {c.regime}: FAILED ({cell.error})", file=sys.stderr)
            continue
        stem = f"solution_{model.lower()}_{obj}_{c.regime}"
        if "json" in cfg.formats:
            (out / f"{stem}.json").write_text(
                _json_text(sol.to_json_dict(table.tickers)), encoding="utf-8"
            )
        if "csv" in cfg.formats:
            stats = (sol.stats.ret, sol.stats.stdev, sol.stats.sharpe)
            (out / f"{stem}.csv").write_text(
                csv_text([[*table.tickers, "return", "stdev", "sharpe"], [*sol.weights, *stats]]),
                encoding="utf-8",
            )
        if not sol.converged:
            failures.append((model, obj, ConvergenceError(f"kkt_residual={sol.kkt_residual:.3e}")))
        print(
            f"{model} {obj} {c.regime}: return={format_number(sol.stats.ret)} "
            f"stdev={format_number(sol.stats.stdev)} sharpe={format_number(sol.stats.sharpe)}"
        )
    if failures:
        doc = [{"model": m, "objective": o, "kind": type(e).__name__, "error": str(e)}
               for m, o, e in failures]
        (out / "diagnostics.json").write_text(
            _json_text({"failures": doc}), encoding="utf-8"
        )
        return _exit([e for *_, e in failures])[0]
    return 0


def cmd_frontier(cfg: RunConfig) -> int:
    table, rf, mm, im = _load(cfg)
    c = _constraint(cfg, table)
    inputs = model_inputs(mm, im)
    out = _outdir(cfg)

    curves = {m: trace_frontier(*inputs[m], rf, c, grid=cfg.grid, model=m)
              for m in (MODEL_MM, MODEL_IM)}
    cloud = sample_cloud(c, table.n_assets, cfg.cloud_count, cfg.seed)
    pts = {MODEL_MM: cloud_points(cloud, mm, rf), MODEL_IM: cloud_points(cloud, im, rf)}
    sigma_max = max(1.05 * max(s for m in curves for s, _ in curves[m].points),
                    float(max(pts[m][:, 0].max() for m in pts)),
                    max(curves[m].tangency.stats.stdev for m in curves))
    cals = {
        m: capital_allocation_line(rf, curves[m].tangency.stats, sigma_max, grid=cfg.grid)
        for m in curves
    }

    if "csv" in cfg.formats:
        for m in (MODEL_MM, MODEL_IM):
            tag = m.lower()
            (out / f"frontier_{tag}.csv").write_text(frontier_to_csv(curves[m]), encoding="utf-8")
            (out / f"cal_{tag}.csv").write_text(points_to_csv(cals[m]), encoding="utf-8")
            (out / f"cloud_{tag}.csv").write_text(points_to_csv(pts[m]), encoding="utf-8")
    if "json" in cfg.formats:
        doc = {"constraint": c.to_json_dict(), "rf": rf}
        for m in (MODEL_MM, MODEL_IM):
            doc[m.lower()] = {
                "points": [[s, r] for s, r in curves[m].points],
                "tangency": curves[m].tangency.to_json_dict(table.tickers),
                "min_variance": curves[m].min_variance.to_json_dict(table.tickers),
            }
        (out / f"frontier_{c.regime}.json").write_text(_json_text(doc), encoding="utf-8")
    if "svg" in cfg.formats:
        layers = (("cloud", "cloud", pts),
                  ("frontier", "frontier", {m: curves[m].points for m in curves}),
                  ("cal", "CAL", cals))
        series = [
            Series(tuple(p[0] for p in points[m]), tuple(p[1] for p in points[m]),
                   label=f"{m} {label}", kind="scatter" if layer == "cloud" else "line",
                   color=_COLORS[(layer, m)], css_class=f"{layer}-{m.lower()}")
            for layer, label, points in layers for m in (MODEL_MM, MODEL_IM)
        ]
        svg = render_plot(
            series,
            title=f"Efficient frontier and CAL under {c.regime}",
            xlabel="standard deviation (monthly)",
            ylabel="expected return (monthly)",
        )
        (out / f"frontier_{c.regime}.svg").write_text(svg, encoding="utf-8")
    for m in (MODEL_MM, MODEL_IM):
        t = curves[m].tangency.stats
        print(f"{m}: tangency sharpe={format_number(t.sharpe)} stdev={format_number(t.stdev)}")
    print(f"wrote frontier outputs to {out}")
    return 0


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _json_file(path) -> object:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def _load_expected(expected_dir: str) -> dict:
    return {p.stem: _json_file(p) for p in sorted(Path(expected_dir).glob("*.json"))}


def cmd_compare(cfg: RunConfig) -> int:
    table, rf, mm, im = _load(cfg)
    constraints = [_constraint(cfg, table, regime=r) for r in REGIMES]
    report = compare_models(mm, im, rf, constraints)
    out = _outdir(cfg)

    if "csv" in cfg.formats:
        (out / "comparison.csv").write_text(report_to_csv(report), encoding="utf-8")
    if "json" in cfg.formats:
        (out / "comparison.json").write_text(
            _json_text(report_to_json_dict(report)), encoding="utf-8"
        )

    # output locations do not affect the computation and are omitted so the
    # manifest depends only on inputs, configuration and seed
    cfg_dict = {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in asdict(cfg).items()
                if k not in ("output_dir", "expected_dir")}
    manifest = {
        "tool": "portopt",
        "version": __version__,
        "config": cfg_dict,
        "inputs": {
            "prices": {
                "path": cfg.prices_path,
                "sha256": _sha256_file(cfg.prices_path) if cfg.prices_path else None,
            },
            "riskfree": {
                "path": cfg.riskfree_path,
                "sha256": _sha256_file(cfg.riskfree_path) if cfg.riskfree_path else None,
            },
        },
        "rf": rf,
        "estimator_counts": {
            "mm": report.estimator_counts[0],
            "im": report.estimator_counts[1],
        },
    }
    (out / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")

    if cfg.expected_dir:
        columns = ("cell", "field", "expected", "actual", "delta")
        try:
            deltas = expected_cell_deltas(report, _load_expected(cfg.expected_dir))
        except (TypeError, ValueError) as exc:   # valid JSON holding the wrong values
            raise ConfigError(f"malformed expected values in {cfg.expected_dir}: {exc}") from None
        (out / "deltas.csv").write_text(
            csv_text([columns, *([row[k] for k in columns] for row in deltas)]),
            encoding="utf-8",
        )

    failed = sum(1 for cell in report.cells if cell.solution is None)
    print(f"estimator counts: mm={report.estimator_counts[0]} im={report.estimator_counts[1]}")
    print(f"cells: {len(report.cells)} total, {failed} failed")
    print(f"wrote comparison outputs to {out}")
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--prices", dest="prices_path", help="daily price CSV")
    sp.add_argument("--riskfree", dest="riskfree_path", help="month,annual_rate CSV")
    sp.add_argument("--market-ticker", dest="market_ticker", help="market index column")
    sp.add_argument("--rf", dest="rf_override", type=float,
                    help="fixed monthly risk-free rate, overrides --riskfree")
    sp.add_argument("--covariance-denominator", dest="covariance_denominator",
                    choices=("sample", "population"))
    sp.add_argument("--regression-mode", dest="regression_mode",
                    choices=("raw", "excess"))
    sp.add_argument("--forward-fill", dest="forward_fill", action="store_const",
                    const=True, help="carry last price over missing cells")
    sp.add_argument("--output-dir", dest="output_dir",
                    help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
    sp.add_argument("--format", dest="formats",
                    help="comma-separated subset of csv,json,svg")
    sp.add_argument("--leverage-cap", dest="leverage_cap", type=float,
                    help="gross exposure cap for c1 (default 2)")
    sp.add_argument("--weight-bound", dest="weight_bound", type=float,
                    help="per-asset bound for c2 (default 1)")
    sp.add_argument("--seed", dest="seed", type=int, help="random seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portopt",
        description="Constrained mean-variance / single-index portfolio pipeline",
    )
    parser.add_argument("--version", action="version", version=f"portopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="aggregate daily prices to monthly returns")
    _add_common(sp)

    sp = sub.add_parser("solve", help="solve portfolio problems for one regime")
    _add_common(sp)
    sp.add_argument("--model", choices=_MODEL_CHOICES)
    sp.add_argument("--objective", choices=_OBJECTIVE_CHOICES)
    sp.add_argument("--constraint", choices=REGIMES)

    sp = sub.add_parser("frontier", help="trace frontiers, CALs and clouds")
    _add_common(sp)
    sp.add_argument("--constraint", choices=REGIMES)
    sp.add_argument("--grid", type=int, help="frontier grid points")
    sp.add_argument("--cloud-count", dest="cloud_count", type=int)

    sp = sub.add_parser("compare", help="full dual-model, five-regime report")
    _add_common(sp)
    sp.add_argument("--expected", dest="expected_dir",
                    help="directory of expected-cell JSON files for delta reporting")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = {}
    if getattr(args, "config", None):
        raw = _json_file(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        known = {f.name: f.type for f in fields(RunConfig)}
        unknown = set(raw) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        for key, value in raw.items():
            if not any(type(value) in _CONFIG_TYPES[t] for t in known[key].split(" | ")):
                raise ConfigError(f"config key {key!r} must be {known[key]}, got {value!r}")
        file_values = raw
    for f in fields(RunConfig):
        if f.name in file_values:
            setattr(cfg, f.name, file_values[f.name])
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
    if isinstance(cfg.formats, str):
        cfg.formats = tuple(s.strip() for s in cfg.formats.split(",") if s.strip())
    else:
        cfg.formats = tuple(cfg.formats)
    if "output_dir" not in file_values and getattr(args, "output_dir", None) is None:
        cfg.output_dir = os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)
    return cfg


def _exit(errors) -> tuple[int, str]:
    """Exit code and stderr prefix of the gravest of ``errors``."""
    return next((code, prefix) for classes, code, prefix in _EXITS
                if any(isinstance(e, classes) for e in errors))


_HANDLERS = {
    "ingest": cmd_ingest,
    "solve": cmd_solve,
    "frontier": cmd_frontier,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/usage errors itself
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        return _HANDLERS[args.command](cfg)
    except tuple(c for classes, _, _ in _EXITS for c in classes) as exc:
        code, prefix = _exit([exc])
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
