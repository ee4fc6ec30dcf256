"""End-to-end CLI behavior over temp directories and tiny inline datasets."""

import json

import numpy as np
import pytest

import portopt.qp
import portopt.solver
from conftest import PRICES_CSV, RISKFREE_CSV, fail_certificate
from portopt import errors
from portopt.cli import main

TOY_PRICES = """date,AAA,BBB,MKT
2020-01-02,10.0,20.0,100.0
2020-01-15,10.1,20.2,101.0
2020-02-03,10.5,19.8,102.0
2020-03-02,10.2,20.4,103.5
2020-04-01,10.8,20.9,104.0
2020-05-04,11.0,21.5,106.0
2020-06-01,10.9,21.2,105.0
2020-07-01,11.3,21.8,107.5
2020-08-03,11.1,22.0,108.0
2020-09-01,11.6,22.4,110.0
2020-10-01,11.4,22.1,109.0
2020-11-02,11.9,22.8,111.5
2020-12-01,12.1,23.0,113.0
"""

TOY_RISKFREE = """month,annual_rate
2020-02,0.024
2020-03,0.024
2020-04,0.024
2020-05,0.024
2020-06,0.024
2020-07,0.024
2020-08,0.024
2020-09,0.024
2020-10,0.024
2020-11,0.024
2020-12,0.024
"""


@pytest.fixture()
def toy_files(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text(TOY_PRICES, encoding="utf-8")
    riskfree = tmp_path / "riskfree.csv"
    riskfree.write_text(TOY_RISKFREE, encoding="utf-8")
    return prices, riskfree


def _base_args(prices, riskfree, out):
    return ["--prices", str(prices), "--riskfree", str(riskfree),
            "--market-ticker", "MKT", "--output-dir", str(out)]


def test_ingest_toy_counts(toy_files, tmp_path, capsys):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    assert main(["ingest", *_base_args(prices, riskfree, out)]) == 0
    printed = capsys.readouterr().out
    assert "observations: 11" in printed   # 12 BOM months -> 11 returns
    assert "assets: 3" in printed
    assert (out / "monthly_returns.csv").exists()
    lines = (out / "monthly_returns.csv").read_text().strip().split("\n")
    assert lines[0] == "month,AAA,BBB,MKT"
    assert len(lines) == 12


def test_ingest_two_month_file(tmp_path, capsys):
    prices = tmp_path / "p.csv"
    prices.write_text(
        "date,A,MKT\n2020-01-02,1.0,2.0\n2020-02-03,1.1,2.1\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["ingest", "--prices", str(prices), "--market-ticker", "MKT",
                 "--rf", "0.002", "--output-dir", str(out)])
    assert code == 0
    assert "observations: 1" in capsys.readouterr().out


def test_ingest_bundled_dataset_shape(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["ingest", "--prices", str(PRICES_CSV), "--riskfree",
                 str(RISKFREE_CSV), "--market-ticker", "MKT",
                 "--output-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "observations: 127" in printed
    assert "assets: 11" in printed
    assert "average monthly risk-free rate: 0.002139918" in printed


def test_ingest_missing_riskfree_with_override(toy_files, tmp_path):
    prices, _ = toy_files
    out = tmp_path / "out"
    code = main(["ingest", "--prices", str(prices), "--market-ticker", "MKT",
                 "--rf", "0.0021", "--output-dir", str(out)])
    assert code == 0


def test_ingest_riskfree_rate_below_minus_one_exits_1(toy_files, tmp_path, capsys):
    prices, _ = toy_files
    riskfree = tmp_path / "rf.csv"
    riskfree.write_text("month,annual_rate\n2020-02,0.024\n2020-03,-2.0\n", encoding="utf-8")
    code = main(["ingest", *_base_args(prices, riskfree, tmp_path / "out")])
    assert code == 1
    assert f"annual rate -2 must exceed -1 ({riskfree}, row 3)" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    code = main(["ingest", "--prices", str(tmp_path / "nope.csv"),
                 "--market-ticker", "MKT", "--rf", "0.002",
                 "--output-dir", str(tmp_path)])
    assert code == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,A\n2020-13-01,1.0\n", encoding="utf-8")
    code = main(["ingest", "--prices", str(bad), "--market-ticker", "A",
                 "--rf", "0.002", "--output-dir", str(tmp_path)])
    assert code == 1


def test_solve_writes_four_files(toy_files, tmp_path):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["solve", *_base_args(prices, riskfree, out),
                 "--model", "both", "--objective", "both",
                 "--constraint", "c3"])
    assert code == 0
    names = sorted(p.name for p in out.glob("solution_*.json"))
    assert names == [
        "solution_im_maxsharpe_c3.json", "solution_im_minvar_c3.json",
        "solution_mm_maxsharpe_c3.json", "solution_mm_minvar_c3.json",
    ]


def test_solve_c5_market_weight_zero(toy_files, tmp_path):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["solve", *_base_args(prices, riskfree, out),
                 "--constraint", "c5"])
    assert code == 0
    for path in out.glob("solution_*.json"):
        doc = json.loads(path.read_text())
        assert doc["weights"]["MKT"] == 0.0


def test_solve_c1_gross_exposure_in_emitted_file(toy_files, tmp_path):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["solve", *_base_args(prices, riskfree, out),
                 "--constraint", "c1", "--objective", "maxsharpe",
                 "--model", "mm"])
    assert code == 0
    doc = json.loads((out / "solution_mm_maxsharpe_c1.json").read_text())
    gross = sum(abs(v) for v in doc["weights"].values())
    assert gross <= 2.0 + 1e-7


def test_solve_infeasible_exit_code(tmp_path):
    # two assets, c5 exclusion of one plus |w|<=... use target via config?
    # infeasibility is easiest to force with c5 on a 1-asset universe
    prices = tmp_path / "p.csv"
    prices.write_text(
        "date,MKT\n2020-01-02,1.0\n2020-02-03,1.1\n2020-03-02,1.2\n"
        "2020-04-01,1.3\n", encoding="utf-8")
    code = main(["solve", "--prices", str(prices), "--market-ticker", "MKT",
                 "--rf", "0.002", "--constraint", "c5",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert (tmp_path / "out" / "diagnostics.json").exists()


def test_solve_nonconvergence_exit_code(toy_files, tmp_path, monkeypatch):
    from portopt import errors

    def boom(*args, **kwargs):
        raise errors.ConvergenceError("forced for test")

    monkeypatch.setattr("portopt.solver.solve_min_variance", boom)
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["solve", *_base_args(prices, riskfree, out),
                 "--objective", "minvar", "--model", "mm"])
    assert code == 2
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["failures"][0]["kind"] == "ConvergenceError"


def test_frontier_outputs_and_svg_structure(toy_files, tmp_path):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["frontier", *_base_args(prices, riskfree, out),
                 "--constraint", "c4", "--grid", "12", "--cloud-count", "40",
                 "--seed", "5"])
    assert code == 0
    for stem in ("frontier_mm", "frontier_im", "cal_mm", "cal_im",
                 "cloud_mm", "cloud_im"):
        f = out / f"{stem}.csv"
        assert f.exists()
        assert f.read_text().startswith("stdev,return")
    svg = (out / "frontier_c4.svg").read_text()
    assert svg.count('class="frontier-') == 2
    assert svg.count('class="cal-') == 2
    assert svg.count('class="cloud-') == 2
    assert svg.count("<polyline") == 4
    doc = json.loads((out / "frontier_c4.json").read_text())
    assert {"constraint", "rf", "mm", "im"} <= set(doc)
    assert doc["mm"]["tangency"]["converged"] is True


def test_frontier_deterministic_outputs(toy_files, tmp_path):
    prices, riskfree = toy_files
    args = ["frontier", "--prices", str(prices), "--riskfree", str(riskfree),
            "--market-ticker", "MKT", "--constraint", "c2", "--grid", "8",
            "--cloud-count", "25", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--output-dir", str(out1)]) == 0
    assert main([*args, "--output-dir", str(out2)]) == 0
    for p1 in sorted(out1.iterdir()):
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_repeated_runs_in_one_process_write_the_same_bytes(tmp_path):
    # prepared covariances outlive a command within a process: compare and
    # solve, run twice and then once more on a cold cache, write the same bytes
    base = ["--prices", str(PRICES_CSV), "--riskfree", str(RISKFREE_CSV),
            "--market-ticker", "MKT"]
    commands = [["compare", *base]] + [
        ["solve", *base, "--constraint", regime, "--model", "both", "--objective", "both"]
        for regime in ("c1", "c2", "c3", "c4", "c5")]
    runs = []
    for k, cold in enumerate((False, False, True)):
        if cold:
            portopt.solver._CACHE.clear()
        files = {}
        for j, argv in enumerate(commands):
            out = tmp_path / f"run{k}" / f"command{j}"
            assert main([*argv, "--output-dir", str(out)]) == 0
            files.update({f"{j}/{f.name}": f.read_bytes() for f in sorted(out.iterdir())})
        runs.append(files)
    assert len(runs[0]) > len(commands)
    assert runs[0] == runs[1] == runs[2]


def test_compare_manifest_counts_and_hash(toy_files, tmp_path):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    assert main(["compare", *_base_args(prices, riskfree, out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["estimator_counts"] == {"mm": 2 * 3 + 3, "im": 3 * 3 + 2}
    h1 = manifest["inputs"]["prices"]["sha256"]

    # hash changes iff input bytes change
    prices.write_text(TOY_PRICES.replace("10.0", "10.05"), encoding="utf-8")
    assert main(["compare", *_base_args(prices, riskfree, out)]) == 0
    manifest2 = json.loads((out / "manifest.json").read_text())
    assert manifest2["inputs"]["prices"]["sha256"] != h1
    assert "timestamp" not in json.dumps(manifest2)


def test_compare_expected_deltas(toy_files, tmp_path):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    assert main(["compare", *_base_args(prices, riskfree, out)]) == 0
    doc = json.loads((out / "comparison.json").read_text())
    cell = next(c for c in doc["cells"]
                if c["constraint"]["regime"] == "c4" and c["model"] == "MM"
                and c["objective"] == "min_variance")
    expected_dir = tmp_path / "expected"
    expected_dir.mkdir()
    (expected_dir / "c4_mm_min_variance.json").write_text(json.dumps({
        "return": cell["solution"]["return"],
        "sharpe": cell["solution"]["sharpe"] + 0.5,
    }), encoding="utf-8")
    assert main(["compare", *_base_args(prices, riskfree, out),
                 "--expected", str(expected_dir)]) == 0
    deltas = (out / "deltas.csv").read_text().strip().split("\n")
    assert deltas[0] == "cell,field,expected,actual,delta"
    rows = dict()
    for line in deltas[1:]:
        cellk, field, exp, act, delta = line.split(",")
        rows[field] = float(delta)
    assert abs(rows["return"]) < 1e-12
    assert rows["sharpe"] == pytest.approx(-0.5, abs=1e-9)


def test_config_file_and_flag_override(toy_files, tmp_path):
    prices, riskfree = toy_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "prices_path": str(prices),
        "riskfree_path": str(riskfree),
        "market_ticker": "MKT",
        "constraint": "c4",
        "output_dir": str(tmp_path / "from_config"),
    }), encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--model", "mm",
                 "--objective", "minvar"]) == 0
    assert (tmp_path / "from_config" / "solution_mm_minvar_c4.json").exists()

    # flag overrides the config file
    assert main(["solve", "--config", str(cfg), "--model", "mm",
                 "--objective", "minvar",
                 "--output-dir", str(tmp_path / "flag_wins")]) == 0
    assert (tmp_path / "flag_wins" / "solution_mm_minvar_c4.json").exists()


def test_output_dir_env_default(toy_files, tmp_path, monkeypatch):
    prices, riskfree = toy_files
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("PORTOPT_OUTPUT_DIR", str(env_dir))
    assert main(["ingest", "--prices", str(prices), "--riskfree",
                 str(riskfree), "--market-ticker", "MKT"]) == 0
    assert (env_dir / "monthly_returns.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    assert main(["ingest", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command, flags, files, cause", [
    ("solve", ["--constraint", "c1", "--leverage-cap", "nan"], {}, "leverage_cap"),
    ("solve", ["--constraint", "c1", "--leverage-cap", "inf"], {}, "leverage_cap"),
    ("frontier", ["--constraint", "c2", "--weight-bound", "inf"], {}, "weight_bound"),
    ("frontier", ["--seed", "-1"], {}, "seed"),
    ("solve", ["--rf", "nan"], {}, "risk-free"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": "{not json"}, "not valid JSON"),
    ("frontier", ["--config", "{cfg}"], {"cfg.json": '{"grid": "abc"}'}, "'grid'"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"formats": 5}'}, "'formats'"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"leverage_cap": true, "constraint": "c1"}'},
     "'leverage_cap'"),
    ("frontier", ["--config", "{cfg}"], {"cfg.json": '{"seed": true}'}, "'seed'"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": "[]"}, "must contain a JSON object"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"model": "xx"}'}, "model must be one of"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"objective": "xx"}'},
     "objective must be one of"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"constraint": "c9"}'},
     "constraint must be one of"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"covariance_denominator": "n"}'},
     "covariance denominator must be"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": '{"regression_mode": "log"}'},
     "regression mode must be"),
    ("solve", ["--format", "csv,pdf"], {}, "unknown output formats ['pdf']"),
    ("frontier", ["--config", "{cfg}"], {"cfg.json": '{"grid": 1}'}, "grid must be at least 2"),
    ("frontier", ["--config", "{cfg}"], {"cfg.json": '{"cloud_count": 0}'},
     "cloud count must be at least 1"),
    ("compare", ["--expected", "{exp}"], {"exp/c3_mm_min_variance.json": "{"}, "not valid JSON"),
    ("compare", ["--expected", "{exp}"], {"exp/c3_mm_min_variance.json": '{"return": "x"}'},
     "malformed expected values"),
    ("compare", ["--expected", "{exp}"], {"exp/c4_mm_min_variance.json": '{"weights": [0.5, 0.5]}'},
     "has 2 weights for 3 tickers"),
    ("compare", ["--expected", "{exp}"], {"exp/c4_mm_min_variance.json": '{"weights": [0, 0, 0, 1]}'},
     "has 4 weights for 3 tickers"),
    ("compare", ["--expected", "{exp}"], {"exp/c9_mm_min_variance.json": '{"return": 0.01}'},
     "'c9_mm_min_variance' names no report cell"),
    ("compare", ["--expected", "{exp}"], {"exp/c4_MM_min_variance.json": '{"return": 0.01}'},
     "'c4_MM_min_variance' names no report cell"),
    ("compare", ["--expected", "{exp}"], {"exp/c3_mm_min_variance.json": '[{"return": 0.01}]'},
     "'c3_mm_min_variance' holds a list, not an object"),
    ("compare", ["--expected", "{exp}"], {"exp/c3_mm_min_variance.json": '{"retrun": 0.1}'},
     "'c3_mm_min_variance' has unknown field 'retrun'"),
    ("compare", ["--expected", "{exp}"], {"exp/c3_mm_min_variance.json": '{"return": true}'},
     "'c3_mm_min_variance' field 'return' holds a boolean"),
    ("ingest", ["--prices", "{prices}"], {"prices.csv": b"date,A,MKT\n2020-01-02,1.0,\xff\n"},
     "prices.csv is not UTF-8 text: byte 0xff at offset 26"),
    ("solve", ["--config", "{cfg}"], {"cfg.json": b'{"grid": 5}\xff'},
     "cfg.json is not UTF-8 text: byte 0xff at offset 11"),
], ids=["leverage-cap-nan", "leverage-cap-inf", "weight-bound-inf", "negative-seed", "rf-nan",
        "config-not-json", "config-grid-str", "config-formats-int", "config-leverage-cap-bool",
        "config-seed-bool", "config-list", "config-model", "config-objective",
        "config-constraint", "config-denominator", "config-regression-mode", "format-pdf",
        "config-grid-one", "config-cloud-count-zero", "expected-not-json",
        "expected-bad-value", "expected-short-weights", "expected-long-weights",
        "expected-unknown-regime", "expected-uppercase-model", "expected-list",
        "expected-misspelled-field", "expected-bool", "prices-not-utf8", "config-not-utf8"])
def test_bad_input_exits_one_naming_the_cause(toy_files, tmp_path, capsys,
                                              command, flags, files, cause):
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content, encoding="utf-8")
    flags = [f.format(cfg=tmp_path / "cfg.json", exp=tmp_path / "exp",
                      prices=tmp_path / "prices.csv") for f in flags]
    prices, riskfree = toy_files
    code = main([command, *_base_args(prices, riskfree, tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and cause in err


@pytest.mark.parametrize("drop, extra, cause", [
    ("--prices", [], "a prices file is required (--prices)"),
    ("--market-ticker", [], "the market ticker is required (--market-ticker)"),
    ("--riskfree", [], "either a risk-free file (--riskfree) or --rf is required"),
    (None, ["--expected", "{missing}"], "expected-values directory not found: {missing}"),
], ids=["prices", "market-ticker", "riskfree", "expected-dir"])
def test_missing_input_exits_one_naming_it(toy_files, tmp_path, capsys, drop, extra, cause):
    args = _base_args(*toy_files, tmp_path / "out")
    if drop:
        del args[args.index(drop):args.index(drop) + 2]
    missing = tmp_path / "missing"
    code = main(["compare", *args, *(f.format(missing=missing) for f in extra)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cause.format(missing=missing)}\n"


def test_format_flag_writes_only_the_named_formats(toy_files, tmp_path):
    out = tmp_path / "out"
    assert main(["frontier", *_base_args(*toy_files, out), "--format", "csv",
                 "--grid", "5", "--cloud-count", "10"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{kind}_{m}.csv" for kind in ("frontier", "cal", "cloud") for m in ("mm", "im"))


def test_usage_error_maps_to_one():
    assert main(["definitely-not-a-command"]) == 1


@pytest.fixture()
def no_phase1(monkeypatch):
    """Fails the test if any solve reaches the phase-1 feasible point."""
    def fail(*args, **kwargs):
        pytest.fail("a solve ran phase-1")

    monkeypatch.setattr(portopt.qp, "find_feasible_point", fail)
    assert not hasattr(portopt.solver, "find_feasible_point")


@pytest.mark.parametrize("command, constraint", [
    ("solve", "c4"),        # bounded: the best vertex earns no excess return
    ("solve", "c5"),        # unbounded: the zero-investment pair start
    ("frontier", "c4"),
])
def test_degenerate_sharpe_exits_two(toy_files, tmp_path, capsys, no_phase1, command, constraint):
    prices, riskfree = toy_files
    out = tmp_path / "out"
    objective = ["--objective", "maxsharpe"] if command == "solve" else []
    code = main([command, *_base_args(prices, riskfree, out), "--rf", "0.5",
                 "--constraint", constraint, *objective])
    assert code == 2
    if command == "solve":
        failures = json.loads((out / "diagnostics.json").read_text())["failures"]
        assert {f["kind"] for f in failures} == {"DegenerateSharpeError"}
        assert len(failures) == 2                   # MM and IM
    else:
        assert "solver failure: " in capsys.readouterr().err


def test_bundled_compare_never_runs_phase1(tmp_path, no_phase1):
    assert main(["compare", *_base_args(PRICES_CSV, RISKFREE_CSV, tmp_path / "out")]) == 0


@pytest.mark.parametrize("constraint", ["c1", "c3"])
def test_failed_frontier_point_exits_two(tmp_path, capsys, monkeypatch, constraint):
    fail_certificate(monkeypatch, 2)   # the first target point, or the far two-fund end
    code = main(["frontier", *_base_args(PRICES_CSV, RISKFREE_CSV, tmp_path / "out"),
                 "--constraint", constraint, "--grid", "10", "--cloud-count", "10"])
    assert code == 2
    assert "solver failure: frontier point at target return" in capsys.readouterr().err


def test_failed_cloud_exits_two(tmp_path, capsys, monkeypatch):
    from portopt import errors

    def boom(*args, **kwargs):
        raise errors.SamplingError("forced for test")

    monkeypatch.setattr("portopt.cli.sample_cloud", boom)
    code = main(["frontier", *_base_args(PRICES_CSV, RISKFREE_CSV, tmp_path / "out"),
                 "--constraint", "c3", "--grid", "10", "--cloud-count", "10"])
    assert code == 2
    assert capsys.readouterr().err.strip() == "solver failure: forced for test"


# The README's exit code and stderr prefix for each failure; written out here,
# not read from the CLI's own table, so that the two are checked against each other.
EXIT_CODES = {
    errors.ParseError: (1, "error: "),
    errors.ValidationError: (1, "error: "),
    errors.ConfigError: (1, "error: "),
    errors.InsufficientDataError: (1, "error: "),
    errors.SingularMatrixError: (1, "error: "),
    errors.InfeasibleError: (3, "infeasible: "),
    errors.ConvergenceError: (2, "solver failure: "),
    errors.DegenerateSharpeError: (2, "solver failure: "),
    errors.SamplingError: (2, "solver failure: "),
    OSError: (1, "error: "),
}


def _raiser(cls):
    def boom(*args, **kwargs):
        raise cls("forced for test")
    return boom


def test_exit_code_table_covers_every_error_class():
    assert set(EXIT_CODES) == {*errors.PortoptError.__subclasses__(), OSError}


@pytest.mark.parametrize("command", ["ingest", "solve", "frontier", "compare"])
@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_load_failure_exit_code_and_prefix(toy_files, tmp_path, capsys, monkeypatch,
                                           command, cls):
    monkeypatch.setattr("portopt.cli._load", _raiser(cls))
    prices, riskfree = toy_files
    code = main([command, *_base_args(prices, riskfree, tmp_path / "out")])
    code_expected, prefix = EXIT_CODES[cls]
    assert (code, capsys.readouterr().err) == (code_expected, f"{prefix}forced for test\n")


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_solve_cell_failure_exit_code(toy_files, tmp_path, capsys, monkeypatch, cls):
    monkeypatch.setattr("portopt.report.solve_objective", _raiser(cls))
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["solve", *_base_args(prices, riskfree, out)])
    err = capsys.readouterr().err
    code_expected, prefix = EXIT_CODES[cls]
    assert code == code_expected
    if cls is OSError:       # not a cell failure: it ends the command
        assert err == f"{prefix}forced for test\n"
        assert not (out / "diagnostics.json").exists()
        return
    cells = [f"{m} {o} c3" for m in ("MM", "IM") for o in ("minvar", "maxsharpe")]
    assert err.splitlines() == [f"{cell}: FAILED (forced for test)" for cell in cells]
    failures = json.loads((out / "diagnostics.json").read_text())["failures"]
    assert [f["kind"] for f in failures] == [cls.__name__] * 4


@pytest.mark.parametrize("first, second, expected", [
    (errors.ValidationError, errors.InfeasibleError, 3),
    (errors.ValidationError, errors.ConvergenceError, 2),
    (errors.InfeasibleError, errors.SamplingError, 3),
])
def test_solve_mixed_cell_failures_exit_with_the_gravest(toy_files, tmp_path, monkeypatch,
                                                         first, second, expected):
    failures = iter([first, second])
    monkeypatch.setattr("portopt.report.solve_objective",
                        lambda *args, **kwargs: _raiser(next(failures))())
    prices, riskfree = toy_files
    code = main(["solve", *_base_args(prices, riskfree, tmp_path / "out"), "--model", "mm"])
    assert code == expected


def test_solve_unconverged_solution_exits_two(toy_files, tmp_path, monkeypatch):
    fail_certificate(monkeypatch, 1)   # the maximum-Sharpe certificate
    prices, riskfree = toy_files
    out = tmp_path / "out"
    code = main(["solve", *_base_args(prices, riskfree, out),
                 "--model", "mm", "--objective", "maxsharpe"])
    assert code == 2
    failures = json.loads((out / "diagnostics.json").read_text())["failures"]
    assert [f["kind"] for f in failures] == ["ConvergenceError"]
    assert failures[0]["error"].startswith("kkt_residual=")
