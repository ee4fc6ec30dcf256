"""End-to-end CLI behavior over temp directories and tiny inline datasets."""

import json

import numpy as np
import pytest

from conftest import PRICES_CSV, RISKFREE_CSV
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
], ids=["leverage-cap-nan", "leverage-cap-inf", "weight-bound-inf", "negative-seed", "rf-nan",
        "config-not-json", "config-grid-str", "config-formats-int", "expected-not-json",
        "expected-bad-value", "expected-short-weights", "expected-long-weights",
        "expected-unknown-regime", "expected-uppercase-model"])
def test_bad_input_exits_one_naming_the_cause(toy_files, tmp_path, capsys,
                                              command, flags, files, cause):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    flags = [f.format(cfg=tmp_path / "cfg.json", exp=tmp_path / "exp") for f in flags]
    prices, riskfree = toy_files
    code = main([command, *_base_args(prices, riskfree, tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and cause in err


def test_usage_error_maps_to_one():
    assert main(["definitely-not-a-command"]) == 1
