"""scripts/solve_ab.py: an in-process A/B timing of the large-n-solve cells."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "solve_ab.py"


def _script():
    spec = importlib.util.spec_from_file_location("solve_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself(capsys):
    # two rounds of one source tree loaded twice: the 20 cells of a pass are
    # bit-identical, both trees count the same KKT solves, and the report
    # names both parts' medians and ratios
    src = str(ROOT / "src")
    assert _script().main([src, src, "--rounds", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "cells per pass: 20 (make_universe(N, 240, 3) at N = 100, 200; 2 rounds)" in out
    assert len(re.findall(r"^(base|head): median split \S+ ms, weight \S+ ms", out, re.M)) == 2
    for part in ("split", "weight"):
        assert f"head/base {part} ratio: median" in out
    assert "weights bit-identical: yes" in out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0
    # after the regimes' first use, every solve hands the engine its regime's rows
    assert "dense row scans per pass: base 0, head 0" in out
    # after the covariances' first use, every solve shares their preparation
    assert "covariance preparations per pass: base 0, head 0" in out


def test_a_dense_engine_call_shows_in_the_row_scans(tmp_path, capsys):
    # a head whose solves hand the engine their rows as a dense matrix: the
    # engine scans it at each of the 20 solves of a pass, and the weights and
    # KKT solves stay the same
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "portopt" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    call = "A_eq, b_eq, rows, rows.b, x0,"
    assert text.count(call) == 1
    solver.write_text(text.replace(call, "A_eq, b_eq, rows.dense(), rows.b, x0,"), encoding="utf-8")
    assert _script().main([str(ROOT / "src"), str(tmp_path), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "dense row scans per pass: base 0, head 20" in out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0
    assert "weights bit-identical: yes" in out


def test_a_cold_preparation_shows_in_the_covariance_preparations(tmp_path, capsys):
    # a head whose problems each clear the cache first: each of the 20 solves
    # of a pass prepares its covariance, and the weights and KKT solves stay
    # the same
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "portopt" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    call = "p = _prepared(cov)"
    assert text.count(call) == 1
    solver.write_text(text.replace(call, "_CACHE.clear(); " + call), encoding="utf-8")
    assert _script().main([str(ROOT / "src"), str(tmp_path), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "covariance preparations per pass: base 0, head 20" in out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0
    assert "weights bit-identical: yes" in out


def test_a_tree_without_portopt_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no portopt package"):
        _script().main([str(tmp_path), str(ROOT / "src"), "--rounds", "1"])
