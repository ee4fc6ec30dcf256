"""scripts/solve_ab.py: an in-process A/B timing of the large-n-solve cells."""

import importlib.util
import inspect
import re
import shutil
from pathlib import Path

import pytest

from conftest import dense_rows

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
    # and the Hessians built from it
    assert "hessian builds per pass: base 0, head 0" in out


def test_a_dense_engine_call_shows_in_the_row_scans(tmp_path, capsys):
    # a head whose solves write their rows out as a dense matrix and scan it
    # (InequalityRows) at each of the 20 solves of a pass, and hand the engine
    # what the scan reads: the weights and KKT solves stay the same
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "portopt" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    call, engine = "A_eq, b_eq, rows, x0, fallback)\n", "from .qp import reduced_kkt, solve_qp"
    assert text.count(call) == 1 and text.count(engine) == 1
    text = text.replace(call, "A_eq, b_eq, InequalityRows(dense_rows(rows), rows.b), x0, fallback)\n")
    text = text.replace(engine, "from .qp import InequalityRows, reduced_kkt, solve_qp")
    solver.write_text(text + "\n\n" + inspect.getsource(dense_rows), encoding="utf-8")
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


@pytest.mark.parametrize("call, edit, preparations", [
    ("p = _prepared(cov)", "_CACHE.clear(); p = _prepared(cov)", 20),
    ("p.hessian(regime.split)", "_hessian(2.0 * p.cov_solve, regime.split)", 0),
], ids=["cold-cache", "unkept-hessian"])
def test_hessians_built_afresh_show_in_the_hessian_builds(tmp_path, capsys, call, edit,
                                                          preparations):
    # a head whose problems each clear the cache first, or build their Hessian
    # afresh instead of reading the covariance's: each of the 20 solves of a
    # pass builds one, and the weights and KKT solves stay the same
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "portopt" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert text.count(call) == 1
    solver.write_text(text.replace(call, edit), encoding="utf-8")
    assert _script().main([str(ROOT / "src"), str(tmp_path), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "hessian builds per pass: base 0, head 20" in out
    assert f"covariance preparations per pass: base 0, head {preparations}" in out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0
    assert "weights bit-identical: yes" in out


def test_a_tree_without_portopt_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no portopt package"):
        _script().main([str(tmp_path), str(ROOT / "src"), "--rounds", "1"])
