"""scripts/frontier_ab.py: an in-process A/B timing of the frontier-grid curves."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "frontier_ab.py"


def _script():
    spec = importlib.util.spec_from_file_location("frontier_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself(capsys):
    # two rounds of one source tree loaded twice: the 15 curves of a pass are
    # bit-identical, and the report names both medians and the ratio
    src = str(ROOT / "src")
    assert _script().main([src, src, "--rounds", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "curves per pass: 15 (seed 3, 2 rounds)" in out
    assert out.count("median pass") == 2 and "head/base time ratio: median" in out
    assert "points bit-identical: yes" in out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0


def test_a_moved_point_reports_its_relative_move(tmp_path, capsys):
    # a head whose corner paths scale every weight by 1 + 2e-12: each curve's
    # points move by about that much, and the KKT solves stay the same
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "portopt" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert text.count("return np.concatenate(blocks)") == 1
    solver.write_text(text.replace("return np.concatenate(blocks)",
                                   "return np.concatenate(blocks) * (1.0 + 2e-12)"),
                      encoding="utf-8")
    assert _script().main([str(ROOT / "src"), str(tmp_path), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0
    move = re.search(r"points bit-identical: no, 15 curves differ, largest relative move (\S+)",
                     out)
    assert 1e-12 < float(move.group(1)) < 3e-12


def test_a_tree_without_portopt_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no portopt package"):
        _script().main([str(tmp_path), str(ROOT / "src"), "--rounds", "1"])
