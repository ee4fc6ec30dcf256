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
    # every path starts from its minimum-variance solve, and no frontier-grid
    # curve has a degenerate corner
    assert "path QPs per pass: base 0, head 0" in out


def _copy(tmp_path):
    """A copy of this tree's portopt package under ``tmp_path``."""
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "portopt"


def test_a_start_qp_shows_in_the_path_qps(tmp_path, capsys):
    # a head whose paths take every first target as off the minimum-variance
    # return, and so start with a QP from the minimum-variance weights: one
    # path QP per curve, each one KKT solve more, the same points
    solver = _copy(tmp_path) / "solver.py"
    text = solver.read_text(encoding="utf-8")
    start = "if t0 == float(mean @ r.to_weights(res.x)):"
    assert text.count(start) == 1
    solver.write_text(text.replace(start, "if False:"), encoding="utf-8")
    assert _script().main([str(ROOT / "src"), str(tmp_path), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "path QPs per pass: base 0, head 15" in out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert head == base + 15
    assert "points bit-identical: yes" in out


def test_a_moved_point_reports_its_relative_move(tmp_path, capsys):
    # a head whose corner paths scale every weight by 1 + 2e-12: each curve's
    # points move by about that much, and the KKT solves stay the same
    solver = _copy(tmp_path) / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert text.count("return r.to_weights(mix())") == 1
    solver.write_text(text.replace("return r.to_weights(mix())",
                                   "return r.to_weights(mix()) * (1.0 + 2e-12)"),
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
