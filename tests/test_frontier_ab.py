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
    # after the regimes' first use, every solve hands the engine its regime's rows
    assert "dense row scans per pass: base 0, head 0" in out
    # after the covariances' first use, every solve shares their preparation
    assert "covariance preparations per pass: base 0, head 0" in out
    # and the Hessians built from it
    assert "hessian builds per pass: base 0, head 0" in out


def _copy(tmp_path):
    """A copy of this tree's portopt package under ``tmp_path``."""
    shutil.copytree(ROOT / "src" / "portopt", tmp_path / "portopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "portopt"


def test_a_start_qp_shows_in_the_path_qps(tmp_path, capsys):
    # a head whose paths take every first target as off the minimum-variance
    # return, and so start with a QP from the minimum-variance weights: one
    # path QP per curve, each one KKT solve more, and the same points up to
    # rounding, each path carrying its QP's point instead of the solve's
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
    move = re.search(r"points bit-identical: (yes|no, \d+ curves differ, "
                     r"largest relative move (\S+))", out)
    assert move and (move.group(2) is None or float(move.group(2)) < 1e-13)


def _scaled_copy(tmp_path):
    """A copy of this tree whose corner paths scale every weight by 1 + 2e-12."""
    solver = _copy(tmp_path) / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert text.count("return r.to_weights(mix())") == 1
    solver.write_text(text.replace("return r.to_weights(mix())",
                                   "return r.to_weights(mix()) * (1.0 + 2e-12)"),
                      encoding="utf-8")


def test_a_moved_point_reports_its_relative_move(tmp_path, capsys):
    # a head whose corner paths scale every weight by 1 + 2e-12: each curve's
    # points move by about that much, and the KKT solves stay the same
    _scaled_copy(tmp_path)
    assert _script().main([str(ROOT / "src"), str(tmp_path), "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    base, head = map(int, re.search(r"KKT solves per pass: base (\d+), head (\d+)", out).groups())
    assert base == head > 0
    move = re.search(r"points bit-identical: no, 15 curves differ, largest relative move (\S+)",
                     out)
    assert 1e-12 < float(move.group(1)) < 3e-12


def test_wide_reports_each_curve(tmp_path, capsys):
    # --wide on one small universe size at two seeds against the scaled head: a
    # line per curve with its move and both trees' path QPs and KKT solves,
    # which the scaling leaves unchanged, then those counts summed per
    # constraint set and over every curve, then the largest move
    _scaled_copy(tmp_path)
    script = _script()
    script.WIDE_SIZES, script.WIDE_SEEDS = (12,), 2
    assert script.main([str(ROOT / "src"), str(tmp_path), "--wide", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("wide curves: make_universe(N, 240, s) for s = 4..5, grid 100\n")
    counts = r"path QPs base (\d+), head (\d+)  KKT solves base (\d+), head (\d+)$"
    lines = re.findall(r"^n12 (s\d) (.+?) +move (\S+) +" + counts, out, re.M)
    labels = [label for label, *_ in script.WIDE]
    assert [line[:2] for line in lines] == [(s, label) for s in ("s4", "s5") for label in labels]
    for *_, move, qps_base, qps_head, solves_base, solves_head in lines:
        assert 1e-12 < float(move) < 3e-12
        assert qps_base == qps_head and solves_base == solves_head != "0"
    totals = re.findall(r"^total (.+?) +" + counts, out, re.M)
    assert [name for name, *_ in totals] == labels + ["over 14 curves"]
    for name, *sums in totals:
        group = [line for line in lines if name.startswith("over") or line[1] == name]
        assert [int(v) for v in sums] == [sum(int(line[i]) for line in group) for i in range(3, 7)]
    largest = re.search(r"largest relative move over 14 curves: (\S+)", out)
    assert 1e-12 < float(largest.group(1)) < 3e-12


def test_a_tree_without_portopt_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no portopt package"):
        _script().main([str(tmp_path), str(ROOT / "src"), "--rounds", "1"])
