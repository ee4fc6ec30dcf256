"""scripts/frontier_ab.py: an in-process A/B timing of the frontier-grid curves."""

import importlib.util
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


def test_a_tree_without_portopt_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no portopt package"):
        _script().main([str(tmp_path), str(ROOT / "src"), "--rounds", "1"])
