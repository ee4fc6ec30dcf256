"""scripts/output_deltas.py: the largest float change and every other change, per file."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_deltas.py"


def _script():
    spec = importlib.util.spec_from_file_location("output_deltas", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
    return root


def test_listing_of_two_small_trees(tmp_path, capsys):
    solution = {"weights": {"A": 0.25, "B": 0.75}, "kkt_residual": 1e-17,
                "iterations": 9, "converged": True, "cells": [{"error": None}]}
    moved = {"weights": {"A": 0.25 + 2.0 ** -50, "B": 0.75 - 2.0 ** -52}, "kkt_residual": 2e-17,
             "iterations": 2, "converged": True, "cells": [{"error": "failed"}, {}]}
    a = _tree(tmp_path / "a", {
        "solve/solution.json": solution,
        "compare/comparison.csv": "constraint,A,kkt_residual,iterations\nc1,0.25,1e-17,9\n",
        "frontier/plot.svg": "<svg/>", "same.csv": "x\n1.5\n", "old.txt": "",
    })
    b = _tree(tmp_path / "b", {
        "solve/solution.json": moved,
        "compare/comparison.csv": "constraint,A,kkt_residual,iterations\nc1,0.25,3e-17,4\n",
        "frontier/plot.svg": "<svg />", "same.csv": "x\n1.5\n", "new.txt": "",
    })
    assert _script().main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "compare/comparison.csv\tfloats\t2e-17\t1/2\tkkt_residual",
        "compare/comparison.csv\trow 2 iterations\t9 -> 4",
        "frontier/plot.svg\tbytes differ",
        "new.txt\tonly in B",
        "old.txt\tonly in A",
        "solve/solution.json\tfloats\t8.88e-16\t3/3\tweights.A, weights.B, kkt_residual",
        "solve/solution.json\titerations\t9 -> 2",
        "solve/solution.json\tcells[0].error\tNone -> 'failed'",
        "solve/solution.json\tcells[1]\t'<absent>' -> {}",
        "6 files, 1 identical",
    ]


def test_float_fields_name_list_entries_once(tmp_path, capsys):
    # a float that moved in several entries of a list is one field, its
    # indices written as []; a float that moved nowhere is no field
    cells = [{"solution": {"kkt_residual": r, "stdev": 0.5}} for r in (1e-16, 2e-16)]
    moved = [{"solution": {"kkt_residual": r, "stdev": 0.5}} for r in (5e-19, 4e-16)]
    a = _tree(tmp_path / "a", {"comparison.json": {"cells": cells}})
    b = _tree(tmp_path / "b", {"comparison.json": {"cells": moved}})
    assert _script().main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "comparison.json\tfloats\t2e-16\t2/4\tcells[].solution.kkt_residual",
        "1 files, 0 identical",
    ]


def test_identical_trees_list_nothing_but_the_count(tmp_path, capsys):
    files = {"x.json": {"a": [1.0, 2]}, "y.csv": "a,b\n1,2.5\n"}
    a, b = _tree(tmp_path / "a", files), _tree(tmp_path / "b", files)
    assert _script().main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 files, 2 identical"]


def test_usage_without_two_directories(tmp_path, capsys):
    assert _script().main([str(tmp_path)]) == 1
    assert "Usage" in capsys.readouterr().err
