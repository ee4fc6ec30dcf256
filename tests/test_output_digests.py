"""scripts/output_digests.py: one digest line per output and per captured stream."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def _script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listing(script, outdir, capsys) -> list[str]:
    assert script.main([str(outdir)]) == 0
    return capsys.readouterr().out.splitlines()


def test_listing_is_independent_of_the_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)   # the script runs from the repository root
    script = _script()
    first = _listing(script, tmp_path / "a", capsys)
    assert first == _listing(script, tmp_path / "b", capsys)
    names = [line.split("  ", 1)[1] for line in first]
    for name, _ in script.COMMANDS:
        for stream in ("stdout", "stderr", "exit"):
            assert f"{name}/<{stream}>" in names
    assert "compare/manifest.json" in names and "frontier-c5/frontier_c5.svg" in names
    assert len(script.COMMANDS) == 12 and len(names) == len(set(names))
    # the ten large-N cells after the commands, then the five N = 50 frontiers
    assert names[-15:] == [f"large-n/{regime}_{objective}.json" for regime in script.REGIMES
                           for objective in ("min_variance", "max_sharpe")] + [
        f"frontier-n50/{regime}.json" for regime in script.REGIMES]


def test_nonempty_output_directory_refused(tmp_path, capsys):
    (tmp_path / "stale.csv").write_text("x\n", encoding="utf-8")
    assert _script().main([str(tmp_path)]) == 1
    assert "not empty" in capsys.readouterr().err
