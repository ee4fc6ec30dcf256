"""scripts/kkt_solve_counts.py: one line of summed KKT solves per solve family."""

import importlib.util
from pathlib import Path

from portopt import ConstraintSet, solve_max_sharpe, solve_min_variance

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kkt_solve_counts.py"


def _script():
    spec = importlib.util.spec_from_file_location("kkt_solve_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_are_the_summed_iterations_of_each_family(capsys):
    # the N = 11 group: nine families, each line the KKT solves summed over
    # five universes, which a solution's iterations count
    script = _script()
    assert script.main(["n11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.CONSTRAINTS) == 9
    universes = script.universes("n11")
    assert len(universes) == 5
    for line, (label, regime, parameters) in zip(lines, script.CONSTRAINTS):
        assert line.startswith("n11 ") and f" {label} " in line
        fields = line.split()
        minvar = int(fields[fields.index("min_variance") + 1])
        sharpe = int(fields[fields.index("max_sharpe") + 1])
        iterations = [0, 0]
        for cov, mean, rf, mi in universes:
            c = ConstraintSet(regime, market_index=mi if regime == "c5" else None,
                              **parameters(len(mean)))
            iterations[0] += solve_min_variance(cov, c, mean=mean, rf=rf).iterations
            iterations[1] += solve_max_sharpe(cov, mean, rf, c).iterations
        assert [minvar, sharpe] == iterations, label


def test_unknown_group_refused(capsys):
    assert _script().main(["n12"]) == 1
    assert "unknown groups" in capsys.readouterr().err


def test_starts_group_is_the_start_tests_universes():
    from test_starts import _universe

    script = _script()
    for (n, t, seed), (cov, mean, rf, mi) in zip(script.STARTS, script.universes("starts")):
        ref_cov, ref_mean, ref_mi = _universe(n, t, seed)
        assert (cov == ref_cov).all() and (mean == ref_mean).all()
        assert (rf, mi) == (0.0, ref_mi)
