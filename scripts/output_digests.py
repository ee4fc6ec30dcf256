#!/usr/bin/env python3
"""Digests of every output of the identity command set, for diffing two versions.

Usage: PYTHONPATH=src python scripts/output_digests.py OUTDIR

Runs twelve commands in-process through ``portopt.cli.main`` on the bundled
data, each into its own directory under OUTDIR:

* ``ingest``;
* ``solve --model both --objective both`` in each regime c1-c5;
* ``frontier --grid 60 --cloud-count 600 --seed 7`` in each regime c1-c5;
* ``compare``.

It then writes ``to_json_dict()`` of the minimum-variance and the
maximum-Sharpe solution in each regime c1-c5 on the benchmark's seeded
N = 200 universe (``perfbench.universe.make_universe(200, 240, 1)``) to
``large-n/<regime>_<objective>.json``: the bundled data has N = 11, and
these ten cells run the engine's large-N path.  Last, it writes the five
grid-100 frontiers of the benchmark's frontier universe
(``make_universe(50, 128, 1)``, c5 at its market index) to
``frontier-n50/<regime>.json``, each the curve's points and both anchors'
``to_json_dict()``: the points are exact floats, so any change to the
corner path's arithmetic shows.

It prints ``sha256  path`` for every file written and for each command's
captured stdout, stderr and exit code (``<stdout>``, ``<stderr>``,
``<exit>``), with OUTDIR replaced by ``<OUTDIR>`` in the captured text.
Input paths are given relative to the repository root, so the manifest does
not depend on where the checkout lives.  Run it once per version (point
PYTHONPATH at the other version's ``src``) into two new or empty
directories and diff the two listings: identical listings mean
byte-identical files, stdout, stderr and exit codes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ["--prices", "data/synthetic_prices.csv", "--riskfree", "data/synthetic_riskfree.csv",
          "--market-ticker", "MKT"]
REGIMES = ("c1", "c2", "c3", "c4", "c5")
COMMANDS = (
    [("ingest", ["ingest"])]
    + [(f"solve-{c}", ["solve", "--constraint", c, "--model", "both", "--objective", "both"])
       for c in REGIMES]
    + [(f"frontier-{c}", ["frontier", "--constraint", c, "--grid", "60",
                          "--cloud-count", "600", "--seed", "7"]) for c in REGIMES]
    + [("compare", ["compare"])]
)
LARGE_N = (200, 240, 1)     # (N, T, seed) of the benchmark universe of the large-N cells
FRONTIER_N = (50, 128, 1)   # (N, T, seed) of the benchmark universe of the frontier cells


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _large_n_cells(outdir: Path) -> list[Path]:
    """Write each large-N cell's solution as JSON; the paths, in order."""
    from perfbench.universe import make_universe
    from portopt import ConstraintSet, solve_max_sharpe, solve_min_variance

    u = make_universe(*LARGE_N)
    cov, mean = u.mm.cov, u.mm.mean
    outdir.mkdir(parents=True)
    paths = []
    for regime in REGIMES:
        c = ConstraintSet(regime, market_index=u.market_index if regime == "c5" else None)
        for objective, sol in (("min_variance", solve_min_variance(cov, c, mean=mean, rf=u.rf)),
                               ("max_sharpe", solve_max_sharpe(cov, mean, u.rf, c))):
            paths.append(_write_json(outdir / f"{regime}_{objective}.json",
                                     sol.to_json_dict(u.table.tickers)))
    return paths


def _frontier_cells(outdir: Path) -> list[Path]:
    """Write each frontier of the N = 50 universe as JSON; the paths, in order."""
    from perfbench.universe import make_universe
    from portopt import ConstraintSet, trace_frontier

    u = make_universe(*FRONTIER_N)
    outdir.mkdir(parents=True)
    paths = []
    for regime in REGIMES:
        c = ConstraintSet(regime, market_index=u.market_index if regime == "c5" else None)
        curve = trace_frontier(u.mm.cov, u.mm.mean, u.rf, c, grid=100)
        paths.append(_write_json(outdir / f"{regime}.json", {
            "points": [list(p) for p in curve.points],
            "min_variance": curve.min_variance.to_json_dict(u.table.tickers),
            "tangency": curve.tangency.to_json_dict(u.table.tickers),
        }))
    return paths


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    outdir = Path(args[0]).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        print(f"output directory {outdir} is not empty", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    if str(ROOT) not in sys.path:           # perfbench, from this checkout
        sys.path.append(str(ROOT))
    import portopt.cli

    print(f"portopt imported from {Path(portopt.cli.__file__).parent}", file=sys.stderr)
    for name, argv_ in COMMANDS:
        out = outdir / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = portopt.cli.main([*argv_, *INPUTS, "--output-dir", str(out)])
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{_sha256(path.read_bytes())}  {path.relative_to(outdir).as_posix()}")
        for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()),
                             ("exit", f"{code}\n")):
            text = text.replace(str(outdir), "<OUTDIR>")
            print(f"{_sha256(text.encode('utf-8'))}  {name}/<{stream}>")
    for path in [*_large_n_cells(outdir / "large-n"), *_frontier_cells(outdir / "frontier-n50")]:
        print(f"{_sha256(path.read_bytes())}  {path.relative_to(outdir).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
