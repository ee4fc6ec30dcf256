#!/usr/bin/env python3
"""In-process A/B timing of the large-n-solve cells on two source trees.

Usage: python scripts/solve_ab.py BASE_SRC HEAD_SRC [--rounds N] [--seed S]

BASE_SRC and HEAD_SRC are two ``src`` directories, each holding a
``portopt`` package, loaded into this one process as ``scripts/frontier_ab.py``
loads them (pinned to one CPU, one BLAS thread).  One pass solves the cells
the benchmark's ``large-n-solve`` workload times: minimum variance and
maximum Sharpe in each regime c1-c5 on the Markowitz estimates of
``perfbench.universe.make_universe(N, 240, seed)`` at N = 100 and 200.  The
c1 cells make up the split time and the others the weight time, as the
workload's ``solve_split_s`` and ``solve_weight_s`` split them.

After two untimed passes per side, the second of which counts the KKT
solves (the calls of the tree's ``qp._solve_kkt``), the dense row scans
(the dense inequality matrices its ``qp.InequalityRows`` scans for their
bounds), the covariance preparations (the calls of its
``solver._prepare_cov``) and the Hessian builds (the calls of its
``solver._hessian``) after the regimes' and the covariances' first
use, each round times one base and one head pass, the side that goes first
alternating.  It prints each side's median split and weight time per pass,
the median of the rounds' head/base ratios of each with its quartiles, the
KKT solves, the dense row scans, the covariance preparations and the
Hessian builds per pass, and whether every cell's
weights are bit-identical between the two trees; where they are not, the
largest relative move of a weight, ``|head - base| / max(|head|, |base|)``.
The exit code is 0 unless a tree fails to load or a solve raises; a slower
head or a moved weight is reported, not failed.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frontier_ab import _counting, _largest_move, _quartiles, _trees  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REGIMES = ("c1", "c2", "c3", "c4", "c5")
SIZES, T = (100, 200), 240          # the large-n-solve universes' N, and their T
PARTS = ("split", "weight")         # c1's cells, then the others'


def _cells(po, seed: int) -> list[tuple[str, object]]:
    """``(part, solve)`` of every cell, ``solve`` a call of the package ``po``."""
    from perfbench.universe import make_universe

    cells = []
    for n in SIZES:
        u = make_universe(n, T, seed)
        cov, mean, rf = u.mm.cov, u.mm.mean, u.rf
        for regime in REGIMES:
            c = po.ConstraintSet(regime, market_index=u.market_index if regime == "c5" else None)
            part = "split" if regime == "c1" else "weight"
            cells.append((part, lambda c=c, cov=cov, mean=mean, rf=rf:
                          po.solve_min_variance(cov, c, mean=mean, rf=rf)))
            cells.append((part, lambda c=c, cov=cov, mean=mean, rf=rf:
                          po.solve_max_sharpe(cov, mean, rf, c)))
    return cells


def _pass(cells) -> tuple[dict[str, float], list[np.ndarray]]:
    """Seconds of each part's cells, and each cell's weights."""
    gc.collect()
    times, weights = dict.fromkeys(PARTS, 0.0), []
    for part, solve in cells:
        start = time.perf_counter()
        sol = solve()
        times[part] += time.perf_counter() - start
        weights.append(np.array(sol.weights))
    return times, weights


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if str(ROOT) not in sys.path:           # perfbench, from this checkout
        sys.path.append(str(ROOT))
    with _trees(args.base_src, args.head_src, "_solve_ab") as trees:
        cells = {side: _cells(po, args.seed) for side, po in trees.items()}
        solves, scans, preps, builds, weights = {}, {}, {}, {}, {}
        for side, po in trees.items():                                  # untimed
            _pass(cells[side])                                          # the regimes' first use
            with _counting(po) as counts:
                weights[side] = _pass(cells[side])[1]
            solves[side], _, scans[side], preps[side], builds[side] = counts
        times = {side: {part: [] for part in PARTS} for side in trees}
        for k in range(args.rounds):
            for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                elapsed, w = _pass(cells[side])
                for part in PARTS:
                    times[side][part].append(elapsed[part])
                if [a.tobytes() for a in w] != [a.tobytes() for a in weights[side]]:
                    raise SystemExit(f"{side}: a pass solved other weights than the first")
    print(f"cells per pass: {len(weights['base'])} (make_universe(N, {T}, {args.seed}) at "
          f"N = {', '.join(map(str, SIZES))}; {args.rounds} rounds)")
    for side in ("base", "head"):
        print(f"{side}: median split {1e3 * statistics.median(times[side]['split']):.2f} ms, "
              f"weight {1e3 * statistics.median(times[side]['weight']):.2f} ms"
              f"  ({getattr(args, f'{side}_src')})")
    print(f"KKT solves per pass: base {solves['base']}, head {solves['head']}")
    print(f"dense row scans per pass: base {scans['base']}, head {scans['head']}")
    print(f"covariance preparations per pass: base {preps['base']}, head {preps['head']}")
    print(f"hessian builds per pass: base {builds['base']}, head {builds['head']}")
    for part in PARTS:
        q1, med, q3 = _quartiles([h / b for b, h in zip(times["base"][part],
                                                        times["head"][part])])
        print(f"head/base {part} ratio: median {med:.3f}  quartiles {q1:.3f} - {q3:.3f}")
    moved = sum(a.tobytes() != b.tobytes() for a, b in zip(weights["base"], weights["head"]))
    print("weights bit-identical: " + ("yes" if not moved else
          f"no, {moved} cells differ, largest relative move "
          f"{_largest_move(weights['base'], weights['head']):.3g}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
