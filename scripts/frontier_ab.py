#!/usr/bin/env python3
"""In-process A/B timing of the frontier-grid curve set on two source trees.

Usage: python scripts/frontier_ab.py BASE_SRC HEAD_SRC [--rounds N] [--seed S] [--wide]

BASE_SRC and HEAD_SRC are two ``src`` directories, each holding a
``portopt`` package.  Both packages are loaded into this one process under
their own module names, and one pass traces the curves the benchmark's
``frontier-grid`` workload traces: ``trace_frontier(grid=100)`` of the
bundled data under both models and of the seeded N = 50 universe
(``perfbench.universe.make_universe(50, 128, seed)``), in each regime c1-c5.

The process is pinned to one CPU and runs one BLAS thread.  After two
untimed passes per side, each round times one base and one head pass, the
side that goes first alternating.  Machine speed drifts between fresh
processes far more than between two passes a few milliseconds apart, so the
ratio of each round's pair is steady where single timings are not.  It
prints each side's median pass time, each side's KKT solves per pass (the
calls of its ``qp._solve_kkt``), path QPs per pass (its ``solve_qp``
calls inside ``Problem.corner_path``), dense row scans per pass (the
dense inequality matrices its ``qp.InequalityRows`` scans for their
bounds) and covariance preparations per pass (the calls of its
``solver._prepare_cov``), all counted in a second untimed pass, after the
regimes' and the covariances' first use, so no timed pass runs a counting
wrapper, the median of the rounds'
head/base time ratios with its quartiles, and whether every curve's points are
bit-identical between the two trees; where they are not, the largest
relative move of a point coordinate, ``|head - base| / max(|head|, |base|)``.
The exit code is 0 unless a tree fails to load or a trace raises; a slower
head or a moved point is reported, not failed.

With ``--wide`` it times nothing: it traces a wider, untimed set of 84
curves on both trees, ``trace_frontier(grid=100)`` of the Markowitz
estimates of ``make_universe(N, 240, s)`` at N = 11, 50, 100 and 200 and
seeds s = S, S + 1 and S + 2 (S from ``--seed``), under c1, c1 at leverage
cap 1, c2, c2 at weight bounds 1.2/N, 2/N and 3/N, and c4.  It prints for
each curve the largest relative move of a point coordinate and each tree's
path QPs and KKT solves, the curve's minimum-variance and maximum-Sharpe
solves included; then each constraint set's totals over its curves, and
the totals over all of them.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REGIMES = ("c1", "c2", "c3", "c4", "c5")
GRID = 100
UNIVERSE = (50, 128)        # (N, T) of the frontier-grid universe
WIDE_SIZES, WIDE_T, WIDE_SEEDS = (11, 50, 100, 200), 240, 3   # the --wide universes' N, T and seeds
WIDE = (                    # the --wide constraint sets: (label, regime, parameters given N)
    ("c1", "c1", lambda n: {}),
    ("c1 leverage_cap=1", "c1", lambda n: {"leverage_cap": 1.0}),
    ("c2", "c2", lambda n: {}),
    ("c2 weight_bound=1.2/N", "c2", lambda n: {"weight_bound": 1.2 / n}),
    ("c2 weight_bound=2/N", "c2", lambda n: {"weight_bound": 2.0 / n}),
    ("c2 weight_bound=3/N", "c2", lambda n: {"weight_bound": 3.0 / n}),
    ("c4", "c4", lambda n: {}),
)


def _load(src: Path, name: str):
    """The ``portopt`` package under ``src``, imported as module ``name``."""
    init = src / "portopt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no portopt package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module              # the package imports its modules relatively
    spec.loader.exec_module(module)
    return module


def _unload(name: str) -> None:
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


@contextmanager
def _trees(base_src: Path, head_src: Path, prefix: str):
    """While open, this process pinned to one CPU and the ``portopt`` packages
    under ``base_src`` and ``head_src`` loaded as modules ``<prefix>_base`` and
    ``<prefix>_head``: yields ``{"base": package, "head": package}``.  Where no
    ``portopt`` was imported, the head's stands in for it (``perfbench.universe``
    imports ``portopt``)."""
    names = {side: f"{prefix}_{side}" for side in ("base", "head")}
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    bare = "portopt" not in sys.modules
    try:
        if affinity:
            os.sched_setaffinity(0, {min(affinity)})
        trees = {side: _load(src.resolve(), names[side])
                 for side, src in (("base", base_src), ("head", head_src))}
        if bare:
            sys.modules["portopt"] = trees["head"]
        yield trees
    finally:
        if affinity:
            os.sched_setaffinity(0, affinity)
        for name in (*names.values(), *(("portopt",) if bare else ())):
            _unload(name)


def _markets(po, seed: int):
    """``(cov, mean, rf, market index, model)`` of each frontier-grid market,
    estimated with the package ``po``."""
    from perfbench.universe import make_universe

    daily = po.parse_price_table((ROOT / "data/synthetic_prices.csv").read_text("utf-8"), "MKT")
    table = po.compute_monthly_returns(po.select_bom(daily))
    rf = po.average_risk_free(po.parse_riskfree_table(
        (ROOT / "data/synthetic_riskfree.csv").read_text("utf-8")))
    mm, im = po.markowitz_estimates(table), po.index_model_estimates(table, rf=rf)
    mi = table.market_position
    u = make_universe(*UNIVERSE, seed)
    return [(mm.cov, mm.mean, rf, mi, "MM"),
            (po.im_covariance(im), im.expected_returns(), rf, mi, "IM"),
            (u.mm.cov, u.mm.mean, u.rf, u.market_index, "MM")]


def _pass(po, markets) -> tuple[float, list[np.ndarray]]:
    """Seconds to trace every curve, and each curve's points."""
    gc.collect()
    curves = []
    start = time.perf_counter()
    for regime in REGIMES:
        for cov, mean, rf, mi, model in markets:
            c = po.ConstraintSet(regime, market_index=mi if regime == "c5" else None)
            curves.append(po.trace_frontier(cov, mean, rf, c, grid=GRID, model=model))
    elapsed = time.perf_counter() - start
    return elapsed, [np.array(curve.points) for curve in curves]


@contextmanager
def _counting(po):
    """While open, count every call of the tree's ``qp._solve_kkt``, every
    ``solve_qp`` call its solver makes inside ``Problem.corner_path``, every
    dense matrix its ``qp.InequalityRows`` scans (a call of that class's
    ``__init__``) and every call of its ``solver._prepare_cov``: yields
    ``[KKT solves, path QPs, dense row scans, covariance preparations]``."""
    qp, solver = (sys.modules[f"{po.__name__}.{name}"] for name in ("qp", "solver"))
    solve_kkt, solve_qp, corner_path = qp._solve_kkt, solver.solve_qp, solver.Problem.corner_path
    rows, scan, prepare_cov = qp.InequalityRows, qp.InequalityRows.__init__, solver._prepare_cov
    counts, on_path = [0, 0, 0, 0], [False]

    def counting(K, rhs):
        counts[0] += 1
        return solve_kkt(K, rhs)

    def scanning(self, *args):
        counts[2] += 1
        scan(self, *args)

    def preparing(cov):
        counts[3] += 1
        return prepare_cov(cov)

    def solving(*args):
        counts[1] += on_path[0]
        return solve_qp(*args)

    def tracing(self, *args):
        on_path[0] = True
        try:
            return corner_path(self, *args)
        finally:
            on_path[0] = False

    qp._solve_kkt, solver.solve_qp, solver.Problem.corner_path = counting, solving, tracing
    rows.__init__, solver._prepare_cov = scanning, preparing
    try:
        yield counts
    finally:
        qp._solve_kkt, solver.solve_qp, solver.Problem.corner_path = solve_kkt, solve_qp, corner_path
        rows.__init__, solver._prepare_cov = scan, prepare_cov


def _counted_pass(po, markets) -> tuple[int, int, int, int, list[np.ndarray]]:
    """One pass, counted (``_counting``): the KKT solves, the path QPs, the
    dense row scans, the covariance preparations, and each curve's points."""
    with _counting(po) as counts:
        curves = _pass(po, markets)[1]
    return *counts, curves


def _wide_curves(po, seed: int) -> list[tuple[str, str, int, int, np.ndarray]]:
    """Each ``--wide`` curve traced with the package ``po``, counted
    (``_counting``): its label, its constraint set's label, KKT solves, path
    QPs and points."""
    from perfbench.universe import make_universe

    out = []
    for n in WIDE_SIZES:
        for s in range(seed, seed + WIDE_SEEDS):
            u = make_universe(n, WIDE_T, s)
            for label, regime, parameters in WIDE:
                c = po.ConstraintSet(regime, **parameters(n))
                with _counting(po) as counts:
                    curve = po.trace_frontier(u.mm.cov, u.mm.mean, u.rf, c, grid=GRID)
                out.append((f"n{n} s{s} {label}", label, *counts[:2], np.array(curve.points)))
    return out


def _report_wide(base, head) -> None:
    """One line per ``--wide`` curve: its largest relative move (inf where the
    trees trace a different number of points), then base and head path QPs
    and KKT solves; then those counts summed per constraint set and over every
    curve, and the largest move over the set."""
    largest, totals = 0.0, {key: [0] * 4 for key in [label for label, *_ in WIDE] + ["all"]}
    for (label, group, solves_b, qps_b, a), (*_, solves_h, qps_h, b) in zip(base, head):
        move = _largest_move([a], [b]) if a.shape == b.shape else math.inf
        largest = max(largest, move)
        print(f"{label:<31} move {move:<9.3g} path QPs base {qps_b}, head {qps_h}"
              f"  KKT solves base {solves_b}, head {solves_h}")
        for key in (group, "all"):
            totals[key] = [t + c for t, c in zip(totals[key], (qps_b, qps_h, solves_b, solves_h))]
    for key, (qps_b, qps_h, solves_b, solves_h) in totals.items():
        name = f"total over {len(base)} curves" if key == "all" else f"total {key}"
        print(f"{name:<31} path QPs base {qps_b}, head {qps_h}"
              f"  KKT solves base {solves_b}, head {solves_h}")
    print(f"largest relative move over {len(base)} curves: {largest:.3g}")


def _largest_move(base: list[np.ndarray], head: list[np.ndarray]) -> float:
    """The largest ``|head - base| / max(|head|, |base|)`` over the points of
    the curves whose shapes agree; 0 where both are 0."""
    move = 0.0
    for a, b in zip(base, head):
        if a.shape == b.shape and a.size:
            scale = np.maximum(np.abs(a), np.abs(b))
            rel = np.divide(np.abs(b - a), scale, out=np.zeros_like(scale), where=scale > 0.0)
            move = max(move, float(rel.max()))
    return move


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--wide", action="store_true",
                        help="trace the wider untimed curve set instead of timing")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if str(ROOT) not in sys.path:           # perfbench, from this checkout
        sys.path.append(str(ROOT))
    with _trees(args.base_src, args.head_src, "_frontier_ab") as trees:
        if args.wide:
            print(f"wide curves: make_universe(N, {WIDE_T}, s) for s = {args.seed}.."
                  f"{args.seed + WIDE_SEEDS - 1}, grid {GRID}")
            _report_wide(*(_wide_curves(po, args.seed) for po in trees.values()))
            return 0
        markets = _markets(trees["head"], args.seed)
        solves, qps, scans, preps, points = {}, {}, {}, {}, {}
        for side, po in trees.items():                                  # untimed
            _pass(po, markets)                                          # the regimes' first use
            solves[side], qps[side], scans[side], preps[side], points[side] = \
                _counted_pass(po, markets)
        times = {"base": [], "head": []}
        for k in range(args.rounds):
            for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                elapsed, pts = _pass(trees[side], markets)
                times[side].append(elapsed)
                if [p.tobytes() for p in pts] != [p.tobytes() for p in points[side]]:
                    raise SystemExit(f"{side}: a pass traced other points than the first")
    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    q1, med, q3 = _quartiles(ratios)
    moved = sum(a.tobytes() != b.tobytes() for a, b in zip(points["base"], points["head"]))
    print(f"curves per pass: {len(points['base'])} (seed {args.seed}, {args.rounds} rounds)")
    for side in ("base", "head"):
        print(f"{side}: median pass {1e3 * statistics.median(times[side]):.1f} ms"
              f"  ({getattr(args, f'{side}_src')})")
    print(f"KKT solves per pass: base {solves['base']}, head {solves['head']}")
    print(f"path QPs per pass: base {qps['base']}, head {qps['head']}")
    print(f"dense row scans per pass: base {scans['base']}, head {scans['head']}")
    print(f"covariance preparations per pass: base {preps['base']}, head {preps['head']}")
    print(f"head/base time ratio: median {med:.3f}  quartiles {q1:.3f} - {q3:.3f}")
    print("points bit-identical: " + ("yes" if not moved else
          f"no, {moved} curves differ, largest relative move "
          f"{_largest_move(points['base'], points['head']):.3g}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
