"""portopt benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads (see ``workloads.py``):
``frontier-grid`` and ``large-n-solve``; each repeats its own part for at
least ``--seconds`` after its probes.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics, as seconds at a reference machine speed (``speed.py``); with
``--trace 1`` it holds the per-layer metrics of a traced run, in wall
seconds, whose spans are written to ``.perfbench_runs/``.  The benchmark
and every process it starts run on one CPU with one BLAS thread.  The
program is imported from ``src/`` of the same checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by every CLI process:
# on a 2-core machine a second OpenBLAS thread spins on the other core
# between calls, so timings then depend on whatever else runs there.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".perfbench_runs"
IMPORT_REPEATS = 3

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "cli_ingest_s": "s", "cli_solve_s": "s", "cli_frontier_s": "s", "cli_compare_s": "s",
    "frontier_points_per_s": "1/s", "cloud_points_per_s": "1/s",
    "solve_split_s": "s", "solve_weight_s": "s",
}


def _import_program():
    """Import portopt and the benchmark from this checkout, or exit 2."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import portopt
    except ImportError as exc:
        print(f"perfbench: cannot import portopt from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(portopt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: portopt imported from {portopt.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(2)
    from perfbench import workloads
    return workloads


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The machine-speed samples (``speed.py``) then describe the CPU that the
    measured work, fresh CLI processes included, runs on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def blas_info() -> dict:
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workloads, args, ctx) -> dict:
    inputs = workloads.build_inputs(args.workload, args.seed)
    metrics = workloads.measure(ctx, args.workload, inputs, args.seconds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}


def per_layer(workloads, args, ctx) -> dict:
    from perfbench import trace

    import_s = statistics.median(
        workloads.fresh_python(["-c", "import portopt"]) for _ in range(IMPORT_REPEATS))
    ctx.inprocess_cli = True
    workloads.one_pass(ctx, args.workload, args.seed)     # warm-up, not measured
    # traced, untraced, traced: the overhead estimate cancels a linear drift
    # in machine speed, the two traced passes must count the same work, and
    # each per-layer figure is the mean of the two
    passes = []
    for traced in (True, False, True):
        ctx.tracer = trace.Tracer() if traced else None
        with trace.installed(ctx.tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            outputs = workloads.one_pass(ctx, args.workload, args.seed)
            passes.append((ctx.tracer, outputs, time.perf_counter() - t0))
    ctx.tracer = None
    (tracer_a, out_a, wall_a), (_, out_u, wall_u), (tracer_b, out_b, wall_b) = passes
    if tracer_a.counts() != tracer_b.counts():
        ctx.problems.append("traced counts differ between two identical traced passes")
    if not out_a == out_u == out_b:
        ctx.problems.append("outputs differ between untraced and traced passes")
    RUNS.mkdir(exist_ok=True)
    tracer_a.write(RUNS / f"trace-{args.workload}-s{args.seed}.jsonl")
    overhead_s = (wall_a + wall_b) / 2 - wall_u
    layers = [trace.layer_metrics(t, import_s=import_s, overhead_s=overhead_s)
              for t in (tracer_a, tracer_b)]
    return {k: {"value": (m["value"] + layers[1][k]["value"]) / 2, "unit": m["unit"]}
            for k, m in layers[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build_inputs(args.workload, args.seed)
        return 0

    scratch = RUNS / f"{args.workload}-s{args.seed}-{os.getpid()}"
    ctx = workloads.Context(args.workload, args.seed, scratch)
    try:
        if args.trace:
            metrics = per_layer(workloads, args, ctx)
        else:
            metrics = end_to_end(workloads, args, ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("# environment " + json.dumps(environment(), sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# ops {ctx.attempted} ops_failed {ctx.failed}")
    for problem in ctx.problems[:20]:
        print(f"# problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
