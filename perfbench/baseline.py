"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload and seed it runs ``run.py --trace 0`` one after another,
then one ``--trace 1`` run per workload, and writes per metric the median,
the quartiles and the spread (inter-quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), plus the environment the
runs reported.  A ``notes`` entry already in the output file is kept.
Spreads above a third of a metric's bound in ``BENCHMARK.json`` are flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("# environment "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    old = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc = {"notes": old.get("notes", []), "run_seconds": spec["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        ops = []
        for seed in seeds:
            result, doc["environment"] = run(name, seed, spec["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect result {result}", file=sys.stderr)
                return 1
            ops.append(result["attempted"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        traced, _ = run(name, seeds[0], spec["run_seconds"], 1)
        if not traced["correct"] or traced["failed"]:
            print(f"{name} traced run: incorrect result {traced}", file=sys.stderr)
            return 1
        summary = {metric: summarize(v) for metric, v in values.items()}
        doc["workloads"][name] = {
            "ops": ops, "ops_failed": 0, "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in summary.items():
            flag = " > bound/3" if s["spread"] > bounds[metric] / 3 else ""
            print(f"{name:14s} {metric:24s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.3f}{flag}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
