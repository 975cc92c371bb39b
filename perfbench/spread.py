"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads small-suite,large-campaign \\
        --seeds 1-10 --trace 0 --out .perfbench-out/spread.json

Each (workload, seed) is one ``run.py`` invocation, run serially.  For
every metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.  It exits
non-zero only if a run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    summary: dict[str, dict[str, object]] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()
                             if k in end_to_end), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "runs": runs,
            "metrics": metrics,
        }
        for name, stats in metrics.items():
            if name in end_to_end:
                print(f"  {workload} {name}: median {stats['median']:.4g} "
                      f"{stats['unit']}, spread {stats['spread']:.3f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    correct = all(w["correct"] for w in summary.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
