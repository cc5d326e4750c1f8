#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload c7 --seeds 1-10 [--trace 1] [--out FILE]

Each run is ``perfbench/run.py`` as a child process, one at a time.  For
every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread: the
interquartile distance as a share of the median.  Prints the summary as
JSON, and writes it to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    runs, values = [], {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "exit": proc.returncode, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     **{k: detail[k] for k in ("rounds", "latency_samples", "machine_speed") if k in detail}})
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {"workload": args.workload, "seconds": seconds, "trace": args.trace,
               "environment": detail["environment"], "runs": runs,
               "metrics": {name: summarise(v) for name, v in values.items()}}
    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
