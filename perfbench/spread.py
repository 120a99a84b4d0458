"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

For every workload it runs `run.py` once per seed, one run at a time, and
prints per metric the median over the runs, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the distance between
the quartiles as a share of the median.  That share is what the metric's
bound in BENCHMARK.json has to cover.  With --out it also writes the
summary as JSON; baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

ROOT = os.path.dirname(workloads.HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(workloads.HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    summary = {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]
    report = {}
    for workload in args.workload or workloads.WORKLOADS:
        results = []
        for seed in seed_list(args.seeds):
            results.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        report[workload] = summary = summarize(results)
        print(f"{workload}: {summary['runs']} runs, correct {summary['correct']}, "
              f"{summary['failed']} of {summary['attempted']} jobs failed")
        for name, m in summary["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{100 * m['spread']:.2f}%"
            print(f"  {name:30s} median {m['median']:14.6f} {m['unit']:6s} "
                  f"q1 {m['q1']:14.6f} q3 {m['q3']:14.6f} spread {spread}")
            print("      " + " ".join(f"{v:.6g}" for v in m["values"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
