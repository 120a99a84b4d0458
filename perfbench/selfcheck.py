"""Determinism self-check: two traced runs of one seed must agree exactly.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N] [--seconds S]

For every workload it runs `run.py --trace 1` twice with the same seed and
compares the per-layer counts (every metric whose unit is not seconds) and
the combined sha256 of the last pass's exit codes and output digests.  It
exits 1 and names the differences if anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads
from tracing import LAYER_METRICS

ROOT = os.path.dirname(workloads.HERE)
COUNTS = [name for name, unit in LAYER_METRICS.items() if unit != "s"]


def traced_run(workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    argv = [sys.executable, os.path.join(workloads.HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "outputs of the last pass" in line)
    result = json.loads(lines[-1])
    return digest, {name: result["metrics"][name]["value"] for name in COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PRIMARY_SEED)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)
    differences = 0
    for workload in args.workload or workloads.WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        same = first == second
        print(f"{workload} seed {args.seed}: {'identical' if same else 'DIFFERENT'} counts and digests")
        if not same:
            differences += 1
            for name in COUNTS:
                if first[1][name] != second[1][name]:
                    print(f"  {name}: {first[1][name]} vs {second[1][name]}")
            if first[0] != second[0]:
                print(f"  outputs: {first[0]} vs {second[0]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
