"""Benchmark of the bondlat pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `bondlat` from `src/`.  It
generates the workload's inputs from the seed, runs the timed passes, the
set-up samples and the reference work in a fresh worker process
(`worker.py`), checks every job against its pinned exit code and digests
and against the output invariants, and prints one line per metric and, as
the last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from the traced passes.  Times
are scaled to a nominal machine speed (see REFERENCE_NOMINAL_S).  README.md
describes the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import checks
import workloads
from tracing import LAYER_METRICS

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "elements_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKER_TIMEOUT_S = 150
# Every reported time is scaled to a machine on which the worker's reference
# work takes this long.  The machine the benchmark was built on is shared and
# its speed drifts by up to 1.8x over seconds to minutes; job times and the
# reference work drift together, so their ratio is steady where raw times are
# not.  The value is the reference's typical time on that machine.
REFERENCE_NOMINAL_S = 0.008


def write_plan(run_dir: str, jobs: list, args) -> tuple[str, list]:
    planned = []
    for k, job in enumerate(jobs):
        path = os.path.join(run_dir, f"in{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job["doc"], handle)
        planned.append(
            {
                "name": job["name"],
                "cmd": job["cmd"],
                "gen": job["gen"],
                "dot": job["dot"],
                "input": path,
                "output": os.path.join(run_dir, f"out{k}.json"),
                "dot_path": os.path.join(run_dir, f"out{k}.dot"),
            }
        )
    plan = {
        "src": SRC,
        "jobs": planned,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_passes": 2 if args.trace else 3,
        "spans": os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"),
    }
    path = os.path.join(run_dir, "plan.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    return path, planned


def verify(jobs: list, planned: list, passes: list) -> tuple[list, list, list]:
    """Per job: elements written, and per pass: failed or not, wrong or not.

    A job execution fails on an uncaught exception, a wrong exit code, a
    digest that differs from its pin (or, unpinned, from the last pass) or
    a broken invariant.  All but the exception also make it wrong.
    """
    written, failed, wrong = [], [], []
    for k, (job, paths) in enumerate(zip(jobs, planned)):
        runs = [p["jobs"][k] for p in passes]
        last, expect = runs[-1], job["expect"]
        invariant_ok, count = True, 0
        if last["error"] is None:
            try:
                with open(paths["output"], encoding="utf-8") as handle:
                    text = handle.read()
                dot = None
                if job["dot"] and os.path.exists(paths["dot_path"]):
                    with open(paths["dot_path"], encoding="utf-8") as handle:
                        dot = handle.read()
                count = checks.check_output(job, last["exit"], text, dot)
            except (OSError, ValueError, KeyError, TypeError, checks.InvariantError) as exc:
                print(f"  job {job['name']}: invariant broken: {exc}", file=sys.stderr)
                invariant_ok, count = False, 0
        written.append(count)
        sha = expect["sha256"] or last["sha256"]
        dot_sha = expect.get("dot_sha256") or last["dot_sha256"]
        for run in runs:
            bad = (
                run["exit"] != expect["exit"]
                or run["sha256"] != sha
                or run["dot_sha256"] != dot_sha
                or not invariant_ok
            )
            if run["error"] is not None or bad:
                detail = run["error"] or f"exit {run['exit']}, expected {expect['exit']}"
                print(f"  job {job['name']}: failed: {detail}", file=sys.stderr)
            failed.append(run["error"] is not None or bad)
            wrong.append(run["error"] is None and bad)
    return written, failed, wrong


def speed_factor(reference: list) -> float:
    """Scale from this run's measured seconds to seconds at the nominal
    speed: REFERENCE_NOMINAL_S over the median time of the reference work
    sampled between the run's jobs and passes."""
    return REFERENCE_NOMINAL_S / statistics.median(reference)


def job_times(passes: list, traced: bool) -> list:
    """Each job's median time over the passes of one kind."""
    chosen = [p for p in passes if p["traced"] == traced]
    return [statistics.median(p["jobs"][k]["seconds"] for p in chosen) for k in range(len(passes[0]["jobs"]))]


def end_to_end(result: dict, written: list) -> dict:
    passes, scale = result["passes"], speed_factor(result["reference"])
    walls = [p["wall"] for p in passes if not p["traced"]]
    wall = scale * statistics.median(walls)
    per_job = [scale * t for t in job_times(passes, traced=False)]
    values = {
        "setup_s": (scale * statistics.median(result["setup"]), len(result["setup"])),
        "wall_s": (wall, len(walls)),
        "elements_per_s": (sum(written) / wall, len(walls)),
        "job_p50_ms": (1000 * statistics.median(per_job), len(per_job)),
        "job_p95_ms": (1000 * statistics.quantiles(per_job, n=20, method="inclusive")[18], len(per_job)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, 1),
    }
    return {name: (value, END_TO_END_UNITS[name], n) for name, (value, n) in values.items()}


def per_layer(result: dict) -> dict:
    passes, layers, scale = result["passes"], result["layers"], speed_factor(result["reference"])
    overhead = sum(job_times(passes, traced=True)) - sum(job_times(passes, traced=False))
    values = {}
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            values[name] = (scale * overhead, unit, len(layers))
        elif unit == "s":
            values[name] = (scale * statistics.median(layer[name] for layer in layers), unit, len(layers))
        else:
            if any(layer[name] != layers[0][name] for layer in layers):
                print(f"  warning: {name} differs between traced passes", file=sys.stderr)
            values[name] = (layers[0][name], unit, len(layers))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bondlat benchmark: one workload, one seed, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bondlat", "__init__.py")):
        print(f"no bondlat sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    jobs = workloads.select_jobs(workloads.load_pins(), args.workload, args.seed)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        plan_path, planned = write_plan(run_dir, jobs, args)
        result_path = os.path.join(run_dir, "result.json")
        worker = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path]
        proc = subprocess.run(worker, cwd=run_dir, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        passes = result["passes"]
        written, failed, wrong = verify(jobs, planned, passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(result, written)
    attempted = len(failed)
    outputs = hashlib.sha256(json.dumps([[r["exit"], r["sha256"], r["dot_sha256"]] for r in passes[-1]["jobs"]]).encode())
    print(
        f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
        f"{sum(failed)} of {attempted} failed (fail_ratio {sum(failed) / attempted:.4f}), "
        f"{sum(written)} elements and states written per pass"
    )
    print(
        f"  measured: median pass {statistics.median(p['wall'] for p in passes if not p['traced']):.4f} s, "
        f"median reference work {1000 * statistics.median(result['reference']):.3f} ms "
        f"(nominal {1000 * REFERENCE_NOMINAL_S:.1f} ms), times below scaled by {speed_factor(result['reference']):.4f}"
    )
    print(f"  outputs of the last pass: sha256 {outputs.hexdigest()}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:30s} {value:14.6f} {unit:6s} (n={n})")
    print(
        json.dumps(
            {
                "correct": not any(wrong),
                "attempted": attempted,
                "failed": sum(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
