"""Timed passes over one workload's jobs, in a fresh interpreter.

    python3 worker.py PLAN RESULT

`run.py` starts this once per benchmark run, so the peak RSS it reports
belongs to one workload alone.  PLAN (JSON) names the source tree, the
jobs with their input and output paths, the run length and whether to
trace.  The worker calls `bondlat.cli.main` in-process, one job at a time
(a closed loop with one client), and repeats passes over all jobs until
the run length is used, with at least `min_passes` passes.  In a traced run
every second pass is traced, so traced and untraced passes interleave.
Between passes it times fresh interpreters for `setup_s`, and between
passes and jobs a fixed piece of reference work, which measures the speed
the machine runs at during the run.

It writes per-pass job times, exit codes and output digests to RESULT,
and in a traced run the spans, one JSON list per line: traced pass, name,
start, end, parent index within that pass, job.  Checking is left to
`run.py`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

# Set-up and reference samples are spread over the run (a few after every
# pass, and a reference sample between jobs at least every quarter second)
# so that their medians see the same machine conditions as the jobs.
SETUP_PER_PASS = 3
MIN_SETUP_SAMPLES = 9
REFERENCE_PER_PASS = 5
REFERENCE_INTERVAL_S = 0.25


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _remove(path: str):
    if os.path.exists(path):
        os.remove(path)


def run_pass(cli, jobs: list, reference: list, tracer=None) -> dict:
    records = []
    for job in jobs:
        _remove(job["output"])
        if job["dot"]:
            _remove(job["dot_path"])
        argv = [job["cmd"], "--input", job["input"], "--output", job["output"]]
        if job["dot"]:
            argv += ["--dot", job["dot_path"]]
        gc.collect()
        if perf_counter() - reference[-1][0] > REFERENCE_INTERVAL_S:
            reference.append(reference_sample())
        if tracer is not None:
            tracer.job = job["name"]
        error = code = None
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails this job; the run goes on
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        elapsed = perf_counter() - start
        records.append(
            {
                "seconds": elapsed,
                "exit": code,
                "error": error,
                "sha256": _digest(job["output"]),
                "dot_sha256": _digest(job["dot_path"]) if job["dot"] else None,
            }
        )
    return {"traced": tracer is not None, "wall": sum(r["seconds"] for r in records), "jobs": records}


def setup_sample(src: str) -> float:
    """Wall time of a fresh interpreter that imports bondlat and builds the
    CLI parser: `python3 -m bondlat --help`.

    The wait blocks in waitpid: waiting with a timeout polls with sleeps
    of up to 50 ms, which would round every sample up to the next poll.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bondlat", "--help"],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=os.path.dirname(src),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    code = proc.wait()
    elapsed = perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def reference_sample() -> tuple[float, float]:
    """(end time, wall time) of a fixed piece of pure-Python work of the
    kind the program does: tuple keys in a dict, big-integer bit masks, a
    sort.  run.py divides job times by the run's median of these."""
    start = perf_counter()
    table, mask = {}, 0
    for i in range(5_000):
        key = (i * 7919) % 10007, i & 63
        table[key] = table.get(key, 0) + 1
        mask |= 1 << (i % 1500)
    sorted(table.items())
    end = perf_counter()
    return end, end - start


def encode_potentials(tracer, jobs: list):
    """Time `instances.encode_potentials` on every potentials input.

    Input generation lives in the benchmark, so no timed job calls the
    encoder; this gives the `instances` layer its own number.  It runs
    before the wrappers are installed, so it feeds no other layer.
    """
    from bondlat import jsonio
    from bondlat.instances import encode_potentials

    seen = set()
    for job in jobs:
        if job["gen"] not in ("grid", "order_system") or job["input"] in seen:
            continue
        seen.add(job["input"])
        with open(job["input"], encoding="utf-8") as handle:
            doc = json.load(handle)
        if any(doc["reference"].values()):
            continue  # infeasible variants are not potentials
        graph = jsonio.parse_graph(doc)
        lower = jsonio.parse_arc_map(doc, "lower", graph)
        upper = jsonio.parse_arc_map(doc, "upper", graph)
        tracer.job = job["name"]
        tracer.call("instances.encode", encode_potentials, graph, lower, upper, doc["forbidden"])


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import bondlat
    from bondlat import cli

    if not os.path.abspath(bondlat.__file__).startswith(plan["src"] + os.sep):
        print(f"bondlat was imported from {bondlat.__file__}, not from {plan['src']}", file=sys.stderr)
        return 2
    from tracing import Tracer

    jobs, trace = plan["jobs"], plan["trace"]
    passes, layers, spans, setup, reference = [], [], [], [], []
    setup_sample(plan["src"])  # untimed: leaves the bytecode cache warm
    reference.append(reference_sample())
    # Objects alive now live for the whole run; the collection before each
    # job then only walks what earlier jobs left behind.
    gc.collect()
    gc.freeze()
    started = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer()
            encode_potentials(tracer, jobs)
            tracer.install()
        try:
            passes.append(run_pass(cli, jobs, reference, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            layers.append(tracer.layer_metrics())
            spans.extend([len(passes) - 1] + span for span in tracer.spans)
        setup.extend(setup_sample(plan["src"]) for _ in range(SETUP_PER_PASS))
        gc.collect()
        reference.extend(reference_sample() for _ in range(REFERENCE_PER_PASS))
        elapsed = perf_counter() - started
        average = elapsed / len(passes)
        if len(passes) >= plan["min_passes"] and elapsed + average > plan["seconds"]:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample(plan["src"]))
    result = {
        "passes": passes,
        "setup": setup,
        "reference": [seconds for _end, seconds in reference],
        "layers": layers,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spans:
        with open(plan["spans"], "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
