"""Rebuild pins.json: the job slots of every workload with pinned answers.

    python3 perfbench/pin.py [--workload NAME ...]

Run it from the root of a checkout.  For every slot it finds the first
structure seed whose size falls in the slot's band, runs each of the
slot's presentations through `bondlat.cli.main` in-process, checks the
outputs' invariants and records the exit code and the sha256 of every
output (and DOT) file.  Pins are meant to be made once, at the commit that
defines the benchmark; later commits are checked against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time

import checks
import workloads

# Slot specs: generator, its arguments, commands and size band (see
# pin_slot).
_LATTICE = [{"cmd": "lattice"}]
_GAME = [{"cmd": "chipfire"}]
_ORDER = [{"cmd": c} for c in ("reduce", "find-bond", "meet", "join", "leq")]
_CERTIFICATE = [{"cmd": c} for c in ("reduce", "find-bond")]
_PATH_GAME = {"min_vertices": 4, "max_vertices": 6}

SPECS = {
    "certify": [
        ("grid", {"rows": 3, "cols": 3, "narrow": 0.1}, _LATTICE, {"elements": [1000, 1200]}),
        ("grid", {"rows": 3, "cols": 3, "narrow": 0.2}, _LATTICE, {"elements": [560, 660]}),
        ("grid", {"rows": 3, "cols": 3, "narrow": 0.3}, _LATTICE, {"elements": [330, 390]}),
        ("grid", {"rows": 3, "cols": 3, "narrow": 0.4}, _LATTICE, {"elements": [210, 250]}),
        ("grid", {"rows": 3, "cols": 3, "narrow": 0.5}, _LATTICE, {"elements": [120, 145]}),
        ("grid", {"rows": 3, "cols": 3, "narrow": 0.7}, _LATTICE, {"elements": [50, 65]}),
        ("sink_path_game", _PATH_GAME, _GAME, {"elements": [1100, 1300]}),
        ("sink_path_game", _PATH_GAME, _GAME, {"elements": [800, 950]}),
        ("sink_path_game", _PATH_GAME, _GAME, {"elements": [500, 600]}),
        ("sink_path_game", _PATH_GAME, _GAME, {"elements": [300, 360]}),
        # Crashes with RecursionError at the seed commit: kept, unpinned,
        # checked by invariants only, and counted as a failed job.
        ("chain", {"top": 1100}, _LATTICE, {}),
    ],
    "enumerate-wide": [
        ("grid", {"rows": 2, "cols": 5}, [{"cmd": "enumerate", "dot": True}], {}),
        ("grid", {"rows": 3, "cols": 3}, [{"cmd": "enumerate"}], {}),
        ("grid", {"rows": 2, "cols": 5}, [{"cmd": "enumerate"}], {}),
    ],
    "order-path": [
        ("order_system", {"shape": "path", "vertices": 60}, _ORDER, {}),
        ("order_system", {"shape": "path", "vertices": 44}, _ORDER, {}),
        ("order_system", {"shape": "ladder", "vertices": 80}, _ORDER, {}),
        ("order_system", {"shape": "ladder", "vertices": 50}, _ORDER, {}),
        ("order_system", {"shape": "ladder", "vertices": 64, "infeasible": True}, _CERTIFICATE, {}),
        ("order_system", {"shape": "ladder", "vertices": 76, "infeasible": True}, _CERTIFICATE, {}),
    ],
}
VARIANTS = 8
BATCH_SYSTEMS = 400
BATCH_GAMES = 200
BATCH_MAX_ELEMENTS = 300


class Runner:
    """Runs commands in-process on one scratch directory."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.input = os.path.join(workdir, "in.json")
        self.output = os.path.join(workdir, "out.json")
        self.dot = os.path.join(workdir, "out.dot")

    def run(self, doc: dict, commands: list) -> tuple[list, int]:
        """Expected results, and the elements and states the outputs write."""
        with open(self.input, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        expect, size = [], 0
        for command in commands:
            job = {"cmd": command["cmd"], "dot": command.get("dot", False), "doc": doc}
            argv = [job["cmd"], "--input", self.input, "--output", self.output]
            if job["dot"]:
                argv += ["--dot", self.dot]
            code = self.cli.main(argv)
            with open(self.output, "rb") as handle:
                text = handle.read()
            dot = None
            if job["dot"]:
                with open(self.dot, "rb") as handle:
                    dot = handle.read()
            size += checks.check_output(job, code, text.decode("utf-8"), dot and dot.decode("utf-8"))
            expect.append({"exit": code, "sha256": hashlib.sha256(text).hexdigest()})
            if dot is not None:
                expect[-1]["dot_sha256"] = hashlib.sha256(dot).hexdigest()
        return expect, size


def quick_size(gen: str, doc: dict) -> int:
    """Lattice elements or game states of a candidate, without certifying."""
    from bondlat import jsonio
    from bondlat.chipfire import build_game
    from bondlat.lattice import enumerate_lattice

    if gen.endswith("game"):
        return len(build_game(*jsonio.parse_chip_input(doc)).states)
    return enumerate_lattice(jsonio.parse_system(doc).reduce()[0]).n


def pin_slot(runner: Runner, slot_index: int, gen: str, args: dict, commands: list, band: dict) -> dict:
    """The slot's structure and VARIANTS presentations of it.

    The structure is the first candidate seed whose size (lattice elements
    or game states) falls in `band`; every presentation is run once to pin
    its answers.  The chain's answer is not pinned (see SPECS).
    """
    seed = slot_index * 100_000 + 1
    if "elements" in band:
        while not band["elements"][0] <= quick_size(gen, workloads.make_doc(gen, seed, args)) <= band["elements"][1]:
            seed += 1
    slot = {"gen": gen, "args": args, "commands": commands, "band": band, "variants": []}
    for presentation in range(1, VARIANTS + 1):
        if gen == "chain":
            expect, slot["size"] = [{"exit": 0, "sha256": None}], args["top"] + 1
        else:
            expect, size = runner.run(workloads.make_doc(gen, seed, args, presentation), commands)
            slot["size"] = size
        slot["variants"].append({"seed": seed, "presentation": presentation, "expect": expect})
    return slot


def pin_batch(runner: Runner) -> list:
    """Pairs of acceptance-style inputs of nearly equal size: the seed picks
    one of each pair, so every seed runs the same size profile."""
    from bondlat import jsonio
    from bondlat.lattice import CapExceededError, enumerate_lattice

    def small_enough(doc):
        try:
            enumerate_lattice(jsonio.parse_system(doc).reduce()[0], cap=BATCH_MAX_ELEMENTS)
        except CapExceededError:
            return False
        return True

    slots = []
    for gen, count, commands in (("small_system", BATCH_SYSTEMS, _LATTICE), ("small_game", BATCH_GAMES, _GAME)):
        pool, seed = [], 0
        while len(pool) < 2 * count:
            seed += 1
            doc = workloads.make_doc(gen, seed, {})
            if gen == "small_system" and not small_enough(doc):
                continue
            try:
                expect, size = runner.run(doc, commands)
            except checks.InvariantError:
                continue  # cyclic games and failed certifications are not batch jobs
            if expect[0]["exit"] == 0:
                pool.append({"seed": seed, "size": size, "expect": expect})
        pool.sort(key=lambda v: (v["size"], v["seed"]))
        for i in range(0, len(pool), 2):
            band = {"elements": [pool[i]["size"], pool[i + 1]["size"]]}
            slots.append({"gen": gen, "args": {}, "commands": commands, "band": band, "variants": pool[i : i + 2]})
    random.Random(0).shuffle(slots)
    return slots


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    root = os.path.dirname(workloads.HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from bondlat import cli

    pins = workloads.load_pins() if os.path.exists(workloads.PINS_PATH) else {"workloads": {}}
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench_pin_") as workdir:
        runner = Runner(cli, workdir)
        for workload in args.workload or workloads.WORKLOADS:
            start = time.perf_counter()
            if workload == "batch-small":
                slots = pin_batch(runner)
            else:
                slots = [pin_slot(runner, i, *spec) for i, spec in enumerate(SPECS[workload])]
            pins["workloads"][workload] = {"slots": slots}
            print(f"{workload}: {len(slots)} slots in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\"workloads\": {\n")
        for k, (workload, entry) in enumerate(pins["workloads"].items()):
            handle.write(f"{json.dumps(workload)}: {{\"slots\": [\n")
            handle.write(",\n".join(json.dumps(slot, separators=(",", ":")) for slot in entry["slots"]))
            handle.write("\n]}" + (",\n" if k + 1 < len(pins["workloads"]) else "\n"))
        handle.write("}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
