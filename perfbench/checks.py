"""Output invariants that hold whatever bytes the seed commit wrote.

The pinned digests catch any change in output; these checks say whether an
output is right on its face, and also cover the job whose output has no pin
(the deep chain, which crashes at the seed commit).
"""

from __future__ import annotations

import json
from collections import deque


class InvariantError(Exception):
    """An output that breaks an invariant of its command."""


def check_output(job: dict, code: int, text: str, dot: str | None) -> int:
    """Raise InvariantError on a broken invariant; otherwise return the
    number of lattice elements and game states the output writes."""
    payload = json.loads(text)
    doc, cmd = job["doc"], job["cmd"]
    if cmd in ("enumerate", "lattice"):
        written = _check_lattice(doc, payload, analyzed=cmd == "lattice")
        if job["dot"]:
            _check_dot(dot, payload["count"])
        return written
    if cmd == "chipfire":
        return _check_game(payload)
    if cmd in ("reduce", "find-bond"):
        if code == 1:
            _check_certificate(payload)
            return 0
        if cmd == "reduce":
            fixed = {a for a in doc["lower"] if doc["lower"][a] == doc["upper"][a]}
            _require(fixed <= set(payload["contraction"]["forced"]), "a fixed arc was not contracted")
            return 0
        _check_in_windows(doc, payload["bond"])
        return 1
    if cmd in ("meet", "join"):
        _check_in_windows(doc, payload[cmd])
        return 1
    if cmd == "leq":
        _require(isinstance(payload["leq"], bool), "leq is not a boolean")
        return 0
    raise InvariantError(f"no invariants for command {cmd!r}")


def _require(condition: bool, message: str):
    if not condition:
        raise InvariantError(message)


def _check_in_windows(doc: dict, values: dict):
    _require(set(values) == set(doc["lower"]), "labeling does not cover the arcs")
    for a, v in values.items():
        _require(doc["lower"][a] <= v <= doc["upper"][a], f"arc {a} leaves its window")


def _check_certificate(payload: dict):
    _require(payload["verdict"] == "infeasible", "exit 1 without an infeasibility verdict")
    _require(
        not payload["window_min"] <= payload["required"] <= payload["window_max"],
        "certificate cycle admits its required flow-difference",
    )


def _check_lattice(doc: dict, payload: dict, analyzed: bool) -> int:
    elements, covers = payload["elements"], payload["covers"]
    n = payload["count"]
    _require(n == len(elements), "count differs from the number of elements")
    for values in elements:
        _check_in_windows(doc, values)
    up = [[] for _ in range(n)]
    indegree = [0] * n
    for lo, hi, _color in covers:
        _require(0 <= lo < n and 0 <= hi < n, "cover index out of range")
        up[lo].append(hi)
        indegree[hi] += 1
    sources = [i for i in range(n) if indegree[i] == 0]
    _require(len(sources) == 1, "no unique minimum")
    rank = [-1] * n
    rank[sources[0]] = 0
    queue = deque(sources)
    while queue:
        i = queue.popleft()
        for j in up[i]:
            if rank[j] < 0:
                rank[j] = rank[i] + 1
                queue.append(j)
    _require(min(rank) == 0, "an element is unreachable from the minimum")
    _require(all(rank[hi] == rank[lo] + 1 for lo, hi, _ in covers), "a cover skips a rank")
    if analyzed:
        _require(payload["uld"]["ok"] and payload["lld"]["ok"], "ULD/LLD certification failed")
        _require(payload["distributive"] is True, "not reported distributive")
        _require(payload["minimum"] == sources[0], "minimum is not the unique source")
    return n


def _check_game(payload: dict) -> int:
    _require(payload["verdict"] == "finite", "game is not finite")
    states, moves = payload["states"], payload["moves"]
    n = len(states)
    _require(all(0 <= i < n and 0 <= j < n for i, j, _ in moves), "move index out of range")
    movers = {i for i, _, _ in moves}
    terminals = [i for i in range(n) if i not in movers]
    _require(len(terminals) == 1, "no unique terminal state")
    certificate = payload["certificate"]
    _require(certificate["ok"], "game certificate failed")
    _require(certificate["terminal"] == states[terminals[0]], "certificate names another terminal")
    return n


def _check_dot(dot: str | None, count: int):
    _require(dot is not None, "DOT file missing")
    _require(dot.startswith("digraph {") and dot.endswith("}\n"), "DOT text is not one digraph")
    _require(dot.count(" [label=") - dot.count(" -> ") == count, "DOT node count differs from count")
