"""End-to-end tests of the command line interface.

Most tests drive ``main(argv)`` in process against real temporary files,
checking exit codes and frozen JSON payloads.  A handful go through
``python3 -m bondlat`` subprocesses to pin stdin/stdout plumbing and
byte-for-byte determinism of repeated runs.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

from bondlat import (
    Arc,
    ColoredDigraph,
    Multigraph,
    bonds,
    cli,
    encode_potentials,
    graph,
    jsonio,
)
from bondlat.cli import main
from bondlat.jsonio import dumps, system_json

from util import (
    aztec_document,
    box_document,
    first_difference,
    grid_order_document,
    macmahon,
    oracle_dot,
    oracle_labels,
    path_document,
)

_SEQ = itertools.count()


def run_cli(tmp_path, command, doc, *extra):
    """Run one subcommand through files; returns (exit code, payload or None)."""
    stamp = next(_SEQ)
    source = tmp_path / f"in{stamp}.json"
    sink = tmp_path / f"out{stamp}.json"
    source.write_text(dumps(doc), encoding="utf-8")
    code = main([command, "--input", str(source), "--output", str(sink), *extra])
    payload = json.loads(sink.read_text(encoding="utf-8")) if sink.exists() else None
    return code, payload


def run_proc(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "bondlat", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


def tri_doc(delta=1):
    return {
        "vertices": [1, 2, 3],
        "arcs": [
            {"id": "a1", "tail": 1, "head": 2},
            {"id": "a2", "tail": 2, "head": 3},
            {"id": "a3", "tail": 3, "head": 1},
        ],
        "lower": {"a1": 0, "a2": 0, "a3": 0},
        "upper": {"a1": 1, "a2": 1, "a3": 1},
        "reference": {"a1": delta, "a2": 0, "a3": 0},
        "forbidden": 1,
    }


def star_doc():
    return {
        "vertices": [0, 1, 2],
        "arcs": [
            {"id": "a", "tail": 1, "head": 0},
            {"id": "b", "tail": 2, "head": 0},
        ],
        "lower": {"a": 0, "b": 0},
        "upper": {"a": 1, "b": 1},
        "reference": {"a": 0, "b": 0},
        "forbidden": 0,
    }


def tri_rotation():
    return {
        "1": [{"arc": "a1", "end": "tail"}, {"arc": "a3", "end": "head"}],
        "2": [{"arc": "a2", "end": "tail"}, {"arc": "a1", "end": "head"}],
        "3": [{"arc": "a3", "end": "tail"}, {"arc": "a2", "end": "head"}],
    }


def mixed_doc():
    """Int and str vertex and arc ids, arcs listed out of id order, some
    pointing against the vertex order, and the rigid arc 2 (window [1, 1])
    whose forced value sorts between the surviving arcs 1 and 7."""
    return {
        "vertices": [0, 1, 2, "u", "w"],
        "arcs": [
            {"id": "x", "tail": 1, "head": 0},
            {"id": 7, "tail": 0, "head": 2},
            {"id": 2, "tail": 2, "head": 1},
            {"id": 1, "tail": "u", "head": 1},
            {"id": "b", "tail": 2, "head": "u"},
            {"id": "a", "tail": "w", "head": 0},
            {"id": 10, "tail": "u", "head": "w"},
        ],
        "lower": {"x": -1, "7": -1, "2": 1, "1": -1, "b": 0, "a": -1, "10": 0},
        "upper": {"x": 1, "7": 1, "2": 1, "1": 1, "b": 2, "a": 1, "10": 1},
        "reference": {"x": 0, "7": 0, "2": 1, "1": 0, "b": 1, "a": 0, "10": 0},
        "forbidden": 0,
    }


def k4_torus_doc():
    """K4 with a rotation that traces 2 faces, not 4: genus 1."""
    return {
        "vertices": [1, 2, 3, 4],
        "arcs": [
            {"id": "a", "tail": 1, "head": 2},
            {"id": "b", "tail": 1, "head": 3},
            {"id": "c", "tail": 1, "head": 4},
            {"id": "d", "tail": 2, "head": 3},
            {"id": "e", "tail": 2, "head": 4},
            {"id": "f", "tail": 3, "head": 4},
        ],
        "rotation": {
            "1": [{"arc": "a", "end": "tail"}, {"arc": "b", "end": "tail"}, {"arc": "c", "end": "tail"}],
            "2": [{"arc": "a", "end": "head"}, {"arc": "d", "end": "tail"}, {"arc": "e", "end": "tail"}],
            "3": [{"arc": "d", "end": "head"}, {"arc": "b", "end": "head"}, {"arc": "f", "end": "tail"}],
            "4": [{"arc": "f", "end": "head"}, {"arc": "e", "end": "head"}, {"arc": "c", "end": "head"}],
        },
    }


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chain_chip_doc(chips):
    return {
        "vertices": [1, 2, 3],
        "arcs": [
            {"id": "e1", "tail": 1, "head": 2},
            {"id": "e2", "tail": 1, "head": 3},
            {"id": "e3", "tail": 2, "head": 3},
        ],
        "chips": chips,
    }


class TestEnumerate:
    def test_triangle_flat_payload(self, tmp_path):
        code, payload = run_cli(tmp_path, "enumerate", tri_doc())
        assert code == 0
        assert payload == {
            "count": 3,
            "elements": [
                {"a1": 1, "a2": 0, "a3": 0},
                {"a1": 0, "a2": 1, "a3": 0},
                {"a1": 0, "a2": 0, "a3": 1},
            ],
            "covers": [[0, 1, 2], [1, 2, 3]],
            "contraction": {"forced": {}, "vertex_map": {"1": 1, "2": 2, "3": 3}},
        }

    def test_rigid_triangle_collapses(self, tmp_path):
        code, payload = run_cli(tmp_path, "enumerate", tri_doc(delta=0))
        assert code == 0
        assert payload["count"] == 1
        assert payload["elements"] == [{"a1": 0, "a2": 0, "a3": 0}]
        assert payload["covers"] == []
        assert payload["contraction"]["forced"] == {"a1": 0, "a2": 0, "a3": 0}
        assert payload["contraction"]["vertex_map"] == {"1": 1, "2": 1, "3": 1}

    def test_forbidden_flag_moves_minimum(self, tmp_path):
        code, payload = run_cli(tmp_path, "enumerate", tri_doc(), "--forbidden", "2")
        assert code == 0
        assert payload["elements"][0] == {"a1": 0, "a2": 1, "a3": 0}
        assert payload["covers"] == [[0, 1, 3], [1, 2, 1]]

    def test_cap_exceeded(self, tmp_path):
        code, payload = run_cli(tmp_path, "enumerate", tri_doc(), "--cap", "2")
        assert code == 1
        assert payload["verdict"] == "cap exceeded"
        assert payload["cap"] == 2
        assert payload["explored"] > 2

    def test_infeasible_reports_certificate(self, tmp_path):
        code, payload = run_cli(tmp_path, "enumerate", tri_doc(delta=4))
        assert code == 1
        # the reversed traversal of the triangle: -4 falls below [-3, 0]
        assert payload == {
            "verdict": "infeasible",
            "cycle": {"a1": -1, "a2": -1, "a3": -1},
            "required": -4,
            "window_min": -3,
            "window_max": 0,
        }

    def test_disconnected_input_reports_product(self, tmp_path):
        doc = {
            "vertices": [1, 2, 10, 20],
            "arcs": [
                {"id": "a", "tail": 1, "head": 2},
                {"id": "b", "tail": 10, "head": 20},
            ],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 1, "b": 1},
            "reference": {"a": 0, "b": 0},
        }
        code, payload = run_cli(tmp_path, "enumerate", doc)
        assert code == 0
        assert payload["product_size"] == 4
        first, second = payload["components"]
        assert first["vertices"] == [1, 2]
        assert first["forbidden"] == 1
        # pushing vertex 2 lowers the only arc, so the minimum sits at value 1
        assert first["elements"] == [{"a": 1}, {"a": 0}]
        assert first["covers"] == [[0, 1, 2]]
        assert second["vertices"] == [10, 20]
        assert second["forbidden"] == 10
        assert second["covers"] == [[0, 1, 20]]

    def test_reference_and_delta_are_exclusive_in_both_shapes(self, tmp_path, capsys):
        connected = {
            "vertices": [1, 2],
            "arcs": [{"id": "a", "tail": 1, "head": 2}, {"id": "b", "tail": 2, "head": 1}],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 1, "b": 1},
        }
        disconnected = {
            "vertices": [1, 2, 10, 20],
            "arcs": [{"id": "a", "tail": 1, "head": 2}, {"id": "b", "tail": 10, "head": 20}],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 1, "b": 1},
        }
        both = {"reference": {"a": 0, "b": 0}, "delta_on_fundamental_cycles": {"b": 0}}
        for doc in (connected, disconnected):
            code, payload = run_cli(tmp_path, "enumerate", {**doc, **both})
            assert (code, payload) == (2, None)
            assert capsys.readouterr().err == (
                'input error: (document root): keys "reference" and '
                '"delta_on_fundamental_cycles" are mutually exclusive\n'
            )

    def test_disconnected_dot_rejected(self, tmp_path, capsys):
        doc = {
            "vertices": [1, 2, 10, 20],
            "arcs": [
                {"id": "a", "tail": 1, "head": 2},
                {"id": "b", "tail": 10, "head": 20},
            ],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 1, "b": 1},
            "reference": {"a": 0, "b": 0},
        }
        code, payload = run_cli(tmp_path, "enumerate", doc, "--dot", str(tmp_path / "x.dot"))
        assert code == 2
        assert payload is None
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "connected" in err


    def test_enumerate_and_lattice_parse_the_graph_once(self, tmp_path, monkeypatch):
        calls = []
        real = jsonio.parse_graph

        def counting(doc):
            calls.append(doc)
            return real(doc)

        monkeypatch.setattr(jsonio, "parse_graph", counting)
        for command in ("enumerate", "lattice"):
            calls.clear()
            code, _ = run_cli(tmp_path, command, tri_doc())
            assert (command, code, len(calls)) == (command, 0, 1)


class TestLattice:
    def test_triangle_analysis(self, tmp_path):
        code, payload = run_cli(tmp_path, "lattice", tri_doc())
        assert code == 0
        assert payload["count"] == 3
        assert payload["minimum"] == 0
        assert payload["maximum"] == 2
        assert payload["meet_irreducibles"] == [0, 1]
        assert payload["uld"] == {"verdict": "uld", "ok": True, "witness": None}
        assert payload["lld"] == {"verdict": "lld", "ok": True, "witness": None}
        assert payload["distributive"] is True

    def test_long_chain_is_certified(self, tmp_path):
        top = 3000
        doc = {
            "vertices": [0, 1],
            "arcs": [{"id": "a", "tail": 0, "head": 1}],
            "lower": {"a": 0},
            "upper": {"a": top},
            "reference": {"a": 0},
            "forbidden": 0,
        }
        code, payload = run_cli(tmp_path, "lattice", doc)
        assert code == 0
        assert payload["count"] == top + 1
        assert payload["uld"]["ok"] and payload["lld"]["ok"]
        assert payload["distributive"] is True


class TestReduceAndFindBond:
    def test_reduce_keeps_flexible_arcs(self, tmp_path):
        code, payload = run_cli(tmp_path, "reduce", tri_doc())
        assert code == 0
        assert payload["vertices"] == [1, 2, 3]
        assert len(payload["arcs"]) == 3
        assert payload["contraction"]["forced"] == {}

    def test_reduce_output_feeds_enumerate(self, tmp_path):
        code, payload = run_cli(tmp_path, "reduce", tri_doc(delta=0))
        assert code == 0
        assert payload["vertices"] == [1]
        assert payload["arcs"] == []
        assert payload["contraction"]["vertex_map"] == {"1": 1, "2": 1, "3": 1}
        # the reduced system is itself valid input; "contraction" is ignored
        code, chained = run_cli(tmp_path, "enumerate", payload)
        assert code == 0
        assert chained["count"] == 1
        assert chained["elements"] == [{}]

    def test_reduce_infeasible(self, tmp_path):
        code, payload = run_cli(tmp_path, "reduce", tri_doc(delta=4))
        assert code == 1
        assert payload["verdict"] == "infeasible"

    def test_find_bond_returns_enumerated_element(self, tmp_path):
        code, payload = run_cli(tmp_path, "find-bond", tri_doc())
        assert code == 0
        _, listed = run_cli(tmp_path, "enumerate", tri_doc())
        assert payload["bond"] in listed["elements"]

    def test_find_bond_infeasible(self, tmp_path):
        code, payload = run_cli(tmp_path, "find-bond", tri_doc(delta=4))
        assert code == 1
        assert payload["verdict"] == "infeasible"
        assert payload["required"] == -4

    # sha256 of the "not a bond" report for x = {a1: 2, a2: 1, a3: 0} on tri_doc(),
    # recorded when every order operation still reduced the system first
    NOT_A_BOND = "8ba60981ab97e99ebbb32d4d24840a376bab71ac961dece1ee98e7073ec5835f"

    def test_only_bond_checks_build_cycles(self, tmp_path, monkeypatch):
        # a good meet, join or leq reads two potentials off the parsed system:
        # no spanning tree, no cycle basis, no reduce and no push counts; only a
        # labeling that fails its check builds the basis, for the full report
        _, lattice = run_cli(tmp_path, "enumerate", mixed_doc())
        cycles, reductions = [], []
        for owner, name, calls in (
            (bonds, "spanning_tree", cycles),
            (bonds, "fundamental_cycles", cycles),
            (bonds.BondSystem, "reduce", reductions),
            (bonds.BondSystem, "push_counts", reductions),
        ):
            monkeypatch.setattr(owner, name, _recording(getattr(owner, name), name, calls))
        doc = mixed_doc()  # arc 2 is rigid, so the old order operations reduced first
        for command in ("reduce", "find-bond", "lattice"):
            code, _ = run_cli(tmp_path, command, doc)
            assert (command, code, cycles) == (command, 0, [])
        reductions.clear()
        bottom, x, top = lattice["elements"][0], lattice["elements"][1], lattice["elements"][-1]
        doc["x"], doc["y"] = x, top
        for command, expected in (("meet", x), ("join", top), ("leq", True)):
            assert run_cli(tmp_path, command, doc) == (0, {command: expected})
        doc["x"], doc["y"] = top, bottom
        for command, expected in (("meet", bottom), ("join", top), ("leq", False)):
            assert run_cli(tmp_path, command, doc) == (0, {command: expected})
        assert (cycles, reductions) == ([], [])

        doc = tri_doc()
        doc["x"] = {"a1": 2, "a2": 1, "a3": 0}  # out of a1's window and off the cycle target
        doc["y"] = {"a1": 0, "a2": 1, "a3": 0}
        source, sink = tmp_path / "not-a-bond.json", tmp_path / "report.json"
        source.write_text(dumps(doc), encoding="utf-8")
        for command in ("meet", "join", "leq"):
            assert main([command, "--input", str(source), "--output", str(sink)]) == 1
            assert sha256(sink.read_text(encoding="utf-8")) == self.NOT_A_BOND
        assert cycles and not reductions


def test_good_order_ops_walk_each_potential_once(tmp_path, monkeypatch):
    # the windows are checked up front and the operation walks both
    # potentials: a good pair takes two walks, not a check's two more
    _, lattice = run_cli(tmp_path, "enumerate", mixed_doc())
    walks: list = []
    potential = bonds.BondSystem._potential
    monkeypatch.setattr(bonds.BondSystem, "_potential", _recording(potential, "_potential", walks))
    doc = mixed_doc()
    doc["x"], doc["y"] = lattice["elements"][1], lattice["elements"][-1]
    for command in ("meet", "join", "leq"):
        walks.clear()
        code, _ = run_cli(tmp_path, command, doc)
        assert (command, code, len(walks)) == (command, 0, 2)


def _recording(real, name, calls):
    """`real`, noting `name` in `calls` on each call."""

    def recorded(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return recorded


class TestOrderOps:
    def test_meet_join_leq(self, tmp_path):
        doc = star_doc()
        doc["x"] = {"a": 1, "b": 0}
        doc["y"] = {"a": 0, "b": 1}
        code, payload = run_cli(tmp_path, "meet", doc)
        assert (code, payload) == (0, {"meet": {"a": 0, "b": 0}})
        code, payload = run_cli(tmp_path, "join", doc)
        assert (code, payload) == (0, {"join": {"a": 1, "b": 1}})
        code, payload = run_cli(tmp_path, "leq", doc)
        assert (code, payload) == (0, {"leq": False})
        doc["x"] = {"a": 0, "b": 0}
        code, payload = run_cli(tmp_path, "leq", doc)
        assert (code, payload) == (0, {"leq": True})

    def test_rejects_non_bond(self, tmp_path):
        doc = star_doc()
        doc["x"] = {"a": 5, "b": 0}
        doc["y"] = {"a": 0, "b": 0}
        code, payload = run_cli(tmp_path, "meet", doc)
        assert code == 1
        assert payload["verdict"] == "not a bond"
        assert payload["which"] == "x"
        assert payload["report"]["ok"] is False
        assert payload["report"]["capacity_violations"] == [
            {"arc": "a", "value": 5, "lower": 0, "upper": 1}
        ]


class TestCheckUld:
    def test_diamond_passes(self, tmp_path):
        doc = {
            "vertices": ["bot", "a", "b", "top"],
            "arcs": [
                {"id": "e1", "tail": "bot", "head": "a"},
                {"id": "e2", "tail": "bot", "head": "b"},
                {"id": "e3", "tail": "a", "head": "top"},
                {"id": "e4", "tail": "b", "head": "top"},
            ],
            "colors": {"e1": 1, "e2": 2, "e3": 2, "e4": 1},
        }
        code, payload = run_cli(tmp_path, "check-uld", doc)
        assert code == 0
        assert payload == {"verdict": "uld", "ok": True, "witness": None}

    def test_cycle_detected(self, tmp_path):
        # out-degree one everywhere, so both fork axioms hold vacuously
        doc = {
            "vertices": ["x", "y", "z"],
            "arcs": [
                {"id": "e1", "tail": "x", "head": "y"},
                {"id": "e2", "tail": "y", "head": "z"},
                {"id": "e3", "tail": "z", "head": "x"},
            ],
            "colors": {"e1": 1, "e2": 2, "e3": 3},
        }
        code, payload = run_cli(tmp_path, "check-uld", doc)
        assert code == 1
        assert payload["verdict"] == "cyclic"
        assert payload["witness"]

    def test_two_sources(self, tmp_path):
        doc = {
            "vertices": ["s", "t", "m"],
            "arcs": [
                {"id": "e1", "tail": "s", "head": "m"},
                {"id": "e2", "tail": "t", "head": "m"},
            ],
            "colors": {"e1": 1, "e2": 1},
        }
        code, payload = run_cli(tmp_path, "check-uld", doc)
        assert code == 1
        assert payload["verdict"] == "no unique source"
        assert payload["witness"] == ["s", "t"]

    def test_long_cycle_has_a_closed_witness(self, tmp_path):
        n = 5000
        doc = {
            "vertices": list(range(n)),
            "arcs": [{"id": f"e{i}", "tail": i, "head": (i + 1) % n} for i in range(n)],
            "colors": {f"e{i}": 0 for i in range(n)},
        }
        code, payload = run_cli(tmp_path, "check-uld", doc)
        assert code == 1
        assert payload["verdict"] == "cyclic"
        witness = payload["witness"]
        assert len(witness) == n + 1 and witness[0] == witness[-1]

    def test_wide_star_reports_every_fork_quickly(self, tmp_path):
        # every pair of the 300 distinctly colored arcs is an incompletable fork
        leaves = 300
        doc = {
            "vertices": list(range(leaves + 1)),
            "arcs": [{"id": i, "tail": 0, "head": i} for i in range(1, leaves + 1)],
            "colors": {str(i): i for i in range(1, leaves + 1)},
        }
        start = time.perf_counter()
        code, payload = run_cli(tmp_path, "check-uld", doc)
        elapsed = time.perf_counter() - start
        assert code == 1
        assert payload["verdict"] == "fork completion violated"
        witness = payload["witness"]
        assert len(witness) == leaves * (leaves - 1) // 2 == 44_850
        assert witness[0] == [0, 1, 2]
        assert witness[-1] == [0, leaves - 1, leaves]
        assert elapsed < 5.0


class TestCheckPoset:
    def test_diamond_report(self, tmp_path):
        doc = {
            "elements": ["bot", "a", "b", "top"],
            "covers": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]],
        }
        code, payload = run_cli(tmp_path, "check-poset", doc)
        assert code == 0
        assert payload["is_lattice"] is True
        assert payload["is_uld"] is True
        assert payload["is_distributive"] is True
        assert payload["meet_irreducibles"] == [1, 2]

    def test_three_atom_lattice_fails_uld(self, tmp_path):
        doc = {
            "elements": ["bot", "a", "b", "c", "top"],
            "covers": [
                ["bot", "a"],
                ["bot", "b"],
                ["bot", "c"],
                ["a", "top"],
                ["b", "top"],
                ["c", "top"],
            ],
        }
        code, payload = run_cli(tmp_path, "check-poset", doc)
        assert code == 1
        assert payload["is_lattice"] is True
        assert payload["is_uld"] is False
        assert payload["uld_certificate"] is not None
        assert payload["is_distributive"] is False

    def test_non_lattice(self, tmp_path):
        doc = {"elements": ["s", "t", "x"], "covers": [["s", "x"], ["t", "x"]]}
        code, payload = run_cli(tmp_path, "check-poset", doc)
        assert code == 1
        assert payload["is_lattice"] is False
        assert payload["lattice_witness"] is not None

    def test_long_chain_is_decided(self, tmp_path):
        # 40 meet-irreducibles sit above the bottom
        chain = [f"c{i}" for i in range(41)]
        doc = {"elements": chain, "covers": [list(pair) for pair in zip(chain, chain[1:])]}
        code, payload = run_cli(tmp_path, "check-poset", doc)
        assert code == 0
        assert payload["is_uld"] is True
        assert payload["meet_irreducibles"] == list(range(40))

    def test_three_atoms_below_a_long_chain_name_their_bottom(self, tmp_path):
        chain = [f"c{i}" for i in range(20)]
        covers = [["bot", a] for a in "abc"] + [[a, "top"] for a in "abc"]
        covers += [list(pair) for pair in zip(["top", *chain], chain)]
        doc = {"elements": ["bot", "a", "b", "c", "top", *chain], "covers": covers}
        code, payload = run_cli(tmp_path, "check-poset", doc)
        assert code == 1
        assert payload["is_uld"] is False
        assert payload["uld_certificate"] == [0, [1, 2], [1, 3]]

    def test_search_limit_refuses_nineteen_atoms(self, tmp_path, capsys):
        atoms = [f"a{i}" for i in range(19)]
        covers = [["bot", a] for a in atoms] + [[a, "top"] for a in atoms]
        doc = {"elements": ["bot", *atoms, "top"], "covers": covers}
        code, payload = run_cli(tmp_path, "check-poset", doc)
        err = capsys.readouterr().err
        assert code == 2 and payload is None
        assert err.count("\n") == 1
        assert "element 0 sits below 19 meet-irreducibles" in err


class TestEncoders:
    def test_c_orient_composes_with_enumerate(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "targets": {"a3": 1},
        }
        code, payload = run_cli(tmp_path, "c-orient", doc)
        assert code == 0
        assert payload["decode"] == {
            "kind": "c-orientation",
            "rule": "an arc is reversed exactly when its value is 1",
            "targets": {"a3": 1},
        }
        code, listed = run_cli(tmp_path, "enumerate", payload)
        assert code == 0
        assert listed["count"] == 3
        flips = {tuple(e[a] for a in ("a1", "a2", "a3")) for e in listed["elements"]}
        assert flips == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_c_orient_parity_obstruction(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "targets": {"a3": 0},
        }
        code, payload = run_cli(tmp_path, "c-orient", doc)
        assert code == 1
        assert payload == {"verdict": "parity", "arc": "a3", "base_count": 3, "target": 0}

    def test_flows_circulations(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "rotation": tri_rotation(),
            "lower": {"a1": 0, "a2": 0, "a3": 0},
            "upper": {"a1": 1, "a2": 1, "a3": 1},
        }
        code, payload = run_cli(tmp_path, "flows", doc)
        assert code == 0
        assert payload["decode"]["kind"] == "flow"
        assert payload["decode"]["unbounded_face"] == 0
        # darts carry +1/-1 traversal signs; one face runs with the cycle,
        # the other against it
        assert payload["decode"]["faces"] == [
            [["a1", 1], ["a2", 1], ["a3", 1]],
            [["a1", -1], ["a3", -1], ["a2", -1]],
        ]
        code, listed = run_cli(tmp_path, "enumerate", payload)
        assert code == 0
        assert listed["count"] == 2
        values = {tuple(e[a] for a in ("a1", "a2", "a3")) for e in listed["elements"]}
        assert values == {(0, 0, 0), (1, 1, 1)}

    def test_flows_excess_imbalance(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "rotation": tri_rotation(),
            "lower": {"a1": 0, "a2": 0, "a3": 0},
            "upper": {"a1": 1, "a2": 1, "a3": 1},
            "excess": {"1": 1},
        }
        code, payload = run_cli(tmp_path, "flows", doc)
        assert code == 1
        assert payload == {"verdict": "excess imbalance", "total": 1}

    def test_flows_nonplanar_rotation(self, tmp_path):
        doc = {**k4_torus_doc(), "lower": {k: 0 for k in "abcdef"}, "upper": {k: 1 for k in "abcdef"}}
        code, payload = run_cli(tmp_path, "flows", doc)
        assert code == 1
        assert payload["verdict"] == "nonplanar"
        assert payload["genus"] >= 1

    def test_alpha_nonplanar_rotation(self, tmp_path):
        # the out-degrees sum to the 6 arcs, so face tracing is reached and
        # the NonPlanarError, a GraphError, still exits 1 with its verdict
        doc = {**k4_torus_doc(), "out_degrees": {"1": 3, "2": 2, "3": 1, "4": 0}}
        assert run_cli(tmp_path, "alpha", doc) == (1, {"verdict": "nonplanar", "genus": 1})

    def test_only_the_primal_embedding_is_built(self, tmp_path, monkeypatch):
        # the dual's embedding is built on first read, and no encoder reads it
        built = []
        original = graph.PlanarEmbedding.__init__

        def counting(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(graph.PlanarEmbedding, "__init__", counting)
        doc = {"vertices": [1, 2, 3], "arcs": tri_doc()["arcs"], "rotation": tri_rotation()}
        windows = {"lower": {"a1": 0, "a2": 0, "a3": 0}, "upper": {"a1": 1, "a2": 1, "a3": 1}}
        counts = []
        for command, extra in (("flows", windows), ("alpha", {"out_degrees": {"1": 1, "2": 1, "3": 1}})):
            built.clear()
            assert run_cli(tmp_path, command, {**doc, **extra})[0] == 0
            counts.append(len(built))
        # the input's embedding, plus the reoriented reference's for alpha
        assert counts == [1, 2]

    def test_alpha_composes_with_enumerate(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "rotation": tri_rotation(),
            "out_degrees": {"1": 1, "2": 1, "3": 1},
        }
        code, payload = run_cli(tmp_path, "alpha", doc)
        assert code == 0
        assert payload["decode"]["kind"] == "alpha-orientation"
        assert len(payload["decode"]["reference"]["arcs"]) == 3
        code, listed = run_cli(tmp_path, "enumerate", payload)
        assert code == 0
        assert listed["count"] == 2

    def test_alpha_degree_sum_mismatch(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "rotation": tri_rotation(),
            "out_degrees": {"1": 0, "2": 0, "3": 0},
        }
        code, payload = run_cli(tmp_path, "alpha", doc)
        assert code == 1
        assert payload == {"verdict": "degree sum mismatch", "total": 0, "edges": 3}

    def test_potentials_composes_with_lattice(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a", "tail": 1, "head": 2},
                {"id": "b", "tail": 2, "head": 3},
            ],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 2, "b": 2},
            "anchor": 1,
        }
        code, payload = run_cli(tmp_path, "potentials", doc)
        assert code == 0
        assert payload["reference"] == {"a": 0, "b": 0}
        assert payload["forbidden"] == 1
        assert payload["decode"]["anchor"] == 1
        code, listed = run_cli(tmp_path, "lattice", payload)
        assert code == 0
        assert listed["count"] == 9
        assert listed["distributive"] is True

    def test_potentials_anchor_override(self, tmp_path):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a", "tail": 1, "head": 2},
                {"id": "b", "tail": 2, "head": 3},
            ],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 2, "b": 2},
            "anchor": 1,
        }
        code, payload = run_cli(tmp_path, "potentials", doc, "--forbidden", "2")
        assert code == 0
        assert payload["decode"]["anchor"] == 2
        assert payload["forbidden"] == 2

    def test_potentials_unknown_anchor(self, tmp_path, capsys):
        doc = {
            "vertices": [1, 2],
            "arcs": [{"id": "a", "tail": 1, "head": 2}],
            "lower": {"a": 0},
            "upper": {"a": 1},
            "anchor": 99,
        }
        code, payload = run_cli(tmp_path, "potentials", doc)
        assert code == 2
        assert payload is None
        assert "anchor" in capsys.readouterr().err

    def test_potentials_anchor_must_be_an_id(self, tmp_path, capsys):
        for anchor in ([1], {"x": 1}, True, 1.5):
            doc = {
                "vertices": [1, 2],
                "arcs": [{"id": "a", "tail": 1, "head": 2}],
                "lower": {"a": 0},
                "upper": {"a": 1},
                "anchor": anchor,
            }
            code, payload = run_cli(tmp_path, "potentials", doc)
            assert (code, payload) == (2, None)
            err = capsys.readouterr().err
            assert err.startswith("input error: anchor: ") and err.count("\n") == 1
            assert "Traceback" not in err


class TestClosedForms:
    """Counts the paper's instance families have in closed form: domino
    tilings of the Aztec diamond through `alpha`, and plane partitions in a
    box through `potentials`, each then run through `enumerate`."""

    def encoded(self, tmp_path, command, doc, then="enumerate"):
        code, system = run_cli(tmp_path, command, doc)
        assert code == 0
        code, payload = run_cli(tmp_path, then, system)
        assert code == 0
        return system, payload

    def test_aztec_diamonds_have_2_to_the_n_n_plus_1_over_2_tilings(self, tmp_path):
        for n in range(1, 5):
            assert self.encoded(tmp_path, "alpha", aztec_document(n))[1]["count"] == 2 ** (n * (n + 1) // 2)

    def test_aztec_3_elements_decode_to_64_distinct_tilings(self, tmp_path):
        doc = aztec_document(3)
        system, payload = self.encoded(tmp_path, "alpha", doc)
        reference = system["decode"]["reference"]["arcs"]
        white = {arc["tail"] for arc in doc["arcs"]}  # every arc runs from a white square
        black = {arc["head"] for arc in doc["arcs"]}
        matchings = set()
        for element in payload["elements"]:
            # the decode rule: a reference arc is reversed exactly when its value is 1
            oriented = [(a["head"], a["tail"]) if element[a["id"]] else (a["tail"], a["head"]) for a in reference]
            tails = Counter(tail for tail, _ in oriented)
            assert all(tails[v] == 1 for v in white)
            matching = frozenset(arc for arc in oriented if arc[0] in white)
            assert sorted(head for _, head in matching) == sorted(black)
            matchings.add(matching)
        assert len(payload["elements"]) == len(matchings) == 64

    def test_boxes_have_macmahons_count_of_plane_partitions(self, tmp_path):
        for box in ((2, 2, 2), (3, 3, 3), (2, 3, 4)):
            assert self.encoded(tmp_path, "potentials", box_document(*box))[1]["count"] == macmahon(*box)

    def test_box_3x3x3_lattice_has_27_meet_irreducibles_and_is_distributive(self, tmp_path):
        payload = self.encoded(tmp_path, "potentials", box_document(3, 3, 3), then="lattice")[1]
        assert payload["count"] == 980
        assert len(payload["meet_irreducibles"]) == 27
        assert payload["distributive"] is True


class TestChipfire:
    def test_finite_chain_certified(self, tmp_path):
        code, payload = run_cli(tmp_path, "chipfire", chain_chip_doc({"1": 2}))
        assert code == 0
        assert payload["verdict"] == "finite"
        assert payload["states"] == [
            {"1": 2, "2": 0, "3": 0},
            {"1": 0, "2": 1, "3": 1},
            {"1": 0, "2": 0, "3": 2},
        ]
        assert payload["moves"] == [[0, 1, 1], [1, 2, 2]]
        certificate = payload["certificate"]
        assert certificate["ok"] is True
        assert certificate["cover_verdict"] == {"verdict": "uld", "ok": True, "witness": None}
        assert certificate["terminal"] == {"1": 0, "2": 0, "3": 2}
        assert certificate["multisets_consistent"] is True
        assert certificate["multiset_witness"] is None

    def test_cyclic_game(self, tmp_path):
        doc = {
            "vertices": [1, 2],
            "arcs": [
                {"id": "f", "tail": 1, "head": 2},
                {"id": "g", "tail": 2, "head": 1},
            ],
            "chips": {"1": 1},
        }
        code, payload = run_cli(tmp_path, "chipfire", doc)
        assert code == 1
        assert payload["verdict"] == "cyclic"
        assert "certificate" not in payload

    def test_complete_game_representation(self, tmp_path):
        code, payload = run_cli(tmp_path, "chipfire", chain_chip_doc({"2": 1, "3": 1}), "--ccfg")
        assert code == 0
        assert payload["complete"] is True
        assert payload["acyclic"] is True
        assert len(payload["states"]) == 4
        assert {"1": 0, "2": 2, "3": 0} in payload["states"]
        assert payload["representation"]["ok"] is True

    def test_complete_game_cyclic_closure(self, tmp_path):
        doc = {
            "vertices": [1, 2],
            "arcs": [
                {"id": "f", "tail": 1, "head": 2},
                {"id": "g", "tail": 2, "head": 1},
            ],
            "chips": {"1": 1},
        }
        code, payload = run_cli(tmp_path, "chipfire", doc, "--ccfg")
        assert code == 1
        assert payload["acyclic"] is False
        assert payload["representation"] is None


class TestDotOutput:
    def test_bond_coordinates_exact_text(self, tmp_path):
        dot = tmp_path / "tri.dot"
        code, _ = run_cli(tmp_path, "enumerate", tri_doc(), "--dot", str(dot))
        assert code == 0
        assert dot.read_text(encoding="utf-8") == (
            "digraph {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            "  // arc values in order: a1, a2, a3\n"
            '  n0 [label="1,0,0"];\n'
            '  n1 [label="0,1,0"];\n'
            '  n2 [label="0,0,1"];\n'
            '  n0 -> n1 [label="2", color="#1b9e77"];\n'
            '  n1 -> n2 [label="3", color="#d95f02"];\n'
            "}\n"
        )

    def test_pushcount_coordinates(self, tmp_path):
        dot = tmp_path / "tri.dot"
        code, _ = run_cli(
            tmp_path, "lattice", tri_doc(), "--dot", str(dot), "--coords", "pushcount"
        )
        assert code == 0
        text = dot.read_text(encoding="utf-8")
        assert "  // push counts in vertex order: 2, 3\n" in text
        assert "  // forbidden vertex: 1\n" in text
        assert '  n0 [label="0,0"];\n' in text
        assert '  n1 [label="1,0"];\n' in text
        assert '  n2 [label="1,1"];\n' in text

    def test_pushcount_counts_each_element_once(self, tmp_path, monkeypatch):
        calls = []
        real = bonds.BondSystem.push_counts

        def counting(system, x):
            calls.append(x)
            return real(system, x)

        monkeypatch.setattr(bonds.BondSystem, "push_counts", counting)
        dot = tmp_path / "mixed.dot"
        code, payload = run_cli(
            tmp_path, "enumerate", mixed_doc(), "--dot", str(dot), "--coords", "pushcount"
        )
        assert code == 0 and payload["count"] == 13
        assert calls == []  # labels come from the color tallies
        assert sha256(dot.read_text(encoding="utf-8")) == (
            "c35da90b0df54f66e5fee2a519dd7136c618c681ef69e8d24656fee8fba068cd"
        )

    def test_chipfire_dot(self, tmp_path):
        dot = tmp_path / "game.dot"
        code, _ = run_cli(tmp_path, "chipfire", chain_chip_doc({"1": 2}), "--dot", str(dot))
        assert code == 0
        text = dot.read_text(encoding="utf-8")
        assert text.startswith("digraph {\n  rankdir=BT;\n")
        assert "  // chips in vertex order: 1, 2, 3\n" in text
        assert '  n0 [label="2,0,0"];\n' in text
        assert '  n0 -> n1 [label="1",' in text


class TestByteContract:
    """sha256 digests of whole outputs, recorded before elements were
    enumerated and written as value tuples."""

    DIGESTS = {
        "enumerate": (
            "1c1f1cb2b026bbcf3abd7b218a3276430551725c93ed5c0d65ad280fe1f02a71",
            "7b92cdb56702f24e680e003dd4b9adcefea1794a26075b349eb079a7ef26ea14",
        ),
        "lattice": (
            "83635919b765820f2c394675bbe6b842ef214c7ca7d6e25a50f10a622a3e3545",
            "7b92cdb56702f24e680e003dd4b9adcefea1794a26075b349eb079a7ef26ea14",
        ),
    }

    def test_golden_bytes(self, tmp_path, capsys):
        source = tmp_path / "mixed.json"
        source.write_text(dumps(mixed_doc()), encoding="utf-8")
        for command, (json_digest, dot_digest) in self.DIGESTS.items():
            dot = tmp_path / f"{command}.dot"
            assert main([command, "--input", str(source), "--dot", str(dot)]) == 0
            assert sha256(capsys.readouterr().out) == json_digest
            assert sha256(dot.read_text(encoding="utf-8")) == dot_digest

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        source = tmp_path / "mixed.json"
        source.write_text(dumps(mixed_doc()), encoding="utf-8")
        runs = []
        for seed in ("0", "1", "2"):
            dot = tmp_path / f"seed{seed}.dot"
            proc = subprocess.run(
                [sys.executable, "-m", "bondlat", "enumerate", "--input", str(source), "--dot", str(dot)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, dot.read_text(encoding="utf-8")))
        assert runs[0] == runs[1] == runs[2]


class TestOneIndex:
    """A run indexes its digraph once: the lower-side certificate and the
    firing tallies read the same arc lists from the other end."""

    @staticmethod
    def count_indexes(monkeypatch) -> list:
        built = []
        real = ColoredDigraph._index

        def counting(self, labels, arcs, ids):
            built.append(len(arcs))
            real(self, labels, arcs, ids)

        monkeypatch.setattr(ColoredDigraph, "_index", counting)
        return built

    def test_lattice_run_on_a_3x3_potential_grid(self, tmp_path, monkeypatch):
        arcs = [Arc(f"h{v}", v, v + 1) for v in range(9) if v % 3 < 2]
        arcs += [Arc(f"v{v}", v, v + 3) for v in range(6)]
        system = encode_potentials(Multigraph(range(9), arcs), {a.id: -1 for a in arcs}, {a.id: 1 for a in arcs}, 0).system
        built = self.count_indexes(monkeypatch)
        code, payload = run_cli(tmp_path, "lattice", system_json(system))
        assert code == 0
        assert (payload["count"], payload["uld"]["ok"], payload["lld"]["ok"]) == (1665, True, True)
        assert built == [len(payload["covers"])]

    def test_chipfire_run(self, tmp_path, monkeypatch):
        doc = {
            "vertices": [0, 1, 2],
            "arcs": [{"id": "l", "tail": 0, "head": 0}, {"id": "a", "tail": 0, "head": 1},
                     {"id": "b", "tail": 0, "head": 1}, {"id": "c", "tail": 1, "head": 2}],
            "chips": {"0": 4, "1": 1},
        }
        built = self.count_indexes(monkeypatch)
        code, payload = run_cli(tmp_path, "chipfire", doc)
        assert code == 0 and payload["certificate"]["ok"] is True
        assert built == [len(payload["moves"])]

    @staticmethod
    def count_kahn_passes(monkeypatch) -> list:
        """The vertex count of each index whose Kahn order is made."""
        passes = []
        real = ColoredDigraph._kahn.func

        def counting(self):
            passes.append(len(self.labels))
            return real(self)

        monkeypatch.setattr(ColoredDigraph._kahn, "func", counting)
        return passes

    def test_chipfire_run_orders_each_side_once(self, tmp_path, monkeypatch):
        # the cycle check, the ULD chain and the firing tallies, which walk
        # the reversal, share one forward pass
        passes = self.count_kahn_passes(monkeypatch)
        code, payload = run_cli(tmp_path, "chipfire", chain_chip_doc({"1": 2}))
        assert code == 0 and payload["certificate"]["ok"] is True
        assert passes == [len(payload["states"])]

    def test_pushcount_lattice_run_orders_each_side_once(self, tmp_path, monkeypatch):
        # the ULD and LLD chains and the push-count tallies read one forward
        # pass: a digraph is acyclic exactly when its reversal is
        passes = self.count_kahn_passes(monkeypatch)
        code, payload = run_cli(tmp_path, "lattice", mixed_doc(), "--dot", str(tmp_path / "l.dot"), "--coords", "pushcount")
        assert code == 0 and payload["uld"]["ok"] and payload["lld"]["ok"]
        assert passes == [payload["count"]]


def grid_3x4_system():
    """Anchored potentials on the 3x4 grid, arcs going right and down, windows [-1, 1]."""
    arcs = []
    for i in range(3):
        for j in range(4):
            v = 4 * i + j
            if j < 3:
                arcs.append(Arc(f"h{v}", v, v + 1))
            if i < 2:
                arcs.append(Arc(f"v{v}", v, v + 4))
    g = Multigraph(range(12), arcs)
    return encode_potentials(g, {a.id: -1 for a in arcs}, {a.id: 1 for a in arcs}, 0).system


class TestScale:
    def test_grid_3x4_enumerates_without_building_bonds(self, tmp_path, monkeypatch):
        system = grid_3x4_system()
        lattices = []
        built = []
        real_enumerate = cli.enumerate_lattice
        real_init = bonds.Bond.__init__

        def keeping(*args, **kwargs):
            lattices.append(real_enumerate(*args, **kwargs))
            return lattices[-1]

        def counting(self, values):
            built.append(self)
            real_init(self, values)

        monkeypatch.setattr(cli, "enumerate_lattice", keeping)
        monkeypatch.setattr(bonds.Bond, "__init__", counting)
        code, payload = run_cli(tmp_path, "enumerate", system_json(system))
        assert code == 0
        (cd,) = lattices
        assert (cd.n, len(cd.covers), payload["count"]) == (22_979, 112_286, 22_979)
        assert len(payload["elements"]) == 22_979
        assert "elements" not in vars(cd)
        assert len(built) <= 10

    def test_grid_3x4_dot_is_streamed_in_bounded_memory(self, tmp_path):
        # the JSON and the DOT go out a block at a time, and the DOT only after
        # the JSON: 42 MB traced when both were made whole, 21 MB streamed
        source, sink, dot = tmp_path / "grid.json", tmp_path / "out.json", tmp_path / "grid.dot"
        doc = system_json(grid_3x4_system())
        source.write_text(dumps(doc), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["enumerate", "--input", str(source), "--output", str(sink), "--dot", str(dot)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 32 * 2**20
        text = sink.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["count"] == 22_979 and text == dumps(payload)
        order = [arc["id"] for arc in doc["arcs"]]  # the CLI labels by the input's arc order
        labels = oracle_labels([row[str(a)] for a in order] for row in payload["elements"])
        comments = [f"arc values in order: {', '.join(map(str, order))}"]
        expected = oracle_dot(22_979, labels, [tuple(c) for c in payload["covers"]], comments)
        assert first_difference(dot.read_text(encoding="utf-8"), expected) is None


    def test_meet_on_a_2000_vertex_path(self, tmp_path):
        # an arc-order Bellman-Ford needs one round per vertex on one listing
        payloads = []
        for reverse in (False, True):
            doc = path_document(2000, reverse)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                code, payload = run_cli(tmp_path, "meet", doc)
                best = min(best, time.perf_counter() - start)
            assert code == 0 and best < 0.5
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_meet_on_a_100x100_grid(self, tmp_path, monkeypatch):
        # meet, join and leq read two potential walks off the parsed system:
        # with a reduce, a second distance pass and a cycle basis for each
        # check, this took 0.7-1.4 s
        cycles = []
        monkeypatch.setattr(bonds, "fundamental_cycles", _recording(bonds.fundamental_cycles, "cycles", cycles))
        doc = grid_order_document(100)
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            code, payload = run_cli(tmp_path, "meet", doc)
            best = min(best, time.perf_counter() - start)
        assert (code, payload) == (0, {"meet": doc["x"]})
        assert best < 0.8
        assert run_cli(tmp_path, "leq", doc) == (0, {"leq": True})
        assert cycles == []

    def test_flows_on_a_10000_leaf_star(self, tmp_path):
        # the face walk finds each next arc end in one lookup: a search of the
        # hub's 10,000-end rotation per visit took 15 s here
        leaves = range(1, 10_001)
        ids = [f"a{i}" for i in leaves]
        rotation = {"0": [{"arc": a, "end": "tail"} for a in ids]}
        rotation.update({str(i): [{"arc": a, "end": "head"}] for i, a in zip(leaves, ids)})
        doc = {
            "vertices": [0, *leaves],
            "arcs": [{"id": a, "tail": 0, "head": i} for i, a in zip(leaves, ids)],
            "rotation": rotation,
            "lower": dict.fromkeys(ids, 0),
            "upper": dict.fromkeys(ids, 1),
        }
        start = time.perf_counter()
        code, payload = run_cli(tmp_path, "flows", doc)
        elapsed = time.perf_counter() - start
        # a tree has one face, walked along each arc both ways
        (face,) = payload["decode"]["faces"]
        assert code == 0 and len(face) == 20_000 and elapsed < 1.5

    def test_product_size_past_the_digit_limit_is_written_whole(self, tmp_path):
        # 4,000 one-arc components with windows [0, 1] multiply to 2**4000, whose
        # 1,205 digits pass a limit of 640, the least the interpreter allows; its
        # default of 4,300 digits is passed the same way at 14,286 components
        ids = [f"a{i}" for i in range(4000)]
        doc = {
            "vertices": list(range(8000)),
            "arcs": [{"id": a, "tail": 2 * i, "head": 2 * i + 1} for i, a in enumerate(ids)],
            "lower": dict.fromkeys(ids, 0),
            "upper": dict.fromkeys(ids, 1),
            "reference": dict.fromkeys(ids, 0),
        }
        source, sink = tmp_path / "in.json", tmp_path / "out.json"
        source.write_text(dumps(doc), encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["enumerate", "--input", str(source), "--output", str(sink)])
            assert sys.get_int_max_str_digits() == 640  # lifted only while writing
        finally:
            sys.set_int_max_str_digits(limit)
        payload = json.loads(sink.read_text(encoding="utf-8"))
        assert code == 0 and payload["product_size"] == 2**4000
        assert [c["count"] for c in payload["components"]] == [2] * 4000
        # every table here is small, so the writer writes nearly all of the document
        # itself: the digest is of the text json.dumps(indent=2, ensure_ascii=True) gives
        digest = hashlib.sha256(sink.read_bytes()).hexdigest()
        assert digest == "d04925494efd6b722efe7b18ec71ac0c3e3de1637f4bcc39f95ac14d86a90fda"


class TestBadInput:
    def test_malformed_json(self, tmp_path, capsys):
        source = tmp_path / "bad.json"
        source.write_text("{nope", encoding="utf-8")
        code = main(["enumerate", "--input", str(source), "--output", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "line 1" in err

    def test_empty_vertex_list(self, tmp_path, capsys):
        doc = {"vertices": [], "arcs": [], "lower": {}, "upper": {}, "reference": {}}
        code, payload = run_cli(tmp_path, "enumerate", doc)
        assert code == 2
        assert payload is None
        assert "vertices" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["enumerate", "--input", str(tmp_path / "absent.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")


    def test_input_file_that_is_not_utf8(self, tmp_path, capsys):
        source = tmp_path / "bad.json"
        source.write_bytes(b"\xff\xfe{}")
        assert main(["reduce", "--input", str(source)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {source}: input is not UTF-8: invalid start byte at byte 0\n"

    def test_stdin_that_is_not_utf8(self):
        # the stdin encoding setting must not matter: the bytes are decoded as UTF-8
        for encoding in ("utf-8", "latin-1"):
            proc = subprocess.run(
                [sys.executable, "-m", "bondlat", "reduce"],
                input=b"\xff\xfe{}",
                capture_output=True,
                env=dict(os.environ, PYTHONIOENCODING=encoding),
            )
            assert proc.returncode == 2
            assert proc.stderr == b"input error: -: input is not UTF-8: invalid start byte at byte 0\n"

    def test_deep_nesting(self, tmp_path, capsys):
        source = tmp_path / "deep.json"
        source.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["reduce", "--input", str(source)]) == 2
        err = capsys.readouterr().err
        assert err == "input error: (document root): invalid JSON: nested too deeply\n"

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        source = tmp_path / "long.json"
        source.write_text('{"vertices": [' + "9" * 5000 + '], "arcs": []}', encoding="utf-8")
        assert main(["reduce", "--input", str(source)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: (document root): invalid JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1 and err.endswith("value has 5000 digits\n")

    def test_memory_error_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "enumerate_lattice", exhausted)
        assert run_cli(tmp_path, "enumerate", tri_doc()) == (2, None)
        assert capsys.readouterr().err == "memory error: the input needs more memory than the process can get\n"

    def test_unwritable_output_and_dot(self, tmp_path, capsys):
        source = tmp_path / "in.json"
        source.write_text(dumps(tri_doc()), encoding="utf-8")
        missing = tmp_path / "absent" / "x"
        for flag in ("--output", "--dot"):
            code = main(["enumerate", "--input", str(source), "--output", os.devnull, flag, str(missing)])
            assert (flag, code) == (flag, 2)
            err = capsys.readouterr().err
            assert err == f"output error: {missing}: cannot write output: No such file or directory\n"


class TestSlicedWrites:
    def test_slices_keep_the_bytes(self, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
        doc = {
            "vertices": ["r\u00e9", "x", "\u65e5\u672c", "z"],
            "arcs": [{"id": "q\u00fc", "tail": "r\u00e9", "head": "\u65e5\u672c"}, {"id": 7, "tail": "r\u00e9", "head": "x"},
                     {"id": "p", "tail": "x", "head": "z"}, {"id": "s", "tail": "\u65e5\u672c", "head": "z"}],
            "colors": {"q\u00fc": 1, "7": 1, "p": 2, "s": 2},
        }
        payload = {"verdict": "fork coloring violated", "ok": False, "witness": [["r\u00e9", 7, "q\u00fc", 1]]}
        source, sink = tmp_path / "in.json", tmp_path / "out.json"
        source.write_text(dumps(doc), encoding="utf-8")
        capsysbinary.readouterr()
        assert main(["check-uld", "--input", str(source), "--output", str(sink)]) == 1
        assert main(["check-uld", "--input", str(source)]) == 1
        expected = dumps(payload).encode("utf-8")
        assert sink.read_bytes() == capsysbinary.readouterr().out == expected
        # multi-byte characters straddle the slice boundaries
        text = "\u00e9\u65e5\u672c\u00fc-" * 11
        cli._emit(str(sink), [text], stdout=False)
        assert sink.read_bytes() == text.encode("utf-8")


class TestParser:
    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        source = tmp_path / "in.json"
        source.write_text(dumps(tri_doc(delta=0)), encoding="utf-8")
        calls = (["reduce", "--input", str(source)], ["reduce", "--cap", "3"])
        cli._build_parser.cache_clear()
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            in_process.append((code, out, err))
        assert cli._build_parser.cache_info().misses == 1
        fresh = [run_proc(argv) for argv in calls]
        assert in_process == [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
        assert [code for code, _out, _err in in_process] == [0, 2]

    def test_each_subcommand_declares_its_defaults(self):
        io = {"input": "-", "output": "-"}
        system = {**io, "forbidden": None}
        listing = {**system, "dot": None, "cap": 1_000_000, "coords": "bond"}
        plane = {**io, "unbounded_face": 0}
        expected = {
            "reduce": system,
            "find-bond": system,
            "enumerate": listing,
            "lattice": listing,
            "meet": system,
            "join": system,
            "leq": system,
            "check-uld": io,
            "check-poset": io,
            "c-orient": system,
            "flows": plane,
            "alpha": plane,
            "potentials": system,
            "chipfire": {**io, "dot": None, "cap": 100_000, "ccfg": False},
        }
        for name, defaults in expected.items():
            parsed = vars(cli._build_parser().parse_args([name]))
            del parsed["handler"]
            assert parsed == {**defaults, "command": name}, name


class TestSubprocess:
    def test_stdin_stdout_roundtrip(self):
        proc = run_proc(["enumerate"], stdin_text=dumps(tri_doc()))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 3

    def test_repeated_runs_byte_identical(self, tmp_path):
        source = tmp_path / "in.json"
        source.write_text(dumps(tri_doc()), encoding="utf-8")
        outs = []
        dots = []
        for i in range(2):
            dot = tmp_path / f"run{i}.dot"
            proc = run_proc(
                ["lattice", "--input", str(source), "--dot", str(dot)]
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
            dots.append(dot.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]
        assert dots[0] == dots[1]

    def test_missing_subcommand_usage(self):
        proc = run_proc([])
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
