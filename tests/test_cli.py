"""End-to-end tests of the command line interface.

Most tests drive ``main(argv)`` in process against real temporary files,
checking exit codes and frozen JSON payloads.  A handful go through
``python3 -m bondlat`` subprocesses to pin stdin/stdout plumbing and
byte-for-byte determinism of repeated runs.
"""

import itertools
import json
import subprocess
import sys

from bondlat.cli import main
from bondlat.jsonio import dumps

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
        doc = {
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
            "lower": {k: 0 for k in "abcdef"},
            "upper": {k: 1 for k in "abcdef"},
        }
        code, payload = run_cli(tmp_path, "flows", doc)
        assert code == 1
        assert payload["verdict"] == "nonplanar"
        assert payload["genus"] >= 1

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

    def test_chipfire_dot(self, tmp_path):
        dot = tmp_path / "game.dot"
        code, _ = run_cli(tmp_path, "chipfire", chain_chip_doc({"1": 2}), "--dot", str(dot))
        assert code == 0
        text = dot.read_text(encoding="utf-8")
        assert text.startswith("digraph {\n  rankdir=BT;\n")
        assert "  // chips in vertex order: 1, 2, 3\n" in text
        assert '  n0 [label="2,0,0"];\n' in text
        assert '  n0 -> n1 [label="1",' in text


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
