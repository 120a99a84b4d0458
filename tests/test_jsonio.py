"""JSON input parsing (with positioned errors) and canonical serialization."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bondlat import Bond, ChipArrangement, faces
from bondlat.jsonio import (
    BLOCK_ROWS,
    InputFormatError,
    RowTable,
    bond_json,
    cover_digraph_json,
    cycle_json,
    dumps,
    graph_json,
    infeasible_json,
    iterdumps,
    loads,
    parse_arc_map,
    parse_arc_subset_map,
    parse_bond,
    parse_chip_input,
    parse_colored_digraph,
    parse_embedding,
    parse_graph,
    parse_poset,
    parse_system,
    parse_systems,
    parse_vertex_map,
    system_json,
)
from bondlat.bonds import InfeasibleSystemError
from bondlat.graph import CycleVector

from bondlat.cli import main

from util import first_difference, path_document, tri_system


def tri_doc(**extra):
    doc = {
        "vertices": [1, 2, 3],
        "arcs": [
            {"id": "a1", "tail": 1, "head": 2},
            {"id": "a2", "tail": 2, "head": 3},
            {"id": "a3", "tail": 3, "head": 1},
        ],
        "lower": {"a1": 0, "a2": 0, "a3": 0},
        "upper": {"a1": 1, "a2": 1, "a3": 1},
        "reference": {"a1": 1, "a2": 0, "a3": 0},
    }
    doc.update(extra)
    return doc


def path_of(excinfo) -> str:
    return excinfo.value.path


class TestLoadsDumps:
    def test_position_in_error(self):
        with pytest.raises(InputFormatError) as exc:
            loads('{"a": }')
        assert "line 1 column" in path_of(exc)

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(InputFormatError) as exc:
            loads("[" * 200_000 + "]" * 200_000)
        assert str(exc.value) == "(document root): invalid JSON: nested too deeply"

    def test_dumps_is_stable_text(self):
        assert dumps({"b": 1, "a": 2}) == '{\n  "b": 1,\n  "a": 2\n}\n'


class TestParseGraph:
    def test_round_trip(self):
        g = tri_system().graph
        assert parse_graph(graph_json(g)) == g

    def test_missing_vertices(self):
        with pytest.raises(InputFormatError) as exc:
            parse_graph({"arcs": []})
        assert "vertices" in str(exc.value)

    def test_no_vertices(self):
        with pytest.raises(InputFormatError) as exc:
            parse_graph({"vertices": [], "arcs": []})
        assert path_of(exc) == "vertices"

    def test_bad_id_types(self):
        with pytest.raises(InputFormatError) as exc:
            parse_graph({"vertices": [True], "arcs": []})
        assert path_of(exc) == "vertices[0]"
        with pytest.raises(InputFormatError) as exc:
            parse_graph({"vertices": [1.5], "arcs": []})
        assert path_of(exc) == "vertices[0]"

    def test_arc_entry_paths(self):
        with pytest.raises(InputFormatError) as exc:
            parse_graph({"vertices": [1], "arcs": [{"id": "a", "tail": 1}]})
        assert path_of(exc) == "arcs[0]"
        with pytest.raises(InputFormatError) as exc:
            parse_graph({"vertices": [1], "arcs": ["x"]})
        assert path_of(exc) == "arcs[0]"

    def test_unknown_endpoint(self):
        with pytest.raises(InputFormatError):
            parse_graph({"vertices": [1], "arcs": [{"id": "a", "tail": 1, "head": 2}]})

    def test_unknown_top_level_keys_ignored(self):
        doc = tri_doc(zzz="ignored")
        assert parse_graph(doc) == tri_system().graph


class TestParseSystem:
    def test_happy_path(self):
        s = parse_system(tri_doc())
        want = tri_system()
        assert s.graph == want.graph
        assert s.lower == want.lower and s.upper == want.upper
        assert s.reference == want.reference
        assert s.forbidden == 1  # defaults to the smallest vertex

    def test_explicit_and_overridden_forbidden(self):
        assert parse_system(tri_doc(forbidden=2)).forbidden == 2
        assert parse_system(tri_doc(forbidden=2), forbidden_override=3).forbidden == 3
        with pytest.raises(InputFormatError) as exc:
            parse_system(tri_doc(forbidden=9))
        assert path_of(exc) == "forbidden"

    def test_reference_and_delta_are_exclusive(self):
        doc = tri_doc(delta_on_fundamental_cycles={"a3": 1})
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert "mutually exclusive" in str(exc.value)
        doc = tri_doc()
        del doc["reference"]
        with pytest.raises(InputFormatError):
            parse_system(doc)

    def test_delta_form(self):
        doc = tri_doc()
        del doc["reference"]
        doc["delta_on_fundamental_cycles"] = {"a3": 1}
        s = parse_system(doc)
        # tree arcs carry zero; the non-tree arc carries the target
        assert s.reference == {"a1": 0, "a2": 0, "a3": 1}
        assert s.targets == (1,)

    def test_delta_form_key_errors(self):
        doc = tri_doc()
        del doc["reference"]
        doc["delta_on_fundamental_cycles"] = {"a1": 1}
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert "non-tree" in str(exc.value)
        doc["delta_on_fundamental_cycles"] = {}
        with pytest.raises(InputFormatError):
            parse_system(doc)

    def test_capacity_table_errors(self):
        doc = tri_doc()
        del doc["lower"]["a2"]
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert "missing entry" in str(exc.value)
        doc = tri_doc()
        doc["upper"]["zz"] = 1
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert path_of(exc) == "upper.zz"
        doc = tri_doc()
        doc["lower"]["a1"] = "big"
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert path_of(exc) == "lower.a1"

    def test_str_key_collision_rejected(self):
        doc = {
            "vertices": [1, 2],
            "arcs": [
                {"id": 7, "tail": 1, "head": 2},
                {"id": "7", "tail": 2, "head": 1},
            ],
            "lower": {"7": 0},
            "upper": {"7": 1},
            "reference": {"7": 0},
        }
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert "collide" in str(exc.value)

    def test_empty_window_wrapped(self):
        doc = tri_doc()
        doc["lower"]["a1"] = 5
        with pytest.raises(InputFormatError) as exc:
            parse_system(doc)
        assert "window" in str(exc.value)


class TestParseSystems:
    def two_component_doc(self, **extra):
        doc = {
            "vertices": [1, 2, 10, 20],
            "arcs": [
                {"id": "a", "tail": 1, "head": 2},
                {"id": "b", "tail": 10, "head": 20},
            ],
            "lower": {"a": 0, "b": 0},
            "upper": {"a": 1, "b": 2},
            "reference": {"a": 0, "b": 0},
        }
        doc.update(extra)
        return doc

    def test_connected_gives_one_system(self):
        systems = parse_systems(tri_doc())
        assert len(systems) == 1 and systems[0].forbidden == 1

    def test_split_by_component(self):
        systems = parse_systems(self.two_component_doc())
        assert len(systems) == 2
        assert systems[0].graph.vertices == (1, 2)
        assert systems[1].graph.vertices == (10, 20)
        assert [s.forbidden for s in systems] == [1, 10]

    def test_forbidden_lands_in_its_component(self):
        systems = parse_systems(self.two_component_doc(forbidden=20))
        assert [s.forbidden for s in systems] == [1, 20]

    def test_disconnected_needs_explicit_reference(self):
        doc = self.two_component_doc()
        del doc["reference"]
        doc["delta_on_fundamental_cycles"] = {}
        with pytest.raises(InputFormatError) as exc:
            parse_systems(doc)
        assert "reference" in str(exc.value)

    def test_reference_and_delta_are_exclusive_in_both_shapes(self):
        message = 'keys "reference" and "delta_on_fundamental_cycles" are mutually exclusive'
        connected = tri_doc(delta_on_fundamental_cycles={"a3": 1})
        for doc in (connected, self.two_component_doc(delta_on_fundamental_cycles={})):
            with pytest.raises(InputFormatError) as exc:
                parse_systems(doc)
            assert str(exc.value) == f"(document root): {message}"


def delta_doc(targets):
    doc = tri_doc(delta_on_fundamental_cycles=targets)
    del doc["reference"]
    return doc


# ids 7 and "7" (arcs) and 1 and "1" (vertices) are both JSON key "7" or "1"
COLLIDING = {
    "vertices": [1, "1"],
    "arcs": [{"id": 7, "tail": 1, "head": "1"}, {"id": "7", "tail": "1", "head": 1}],
}
ARCS_COLLIDE = "arc ids 7 and '7' collide as JSON key '7'"
VERTICES_COLLIDE = "vertex ids 1 and '1' collide as JSON key '1'"
FULL = {"a1": 0, "a2": 0, "a3": 0}
NO_ARC = "no arc has this id"
NO_VERTEX = "no vertex has this id"
GRAPH = {k: tri_doc()[k] for k in ("vertices", "arcs")}

# (read, path, message) for the stray-key, missing-id and str-collision
# errors of every id-keyed table.  A collision among non-tree arcs is one
# among all arcs, which "lower" reports before "delta_on_fundamental_cycles"
# is read, and "colors", "chips" and "excess" may be partial.
TABLE_ERRORS = {
    "lower stray": (lambda: parse_system(tri_doc(lower={**FULL, "zz": 0})), "lower.zz", NO_ARC),
    "lower missing": (lambda: parse_system(tri_doc(lower={"a1": 0, "a3": 0})), "lower", "missing entry for arc 'a2'"),
    "lower collision": (lambda: parse_system({**COLLIDING, "lower": {}}), "lower", ARCS_COLLIDE),
    "upper stray": (lambda: parse_system(tri_doc(upper={**FULL, "9": 1})), "upper.9", NO_ARC),
    "upper missing": (lambda: parse_system(tri_doc(upper={"a1": 1})), "upper", "missing entry for arc 'a2'"),
    "upper collision": (
        lambda: parse_arc_map({"upper": {}}, "upper", parse_graph(COLLIDING)), "upper", ARCS_COLLIDE
    ),
    "reference stray": (lambda: parse_system(tri_doc(reference={**FULL, "a4": 0})), "reference.a4", NO_ARC),
    "reference missing": (lambda: parse_system(tri_doc(reference={})), "reference", "missing entry for arc 'a1'"),
    "reference collision": (
        lambda: parse_arc_map({"reference": {}}, "reference", parse_graph(COLLIDING)), "reference", ARCS_COLLIDE
    ),
    "delta stray": (
        lambda: parse_system(delta_doc({"a3": 1, "a2": 0})),
        "delta_on_fundamental_cycles.a2",
        "not a non-tree arc of the deterministic spanning tree",
    ),
    "delta missing": (
        lambda: parse_system(delta_doc({})), "delta_on_fundamental_cycles", "missing entry for non-tree arc 'a3'"
    ),
    "targets stray": (
        lambda: parse_arc_subset_map({"targets": {"a1": 1}}, "targets", ["a3"]),
        "targets.a1",
        "unexpected arc id for this map",
    ),
    "targets missing": (
        lambda: parse_arc_subset_map({"targets": {}}, "targets", ["a3"]), "targets", "missing entry for arc 'a3'"
    ),
    "targets collision": (lambda: parse_arc_subset_map({"targets": {}}, "targets", [7, "7"]), "targets", ARCS_COLLIDE),
    "colors stray": (lambda: parse_colored_digraph({**GRAPH, "colors": {"a1": 1, "e": 2}}), "colors.e", NO_ARC),
    "colors collision": (lambda: parse_colored_digraph({**COLLIDING, "colors": {}}), "colors", ARCS_COLLIDE),
    "chips stray": (lambda: parse_chip_input({**GRAPH, "chips": {"4": 1}}), "chips.4", NO_VERTEX),
    "chips collision": (lambda: parse_chip_input({**COLLIDING, "chips": {}}), "chips", VERTICES_COLLIDE),
    "excess stray": (
        lambda: parse_vertex_map({"excess": {"0": 1}}, "excess", tri_system().graph, partial=True), "excess.0", NO_VERTEX
    ),
    "excess collision": (
        lambda: parse_vertex_map({"excess": {}}, "excess", parse_graph(COLLIDING), partial=True),
        "excess",
        VERTICES_COLLIDE,
    ),
}


@pytest.mark.parametrize("case", list(TABLE_ERRORS))
def test_table_error_messages(case):
    read, path, message = TABLE_ERRORS[case]
    with pytest.raises(InputFormatError) as exc:
        read()
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


class TestOtherParsers:
    def test_parse_bond(self):
        g = tri_system().graph
        doc = {"bond": {"a1": 1, "a2": 0, "a3": 0}}
        assert parse_bond(doc, "bond", g) == Bond({"a1": 1, "a2": 0, "a3": 0})

    def test_parse_arc_subset_map(self):
        doc = {"targets": {"a3": 1}}
        assert parse_arc_subset_map(doc, "targets", ["a3"]) == {"a3": 1}
        with pytest.raises(InputFormatError):
            parse_arc_subset_map({"targets": {"a1": 1}}, "targets", ["a3"])
        with pytest.raises(InputFormatError):
            parse_arc_subset_map({"targets": {}}, "targets", ["a3"])

    def test_parse_vertex_map_partial(self):
        g = tri_system().graph
        assert parse_vertex_map({"m": {"2": 5}}, "m", g, partial=True) == {2: 5}
        with pytest.raises(InputFormatError):
            parse_vertex_map({"m": {"2": 5}}, "m", g)

    def test_parse_embedding(self):
        doc = {
            "vertices": [1, 2, 3],
            "arcs": [
                {"id": "a1", "tail": 1, "head": 2},
                {"id": "a2", "tail": 2, "head": 3},
                {"id": "a3", "tail": 3, "head": 1},
            ],
            "rotation": {
                "1": [{"arc": "a1", "end": "tail"}, {"arc": "a3", "end": "head"}],
                "2": [{"arc": "a2", "end": "tail"}, {"arc": "a1", "end": "head"}],
                "3": [{"arc": "a3", "end": "tail"}, {"arc": "a2", "end": "head"}],
            },
        }
        embedding = parse_embedding(doc)
        assert len(faces(embedding)) == 2

    def test_parse_embedding_errors(self):
        base = {
            "vertices": [1, 2],
            "arcs": [{"id": "a", "tail": 1, "head": 2}],
        }
        with pytest.raises(InputFormatError) as exc:
            parse_embedding({**base, "rotation": {"1": [{"arc": "a", "end": "middle"}]}})
        assert path_of(exc) == "rotation.1[0].end"
        with pytest.raises(InputFormatError) as exc:
            parse_embedding({**base, "rotation": {"1": [{"arc": "a", "end": "tail"}]}})
        assert path_of(exc) == "rotation"
        incomplete = {
            **base,
            "rotation": {"1": [{"arc": "a", "end": "tail"}], "2": []},
        }
        with pytest.raises(InputFormatError):
            parse_embedding(incomplete)

    def test_parse_colored_digraph(self):
        doc = {
            "vertices": ["x", "y"],
            "arcs": [{"id": "e", "tail": "x", "head": "y"}],
            "colors": {"e": 1},
        }
        cd = parse_colored_digraph(doc)
        assert cd.colors["e"] == 1
        with pytest.raises(InputFormatError):
            parse_colored_digraph({**doc, "colors": {}})
        with pytest.raises(InputFormatError) as exc:
            parse_colored_digraph({**doc, "colors": {"e": 1, "zz": 2}})
        assert path_of(exc) == "colors.zz"

    def test_parse_poset_by_label(self):
        doc = {
            "elements": ["s", "t", "u", "v", "T"],
            "covers": [["s", "u"], ["s", "v"], ["t", "u"], ["t", "v"], ["u", "T"], ["v", "T"]],
        }
        p = parse_poset(doc)
        assert p.leq(p.labels.index("s"), p.labels.index("T"))
        assert p.meet(p.labels.index("u"), p.labels.index("v")) is None

    def test_parse_poset_errors(self):
        with pytest.raises(InputFormatError):
            parse_poset({"elements": ["a", "a"], "covers": []})
        with pytest.raises(InputFormatError) as exc:
            parse_poset({"elements": ["a"], "covers": [["a", "z"]]})
        assert path_of(exc) == "covers[0][1]"
        with pytest.raises(InputFormatError) as exc:
            parse_poset({"elements": ["a", "b"], "covers": [["a"]]})
        assert path_of(exc) == "covers[0]"
        with pytest.raises(InputFormatError) as exc:
            parse_poset({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
        assert path_of(exc) == "covers"

    def test_parse_chip_input(self):
        doc = {
            "vertices": [1, 2],
            "arcs": [{"id": "e", "tail": 1, "head": 2}],
            "chips": {"1": 2},
        }
        g, start = parse_chip_input(doc)
        assert start == ChipArrangement({1: 2})
        with pytest.raises(InputFormatError) as exc:
            parse_chip_input({**doc, "chips": {"1": -1}})
        assert path_of(exc) == "chips.1"


class TestSerialization:
    def test_system_round_trip(self):
        s = tri_system()
        doc = system_json(s)
        back = parse_system(doc)
        assert back.graph == s.graph
        assert back.lower == s.lower and back.upper == s.upper
        assert back.reference == s.reference and back.forbidden == s.forbidden

    def test_dumps_deterministic(self):
        a = dumps(system_json(tri_system()))
        b = dumps(system_json(parse_system(loads(a))))
        assert a == b

    def test_bond_json_keys_are_strings(self):
        s = tri_system()
        assert bond_json(Bond({"a1": 1, "a2": 0, "a3": 0}), s.graph) == {
            "a1": 1,
            "a2": 0,
            "a3": 0,
        }

    def test_cycle_json(self):
        c = CycleVector({"a3": 1, "a1": -1})
        assert cycle_json(c) == {"a1": -1, "a3": 1}

    def test_infeasible_json_carries_the_certificate(self):
        exc = InfeasibleSystemError(CycleVector({"a": 1}), 4, 0, 1)
        doc = infeasible_json(exc)
        assert doc["verdict"] == "infeasible"
        assert doc["cycle"] == {"a": 1}
        assert (doc["required"], doc["window_min"], doc["window_max"]) == (4, 0, 1)

    def test_cover_digraph_json_with_expansion(self):
        from bondlat import enumerate_lattice

        s = tri_system()
        cd = enumerate_lattice(s)
        doc = cover_digraph_json(cd)
        assert doc["elements"][0] == {"a1": 1, "a2": 0, "a3": 0}
        assert doc["covers"] == [[0, 1, 2], [1, 2, 3]]
        expanded = cover_digraph_json(cd, forced={"zz": 7, "a2": 5})
        assert expanded["elements"][0] == {"a1": 1, "a2": 5, "a3": 0, "zz": 7}

    def test_cover_digraph_json_tables_slice_like_lists(self):
        from bondlat import enumerate_lattice

        doc = cover_digraph_json(enumerate_lattice(tri_system()))
        for table in (doc["elements"], doc["covers"]):
            assert table[:2] == list(table)[:2] and table[::-1] == list(table)[::-1]
            assert table[5:] == []


TRIPLE_COLORS = {
    "int": (3, -1, 0, 12),
    "str": ("v%d", 'q"1', "back\\slash", "caf\u00e9 \u2603", "%%s", "plain"),
}


@pytest.mark.parametrize("colors", sorted(TRIPLE_COLORS))
@pytest.mark.parametrize("n", [0, 7, 8, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_triple_tables_write_what_json_dumps_writes_at_every_block_edge(n, colors):
    # keyed tables are written in blocks too: keys named by the palette, and rows with no key
    palette = TRIPLE_COLORS[colors]
    triples = tuple((k // 3, k // 3 + 1 + k % 5, palette[k * 7 % len(palette)]) for k in range(n))
    keys = [str(c) for c in palette]
    keyed = tuple(tuple((k * 7 + 3 * j) % 11 - 5 for j in range(len(keys))) for k in range(n))
    tables = [
        *((name, RowTable(triples), [list(row) for row in triples]) for name in ("covers", "moves")),
        ("elements", RowTable(keyed, keys), [dict(zip(keys, row)) for row in keyed]),
        ("states", RowTable(((),) * n, []), [{}] * n),
    ]
    for name, table, plain in tables:
        row_lines = json.dumps(plain[0], indent=2).count("\n") + 1 if plain else 0
        for shape in (
            lambda table: table,
            lambda table: {"count": n, name: table},
            lambda table: {"product_size": 1, "components": [{"vertices": [1], name: table}]},
        ):
            expected = json.dumps(shape(plain), indent=2, ensure_ascii=True) + "\n"
            pieces = list(iterdumps(shape(table)))
            assert first_difference("".join(pieces), expected) is None
            assert dumps(shape(table)) == "".join(pieces)
            # no piece holds more than one block of rows, plus the wrapper's 11 lines
            assert max(piece.count("\n") for piece in pieces) <= BLOCK_ROWS * row_lines + 11


# ---------------------------------------------------------------------------
# one fault planted in a valid document: the one-pass checks must hand it to
# the ordered checks, which name it as they name it on their own

_NO_IDS = (True, False, 1.5, 2.0, -0.0)
_FAULTS = (
    "id", "value", "missing head", "not an object", "unknown end",
    "duplicate id", "stray entry", "missing entry", "key collision", "empty window",
)


@st.composite
def planted_faults(draw, fault):
    """(document, path, message): a `util.path_document` with `fault`
    planted at a drawn spot, and the error the fault itself calls for."""
    n = draw(st.integers(3, 9))
    doc = path_document(n, draw(st.booleans()))
    arcs = doc["arcs"]
    k = draw(st.integers(0, len(arcs) - 1))
    other = draw(st.integers(0, len(arcs) - 2))
    other += other >= k  # another arc than k
    arc, where = arcs[k], f"arcs[{k}]"
    table = draw(st.sampled_from(["lower", "upper", "reference"]))
    if fault == "id":
        bad = draw(st.sampled_from(_NO_IDS))
        spot = draw(st.sampled_from(["vertex", "id", "tail", "head"]))
        if spot == "vertex":
            i = draw(st.integers(0, n - 1))
            doc["vertices"][i] = bad
            return doc, f"vertices[{i}]", f"ids must be integers or strings, got {bad!r}"
        arc[spot] = bad
        return doc, f"{where}.{spot}", f"ids must be integers or strings, got {bad!r}"
    if fault == "value":
        bad = draw(st.sampled_from(_NO_IDS))
        doc[table][arc["id"]] = bad
        return doc, f"{table}.{arc['id']}", f"expected an integer, got {bad!r}"
    if fault == "missing head":
        del arc["head"]
        return doc, where, "missing required key 'head'"
    if fault == "not an object":
        arcs[k] = draw(st.sampled_from([[arc["id"], arc["tail"], arc["head"]], arc["id"], 7, None]))
        return doc, where, f"expected a JSON object, got {type(arcs[k]).__name__}"
    if fault == "unknown end":
        arc[draw(st.sampled_from(["tail", "head"]))] = draw(st.sampled_from([n, -1, "v"]))
        return doc, "(document root)", (
            f"arc {arc['id']!r} references unknown vertex {arc['tail']!r} or {arc['head']!r}"
        )
    if fault == "duplicate id":
        arc["id"] = arcs[other]["id"]
        return doc, "(document root)", f"duplicate arc id {arc['id']!r}"
    if fault == "stray entry":
        stray = draw(st.sampled_from(["zz", "0", "a99"]))
        doc[table][stray] = 0
        return doc, f"{table}.{stray}", "no arc has this id"
    if fault == "missing entry":
        del doc[table][arc["id"]]
        return doc, table, f"missing entry for arc {arc['id']!r}"
    if fault == "key collision":
        arc["id"], arcs[other]["id"] = 5, "5"
        first, second = (5, "5") if k < other else ("5", 5)
        return doc, "lower", f"arc ids {first!r} and {second!r} collide as JSON key '5'"
    lower = doc["upper"][arc["id"]] + draw(st.integers(1, 3))
    doc["lower"][arc["id"]] = lower
    return doc, "(document root)", (
        f"arc {arc['id']!r} has empty capacity window [{lower}, {doc['upper'][arc['id']]}]"
    )


@pytest.mark.parametrize("fault", _FAULTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_planted_fault_is_named_where_it_was_planted(fault, data):
    doc, path, message = data.draw(planted_faults(fault))
    with pytest.raises(InputFormatError) as exc:
        parse_system(doc)
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.json", Path(tmp) / "out.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["find-bond", "--input", str(source), "--output", str(sink)])
    assert (code, stderr.getvalue()) == (2, f"input error: {path}: {message}\n")
