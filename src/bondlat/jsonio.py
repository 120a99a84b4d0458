"""JSON parsing and serialization for every object the CLI touches.

Input documents are plain JSON objects.  The graph format is

    {"vertices": [ids...],
     "arcs": [{"id": ..., "tail": ..., "head": ...}, ...]}

and richer inputs extend it: an embedding adds "rotation", a bond system
adds "lower"/"upper"/"reference"/"forbidden", a colored digraph adds
"colors", a chip-firing input adds "chips".  Ids may be integers or
strings.  JSON object keys are always strings, so arc- and vertex-keyed
maps are matched by str(id); inputs whose ids collide under str() are
rejected.  Unknown top-level keys are ignored so that command outputs can
feed the next command unchanged.

Schema violations raise InputFormatError carrying a dotted path into the
document (e.g. "arcs[3].head").  Serialization emits keys in a fixed
order, so equal objects always produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Mapping

from .bonds import Bond, BondSystem, ContractionMap, InfeasibleSystemError, ValidityReport
from .checker import (
    BruteReport,
    ColoredDigraph,
    CoverVerdict,
    FinitePoset,
    PosetError,
)
from .chipfire import ChipArrangement, GameCertificate, GameGraph, RepresentationReport
from .graph import (
    Arc,
    ArcEnd,
    CycleVector,
    GraphError,
    HEAD,
    Multigraph,
    PlanarEmbedding,
    TAIL,
    id_key,
    spanning_tree,
)
from .lattice import CoverDigraph


class InputFormatError(ValueError):
    """Malformed input document; `path` points at the offending spot."""

    def __init__(self, path: str, message: str):
        self.path = path or "(document root)"
        super().__init__(f"{self.path}: {message}")


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"line {exc.lineno} column {exc.colno}", f"invalid JSON: {exc.msg}"
        ) from None


def dumps(obj) -> str:
    """Canonical text form: two-space indent, keys in insertion order."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def _expect_object(doc, path: str) -> Mapping:
    if not isinstance(doc, dict):
        raise InputFormatError(path, f"expected a JSON object, got {type(doc).__name__}")
    return doc

def _expect_list(doc, path: str) -> list:
    if not isinstance(doc, list):
        raise InputFormatError(path, f"expected a JSON array, got {type(doc).__name__}")
    return doc


def _get(doc: Mapping, key: str, path: str):
    if key not in doc:
        raise InputFormatError(path, f"missing required key {key!r}")
    return doc[key]


def _identifier(value, path: str):
    # JSON numbers arrive as int or float; only ints and strings make ids.
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputFormatError(path, f"ids must be integers or strings, got {value!r}")
    return value


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(path, f"expected an integer, got {value!r}")
    return value


def _str_key_index(ids, what: str, path: str) -> dict:
    index: dict = {}
    for i in ids:
        k = str(i)
        if k in index:
            raise InputFormatError(
                path, f"{what} ids {index[k]!r} and {i!r} collide as JSON key {k!r}"
            )
        index[k] = i
    return index


def parse_graph(doc) -> Multigraph:
    doc = _expect_object(doc, "")
    raw_vertices = _expect_list(_get(doc, "vertices", ""), "vertices")
    if not raw_vertices:
        raise InputFormatError("vertices", "at least one vertex is required")
    vertices = [_identifier(v, f"vertices[{i}]") for i, v in enumerate(raw_vertices)]
    arcs = []
    for i, entry in enumerate(_expect_list(_get(doc, "arcs", ""), "arcs")):
        where = f"arcs[{i}]"
        entry = _expect_object(entry, where)
        arcs.append(
            Arc(
                _identifier(_get(entry, "id", where), f"{where}.id"),
                _identifier(_get(entry, "tail", where), f"{where}.tail"),
                _identifier(_get(entry, "head", where), f"{where}.head"),
            )
        )
    try:
        return Multigraph(vertices, arcs)
    except GraphError as exc:
        raise InputFormatError("", str(exc)) from None


def _arc_int_map(doc: Mapping, key: str, g: Multigraph) -> dict:
    table = _expect_object(_get(doc, key, ""), key)
    index = _str_key_index((a.id for a in g.arcs), "arc", key)
    out = {}
    for k, value in table.items():
        if k not in index:
            raise InputFormatError(f"{key}.{k}", "no arc has this id")
        out[index[k]] = _integer(value, f"{key}.{k}")
    for k, arc_id in index.items():
        if arc_id not in out:
            raise InputFormatError(key, f"missing entry for arc {arc_id!r}")
    return out


def _vertex_int_map(doc: Mapping, key: str, g: Multigraph, partial: bool = False) -> dict:
    table = _expect_object(_get(doc, key, ""), key)
    index = _str_key_index(g.vertices, "vertex", key)
    out = {}
    for k, value in table.items():
        if k not in index:
            raise InputFormatError(f"{key}.{k}", "no vertex has this id")
        out[index[k]] = _integer(value, f"{key}.{k}")
    if not partial:
        for k, v in index.items():
            if v not in out:
                raise InputFormatError(key, f"missing entry for vertex {v!r}")
    return out


def parse_system(doc, forbidden_override=None) -> BondSystem:
    """Bond system from graph + windows + reference (or cycle targets).

    "reference" and "delta_on_fundamental_cycles" are mutually exclusive;
    the latter gives prescribed flow-differences per non-tree arc of the
    deterministic spanning tree, realized as a labeling that is zero on
    tree arcs.  Absent "forbidden" (and absent override), the smallest
    vertex is forbidden.
    """
    doc = _expect_object(doc, "")
    g = parse_graph(doc)
    lower = _arc_int_map(doc, "lower", g)
    upper = _arc_int_map(doc, "upper", g)
    if "reference" in doc and "delta_on_fundamental_cycles" in doc:
        raise InputFormatError(
            "", 'keys "reference" and "delta_on_fundamental_cycles" are mutually exclusive'
        )
    if "reference" in doc:
        reference = _arc_int_map(doc, "reference", g)
    elif "delta_on_fundamental_cycles" in doc:
        reference = _reference_from_cycle_targets(doc, g)
    else:
        raise InputFormatError(
            "", 'one of "reference" or "delta_on_fundamental_cycles" is required'
        )
    if forbidden_override is not None:
        forbidden = forbidden_override
    elif "forbidden" in doc:
        forbidden = _identifier(doc["forbidden"], "forbidden")
    else:
        forbidden = min(g.vertices, key=id_key)
    if not g.has_vertex(forbidden):
        raise InputFormatError("forbidden", f"no vertex has id {forbidden!r}")
    try:
        return BondSystem(g, lower, upper, reference, forbidden)
    except GraphError as exc:
        raise InputFormatError("", str(exc)) from None


def parse_systems(doc, forbidden_override=None) -> list:
    """Like parse_system, but disconnected inputs split into one system per
    connected component.

    A forbidden vertex (key or override) applies to the component holding
    it; every other component forbids its smallest vertex.  The cycle-target
    form needs a spanning tree and therefore stays connected-only.
    """
    doc = _expect_object(doc, "")
    g = parse_graph(doc)
    if g.is_connected():
        return [parse_system(doc, forbidden_override)]
    if "reference" not in doc:
        raise InputFormatError(
            "", 'a disconnected input requires an explicit "reference" labeling'
        )
    lower = _arc_int_map(doc, "lower", g)
    upper = _arc_int_map(doc, "upper", g)
    reference = _arc_int_map(doc, "reference", g)
    if forbidden_override is not None:
        forbidden = forbidden_override
    elif "forbidden" in doc:
        forbidden = _identifier(doc["forbidden"], "forbidden")
    else:
        forbidden = None
    if forbidden is not None and not g.has_vertex(forbidden):
        raise InputFormatError("forbidden", f"no vertex has id {forbidden!r}")
    systems = []
    for component in g.connected_components():
        sub = g.induced_subgraph(component)
        anchor = forbidden if forbidden in component else min(component, key=id_key)
        try:
            systems.append(
                BondSystem(
                    sub,
                    {a.id: lower[a.id] for a in sub.arcs},
                    {a.id: upper[a.id] for a in sub.arcs},
                    {a.id: reference[a.id] for a in sub.arcs},
                    anchor,
                )
            )
        except GraphError as exc:
            raise InputFormatError("", str(exc)) from None
    return systems


def _reference_from_cycle_targets(doc: Mapping, g: Multigraph) -> dict:
    key = "delta_on_fundamental_cycles"
    table = _expect_object(doc[key], key)
    try:
        tree = spanning_tree(g)
    except GraphError as exc:
        raise InputFormatError(key, str(exc)) from None
    non_tree = [a.id for a in g.arcs if a.id not in tree]
    index = _str_key_index(non_tree, "non-tree arc", key)
    reference = {a.id: 0 for a in g.arcs}
    for k, value in table.items():
        if k not in index:
            raise InputFormatError(
                f"{key}.{k}", "not a non-tree arc of the deterministic spanning tree"
            )
        reference[index[k]] = _integer(value, f"{key}.{k}")
    for k, arc_id in index.items():
        if k not in table:
            raise InputFormatError(key, f"missing entry for non-tree arc {arc_id!r}")
    return reference


def parse_bond(doc, key: str, g: Multigraph) -> Bond:
    return Bond(_arc_int_map(doc, key, g))


def parse_arc_map(doc, key: str, g: Multigraph) -> dict:
    """Arc-keyed integer map covering every arc of the graph."""
    return _arc_int_map(_expect_object(doc, ""), key, g)


def parse_arc_subset_map(doc, key: str, arc_ids) -> dict:
    """Arc-keyed integer map covering exactly the given arc ids."""
    doc = _expect_object(doc, "")
    table = _expect_object(_get(doc, key, ""), key)
    index = _str_key_index(arc_ids, "arc", key)
    out = {}
    for k, value in table.items():
        if k not in index:
            raise InputFormatError(f"{key}.{k}", "unexpected arc id for this map")
        out[index[k]] = _integer(value, f"{key}.{k}")
    for k, arc_id in index.items():
        if arc_id not in out:
            raise InputFormatError(key, f"missing entry for arc {arc_id!r}")
    return out


def parse_vertex_map(doc, key: str, g: Multigraph, partial: bool = False) -> dict:
    """Vertex-keyed integer map; `partial` allows missing vertices."""
    return _vertex_int_map(_expect_object(doc, ""), key, g, partial=partial)


def parse_embedding(doc) -> PlanarEmbedding:
    doc = _expect_object(doc, "")
    g = parse_graph(doc)
    table = _expect_object(_get(doc, "rotation", ""), "rotation")
    vertex_index = _str_key_index(g.vertices, "vertex", "rotation")
    arc_index = _str_key_index((a.id for a in g.arcs), "arc", "rotation")
    rotation = {}
    for k, entries in table.items():
        if k not in vertex_index:
            raise InputFormatError(f"rotation.{k}", "no vertex has this id")
        v = vertex_index[k]
        ends = []
        for i, ref in enumerate(_expect_list(entries, f"rotation.{k}")):
            where = f"rotation.{k}[{i}]"
            ref = _expect_object(ref, where)
            arc_key = str(_identifier(_get(ref, "arc", where), f"{where}.arc"))
            if arc_key not in arc_index:
                raise InputFormatError(f"{where}.arc", "no arc has this id")
            end = _get(ref, "end", where)
            if end not in (TAIL, HEAD):
                raise InputFormatError(f"{where}.end", f'expected "tail" or "head", got {end!r}')
            ends.append(ArcEnd(arc_index[arc_key], end))
        rotation[v] = tuple(ends)
    for v in g.vertices:
        if v not in rotation:
            raise InputFormatError("rotation", f"missing entry for vertex {v!r}")
    try:
        return PlanarEmbedding(g, rotation)
    except GraphError as exc:
        raise InputFormatError("rotation", str(exc)) from None


def parse_colored_digraph(doc) -> ColoredDigraph:
    doc = _expect_object(doc, "")
    g = parse_graph(doc)
    table = _expect_object(_get(doc, "colors", ""), "colors")
    index = _str_key_index((a.id for a in g.arcs), "arc", "colors")
    colors = {}
    for k, value in table.items():
        if k not in index:
            raise InputFormatError(f"colors.{k}", "no arc has this id")
        colors[index[k]] = _identifier(value, f"colors.{k}")
    try:
        return ColoredDigraph(g, colors)
    except (GraphError, PosetError) as exc:
        raise InputFormatError("colors", str(exc)) from None


def parse_poset(doc) -> FinitePoset:
    """Poset given as {"elements": [...], "covers": [[lower, upper], ...]}."""
    doc = _expect_object(doc, "")
    raw = _expect_list(_get(doc, "elements", ""), "elements")
    labels = [_identifier(x, f"elements[{i}]") for i, x in enumerate(raw)]
    if len(set(labels)) != len(labels):
        raise InputFormatError("elements", "element labels must be distinct")
    position = {label: i for i, label in enumerate(labels)}
    pairs = []
    for i, pair in enumerate(_expect_list(_get(doc, "covers", ""), "covers")):
        where = f"covers[{i}]"
        pair = _expect_list(pair, where)
        if len(pair) != 2:
            raise InputFormatError(where, f"expected [lower, upper], got {pair!r}")
        lo = _identifier(pair[0], f"{where}[0]")
        hi = _identifier(pair[1], f"{where}[1]")
        for label, spot in ((lo, f"{where}[0]"), (hi, f"{where}[1]")):
            if label not in position:
                raise InputFormatError(spot, f"unknown element {label!r}")
        pairs.append((position[lo], position[hi]))
    try:
        return FinitePoset.from_covers(tuple(labels), pairs)
    except PosetError as exc:
        raise InputFormatError("covers", str(exc)) from None


def parse_chip_input(doc) -> tuple[Multigraph, ChipArrangement]:
    doc = _expect_object(doc, "")
    g = parse_graph(doc)
    chips = _vertex_int_map(doc, "chips", g, partial=True)
    for v, n in chips.items():
        if n < 0:
            raise InputFormatError(f"chips.{v}", "chip counts must be nonnegative")
    return g, ChipArrangement(chips)


# ---------------------------------------------------------------------------
# serialization


def _sorted_ids(ids):
    return sorted(ids, key=id_key)


def graph_json(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "arcs": [
            {"id": a.id, "tail": a.tail, "head": a.head}
            for a in sorted(g.arcs, key=lambda a: id_key(a.id))
        ],
    }


def bond_json(x: Bond, g: Multigraph) -> dict:
    return {str(a.id): x.value(a.id) for a in sorted(g.arcs, key=lambda a: id_key(a.id))}


def system_json(system: BondSystem) -> dict:
    doc = graph_json(system.graph)
    order = _sorted_ids(a.id for a in system.graph.arcs)
    doc["lower"] = {str(a): system.lower[a] for a in order}
    doc["upper"] = {str(a): system.upper[a] for a in order}
    doc["reference"] = {str(a): system.reference[a] for a in order}
    doc["forbidden"] = system.forbidden
    return doc


def contraction_json(cmap: ContractionMap) -> dict:
    return {
        "forced": {str(a): value for a, value in sorted(cmap.forced.items(), key=lambda kv: id_key(kv[0]))},
        "vertex_map": {str(v): w for v, w in sorted(cmap.vertex_map.items(), key=lambda kv: id_key(kv[0]))},
    }


def cycle_json(cycle: CycleVector) -> dict:
    return {str(a): sign for a, sign in sorted(cycle.items(), key=lambda kv: id_key(kv[0]))}


def infeasible_json(exc: InfeasibleSystemError) -> dict:
    return {
        "verdict": "infeasible",
        "cycle": cycle_json(exc.cycle),
        "required": exc.required,
        "window_min": exc.window_min,
        "window_max": exc.window_max,
    }


def validity_json(report: ValidityReport) -> dict:
    return {
        "ok": report.ok,
        "capacity_violations": [
            {"arc": a, "value": value, "lower": lo, "upper": hi}
            for a, value, lo, hi in report.capacity_violations
        ],
        "cycle_violations": [
            {"cycle": cycle_json(c), "required": want, "actual": got}
            for c, want, got in report.cycle_violations
        ],
    }


def cover_digraph_json(cd: CoverDigraph, expand=None) -> dict:
    """Elements (optionally expanded through a contraction map) + covers.

    Covers are [lower index, upper index, pushed vertex] triples.
    """
    elements = []
    for x in cd.elements:
        full = expand(x) if expand is not None else x
        elements.append({str(a): v for a, v in sorted(full.values.items(), key=lambda kv: id_key(kv[0]))})
    return {
        "elements": elements,
        "covers": [[lo, hi, color] for lo, hi, color in cd.covers],
    }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable(x) for x in sorted(value, key=id_key)]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def cover_verdict_json(verdict: CoverVerdict) -> dict:
    return {"verdict": verdict.status, "ok": verdict.ok, "witness": _jsonable(verdict.witness)}


def brute_report_json(report: BruteReport) -> dict:
    return {
        "is_lattice": report.is_lattice,
        "lattice_witness": _jsonable(report.lattice_witness),
        "meet_irreducibles": _jsonable(report.meet_irreducibles),
        "is_uld": report.is_uld,
        "uld_certificate": _jsonable(report.uld_certificate),
        "is_distributive": report.is_distributive,
        "distributive_witness": _jsonable(report.distributive_witness),
    }


def game_json(game: GameGraph) -> dict:
    order = game.graph.vertices
    return {
        "verdict": game.verdict,
        "states": [
            {str(v): s.count(v) for v in order} for s in game.states
        ],
        "moves": [[i, j, v] for i, j, v in game.moves],
    }


def complete_game_json(game) -> dict:
    """CompleteGame -> states/moves plus exploration flags."""
    order = game.graph.vertices
    return {
        "complete": game.complete,
        "acyclic": game.acyclic,
        "states": [
            {str(v): s.count(v) for v in order} for s in game.states
        ],
        "moves": [[i, j, v] for i, j, v in game.moves],
    }


def game_certificate_json(cert: GameCertificate, game: GameGraph) -> dict:
    order = game.graph.vertices
    return {
        "ok": cert.ok,
        "cover_verdict": cover_verdict_json(cert.verdict),
        "terminal": {str(v): cert.terminal.count(v) for v in order},
        "multisets_consistent": cert.multisets_consistent,
        "multiset_witness": _jsonable(cert.multiset_witness),
    }


def representation_json(report: RepresentationReport) -> dict:
    return {
        "ok": report.ok,
        "witness": _jsonable(report.witness),
        "representations": {
            str(k): _jsonable(v) for k, v in sorted(report.representations.items(), key=lambda kv: id_key(kv[0]))
        },
    }
