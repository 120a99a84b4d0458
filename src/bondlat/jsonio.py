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
document (e.g. "arcs[3].head").  The graph and each id-keyed table are
checked in one bulk pass, O(size), of types and str(id) key sets; the
ordered checks that build error text run only when it fails.
Serialization emits keys in a fixed order, so equal objects always produce
identical bytes.  `iterdumps` streams the text, a block of table rows at a
time; `dumps` joins it.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, groupby, repeat, starmap
from operator import add, attrgetter, itemgetter

from .bonds import Bond, BondSystem, ContractionMap, InfeasibleSystemError, ValidityReport
from .checker import ColoredDigraph, CoverVerdict, FinitePoset, PosetError
from .chipfire import ChipArrangement, GameCertificate, GameGraph
from .graph import (
    Arc,
    ArcEnd,
    CycleVector,
    GraphError,
    HEAD,
    Multigraph,
    PlanarEmbedding,
    Record,
    TAIL,
    id_key,
    sorted_by_id,
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
    except RecursionError:
        raise InputFormatError("", "invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise InputFormatError("", f"invalid JSON: {str(exc).partition(';')[0]}") from None


def dumps(obj) -> str:
    """Canonical text form: two-space indent, keys in insertion order."""
    return "".join(iterdumps(obj))


def iterdumps(obj) -> Iterator[str]:
    """`dumps(obj)` in pieces: a table's one per block of `BLOCK_ROWS` rows, and
    one for the text between tables, so a document without a table is one
    piece.  They join to `json.dumps(obj, indent=2, ensure_ascii=True)` + "\n"."""
    parts: list = []
    _write(obj, "\n", parts)
    parts.append("\n")
    for text, run in groupby(parts, lambda part: part.__class__ is str):
        yield from ["".join(run)] if text else chain.from_iterable(run)


_escape = json.encoder.encode_basestring_ascii  # json's own escaper: quotes, and \uXXXX past ASCII


def _write(obj, newline: str, parts: list):
    """Append the text of `obj` at the indent `newline` gives, and each table's
    pieces, unmade, to `parts`.  Keys are strings; ints and strings alone are one join."""
    kind = obj.__class__
    if kind is str:
        parts.append(_escape(obj))
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif kind is RowTable:
        parts.append(obj.json_pieces(newline))
    elif not isinstance(obj, (dict, list, tuple)):
        parts.append(json.dumps(obj))  # null, true, false, a float, or json's TypeError
    elif not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
    else:
        inner, keyed = newline + "  ", isinstance(obj, dict)
        opening, closing = ("{", newline + "}") if keyed else ("[", newline + "]")
        heads = map("%s: ".__mod__, map(_escape, obj)) if keyed else repeat("")
        values = obj.values() if keyed else obj
        if set(map(type, values)) <= _ID_TYPES:
            texts = [_escape(v) if v.__class__ is str else int.__repr__(v) for v in values]
            parts.append(opening + inner + ("," + inner).join(map(add, heads, texts)) + closing)
            return
        sep = opening + inner
        for head, value in zip(heads, values):
            parts.append(sep + head)
            sep = "," + inner
            _write(value, inner, parts)
        parts.append(closing)


class RowTable(Sequence):
    """A JSON array of int rows: dicts over fixed string `keys`, or
    [lower, upper, color] triples when `keys` is None, with one template
    per color.  Indexing, slicing, iteration and == give the plain rows.
    Rows are written one `%` per block of `BLOCK_ROWS`."""

    def __init__(self, rows: Sequence[tuple], keys: Sequence[str] | None = None):
        self.rows, self.keys = rows, keys

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return list(self.rows[i]) if self.keys is None else dict(zip(self.keys, self.rows[i]))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, RowTable)) else NotImplemented

    def json_pieces(self, newline: str) -> Iterator[str]:
        if not self.rows:
            yield "[]"
            return
        inner, deeper = newline + "  ", newline + "    "
        if self.keys is None:
            head = "," + inner + "[" + deeper + "%d," + deeper + "%d," + deeper
            colors = set(map(itemgetter(2), self.rows))
            blocks = triple_blocks(self.rows, {c: head + json.dumps(c).replace("%", "%%") + inner + "]" for c in colors})
        else:
            fields = ("," + deeper).join(json.dumps(k).replace("%", "%%") + ": %d" for k in self.keys)
            row = "," + inner + ("{" + deeper + fields + inner + "}" if self.keys else "{}")
            blocks = (row * len(block) % tuple(chain.from_iterable(block)) for block in in_blocks(self.rows))
        yield "[" + next(blocks)[1:]  # the first row has no "," before it
        yield from blocks
        yield newline + "]"


BLOCK_ROWS = 4096  # rows per `%`, and per piece of written text


def in_blocks(rows: Sequence) -> Iterator[Sequence]:
    """Consecutive slices of `BLOCK_ROWS` rows."""
    return (rows[k : k + BLOCK_ROWS] for k in range(0, len(rows), BLOCK_ROWS))


def triple_blocks(rows: Sequence[tuple], shapes: Mapping) -> Iterator[str]:
    """`shapes[c] % (i, j)` for each (i, j, c) of `rows`, one `%` per block
    of `BLOCK_ROWS` rows whose shapes are joined into one template."""
    for block in in_blocks(rows):
        ends = [0] * (2 * len(block))
        ends[::2], ends[1::2] = map(itemgetter(0), block), map(itemgetter(1), block)
        yield "".join(map(shapes.__getitem__, map(itemgetter(2), block))) % tuple(ends)


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


_ID_TYPES = frozenset((int, str))  # the exact types a bulk check lets through: no bool, no float
_VALUE_TYPES = {_identifier: _ID_TYPES, _integer: frozenset((int,))}


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


_ARC_FIELDS = itemgetter("id", "tail", "head")
_first, _id = itemgetter(0), attrgetter("id")


def parse_graph(doc) -> Multigraph:
    doc = _expect_object(doc, "")
    vertices = _expect_list(_get(doc, "vertices", ""), "vertices")
    if not vertices:
        raise InputFormatError("vertices", "at least one vertex is required")
    if not set(map(type, vertices)) <= _ID_TYPES:  # one pass; the ordered checks name the first fault
        vertices = [_identifier(v, f"vertices[{i}]") for i, v in enumerate(vertices)]
    entries = _expect_list(_get(doc, "arcs", ""), "arcs")
    try:
        fields = list(map(_ARC_FIELDS, entries)) if set(map(type, entries)) <= {dict} else None
    except KeyError:
        fields = None
    if fields is not None and set(map(type, chain.from_iterable(fields))) <= _ID_TYPES:
        arcs = list(starmap(Arc, fields))
    else:  # the ordered checks name the first fault
        arcs = []
        for i, entry in enumerate(entries):
            where = f"arcs[{i}]"
            entry = _expect_object(entry, where)
            arcs.append(Arc(*(_identifier(_get(entry, f, where), f"{where}.{f}") for f in ("id", "tail", "head"))))
    try:
        return Multigraph(vertices, arcs)
    except GraphError as exc:
        raise InputFormatError("", str(exc)) from None


def _int_map(doc, key: str, known: tuple, what: str, partial=False, value=_integer, stray="") -> dict:
    """The table under `key`, str(id)-keyed, as id -> `value` of the entry.
    `known` is ids and their str(id) index, from `_keys`: every id needs an
    entry unless `partial`, and a key that is no id raises `stray` (default
    "no `what` has this id")."""
    table = _expect_object(_get(_expect_object(doc, ""), key, ""), key)
    ids, index = known
    keys = table.keys()
    fits = keys <= index.keys() if partial else keys == index.keys()
    if fits and len(index) == len(ids) and set(map(type, table.values())) <= _VALUE_TYPES[value]:
        return dict(zip(map(index.__getitem__, keys), table.values()))
    index = _str_key_index(ids, what, key)
    out = {}
    for k, entry in table.items():
        if k not in index:
            raise InputFormatError(f"{key}.{k}", stray or f"no {what} has this id")
        out[index[k]] = value(entry, f"{key}.{k}")
    for i in () if partial else index.values():
        if i not in out:
            raise InputFormatError(key, f"missing entry for {what} {i!r}")
    return out


def parse_id(doc: Mapping, key: str, given=None):
    """`given` unless None, else the id under `key` of object `doc`, else None."""
    if given is None and key in doc:
        given = _identifier(doc[key], key)
    return given


def parse_system(doc, forbidden_override=None) -> BondSystem:
    """Bond system from graph + windows + reference (or cycle targets).

    "reference" and "delta_on_fundamental_cycles" are mutually exclusive;
    the latter gives prescribed flow-differences per non-tree arc of the
    deterministic spanning tree, realized as a labeling that is zero on
    tree arcs.  Absent "forbidden" (and absent override), the smallest
    vertex is forbidden.
    """
    return _read_systems(doc, forbidden_override, split=False)[0]


def parse_systems(doc, forbidden_override=None) -> list:
    """Like parse_system, but disconnected inputs split into one system per
    connected component.

    A disconnected input needs "reference" (the cycle-target form needs a
    spanning tree).  A forbidden vertex (key or override) applies to the
    component holding it; every other component forbids its smallest vertex.
    """
    return _read_systems(doc, forbidden_override, split=True)


def _read_systems(doc, forbidden_override, split: bool) -> list:
    g = parse_graph(doc)
    split = split and not g.is_connected()
    if split and "reference" not in doc:
        raise InputFormatError("", 'a disconnected input requires an explicit "reference" labeling')
    lower = parse_arc_map(doc, "lower", g)
    upper = parse_arc_map(doc, "upper", g)
    if "reference" in doc and "delta_on_fundamental_cycles" in doc:
        raise InputFormatError("", 'keys "reference" and "delta_on_fundamental_cycles" are mutually exclusive')
    if "reference" in doc:
        reference = parse_arc_map(doc, "reference", g)
    elif "delta_on_fundamental_cycles" in doc:
        reference = _reference_from_cycle_targets(doc, g)
    else:
        raise InputFormatError("", 'one of "reference" or "delta_on_fundamental_cycles" is required')
    forbidden = parse_id(doc, "forbidden", forbidden_override)
    if forbidden is None and not split:
        forbidden = g.vertices[0]
    if forbidden is not None and not g.has_vertex(forbidden):
        raise InputFormatError("forbidden", f"no vertex has id {forbidden!r}")
    parts = [(g, forbidden)]
    if split:
        roots, index = g.spanning_forest[1], g.index
        arcs: dict = {root: [] for root in roots}  # in component order, as the forest's roots
        for a in g.arcs:  # one pass, each component keeping the input's arc order
            arcs[roots[index[a.tail]]].append(a)
        parts = [
            (Multigraph(c, own), forbidden if forbidden in c else min(c, key=id_key))
            for c, own in zip(g.connected_components(), arcs.values())
        ]
    try:
        return [BondSystem(sub, lower, upper, reference, anchor) for sub, anchor in parts]
    except GraphError as exc:
        raise InputFormatError("", str(exc)) from None


def _reference_from_cycle_targets(doc: Mapping, g: Multigraph) -> dict:
    key = "delta_on_fundamental_cycles"
    _expect_object(doc[key], key)  # a bad table is reported before a missing tree
    try:
        tree = spanning_tree(g)
    except GraphError as exc:
        raise InputFormatError(key, str(exc)) from None
    non_tree = [a.id for a in g.arcs if a.id not in tree]
    stray = "not a non-tree arc of the deterministic spanning tree"
    return {a.id: 0 for a in g.arcs} | _int_map(doc, key, _keys(non_tree), "non-tree arc", stray=stray)


def parse_bond(doc, key: str, g: Multigraph) -> Bond:
    return Bond(parse_arc_map(doc, key, g))


def parse_arc_map(doc, key: str, g: Multigraph) -> dict:
    """Arc-keyed integer map covering every arc of the graph."""
    return _int_map(doc, key, _arc_keys(g), "arc")


def _keys(ids) -> tuple:
    """The ids as a tuple, with their str(id) index."""
    ids = tuple(ids)
    return ids, dict(zip(map(str, ids), ids))


def _arc_keys(g: Multigraph) -> tuple:
    """`_keys` of `g`'s arc ids, made on the first call and kept on `g`, so
    a system's window tables and its bonds share one index."""
    if "_arc_keys" not in vars(g):
        g._arc_keys = _keys(map(_id, g.arcs))
    return g._arc_keys


def parse_arc_subset_map(doc, key: str, arc_ids) -> dict:
    """Arc-keyed integer map covering exactly the given arc ids."""
    return _int_map(doc, key, _keys(arc_ids), "arc", stray="unexpected arc id for this map")


def parse_vertex_map(doc, key: str, g: Multigraph, partial: bool = False) -> dict:
    """Vertex-keyed integer map; `partial` allows missing vertices."""
    return _int_map(doc, key, _keys(g.vertices), "vertex", partial)


def parse_embedding(doc) -> PlanarEmbedding:
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
    g = parse_graph(doc)
    colors = _int_map(doc, "colors", _arc_keys(g), "arc", partial=True, value=_identifier)
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
    g = parse_graph(doc)
    chips = _int_map(doc, "chips", _keys(g.vertices), "vertex", partial=True)
    for v, n in chips.items():
        if n < 0:
            raise InputFormatError(f"chips.{v}", "chip counts must be nonnegative")
    return g, ChipArrangement(chips)


# ---------------------------------------------------------------------------
# serialization


def graph_json(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "arcs": [{"id": a.id, "tail": a.tail, "head": a.head} for a in g.arcs_by_id],
    }


def bond_json(x: Bond, g: Multigraph) -> dict:
    return {str(a.id): x.value(a.id) for a in g.arcs_by_id}


def system_json(system: BondSystem) -> dict:
    doc = graph_json(system.graph)
    order = [a.id for a in system.graph.arcs_by_id]
    doc["lower"] = {str(a): system.lower[a] for a in order}
    doc["upper"] = {str(a): system.upper[a] for a in order}
    doc["reference"] = {str(a): system.reference[a] for a in order}
    doc["forbidden"] = system.forbidden
    return doc


def contraction_json(cmap: ContractionMap) -> dict:
    return {
        "forced": {str(a): value for a, value in sorted_by_id(cmap.forced.items(), _first)},
        "vertex_map": {str(v): w for v, w in sorted_by_id(cmap.vertex_map.items(), _first)},
    }


def cycle_json(cycle: CycleVector) -> dict:
    return {str(a): sign for a, sign in cycle.items()}


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


def cover_digraph_json(cd: CoverDigraph, forced: Mapping | None = None) -> dict:
    """Elements (with the `forced` values of contracted arcs merged in) + covers.

    Covers are [lower index, upper index, pushed vertex] triples.
    """
    order = sorted_by_id(dict.fromkeys((*cd.arc_order, *(forced or {}))))
    return {
        "elements": RowTable(cd.value_rows(order, forced), [str(a) for a in order]),
        "covers": RowTable(cd.covers),
    }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable(x) for x in sorted_by_id(value)]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def record_json(record: Record) -> dict:
    """A record's fields, in field order, as JSON values."""
    return {name: _jsonable(getattr(record, name)) for name in record._fields}


def cover_verdict_json(verdict: CoverVerdict) -> dict:
    return {"verdict": verdict.status, "ok": verdict.ok, "witness": _jsonable(verdict.witness)}


def _states_moves_json(game) -> dict:
    order = game.graph.vertices
    return {
        "states": RowTable(game.rows, [str(v) for v in order]),
        "moves": RowTable(game.moves),
    }


def game_json(game: GameGraph) -> dict:
    return {"verdict": game.verdict, **_states_moves_json(game)}


def complete_game_json(game) -> dict:
    """CompleteGame -> states/moves plus exploration flags."""
    return {"complete": game.complete, "acyclic": game.acyclic, **_states_moves_json(game)}


def game_certificate_json(cert: GameCertificate, game: GameGraph) -> dict:
    order = game.graph.vertices
    return {
        "ok": cert.ok,
        "cover_verdict": cover_verdict_json(cert.verdict),
        "terminal": {str(v): cert.terminal[v] for v in order},
        "multisets_consistent": cert.multisets_consistent,
        "multiset_witness": _jsonable(cert.multiset_witness),
    }
