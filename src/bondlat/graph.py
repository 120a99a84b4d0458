"""Directed multigraph foundation: spanning trees, cycle vectors,
rotation-system embeddings, faces, and planar duals.

Conventions
-----------
Vertex and arc ids are arbitrary hashable values, ints and strings in
practice.  Mixed id types are ordered ints-first via `id_key`, so every
"ascending id" rule below is total and deterministic.

A rotation system lists, for every vertex, the incident arc ends in
clockwise order.  Face traversal follows "leave through the end after the
arrival end in rotation order"; under the clockwise convention this walks
the boundary of every bounded face clockwise.  The dual of an arc runs
from the face holding its forward traversal to the face holding its
backward traversal.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import cycle, repeat
from operator import add, attrgetter
from struct import Struct

TAIL = "tail"
HEAD = "head"

FORWARD = 1
BACKWARD = -1

_set = object.__setattr__  # stores a Record's fields
_id, _tail, _head = attrgetter("id"), attrgetter("tail"), attrgetter("head")


class GraphError(ValueError):
    """Malformed graph data or an operation applied outside its domain."""


class NonPlanarError(GraphError):
    """Rotation system whose face count contradicts Euler's formula."""

    def __init__(self, genus: int):
        super().__init__(f"rotation system describes a surface of genus {genus}, not the plane")
        self.genus = genus


def id_key(value):
    """Sort key giving a total order over mixed int/str ids (ints first)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, value)
    return (1, str(value))


def sorted_by_id(items: Iterable, id_of=None) -> list:
    """`items` in ascending `id_key` order of their ids, `id_of(item)` or the
    items; ids all ints, or all strings, sort by themselves, with no key calls."""
    items = list(items)
    if set(map(type, items if id_of is None else map(id_of, items))) in ({int}, {str}):
        return sorted(items, key=id_of)
    return sorted(items, key=id_key if id_of is None else lambda item: id_key(id_of(item)))


class Record:
    """An immutable value whose fields are its annotated names, bases'
    fields first; a class attribute is a field's default.  `repr`, `==` and
    the hash go by field, leaving out the fields named in `_hidden`."""

    _fields = _hidden = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name in own if name not in cls._fields)
        cls._shown = tuple(name for name in cls._fields if name not in cls._hidden)
        cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        for name, value in zip(cls._fields, args):
            _set(self, name, value)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() misses field {name!r}")
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes only the fields {', '.join(cls._fields)}")
        self.__post_init__()

    def __post_init__(self):
        """Checks a subclass runs once every field is set."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"


class Arc(Record):
    id: Hashable
    tail: Hashable
    head: Hashable

    def __init__(self, id, tail, head):  # built once per arc per graph: stores the fields directly
        fields = self.__dict__
        fields["id"], fields["tail"], fields["head"] = id, tail, head

    def is_loop(self) -> bool:
        return self.tail == self.head


class Multigraph:
    """Finite directed multigraph with identity-carrying arcs.

    Parallel arcs and loops are permitted.  Instances are treated as
    immutable: nothing mutates `vertices` or `arcs` after construction.
    The arcs are sorted by id once, into `arcs_by_id`, and every per-vertex
    list is read off that sort in one pass, so no list is sorted by itself.
    """

    def __init__(self, vertices: Iterable, arcs: Iterable):
        self.vertices: tuple = tuple(sorted_by_id(set(vertices)))
        self.arcs: tuple[Arc, ...] = tuple(arcs)
        if not set(map(type, self.arcs)) <= {Arc}:
            self.arcs = tuple(a if isinstance(a, Arc) else Arc(*a) for a in self.arcs)
        self._by_id: dict = {arc.id: arc for arc in self.arcs}
        self.index: dict = {v: i for i, v in enumerate(self.vertices)}  # vertex -> position
        ends = {*map(_tail, self.arcs), *map(_head, self.arcs)}
        if len(self._by_id) != len(self.arcs) or not self.index.keys() >= ends:
            # name the first arc with an unknown end, else the first repeated id
            for arc in self.arcs:
                if arc.tail not in self.index or arc.head not in self.index:
                    raise GraphError(f"arc {arc.id!r} references unknown vertex {arc.tail!r} or {arc.head!r}")
            seen: set = set()
            for arc in self.arcs:
                if arc.id in seen:
                    raise GraphError(f"duplicate arc id {arc.id!r}")
                seen.add(arc.id)
        self.arcs_by_id: tuple[Arc, ...] = tuple(sorted_by_id(self.arcs, _id))
        self._plans: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.vertices == other.vertices
            and self.arcs == other.arcs
        )

    def __repr__(self):
        return f"Multigraph({len(self.vertices)} vertices, {len(self.arcs)} arcs)"

    def arc(self, arc_id) -> Arc:
        try:
            return self._by_id[arc_id]
        except KeyError:
            raise GraphError(f"unknown arc id {arc_id!r}") from None

    def has_vertex(self, v) -> bool:
        return v in self.index

    def out_arcs(self, v) -> list[Arc]:
        """The arcs leaving v, ascending by id, read off `incident_arcs`."""
        return [arc for arc in self._incident[v] if arc.tail == v]

    def incident_arcs(self, v) -> list[Arc]:
        """All arcs touching v, loops listed once, ascending by id (a shared list)."""
        return self._incident[v]

    @cached_property
    def _incident(self) -> dict:
        """Every vertex's `incident_arcs`, from one pass over `arcs_by_id`."""
        incident: dict = {v: [] for v in self.vertices}
        for arc in self.arcs_by_id:
            incident[arc.tail].append(arc)
            if arc.head != arc.tail:
                incident[arc.head].append(arc)
        return incident

    def search_plan(self, root) -> tuple:
        """A depth-first search from `root` over `incident_arcs`, as (arc id,
        u, v, sign) steps; built on the first call for `root` and returned
        again after.  A step with sign +1 (-1) first reaches v, the arc's
        head (tail), from u; a step with sign 0 joins the already reached
        tail u and head v."""
        plan = self._plans.get(root)
        if plan is None:
            reached = {root}
            order = [root]
            steps = []
            while order:
                for arc in self.incident_arcs(order.pop()):
                    if arc.tail not in reached:
                        step = (arc.id, arc.head, arc.tail, -1)
                    elif arc.head not in reached:
                        step = (arc.id, arc.tail, arc.head, 1)
                    else:
                        step = (arc.id, arc.tail, arc.head, 0)
                    if step[3]:
                        reached.add(step[2])
                        order.append(step[2])
                    steps.append(step)
            plan = self._plans[root] = tuple(steps)
        return plan

    def out_degree(self, v) -> int:
        return len(self.out_arcs(v))

    @cached_property
    def spanning_forest(self) -> tuple[list, list]:
        """`forest` over the arc ends' positions in `arcs_by_id` order: the
        ranks of the spanning tree's arcs there, and each vertex's root."""
        position, arcs = self.index.__getitem__, self.arcs_by_id
        return forest(len(self.index), zip(map(position, map(_tail, arcs)), map(position, map(_head, arcs))))

    def connected_components(self) -> list[frozenset]:
        """Vertex sets of the underlying undirected components, each sorted
        internally; components ordered by their smallest vertex."""
        roots = self.spanning_forest[1]
        parts: dict = {root: [] for root in roots}  # first seen in vertex order
        for v, root in zip(self.vertices, roots):
            parts[root].append(v)
        return list(map(frozenset, parts.values()))

    def is_connected(self) -> bool:
        return len(self.spanning_forest[0]) + 1 >= len(self.vertices)


def forest(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list, list]:
    """Kruskal's algorithm over positions 0..n-1 (Kruskal 1956): the ranks of
    the pairs, read in order, that join two trees, and each position's root,
    shared by exactly the positions some path of pairs joins.  Union by size
    and path halving make it O(m alpha(n)) for m pairs (Tarjan, JACM 1975).
    For distinct ranks the kept pairs are the unique minimum spanning forest."""
    parent, size, kept = list(range(n)), [1] * n, []
    for k, (u, v) in enumerate(pairs):
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            kept.append(k)
    for v in range(n):  # point every position at its root
        while parent[v] != parent[parent[v]]:
            parent[v] = parent[parent[v]]
    return kept, parent


_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct code per machine field width


def field_width(widest: int) -> int:
    """Bits per packed field holding 0..widest: 8, 16, 32 or 64, else the
    least multiple of 8, with top (guard) bit 2**(width - 1) >= widest, so
    adding top - k to a field holding c sets that bit, with no carry, iff c >= k."""
    bits = (widest - 1).bit_length() + 1
    return max(8, 1 << (bits - 1).bit_length()) if bits <= 64 else -(-bits // 8) * 8


def pack(row: Iterable[int], width: int) -> int:
    """The nonnegative `row` as one int of `width`-bit fields, the first most
    significant (int order is lexicographic row order), via one bytes string."""
    return int.from_bytes(b"".join(map(int.to_bytes, row, repeat(width // 8), repeat("big"))), "big")


def unpack(keys: Sequence[int], width: int, lows: Sequence[int]) -> Iterable[tuple]:
    """The rows of packed `keys`, `lows[k]` added to field k: one `struct`
    unpack over all keys, or byte slices for fields wider than 64 bits."""
    m, size = len(lows), width // 8
    blob = b"".join(map(int.to_bytes, keys, repeat(m * size), repeat("big")))
    if width in _CODES:
        flat = Struct(f">{m * len(keys)}{_CODES[width]}").unpack(blob)
    else:
        flat = [int.from_bytes(blob[k : k + size], "big") for k in range(0, len(blob), size)]
    flat = map(add, flat, cycle(lows)) if any(lows) else iter(flat)
    return zip(*[flat] * m) if m else repeat((), len(keys))


class CycleVector(Record):
    """Signed arc incidence of a closed walk: +1 forward, -1 backward.

    Arcs traversed equally often in both directions are omitted, so every
    stored entry is +1 or -1.
    """

    signs: Mapping
    __hash__ = None  # the signs dict is unhashable

    def __post_init__(self):
        for arc_id, s in self.signs.items():
            if s not in (1, -1):
                raise GraphError(f"cycle entry for arc {arc_id!r} must be +1 or -1, got {s!r}")

    def sign(self, arc_id) -> int:
        return self.signs.get(arc_id, 0)

    def support(self) -> list:
        return sorted_by_id(self.signs)

    def forward_arcs(self) -> list:
        return sorted_by_id(a for a, s in self.signs.items() if s == 1)

    def backward_arcs(self) -> list:
        return sorted_by_id(a for a, s in self.signs.items() if s == -1)

    def reversed(self) -> "CycleVector":
        return CycleVector({a: -s for a, s in self.signs.items()})

    def items(self):
        return [(a, self.signs[a]) for a in self.support()]

    def __len__(self):
        return len(self.signs)


def spanning_tree(g: Multigraph) -> frozenset:
    """Deterministic spanning tree of the underlying undirected graph: the
    minimum spanning tree by arc rank in id order, read off the graph's
    `spanning_forest`, O(|A| alpha(|V|)) on the first call.  Raises on
    disconnected input, naming the smallest vertex and the smallest one
    with no path to it.
    """
    if not g.vertices:
        raise GraphError("empty graph has no spanning tree")
    if not g.is_connected():
        root, stranded = (min(c, key=id_key) for c in g.connected_components()[:2])
        raise GraphError(f"graph is disconnected: no path between {root!r} and {stranded!r}")
    return frozenset(g.arcs_by_id[k].id for k in g.spanning_forest[0])


def _check_spanning_tree(g: Multigraph, tree: frozenset) -> dict:
    """Validate `tree` and return parent links {v: (parent, arc, direction)},
    breadth-first from the smallest vertex.  A tree's links do not depend on
    the order its arcs are visited in."""
    if len(tree) != len(g.vertices) - 1:
        raise GraphError(f"a spanning tree here needs {len(g.vertices) - 1} arcs, got {len(tree)}")
    adj: dict = {v: [] for v in g.vertices}
    for arc_id in tree:
        arc = g.arc(arc_id)
        if arc.is_loop():
            raise GraphError(f"tree arc {arc_id!r} is a loop")
        adj[arc.tail].append((arc.head, arc, FORWARD))
        adj[arc.head].append((arc.tail, arc, BACKWARD))
    root = g.vertices[0]
    parent: dict = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w, arc, direction in adj[v]:
            if w not in parent:
                parent[w] = (v, arc, direction)
                queue.append(w)
    if len(parent) != len(g.vertices):
        raise GraphError("given arc set does not span the graph")
    return parent


def fundamental_cycles(g: Multigraph, tree: frozenset) -> list[CycleVector]:
    """One cycle per non-tree arc, ordered by ascending non-tree arc id.

    The defining arc is traversed forward (+1) and the cycle closes through
    the tree path from its head back to its tail.  A loop closes on itself.
    Each path is found by climbing from the deeper end, so a cycle costs
    its own length.
    """
    parent = _check_spanning_tree(g, tree)
    depth: dict = {}
    for v, link in parent.items():  # breadth-first, so parents come first
        depth[v] = 0 if link is None else depth[link[0]] + 1
    cycles = []
    for arc in g.arcs_by_id:
        if arc.id in tree:
            continue
        signs = {arc.id: 1}
        h, t = arc.head, arc.tail
        while h != t:
            # a link's direction is its arc's walked from parent to child;
            # the cycle climbs from the head and comes down to the tail
            if depth[h] >= depth[t]:
                h, tarc, direction = parent[h]
                signs[tarc.id] = -direction
            else:
                t, tarc, direction = parent[t]
                signs[tarc.id] = direction
        cycles.append(CycleVector(signs))
    return cycles


class ArcEnd(Record):
    arc: Hashable
    end: str

    def __post_init__(self):
        if self.end not in (TAIL, HEAD):
            raise GraphError(f"arc end must be {TAIL!r} or {HEAD!r}, got {self.end!r}")


class PlanarEmbedding:
    """Combinatorial embedding: per-vertex clockwise rotation of arc ends."""

    def __init__(self, host: Multigraph, rotation: Mapping):
        self.host = host
        normalized: dict = {}
        seen: set = set()
        for v, ends in rotation.items():
            if not host.has_vertex(v):
                raise GraphError(f"rotation lists unknown vertex {v!r}")
            entries = []
            for e in ends:
                entry = e if isinstance(e, ArcEnd) else ArcEnd(*e)
                arc = host.arc(entry.arc)
                expected = arc.tail if entry.end == TAIL else arc.head
                if expected != v:
                    raise GraphError(
                        f"arc end ({entry.arc!r}, {entry.end}) belongs at vertex {expected!r}, not {v!r}"
                    )
                key = (entry.arc, entry.end)
                if key in seen:
                    raise GraphError(f"arc end ({entry.arc!r}, {entry.end}) appears twice")
                seen.add(key)
                entries.append(entry)
            normalized[v] = tuple(entries)
        for v in host.vertices:
            normalized.setdefault(v, ())
        expected_ends = 2 * len(host.arcs)
        if len(seen) != expected_ends:
            missing = next(
                (a.id, end)
                for a in host.arcs
                for end in (TAIL, HEAD)
                if (a.id, end) not in seen
            )
            raise GraphError(f"rotation misses arc end {missing!r}")
        self.rotation = normalized
        self._after = {
            (end.arc, end.end): ring[(k + 1) % len(ring)]
            for ring in normalized.values()
            for k, end in enumerate(ring)
        }

    def next_end(self, arc, end: str) -> ArcEnd:
        """The end after the `end` end of `arc` in its vertex's rotation."""
        return self._after[arc, end]


class FaceWalk(Record):
    """Closed boundary walk of one face, as (arc id, direction) darts."""

    darts: tuple

    def __len__(self):
        return len(self.darts)


def faces(embedding: PlanarEmbedding) -> list[FaceWalk]:
    """All facial walks of a connected plane embedding.

    Every dart (arc, direction) lies on exactly one face.  After Euler's
    count the traversal must find  2 - |V| + |A|  faces; any other count
    means the rotation describes a higher-genus surface and is rejected.
    """
    g = embedding.host
    if not g.vertices:
        raise GraphError("cannot trace faces of an empty graph")
    if not g.is_connected():
        raise GraphError("face tracing requires a connected embedding")
    if not g.arcs:
        return [FaceWalk(())]

    unused = {
        (arc.id, direction)
        for arc in g.arcs
        for direction in (FORWARD, BACKWARD)
    }
    walks = []
    for arc in g.arcs_by_id:
        for direction in (FORWARD, BACKWARD):
            start = (arc.id, direction)
            if start not in unused:
                continue
            walk = []
            dart = start
            while True:
                walk.append(dart)
                unused.discard(dart)
                # a dart arrives at its arc's head (forward) or tail and
                # leaves through the next end of the rotation there
                end = embedding.next_end(dart[0], HEAD if dart[1] == FORWARD else TAIL)
                dart = (end.arc, FORWARD if end.end == TAIL else BACKWARD)
                if dart == start:
                    break
            walks.append(FaceWalk(tuple(walk)))
    euler = len(g.vertices) - len(g.arcs) + len(walks)
    if euler != 2:
        raise NonPlanarError((2 - euler) // 2)
    return walks


class PlanarDual(Record):
    """Dual graph with its face list, and its embedding on first read.

    Dual vertex i is faces[i]; dual arcs reuse primal arc ids.  Each dual
    arc leaves the face holding the primal arc's forward dart, entering
    the face holding its backward dart.
    """

    graph: Multigraph
    faces: tuple

    @cached_property
    def embedding(self) -> PlanarEmbedding:
        # Rotation around a face vertex: the crossed arcs in boundary-walk order.
        rotation = {}
        for i, walk in enumerate(self.faces):
            rotation[i] = tuple(ArcEnd(arc_id, TAIL if d == FORWARD else HEAD) for arc_id, d in walk.darts)
        return PlanarEmbedding(self.graph, rotation)


def planar_dual(embedding: PlanarEmbedding) -> PlanarDual:
    walks = faces(embedding)
    face_of_dart = {}
    for i, walk in enumerate(walks):
        for dart in walk.darts:
            face_of_dart[dart] = i
    g = embedding.host
    dual_arcs = []
    for arc in g.arcs_by_id:
        tail_face = face_of_dart[(arc.id, FORWARD)]
        head_face = face_of_dart[(arc.id, BACKWARD)]
        dual_arcs.append(Arc(arc.id, tail_face, head_face))
    return PlanarDual(Multigraph(range(len(walks)), dual_arcs), tuple(walks))
