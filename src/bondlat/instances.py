"""Encoders turning well-known combinatorial families into bond systems.

Each encoder produces a system whose bonds are in explicit bijection with
the target family, plus decode/encode converters:

* orientations with prescribed cycle flow-differences (0/1 windows, flips),
* capacity-bounded flows with prescribed vertex excess on a planar digraph
  (transferred to the planar dual, where excess turns into cycle sums),
* orientations with prescribed out-degrees (a flow encoding in disguise),
* vertex potentials with per-arc difference windows (the zero-reference
  system on the graph itself).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from .bonds import Bond, BondSystem, InfeasibleError, _integer
from .graph import (
    Arc,
    ArcEnd,
    GraphError,
    HEAD,
    Multigraph,
    PlanarDual,
    PlanarEmbedding,
    Record,
    TAIL,
    _check_spanning_tree,
    fundamental_cycles,
    id_key,
    planar_dual,
    spanning_tree,
)


class Orientation(Record):
    """An orientation of a graph, stored as flips of a base orientation."""

    base: Multigraph
    flips: Mapping  # arc id -> 0 (keep) or 1 (reverse)

    def __post_init__(self):
        for a in self.base.arcs:
            if self.flips.get(a.id) not in (0, 1):
                raise GraphError(f"orientation must flip arc {a.id!r} by 0 or 1")

    def as_multigraph(self) -> Multigraph:
        arcs = [
            Arc(a.id, a.head, a.tail) if self.flips[a.id] else a for a in self.base.arcs
        ]
        return Multigraph(self.base.vertices, arcs)

    def out_degrees(self) -> dict:
        degrees = {v: 0 for v in self.base.vertices}
        for a in self.as_multigraph().arcs:
            degrees[a.tail] += 1
        return degrees


class ParityError(ValueError):
    """Cycle whose target differs from the base count by an odd amount."""

    def __init__(self, defining_arc, base_count: int, target: int):
        super().__init__(
            f"cycle of non-tree arc {defining_arc!r} has base flow-difference {base_count} "
            f"but target {target}; they must differ by an even number"
        )
        self.defining_arc = defining_arc
        self.base_count = base_count
        self.target = target


class COrientationFamily(Record):
    """Orientations of `base` whose flow-difference on each fundamental
    cycle equals the prescribed target; bonds are the flip indicators."""

    system: BondSystem
    base: Multigraph
    targets: Mapping  # non-tree arc id -> prescribed cycle flow-difference

    def decode(self, bond: Bond) -> Orientation:
        return Orientation(self.base, dict(bond.values))

    def encode(self, orientation: Orientation) -> Bond:
        if orientation.base != self.base:
            raise GraphError("orientation belongs to a different base graph")
        return Bond({a.id: orientation.flips[a.id] for a in self.base.arcs})


def encode_c_orientations(base: Multigraph, targets: Mapping, forbidden=None) -> COrientationFamily:
    """Bond system for orientations with prescribed cycle flow-differences.

    `targets` maps every non-tree arc of the deterministic spanning tree to
    the required flow-difference of its fundamental cycle (targets for the
    base orientation itself are the signed arc counts).  Flipping a set of
    arcs changes each count by twice the flipped overlap, hence the parity
    precondition.
    """
    tree = spanning_tree(base)
    cycles = fundamental_cycles(base, tree)  # one per non-tree arc, in id order
    non_tree = [a.id for a in base.arcs_by_id if a.id not in tree]
    _reject_stray(targets, set(non_tree), "target", "a non-tree arc")
    missing = [a for a in non_tree if a not in targets]
    if missing:
        raise GraphError(f"no target given for non-tree arc {missing[0]!r}")
    reference = {a.id: 0 for a in base.arcs}
    for cycle, defining in zip(cycles, non_tree):
        base_count = sum(cycle.signs.values())
        target = targets[defining]
        if (base_count - target) % 2 != 0:
            raise ParityError(defining, base_count, target)
        reference[defining] = (base_count - target) // 2
    if forbidden is None:
        forbidden = base.vertices[0]
    system = BondSystem(
        base,
        {a.id: 0 for a in base.arcs},
        {a.id: 1 for a in base.arcs},
        reference,
        forbidden,
    )
    return COrientationFamily(system, base, dict(targets))


def _reject_stray(given: Mapping, known: set, what: str, kind: str):
    """Raise GraphError naming the first key of `given`, in `id_key` order,
    that is not in `known`."""
    stray = [k for k in given if k not in known]
    if stray:
        raise GraphError(f"{what} given for {min(stray, key=id_key)!r}, which is not {kind}")


class FlowSpec(Record):
    """A plane digraph with per-arc capacity windows and per-vertex excess
    (flow in minus flow out); missing excess entries default to zero."""

    embedding: PlanarEmbedding
    lower: Mapping
    upper: Mapping
    excess: Mapping


class FlowFamily(Record):
    """Flows of the primal digraph, realized as bonds of the planar dual."""

    system: BondSystem
    spec: FlowSpec
    dual: PlanarDual

    def decode(self, bond: Bond) -> dict:
        """Bond of the dual system -> flow labeling of the primal arcs."""
        return {a.id: bond.values[a.id] for a in self.spec.embedding.host.arcs}

    def encode(self, flow: Mapping) -> Bond:
        return Bond({a.id: flow[a.id] for a in self.spec.embedding.host.arcs})


class ExcessImbalanceError(InfeasibleError):
    """Prescribed excesses that do not sum to zero admit no flow at all."""

    def __init__(self, total: int):
        super().__init__(f"prescribed excesses sum to {total}, but every flow's excesses sum to 0")
        self.total = total


def encode_flows(spec: FlowSpec, unbounded_face: int = 0) -> FlowFamily:
    """Transfer a flow problem to a bond system on the planar dual.

    A labeling has prescribed excess everywhere iff it differs from one
    fixed such labeling by a circulation, and circulations of the primal
    are exactly the labelings of the dual with zero flow-difference on
    every cycle.  The fixed labeling, built over a spanning tree, becomes
    the dual system's reference; the designated unbounded face becomes the
    forbidden vertex.
    """
    g = spec.embedding.host
    _reject_stray(spec.excess, set(g.vertices), "excess", "a vertex")
    excess = {v: _integer(spec.excess.get(v, 0), f"excess of vertex {v!r}") for v in g.vertices}
    total = sum(excess.values())
    if total != 0:
        raise ExcessImbalanceError(total)
    anchor_flow = _flow_with_excess(g, excess)
    dual = planar_dual(spec.embedding)
    if not (isinstance(unbounded_face, int) and 0 <= unbounded_face < len(dual.faces)):
        raise GraphError(
            f"unbounded face must be a face index in [0, {len(dual.faces) - 1}], got {unbounded_face!r}"
        )
    system = BondSystem(dual.graph, spec.lower, spec.upper, anchor_flow, unbounded_face)
    return FlowFamily(system, spec, dual)


def _flow_with_excess(g: Multigraph, excess: Mapping) -> dict:
    """Any integer labeling with the prescribed excess at every vertex.

    Non-tree arcs carry zero; each tree arc then carries the accumulated
    excess of the subtree it separates, signed by its direction.
    """
    parent = _check_spanning_tree(g, spanning_tree(g))
    flow = {a.id: 0 for a in g.arcs}
    subtotal = dict(excess)
    for v, link in reversed(parent.items()):  # breadth-first, so children first
        if link is None:  # the root, last
            break
        up, arc, direction = link
        # arc crosses the subtree cut at v; inflow into the subtree must
        # equal the subtree's total excess, and the arc points into it
        # exactly when it runs forward from the parent
        flow[arc.id] = direction * subtotal[v]
        subtotal[up] += subtotal[v]
    return flow


class AlphaSpec(Record):
    """A plane graph (arc directions ignored) with a prescribed out-degree
    for every vertex."""

    embedding: PlanarEmbedding
    out_degrees: Mapping


class AlphaFamily(Record):
    """Orientations with prescribed out-degrees, as dual-system bonds."""

    flows: FlowFamily
    reference: Multigraph  # the deterministic small-to-large orientation

    @property
    def system(self) -> BondSystem:
        return self.flows.system

    def decode(self, bond: Bond) -> Orientation:
        return Orientation(self.reference, self.flows.decode(bond))

    def encode(self, orientation: Orientation) -> Bond:
        if orientation.base != self.reference:
            raise GraphError("orientation belongs to a different reference graph")
        return self.flows.encode(dict(orientation.flips))


def encode_alpha_orientations(spec: AlphaSpec, unbounded_face: int = 0) -> AlphaFamily:
    """Encode prescribed-out-degree orientations via the flow encoder.

    Edges are first redirected from smaller to larger endpoint id (the
    deterministic reference orientation); flipping a set of arcs changes
    each out-degree by that vertex's in-minus-out flip count, so the stated
    out-degrees become excess targets on unit-window flows.
    """
    g = spec.embedding.host
    _reject_stray(spec.out_degrees, set(g.vertices), "out-degree", "a vertex")
    degrees = {}
    for v in g.vertices:
        try:
            value = spec.out_degrees[v]
        except KeyError:
            raise GraphError(f"no out-degree prescribed for vertex {v!r}") from None
        degrees[v] = _integer(value, f"out-degree of vertex {v!r}")
    if sum(degrees.values()) != len(g.arcs):
        raise GraphError(
            f"out-degrees sum to {sum(degrees.values())} but the graph has {len(g.arcs)} edges"
        )
    reference, embedding = _reference_orientation(spec.embedding)
    excess = {v: degrees[v] - reference.out_degree(v) for v in reference.vertices}
    flows = encode_flows(
        FlowSpec(
            embedding,
            {a.id: 0 for a in reference.arcs},
            {a.id: 1 for a in reference.arcs},
            excess,
        ),
        unbounded_face,
    )
    return AlphaFamily(flows, reference)


def _reference_orientation(embedding: PlanarEmbedding) -> tuple[Multigraph, PlanarEmbedding]:
    """Redirect every arc from smaller to larger endpoint, remapping the
    rotation's tail/head tags on flipped arcs."""
    g = embedding.host
    flipped = set()
    arcs = []
    for a in g.arcs:
        if id_key(a.tail) > id_key(a.head):
            arcs.append(Arc(a.id, a.head, a.tail))
            flipped.add(a.id)
        else:
            arcs.append(a)
    oriented = Multigraph(g.vertices, arcs)
    rotation = {}
    for v, ring in embedding.rotation.items():
        entries = []
        for end in ring:
            if end.arc in flipped:
                entries.append(ArcEnd(end.arc, HEAD if end.end == TAIL else TAIL))
            else:
                entries.append(end)
        rotation[v] = tuple(entries)
    return oriented, PlanarEmbedding(oriented, rotation)


class PotentialFamily(Record):
    """Vertex potentials anchored at zero with per-arc difference windows.

    A potential assigns each vertex an integer with p(anchor) = 0 and
    lower(a) <= p(head) - p(tail) <= upper(a); these correspond to the
    bonds of the zero-reference system via x(a) = p(head) - p(tail).
    """

    system: BondSystem
    anchor: Hashable

    def decode(self, bond: Bond) -> dict:
        """Bond -> potential: the system's potential walk from the anchor,
        negated, since the reference is zero and x(a) = p(head) - p(tail)."""
        walked, arc_id = self.system._potential(bond.values)
        if arc_id is not None:
            raise GraphError(f"labeling has nonzero flow-difference around a cycle through {arc_id!r}")
        return {v: -q for v, q in walked.items()}

    def encode(self, potential: Mapping) -> Bond:
        if potential.get(self.anchor, 0) != 0:
            raise GraphError(f"potential must vanish at the anchor {self.anchor!r}")
        g = self.system.graph
        return Bond({a.id: potential[a.head] - potential[a.tail] for a in g.arcs})


def encode_potentials(graph: Multigraph, lower: Mapping, upper: Mapping, anchor) -> PotentialFamily:
    """Bond system whose bonds are the per-arc differences of potentials."""
    reference = {a.id: 0 for a in graph.arcs}
    system = BondSystem(graph, lower, upper, reference, anchor)
    return PotentialFamily(system, anchor)
