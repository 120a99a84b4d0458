"""Cover-digraph generation for bond systems, colorset coordinates, and
recoloring of abstract finite lattices by meet-irreducibles.

Enumeration walks legal single-vertex pushes breadth-first from the
minimum bond.  Every cover raises the total push count by exactly one, so
discovery layers coincide with rank; within a layer elements are ordered
lexicographically by bond values, which makes the output canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .bonds import Bond, BondSystem
from .checker import (
    BruteReport,
    ColoredDigraph,
    FinitePoset,
    PosetError,
    brute_uld,
    topological_order,
)
from .graph import id_key


class CapExceededError(RuntimeError):
    """Enumeration stopped early; carries the partial element count."""

    def __init__(self, explored: int, cap: int):
        super().__init__(
            f"enumeration exceeded the cap of {cap} elements ({explored} found so far)"
        )
        self.explored = explored
        self.cap = cap


class NotLatticeError(PosetError):
    """Cover digraph whose closure is not a lattice; witness attached."""

    def __init__(self, witness):
        i, j, kind = witness
        super().__init__(f"elements {i} and {j} have no {kind}; not a lattice")
        self.witness = witness


class NotUldError(PosetError):
    """Lattice in which some element has two minimal meet-representations."""

    def __init__(self, certificate):
        x, rep_a, rep_b = certificate
        super().__init__(
            f"element {x} has two minimal meet-representations {rep_a} and {rep_b}; not ULD"
        )
        self.certificate = certificate


@dataclass(frozen=True)
class ColorTally:
    """Multiset of cover colors collected along any source-to-element path."""

    multiplicities: Mapping

    def count(self, color) -> int:
        return self.multiplicities.get(color, 0)

    def with_color(self, color) -> "ColorTally":
        bumped = dict(self.multiplicities)
        bumped[color] = bumped.get(color, 0) + 1
        return ColorTally(bumped)

    def dominates(self, other: "ColorTally") -> bool:
        return all(self.count(c) >= n for c, n in other.multiplicities.items())

    def join(self, other: "ColorTally") -> "ColorTally":
        colors = set(self.multiplicities) | set(other.multiplicities)
        return ColorTally({c: max(self.count(c), other.count(c)) for c in colors})

    def as_tuple(self, color_order: Iterable) -> tuple:
        return tuple(self.count(c) for c in color_order)

    def __eq__(self, other):
        if not isinstance(other, ColorTally):
            return NotImplemented
        mine = {c: n for c, n in self.multiplicities.items() if n}
        theirs = {c: n for c, n in other.multiplicities.items() if n}
        return mine == theirs


class CoverDigraph:
    """Indexed elements with colored cover arcs (lower, upper, color)."""

    def __init__(self, elements: Sequence, covers: Iterable[tuple[int, int, Hashable]]):
        self.elements = tuple(elements)
        n = len(self.elements)
        normalized = []
        for lo, hi, color in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo}, {hi}) references elements out of range")
            if lo == hi:
                raise PosetError(f"cover ({lo}, {hi}) is a self-loop")
            normalized.append((lo, hi, color))
        self.covers = tuple(sorted(normalized, key=lambda c: (c[0], c[1], id_key(c[2]))))
        self._up: list[list[tuple[int, Hashable]]] = [[] for _ in range(n)]
        self._down: list[list[tuple[int, Hashable]]] = [[] for _ in range(n)]
        for lo, hi, color in self.covers:
            self._up[lo].append((hi, color))
            self._down[hi].append((lo, color))

    @property
    def n(self) -> int:
        return len(self.elements)

    def upper_covers(self, i: int) -> list[tuple[int, Hashable]]:
        return list(self._up[i])

    def lower_covers(self, i: int) -> list[tuple[int, Hashable]]:
        return list(self._down[i])

    def source_index(self) -> int:
        sources = [i for i in range(self.n) if not self._down[i]]
        if len(sources) != 1:
            raise PosetError(f"expected a unique source, found {len(sources)}")
        return sources[0]

    def sink_index(self) -> int:
        sinks = [i for i in range(self.n) if not self._up[i]]
        if len(sinks) != 1:
            raise PosetError(f"expected a unique sink, found {len(sinks)}")
        return sinks[0]

    def colors(self) -> list:
        return sorted({c for _, _, c in self.covers}, key=id_key)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The covers with colors stripped."""
        return [(lo, hi) for lo, hi, _ in self.covers]

    def to_poset(self) -> FinitePoset:
        return FinitePoset.from_covers(tuple(range(self.n)), self.cover_pairs())

    def to_colored_digraph(self) -> ColoredDigraph:
        return ColoredDigraph.from_triples(self.n, self.covers)


def enumerate_lattice(system: BondSystem, cap: int = 1_000_000) -> CoverDigraph:
    """All bonds of a reduced feasible system, as a colored cover digraph.

    Covers are single-vertex pushes colored by the pushed vertex.  Raises
    CapExceededError past `cap` elements, GraphError on rigid arcs.
    """
    minimum = system.minimum_bond()  # also enforces reducedness
    arc_order = [a.id for a in system.graph.arcs]

    def key_of(b: Bond) -> tuple:
        return b.as_tuple(arc_order)

    elements: list[Bond] = [minimum]
    index: dict[tuple, int] = {key_of(minimum): 0}
    covers: list[tuple[int, int, Hashable]] = []
    layer = [0]
    while layer:
        discovered: dict[tuple, Bond] = {}
        pending: list[tuple[int, tuple, Hashable]] = []
        for i in layer:
            x = elements[i]
            for v in system.pushable_vertices():
                if system._legal_vertex_push(x, v):
                    y = system._apply_vertex_push(x, v)
                    k = key_of(y)
                    pending.append((i, k, v))
                    if k not in index:
                        discovered[k] = y
        fresh = sorted(discovered)
        if len(elements) + len(fresh) > cap:
            raise CapExceededError(len(elements) + len(fresh), cap)
        for k in fresh:
            index[k] = len(elements)
            elements.append(discovered[k])
        covers.extend((i, index[k], v) for i, k, v in pending)
        layer = [index[k] for k in fresh]
    return CoverDigraph(elements, covers)


class TallyError(PosetError):
    """Path-dependent colorsets: the digraph is not a certified cover graph."""


def color_tallies(cd: CoverDigraph) -> list[ColorTally]:
    """Colorset coordinates of every element, verified path-independent.

    Every incoming cover of an element must predict the same multiset;
    a disagreement raises TallyError naming the element and two parents.
    """
    order = topological_order([[j for j, _ in cd.upper_covers(i)] for i in range(cd.n)])
    if order is None:
        raise PosetError("cover digraph contains a directed cycle")
    vectors: list[ColorTally | None] = [None] * cd.n
    src = cd.source_index()
    vectors[src] = ColorTally({})
    for i in order:
        for j, color in cd.upper_covers(i):
            candidate = vectors[i].with_color(color)
            if vectors[j] is None:
                vectors[j] = candidate
            elif vectors[j] != candidate:
                raise TallyError(
                    f"element {j} gets different colorsets along different paths "
                    f"(via cover from {i})"
                )
    if any(v is None for v in vectors):
        raise TallyError("some element is unreachable from the source")
    return vectors  # type: ignore[return-value]


def meet_irreducible_indices(cd: CoverDigraph) -> list[int]:
    """Elements with exactly one upper cover."""
    return [i for i in range(cd.n) if len(cd.upper_covers(i)) == 1]


def minimal_representation(cd: CoverDigraph, i: int) -> frozenset[int]:
    """The canonical minimal set of meet-irreducibles whose meet is element i.

    For each color leaving i, the unique maximal element sharing i's count of
    that color is meet-irreducible; those elements form the representation.
    The result is verified against a brute-force order meet.
    """
    vectors = color_tallies(cd)
    poset = cd.to_poset()
    rep = set()
    for _, color in cd.upper_covers(i):
        stalled = [
            j
            for j in range(cd.n)
            if poset.leq(i, j) and vectors[j].count(color) == vectors[i].count(color)
        ]
        mask = 0
        for j in stalled:
            mask |= 1 << j
        tops = poset._maximal_of(mask)
        if len(tops) != 1:
            raise TallyError(
                f"color {color!r} above element {i} has {len(tops)} maximal stalls; "
                "digraph is not a certified cover graph"
            )
        rep.add(tops[0])
    verified = poset.meet_of_set(rep) if rep else cd.sink_index()
    if verified != i:
        raise TallyError(
            f"representation of element {i} meets to {verified}; digraph is not a "
            "certified cover graph"
        )
    return frozenset(rep)


def canonical_uld_coloring(elements: Sequence, cover_pairs: Iterable[tuple[int, int]]) -> CoverDigraph:
    """Color an uncolored finite-lattice cover digraph by meet-irreducibles.

    Each cover (x, y) is colored by the unique meet-irreducible above x but
    not above y (as an element index).  Raises NotLatticeError or
    NotUldError with certificates when the input does not qualify, and
    PosetError when the arcs are not the transitive reduction.
    """
    pairs = sorted(set((lo, hi) for lo, hi in cover_pairs))
    poset = FinitePoset.from_covers(tuple(range(len(elements))), pairs)
    if sorted(poset.covers()) != pairs:
        extra = next(p for p in pairs if p not in set(poset.covers()))
        raise PosetError(f"arc {extra} is a shortcut, not a cover; input must be a cover digraph")
    report: BruteReport = brute_uld(poset)
    if not report.is_lattice:
        raise NotLatticeError(report.lattice_witness)
    if not report.is_uld:
        raise NotUldError(report.uld_certificate)
    mi_masks = []
    for x in range(poset.n):
        mask = 0
        for m in report.meet_irreducibles:
            if poset.leq(x, m):
                mask |= 1 << m
        mi_masks.append(mask)
    covers = []
    for lo, hi in pairs:
        lost = mi_masks[lo] & ~mi_masks[hi]
        if lost == 0 or lost & (lost - 1):
            raise PosetError(
                f"cover ({lo}, {hi}) loses {bin(lost).count('1')} meet-irreducibles; "
                "expected exactly one"
            )
        covers.append((lo, hi, lost.bit_length() - 1))
    return CoverDigraph(elements, covers)
