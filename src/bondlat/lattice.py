"""Cover-digraph generation for bond systems, colorset coordinates, and
recoloring of abstract finite lattices by meet-irreducibles.

Enumeration walks legal single-vertex pushes breadth-first from the
minimum bond.  Every cover raises the total push count by exactly one, so
discovery layers coincide with rank; within a layer elements are ordered
lexicographically by bond values, which makes the output canonical.  The
walk packs each element into one int whose order is that lexicographic
order, so a push is one masked add and a sort per layer ranks the layer.

A `CoverDigraph` holds only its rows and covers; its one indexed
`ColoredDigraph` answers the structural questions (ends, closure, colour
tallies), and `color_tallies` builds the tallies' `Counter`s.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import count, cycle, repeat
from operator import add, eq, itemgetter, lt
from struct import Struct

from .bonds import Bond, BondSystem
from .checker import (
    ColoredDigraph,
    FinitePoset,
    PosetError,
    TallyError,
    _tally,
    brute_uld,
    lost_irreducibles,
    meet_representations,
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


class CoverDigraph:
    """Indexed elements with colored cover arcs (lower, upper, color).

    Given `arc_order`, the elements are bonds passed as tuples of their arc
    values in that order.  `vectors` keeps those tuples, and `elements`
    turns them into `Bond`s when first read.  The constructor checks and
    sorts the covers; `enumerate_lattice` builds through `_from_walk`, which
    does not, since the walk's covers are in range, loop-free and sorted.
    """

    def __init__(
        self,
        elements: Sequence,
        covers: Iterable[tuple[int, int, Hashable]],
        arc_order: Sequence | None = None,
    ):
        self.vectors = tuple(elements)
        self.arc_order = arc_order
        if arc_order is None:
            self.elements = self.vectors
        n = len(self.vectors)
        covers = tuple(map(tuple, covers))
        los = list(map(itemgetter(0), covers))
        his = list(map(itemgetter(1), covers))
        ends = los + his
        if ends and (min(ends) < 0 or max(ends) >= n or any(map(eq, los, his))):
            for lo, hi, _ in covers:
                if not (0 <= lo < n and 0 <= hi < n):
                    raise PosetError(f"cover ({lo}, {hi}) references elements out of range")
                if lo == hi:
                    raise PosetError(f"cover ({lo}, {hi}) is a self-loop")
        if not all(map(lt, zip(los, his), zip(los[1:], his[1:]))):
            covers = tuple(sorted(covers, key=lambda c: (c[0], c[1], id_key(c[2]))))
        self.covers = covers
        self._colored: ColoredDigraph | None = None

    @classmethod
    def _from_walk(cls, vectors: Iterable[tuple], covers: list, arc_order: tuple) -> "CoverDigraph":
        """The walk's digraph, unchecked: a cover joins rank r to rank r + 1 in
        layer order, so it is in range, no self-loop, and comes sorted."""
        cd = cls.__new__(cls)
        cd.vectors, cd.covers, cd.arc_order = tuple(vectors), tuple(covers), arc_order
        cd._colored = None
        return cd

    @cached_property
    def elements(self) -> tuple:
        """One `Bond` per vector, built on first read."""
        return tuple(Bond(dict(zip(self.arc_order, v))) for v in self.vectors)

    @property
    def n(self) -> int:
        return len(self.vectors)

    def value_rows(self, arc_order: Sequence, forced: Mapping | None = None) -> list[tuple]:
        """Each element's values on `arc_order`, taking arcs outside the
        lattice from `forced` (arc id -> the value it has in every bond)."""
        forced = forced or {}
        slot = {a: i for i, a in enumerate((*self.arc_order, *forced))}
        picks = [slot[a] for a in arc_order]
        fixed = tuple(forced.values())
        pick = itemgetter(*picks) if len(picks) > 1 else lambda row: tuple([row[i] for i in picks])
        return list(map(pick, (v + fixed for v in self.vectors)))

    def to_colored_digraph(self) -> ColoredDigraph:
        """The covers as one indexed `ColoredDigraph`, built on the first call
        and shared by every later walk over this digraph."""
        if self._colored is None:
            self._colored = ColoredDigraph.from_triples(self.n, self.covers)
        return self._colored


_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # field width in bits -> struct code


def enumerate_lattice(system: BondSystem, cap: int = 1_000_000) -> CoverDigraph:
    """All bonds of a reduced feasible system, as a colored cover digraph.

    Covers are single-vertex pushes colored by the pushed vertex.  A push of
    v is legal when no arc leaving v is at its upper bound and no arc
    entering v at its lower bound.  The walk packs each element into one
    int: arc k of graph arc order holds value - lower in a field of 8, 16,
    32 or 64 bits, arc 0 most significant, so int order is lexicographic
    bond order.  A window wider than the walk can reach within `cap` is
    narrowed to that reach first.  Adding v's addend sets a field's top
    (guard) bit exactly when an arc leaving v is at its upper bound or an
    arc entering v is above its lower bound, so with `mask` the guard bits
    of v's arcs, `(key + addend) & mask == want` tests the push and `key +
    delta` makes it.  Moves run in order of delta, so each layer's covers
    come out sorted.  The keys become arc
    value tuples once, at the end, by one `struct` unpack.  Raises
    CapExceededError past `cap` elements, GraphError on rigid arcs.
    """
    minimum = system.minimum_bond()  # also enforces reducedness
    arcs = system.graph.arcs
    arc_order = tuple(a.id for a in arcs)
    start = minimum.as_tuple(arc_order)
    # every element the walk reaches has rank <= max(cap, 1), so no arc
    # strays further than that from the minimum; 2**62 elements never fit
    reach = min(max(cap, 1), 1 << 62)
    lower, upper = system.lower, system.upper
    lows = [max(lower[a], x - reach) for a, x in zip(arc_order, start)]
    spans = [min(upper[a], x + reach) - low for a, x, low in zip(arc_order, start, lows)]
    widest = max(spans, default=0)
    width = next(w for w in _FIELD_CODES if widest <= 1 << (w - 1))
    top = 1 << (width - 1)
    move = {v: [0, 0, 0, 0] for v in system.pushable_vertices()}  # addend, mask, want, delta
    first = 0  # the minimum's key
    for a, x, low, span, s in zip(arcs, start, lows, spans, range(width * (len(arcs) - 1), -1, -width)):
        first += (x - low) << s
        for v, addend, want, step in ((a.tail, top - span, 0, 1), (a.head, top - 1, top, -1)):
            if v in move:  # a loop is rigid, so tail != head
                m = move[v]
                m[0] += addend << s
                m[1] |= top << s
                m[2] |= want << s
                m[3] += step << s
    moves = sorted(((*m, v) for v, m in move.items()), key=itemgetter(3))
    keys = [first]
    covers: list[tuple[int, int, Hashable]] = []
    layer = [first]
    while layer:
        pending = [
            (i, key + d, v)
            for i, key in enumerate(layer, len(keys) - len(layer))
            for plus, mask, want, d, v in moves
            if (key + plus) & mask == want
        ]
        layer = sorted(set(map(itemgetter(1), pending)))
        if len(keys) + len(layer) > cap:
            raise CapExceededError(len(keys) + len(layer), cap)
        index = dict(zip(layer, count(len(keys))))
        covers += [(i, index[y], v) for i, y, v in pending]
        keys += layer
    m, blob = len(arcs), b"".join(map(int.to_bytes, keys, repeat(len(arcs) * width // 8), repeat("big")))
    flat = Struct(f">{m * len(keys)}{_FIELD_CODES[width]}").unpack(blob)
    vectors = zip(*[map(add, flat, cycle(lows))] * m) if m else [()] * len(keys)
    return CoverDigraph._from_walk(vectors, covers, arc_order)


def color_tallies(cd: CoverDigraph | ColoredDigraph) -> list[Counter]:
    """Colorset coordinates of every element, verified path-independent:
    `Counter`s of `ColoredDigraph.tallies`, in first-seen arc order.  On a
    bond lattice the tallies are the push counts."""
    colored = cd.to_colored_digraph() if isinstance(cd, CoverDigraph) else cd
    colors, rows = colored.tallies()
    return [_tally(colors, t) for t in rows]


def meet_irreducible_indices(cd: CoverDigraph) -> list[int]:
    """Elements with exactly one upper cover."""
    return [i for i, outs in enumerate(cd.to_colored_digraph().out) if len(outs) == 1]


def minimal_representation(cd: CoverDigraph, i: int) -> frozenset[int]:
    """The unique minimal set of meet-irreducibles whose meet is element i.

    Decided by `meet_representations` on the closure of the covers.  Raises
    TallyError when i has none or several, which a certified cover graph
    never gives.
    """
    poset = cd.to_colored_digraph().closure
    reps = meet_representations(poset, i, sum(1 << m for m in meet_irreducible_indices(cd)))
    if len(reps) != 1 or poset.meet_of_set(reps[0]) != i:
        raise TallyError(
            f"element {i} is not the meet of a unique minimal set of meet-irreducibles; "
            "digraph is not a certified cover graph"
        )
    return frozenset(reps[0])


def canonical_uld_coloring(elements: Sequence, cover_pairs: Iterable[tuple[int, int]]) -> CoverDigraph:
    """Color an uncolored finite-lattice cover digraph by meet-irreducibles.

    Each cover (x, y) is colored by the unique meet-irreducible above x but
    not above y (as an element index).  Raises NotLatticeError or
    NotUldError with certificates when the input does not qualify, and
    PosetError when the arcs are not the transitive reduction.
    """
    pairs = sorted(set((lo, hi) for lo, hi in cover_pairs))
    poset = FinitePoset.from_covers(tuple(range(len(elements))), pairs)
    reduction = poset.covers()
    if reduction != pairs:
        extra = next(p for p in pairs if p not in set(reduction))
        raise PosetError(f"arc {extra} is a shortcut, not a cover; input must be a cover digraph")
    report = brute_uld(poset)
    if not report.is_lattice:
        raise NotLatticeError(report.lattice_witness)
    if not report.is_uld:
        raise NotUldError(report.uld_certificate)
    irreducibles = sum(1 << m for m in report.meet_irreducibles)
    covers = []
    for lo in range(poset.n):
        for hi, lost in lost_irreducibles(poset, lo, irreducibles).items():
            if lost == 0 or lost & (lost - 1):
                raise PosetError(
                    f"cover ({lo}, {hi}) loses {bin(lost).count('1')} meet-irreducibles; "
                    "expected exactly one"
                )
            covers.append((lo, hi, lost.bit_length() - 1))
    return CoverDigraph(elements, covers)
