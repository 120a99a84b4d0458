"""Certification of arc-colored digraphs and analysis of explicit finite posets.

Two independent routes decide the same structural questions.  The axiomatic
route inspects a colored digraph locally: arcs leaving a vertex toward
distinct heads must carry distinct colors, and every such fork must close
into a diamond with the two colors swapped.  A finite, connected, acyclic
digraph with a unique source passing both checks has a transitive closure
that is an upper locally distributive (ULD) lattice-order; the reversed
digraph certifies the lower (LLD) side, and both together certify
distributivity.  Every check walks the arc lists of one index
(`ColoredDigraph.out` / `into`) of (tail, head, color) triples, the very
covers or moves given, through a `far` slot, the slot of the end it walks
to: ULD reads `out` toward heads, and LLD and the chip-game firing tallies
read `into` toward tails, with no reversed copy.  One Kahn pass per side,
kept by the index, settles the structure; the ordered checks that name the
first failure run only when it fails.

The poset route takes an explicit finite poset, verifies the lattice
property and decides whether every element is the meet of a unique
inclusion-minimal set of meet-irreducibles.  With E_y the meet-irreducibles
above x but not above an upper cover y of x, a set of meet-irreducibles
above x has x as a maximal lower bound exactly when it meets every E_y.  So
x has no such minimal set when some E_y is empty, and exactly one when every
inclusion-minimal E_y is a single element.  A subset search runs only at an
element with several, to name two of them as the certificate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, reduce
from itertools import combinations
from operator import itemgetter, or_

from .graph import Arc, GraphError, Multigraph, Record, forest, id_key

ULD = "uld"
LLD = "lld"
_first, _second = itemgetter(0), itemgetter(1)


class PosetError(ValueError):
    """Input that is not the poset-like object an operation requires."""


class TallyError(PosetError):
    """Path-dependent colorsets: the digraph is not a certified cover graph.

    When two paths disagree, `witness` is (element, tally, other tally) with
    the tallies as `Counter`s; it is None for the other failures.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ColoredDigraph:
    """A digraph together with a color on every arc, in an indexed form.

    Every check reads the indexed form: `labels` are the vertices in
    `graph.vertices` order, `arcs` are (tail index, head index, color) in
    ascending `id_key` order of `ids`, the arc ids, and `out[i]` / `into[i]`
    list the arcs leaving / entering vertex i in that order.  `from_triples`
    keeps the triples it is given, with ids 0..m-1, and builds `graph` and
    `colors` when first read.  It alone reads the structure: each side's
    Kahn order `order(far)`, fork tables `forks(far)`, `end(far)` and
    `tallies(far)`, and the `closure`, built once from `order(1)`.
    `FinitePoset.from_covers` indexes its cover pairs the same way and
    returns that closure.
    """

    def __init__(self, graph: Multigraph, colors: Mapping):
        for a in graph.arcs:
            if a.id not in colors:
                raise GraphError(f"arc {a.id!r} has no color")
        index = graph.index
        arcs = graph.arcs_by_id
        triples = tuple((index[a.tail], index[a.head], colors[a.id]) for a in arcs)
        self._index(graph.vertices, triples, tuple(a.id for a in arcs))
        self.graph, self.colors = graph, colors

    def _index(self, labels: Sequence, arcs: tuple, ids: Sequence):
        self.labels, self.arcs, self.ids = tuple(labels), arcs, ids
        self.out: list[list[tuple]] = [[] for _ in self.labels]
        self.into: list[list[tuple]] = [[] for _ in self.labels]
        for arc in arcs:
            self.out[arc[0]].append(arc)
            self.into[arc[1]].append(arc)
        self._orders: dict = {}
        self._forks: dict = {}

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, Hashable]]) -> "ColoredDigraph":
        """Digraph on 0..n-1 whose arc k is the k-th (tail, head, color) triple;
        the ends are range-checked in bulk, and arc by arc only to name a fault."""
        arcs = tuple(triples)
        ends = [*map(_first, arcs), *map(_second, arcs)]
        if ends and (min(ends) < 0 or max(ends) >= n):
            for k, (tail, head, _) in enumerate(arcs):
                if not (0 <= tail < n and 0 <= head < n):
                    raise GraphError(f"arc {k!r} references unknown vertex {tail!r} or {head!r}")
        cd = cls.__new__(cls)
        cd._index(range(n), arcs, range(len(arcs)))
        return cd

    @cached_property
    def graph(self) -> Multigraph:
        labels = self.labels
        return Multigraph(labels, [Arc(k, labels[t], labels[h]) for k, (t, h, _) in zip(self.ids, self.arcs)])

    @cached_property
    def colors(self) -> dict:
        return {k: arc[2] for k, arc in zip(self.ids, self.arcs)}

    def order(self, far: int = 1) -> list[int] | None:
        """Kahn's order along `out` (far 1) or `into` (far 0), made once, or
        None on a directed cycle.  A FIFO queue starts from the vertices with
        no arc behind them, in index order, and each vertex releases the far
        ends of its arcs in list order, so the order is deterministic.  A
        vertex's in-degree is the length of its list on the other side."""
        if far not in self._orders:
            ahead, behind = (self.out, self.into) if far else (self.into, self.out)
            indeg = list(map(len, behind))
            order = [i for i, d in enumerate(indeg) if not d]
            for i in order:  # the list is the queue: released vertices join its tail
                for arc in ahead[i]:
                    j = arc[far]
                    indeg[j] -= 1
                    if not indeg[j]:
                        order.append(j)
            self._orders[far] = order if len(order) == len(indeg) else None
        return self._orders[far]

    def forks(self, far: int = 1) -> list[dict]:
        """Each vertex's `color -> far ends` table over its `out` (far 1) or
        `into` (far 0) list, the ends in list order; made once per side."""
        if far not in self._forks:
            tables = self._forks[far] = []
            for arcs in self.out if far else self.into:
                table: dict = {}
                for arc in arcs:
                    table.setdefault(arc[2], []).append(arc[far])
                tables.append(table)
        return self._forks[far]

    def end(self, far: int = 1) -> int:
        """The unique source (far 1) or sink (far 0): the one vertex with no
        arc behind it."""
        ends = [i for i, arcs in enumerate(self.into if far else self.out) if not arcs]
        if len(ends) != 1:
            raise PosetError(f"expected a unique {'source' if far else 'sink'}, found {len(ends)}")
        return ends[0]

    @cached_property
    def closure(self) -> "FinitePoset":
        """The reflexive-transitive closure over `labels`, built on first read
        from `order(1)`: each vertex's up-set is itself and the up-sets of its
        heads, taken in reversed order, and its down-set is itself and the
        down-sets of its tails, taken in order."""
        order = self.order(1)
        if order is None:
            raise PosetError("cover relation contains a directed cycle")
        above = [1 << i for i in range(len(self.labels))]
        below = above[:]
        for i in reversed(order):
            for arc in self.out[i]:
                above[i] |= above[arc[1]]
        for i in order:
            for arc in self.into[i]:
                below[i] |= below[arc[0]]
        heads = [list(map(_second, arcs)) for arcs in self.out]
        tails = [list(map(_first, arcs)) for arcs in self.into]
        return FinitePoset(self.labels, above, below, heads, tails)

    def tallies(self, far: int = 1) -> tuple[tuple, list[tuple]]:
        """The colors in first-seen arc order, and each vertex's count tuple
        over them, walked from `end(far)` in `order(far)`: far 0 walks `into`
        from the sink, which gives a chip game's firing multisets.  Every arc
        into a vertex must predict the same counts; a disagreement raises
        TallyError naming the vertex and one parent."""
        ahead = self.out if far else self.into
        order = self.order(far)
        if order is None:
            raise PosetError("cover digraph contains a directed cycle")
        slot = {c: k for k, c in enumerate(dict.fromkeys(arc[2] for arc in self.arcs))}
        counts: list[tuple | None] = [None] * len(ahead)
        counts[self.end(far)] = (0,) * len(slot)
        ends = itemgetter(far, 2)
        for i in order:
            t = counts[i]
            for j, color in map(ends, ahead[i]):
                k = slot[color]
                candidate = t[:k] + (t[k] + 1,) + t[k + 1 :]
                if counts[j] is None:
                    counts[j] = candidate
                elif counts[j] != candidate:
                    raise TallyError(
                        f"element {j} gets different colorsets along different paths "
                        f"(via cover from {i})",
                        (j, _tally(slot, counts[j]), _tally(slot, candidate)),
                    )
        return tuple(slot), counts


def _tally(colors: Iterable, counts: tuple) -> Counter:
    return Counter({c: n for c, n in zip(colors, counts) if n})


class AxiomReport(Record):
    ok: bool
    witnesses: tuple

    def __bool__(self):
        return self.ok


def check_distinct_fork_colors(cd: ColoredDigraph, far: int = 1) -> AxiomReport:
    """Arcs from one vertex to two distinct heads must differ in color.

    Parallel arcs to the same head may share a color.  Witnesses are
    (vertex, arc id, arc id, color) with the two offending arcs.  Far 0
    checks the reversed digraph: `into` lists, with tails as heads.  A
    failing vertex's arcs are named by position, as one triple may be two.
    A vertex with as many colors as arcs in its `forks` table passes as is.
    """
    tables = zip(cd.out if far else cd.into, cd.forks(far))
    if all(len(table) == len(arcs) or all(e.count(e[0]) == len(e) for e in table.values()) for arcs, table in tables):
        return AxiomReport(True, ())
    arcs, first, failing = cd.arcs, {}, []
    for k, arc in enumerate(arcs):  # arc k fails against arc j, its color's first at its vertex
        i = arc[1 - far]
        j = first.setdefault((i, arc[2]), k)
        if arcs[j][far] != arc[far]:
            failing.append((i, k, j))
    witnesses = [(cd.labels[i], cd.ids[j], cd.ids[k], arcs[k][2]) for i, k, j in sorted(failing)]
    return AxiomReport(False, tuple(witnesses))


def check_fork_completion(cd: ColoredDigraph, far: int = 1) -> AxiomReport:
    """Every two-colored fork must complete to a diamond with swapped colors.

    For arcs (v,u) and (v,w) with u != w there must be a vertex z carrying
    arcs (u,z) colored like (v,w) and (w,z) colored like (v,u).  Witnesses
    are incompletable forks (v, u, w); far 0 checks the reversed digraph.
    The `forks` tables keep every far end, so forks with repeated colors
    are judged exactly too.
    """
    arc_lists = cd.out if far else cd.into
    heads_by_color = cd.forks(far)
    labels = cd.labels
    witnesses: dict = {}  # insertion-ordered set
    for v, arcs in enumerate(arc_lists):
        for i, arc in enumerate(arcs):
            u, cu = arc[far], arc[2]
            from_u = heads_by_color[u]
            for other in arcs[i + 1:]:
                w = other[far]
                if u == w:
                    continue
                from_w = heads_by_color[w].get(cu, ())
                for z in from_u.get(other[2], ()):
                    if z in from_w:
                        break
                else:
                    witnesses[(labels[v], labels[u], labels[w])] = None
    return AxiomReport(not witnesses, tuple(witnesses))


class CoverVerdict(Record):
    """Outcome of certifying a colored digraph as a ULD (or LLD) cover graph.

    `status` is one of "uld", "lld", "empty", "disconnected", "cyclic",
    "no unique source", "no unique sink", "fork coloring violated",
    "fork completion violated".  It holds no closure: a caller that wants
    one reads the certified digraph's `closure`.
    """

    status: str
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def _find_directed_cycle(arc_lists: Sequence[Sequence[tuple]], far: int = 1) -> list[int] | None:
    """Depth-first search for a directed cycle, closed by its first vertex.

    `arc_lists[i]` lists the arcs walked from vertex i, and slot `far` of
    each is the vertex it reaches; the cycle is a list of vertex indices.
    An explicit stack of arc iterators replaces recursion, so paths of any
    length are searched without touching the interpreter's stack.
    """
    state = [0] * len(arc_lists)  # 0 new, 1 open, 2 done
    for root in range(len(arc_lists)):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(arc_lists[root])]
        while pending:
            for arc in pending[-1]:
                w = arc[far]
                if state[w] == 1:
                    return path[path.index(w):] + [w]
                if state[w] == 0:
                    state[w] = 1
                    path.append(w)
                    pending.append(iter(arc_lists[w]))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


def certify_uld_cover(cd: ColoredDigraph) -> CoverVerdict:
    """Run the full hypothesis chain on the `out` lists; first failure wins."""
    return _certify_cover(cd, 1)


def certify_lld_cover(cd: ColoredDigraph) -> CoverVerdict:
    """Dual certification: the chain on the reversed digraph, read from
    the `into` lists."""
    return _certify_cover(cd, 0)


def _certify_cover(cd: ColoredDigraph, far: int) -> CoverVerdict:
    """The ULD chain on `cd` (far 1) or on its reversal (far 0).  If Kahn
    orders every vertex and one has no arc behind it, that source reaches
    all, so the digraph is connected; otherwise connectivity (one union-find
    `forest` pass), cycles and sources are searched for in turn to name the
    first failure.  Both sides read the forward order: a digraph is acyclic
    exactly when its reversal is."""
    labels = cd.labels
    if not labels:
        return CoverVerdict("empty", False)
    ahead, behind = (cd.out, cd.into) if far else (cd.into, cd.out)
    order = cd.order(1)
    if order is None or behind.count([]) != 1:
        roots = forest(len(labels), zip(map(_first, cd.arcs), map(_second, cd.arcs)))[1]
        stranded = next((i for i, root in enumerate(roots) if root != roots[0]), None)
        if stranded is not None:
            return CoverVerdict("disconnected", False, witness=(labels[0], labels[stranded]))
        if order is None:
            cycle = _find_directed_cycle(ahead, far)
            return CoverVerdict("cyclic", False, witness=tuple(labels[i] for i in cycle))
        ends = tuple(v for v, arcs in zip(labels, behind) if not arcs)
        return CoverVerdict("no unique source" if far else "no unique sink", False, witness=ends)
    fork = check_distinct_fork_colors(cd, far)
    if not fork:
        return CoverVerdict("fork coloring violated", False, witness=fork.witnesses)
    completion = check_fork_completion(cd, far)
    if not completion:
        return CoverVerdict("fork completion violated", False, witness=completion.witnesses)
    return CoverVerdict(ULD if far else LLD, True)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Explicit finite poset over labeled elements, stored as bitmasks.

    `above[i]` has bit j set when element i <= element j, and `below[i]`
    bit j when j <= i.  Both are built from one Kahn order by
    `ColoredDigraph.closure`, which `from_covers` returns for cover pairs.
    `heads[i]` / `tails[i]` are the far ends of the generating arcs leaving
    / entering i; nothing lies between i and a cover, so its covers are heads.
    """

    def __init__(self, labels: Sequence, above: Sequence[int], below: Sequence[int], heads: list, tails: list):
        self.labels, self.above, self.below = tuple(labels), tuple(above), tuple(below)
        self.heads, self.tails = heads, tails

    @classmethod
    def from_covers(cls, labels: Sequence, cover_pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Reflexive-transitive closure of cover arcs given as index pairs."""
        n = len(labels)
        arcs = []
        for lo, hi in cover_pairs:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo}, {hi}) references elements out of range")
            arcs.append((lo, hi, None))
        cd = ColoredDigraph.__new__(ColoredDigraph)
        cd._index(labels, tuple(arcs), range(len(arcs)))
        return cd.closure

    @property
    def n(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.labels, self.below, self.above, self.tails, self.heads)

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction as sorted (lower, upper) index pairs."""
        return [(i, j) for i in range(self.n) for j in self.upper_covers(i)]

    def upper_covers(self, i: int) -> list[int]:
        return self._minimal_of(reduce(or_, (1 << j for j in self.heads[i]), 0))

    def _maximal_of(self, mask: int) -> list[int]:
        return [j for j in _bits(mask) if self.above[j] & mask == 1 << j]

    def _minimal_of(self, mask: int) -> list[int]:
        return [j for j in _bits(mask) if self.below[j] & mask == 1 << j]

    def meet(self, i: int, j: int) -> int | None:
        """Greatest lower bound index, or None when it does not exist."""
        return self.meet_of_set((i, j))

    def join(self, i: int, j: int) -> int | None:
        common = self.above[i] & self.above[j]
        bottoms = self._minimal_of(common)
        return bottoms[0] if len(bottoms) == 1 else None

    def meet_of_set(self, indices: Iterable[int]) -> int | None:
        tops = self.maximal_lower_bounds(indices)
        return tops[0] if len(tops) == 1 else None

    def maximal_lower_bounds(self, indices: Iterable[int]) -> list[int]:
        mask = (1 << self.n) - 1
        for i in indices:
            mask &= self.below[i]
        return self._maximal_of(mask)

    def meet_irreducible_indices(self) -> list[int]:
        return [i for i in range(self.n) if len(self.upper_covers(i)) == 1]


class BruteReport(Record):
    """Exhaustive order-theoretic analysis of a finite poset."""

    is_lattice: bool
    lattice_witness: object          # (i, j, "meet"/"join") or None
    meet_irreducibles: tuple
    is_uld: bool
    uld_certificate: object          # (element, rep A, rep B) as index tuples, or None
    is_distributive: bool | None     # None when not checked (too large or no lattice)
    distributive_witness: object     # (x, y, z) indices or None


_BRUTE_SUBSET_LIMIT = 18
_DISTRIBUTIVE_SIZE_LIMIT = 60


def brute_uld(p: FinitePoset) -> BruteReport:
    """Decide lattice-ness and unique minimal meet-representations directly.

    Every element must be the meet of a unique inclusion-minimal subset of
    the meet-irreducibles above it; a failure is certified by the element
    together with two incomparable minimal representing subsets.
    """
    if p.n == 0:
        return BruteReport(False, "empty", (), False, None, None, None)
    # Two elements have a meet exactly when their common down-set is one
    # element's down-set, and a join when their common up-set is one
    # element's: one set lookup each, tried only for incomparable j > i.
    downs, ups, full = set(p.below), set(p.above), (1 << p.n) - 1
    for i in range(p.n):
        for j in _bits(full & -(2 << i) & ~(p.above[i] | p.below[i])):
            if (p.below[i] & p.below[j]) not in downs:
                return BruteReport(False, (i, j, "meet"), (), False, None, None, None)
            if (p.above[i] & p.above[j]) not in ups:
                return BruteReport(False, (i, j, "join"), (), False, None, None, None)
    irreducibles = tuple(p.meet_irreducible_indices())
    mask = sum(1 << m for m in irreducibles)
    certificate = None
    for x in range(p.n):
        reps = meet_representations(p, x, mask)
        if len(reps) > 1:
            certificate = (x, *reps)
            break
    is_distributive: bool | None = None
    witness = None
    if p.n <= _DISTRIBUTIVE_SIZE_LIMIT:
        is_distributive, witness = check_distributive(p)
    return BruteReport(
        True,
        None,
        irreducibles,
        certificate is None,
        certificate,
        is_distributive,
        witness,
    )


def lost_irreducibles(p: FinitePoset, x: int, irreducibles: int) -> dict[int, int]:
    """Map each upper cover y of x to the bitmask E_y of the elements of
    `irreducibles` (a bitmask) above x but not above y."""
    mine = p.above[x] & irreducibles
    return {y: mine & ~p.above[y] for y in p.upper_covers(x)}


def meet_representations(p: FinitePoset, x: int, irreducibles: int) -> tuple:
    """The minimal sets of elements of `irreducibles` (a bitmask) above x
    that have x as a maximal lower bound, as ascending index tuples.

    They are the minimal transversals of the `lost_irreducibles` masks:
    none when a mask is empty, one when every mask holds a single-bit mask,
    and otherwise the first two by size and then lexicographically.  Only
    that last case searches subsets, of the union of the masks, which no
    minimal transversal leaves, so the pair is the one a search over all
    the meet-irreducibles above x would find.
    """
    lost = lost_irreducibles(p, x, irreducibles).values()
    singles = 0
    for e in lost:
        if e & (e - 1) == 0:
            singles |= e
    if all(e & singles for e in lost):
        return (tuple(_bits(singles)),)
    if not all(lost):
        return ()
    candidates = list(_bits(reduce(or_, lost)))
    if len(candidates) > _BRUTE_SUBSET_LIMIT:
        raise PosetError(
            f"element {x} sits below {len(candidates)} meet-irreducibles; "
            f"brute representation search is limited to {_BRUTE_SUBSET_LIMIT}"
        )
    found: list[int] = []
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            chosen = sum(1 << m for m in subset)
            if all(e & chosen for e in lost) and all(f & ~chosen for f in found):
                found.append(chosen)
                if len(found) == 2:
                    return tuple(_bits(found[0])), tuple(_bits(found[1]))


def check_distributive(p: FinitePoset) -> tuple[bool, object]:
    """Exhaustive triple check of meet-over-join distribution."""
    n = p.n
    meets = [[p.meet(i, j) for j in range(n)] for i in range(n)]
    joins = [[p.join(i, j) for j in range(n)] for i in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = meets[x][joins[y][z]]
                right = joins[meets[x][y]][meets[x][z]]
                if left != right:
                    return False, (x, y, z)
    return True, None


class ColorTrace(Record):
    """Replay of a colored arc chased along a directed path.

    `steps[i]` is (vertex, arm arc id): the arc with the traced color that
    leaves the i-th path vertex.  Case "a" runs the whole path; case "b"
    stops early because the path itself absorbs the color at `absorbed_at`.
    """

    case: str
    steps: tuple
    absorbed_at: int | None


class TraceError(ValueError):
    def __init__(self, vertex, arm_head, path_head):
        super().__init__(
            f"fork completion fails at {vertex!r} for heads {arm_head!r} and {path_head!r}"
        )
        self.fork = (vertex, arm_head, path_head)


def trace_color(cd: ColoredDigraph, arc_id, path: Sequence) -> ColorTrace:
    """Chase the color of `arc_id` along `path` (arc ids starting at its tail).

    At every path vertex the diamond completion supplies a next arm with the
    traced color; the chase ends either after the full path (case "a") or
    the moment an arm lands on the path itself, which happens exactly when a
    path arc carries the traced color (case "b").
    """
    g = cd.graph
    start_arc = g.arc(arc_id)
    target = cd.colors[arc_id]
    vertices = [start_arc.tail]
    for pid in path:
        arc = g.arc(pid)
        if arc.tail != vertices[-1]:
            raise GraphError(
                f"path arc {pid!r} starts at {arc.tail!r}, expected {vertices[-1]!r}"
            )
        vertices.append(arc.head)
    arm_head = start_arc.head
    arm_arc = start_arc.id
    steps = [(vertices[0], arm_arc)]
    for i, pid in enumerate(path):
        next_on_path = vertices[i + 1]
        if arm_head == next_on_path:
            return ColorTrace("b", tuple(steps), i)
        path_color = cd.colors[pid]
        choices = []
        for cand in g.out_arcs(next_on_path):
            if cd.colors[cand.id] != target:
                continue
            closing = [
                arm.id
                for arm in g.out_arcs(arm_head)
                if arm.head == cand.head and cd.colors[arm.id] == path_color
            ]
            if closing:
                choices.append(cand)
        if not choices:
            raise TraceError(vertices[i], arm_head, next_on_path)
        nxt = min(choices, key=lambda c: id_key(c.id))
        arm_head = nxt.head
        arm_arc = nxt.id
        steps.append((next_on_path, arm_arc))
    return ColorTrace("a", tuple(steps), None)
