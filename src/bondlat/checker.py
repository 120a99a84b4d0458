"""Certification of arc-colored digraphs and brute-force poset analysis.

Two independent routes decide the same structural questions.  The axiomatic
route inspects a colored digraph locally: arcs leaving a vertex toward
distinct heads must carry distinct colors, and every such fork must close
into a diamond with the two colors swapped.  A finite, connected, acyclic
digraph with a unique source passing both checks has a transitive closure
that is an upper locally distributive (ULD) lattice-order; the reversed
digraph certifies the lower (LLD) side, and both together certify
distributivity.

The brute-force route takes an explicit finite poset and verifies the
lattice property, computes the meet-irreducibles, and checks that every
element is the meet of a unique inclusion-minimal set of meet-irreducibles,
producing small certificates when anything fails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .graph import GraphError, Multigraph, id_key

ULD = "uld"
LLD = "lld"


class PosetError(ValueError):
    """Input that is not the poset-like object an operation requires."""


@dataclass(frozen=True)
class ColoredDigraph:
    """A digraph together with a color on every arc."""

    graph: Multigraph
    colors: Mapping

    def __post_init__(self):
        for a in self.graph.arcs:
            if a.id not in self.colors:
                raise GraphError(f"arc {a.id!r} has no color")

    def color(self, arc_id):
        return self.colors[arc_id]

    def reversed(self) -> "ColoredDigraph":
        return ColoredDigraph(self.graph.reversed(), dict(self.colors))


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    witnesses: tuple

    def __bool__(self):
        return self.ok


def check_distinct_fork_colors(cd: ColoredDigraph) -> AxiomReport:
    """Arcs from one vertex to two distinct heads must differ in color.

    Parallel arcs to the same head may share a color.  Witnesses are
    (vertex, arc, arc, color) with the two offending arcs.
    """
    witnesses = []
    for v in cd.graph.vertices:
        by_color: dict = {}
        for arc in cd.graph.out_arcs(v):
            c = cd.colors[arc.id]
            if c in by_color:
                other = by_color[c]
                if other.head != arc.head:
                    witnesses.append((v, other.id, arc.id, c))
            else:
                by_color[c] = arc
    return AxiomReport(not witnesses, tuple(witnesses))


def check_fork_completion(cd: ColoredDigraph) -> AxiomReport:
    """Every two-colored fork must complete to a diamond with swapped colors.

    For arcs (v,u) and (v,w) with u != w there must be a vertex z carrying
    arcs (u,z) colored like (v,w) and (w,z) colored like (v,u).  Witnesses
    are incompletable forks (v, u, w).
    """
    witnesses = []
    for v in cd.graph.vertices:
        outs = cd.graph.out_arcs(v)
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                a, b = outs[i], outs[j]
                if a.head == b.head:
                    continue
                want_from_u = cd.colors[b.id]
                want_from_w = cd.colors[a.id]
                targets_u = {
                    arc.head for arc in cd.graph.out_arcs(a.head) if cd.colors[arc.id] == want_from_u
                }
                targets_w = {
                    arc.head for arc in cd.graph.out_arcs(b.head) if cd.colors[arc.id] == want_from_w
                }
                if not (targets_u & targets_w):
                    witness = (v, a.head, b.head)
                    if witness not in witnesses:
                        witnesses.append(witness)
    return AxiomReport(not witnesses, tuple(witnesses))


@dataclass(frozen=True)
class CoverVerdict:
    """Outcome of certifying a colored digraph as a ULD (or LLD) cover graph.

    `status` is one of "uld", "lld", "empty", "disconnected", "cyclic",
    "no unique source", "no unique sink", "fork coloring violated",
    "fork completion violated".

    On success `poset` is the transitive closure of the certified digraph
    as a FinitePoset; it is computed when `poset` is first read, so
    certification itself runs only the local checks.  It is None on failure.
    """

    status: str
    ok: bool
    witness: object = None
    closure: Callable[[], "FinitePoset"] | None = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return self.ok

    @cached_property
    def poset(self) -> "FinitePoset | None":
        return self.closure() if self.closure is not None else None


def _find_directed_cycle(g: Multigraph) -> list | None:
    """Depth-first search for a directed cycle, closed by its first vertex.

    An explicit stack of out-arc iterators replaces recursion, so paths of
    any length are searched without touching the interpreter's stack.
    """
    state = {v: 0 for v in g.vertices}  # 0 new, 1 open, 2 done
    for root in g.vertices:
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(g.out_arcs(root))]
        while pending:
            for arc in pending[-1]:
                w = arc.head
                if state[w] == 1:
                    return path[path.index(w):] + [w]
                if state[w] == 0:
                    state[w] = 1
                    path.append(w)
                    pending.append(iter(g.out_arcs(w)))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


def certify_uld_cover(cd: ColoredDigraph) -> CoverVerdict:
    """Run the full hypothesis chain; first failure wins.

    Every check is local to the digraph.  On success the verdict's `poset`
    is the transitive closure, ordered by "reachable along arcs"; it is
    computed when `poset` is first read.
    """
    g = cd.graph
    if not g.vertices:
        return CoverVerdict("empty", False)
    components = g.connected_components()
    if len(components) > 1:
        a = sorted(components[0], key=id_key)[0]
        b = sorted(components[1], key=id_key)[0]
        return CoverVerdict("disconnected", False, witness=(a, b))
    cycle = _find_directed_cycle(g)
    if cycle:
        return CoverVerdict("cyclic", False, witness=tuple(cycle))
    sources = [v for v in g.vertices if g.in_degree(v) == 0]
    if len(sources) != 1:
        return CoverVerdict("no unique source", False, witness=tuple(sources))
    fork = check_distinct_fork_colors(cd)
    if not fork:
        return CoverVerdict("fork coloring violated", False, witness=fork.witnesses)
    completion = check_fork_completion(cd)
    if not completion:
        return CoverVerdict("fork completion violated", False, witness=completion.witnesses)
    return CoverVerdict(ULD, True, closure=lambda: _closure_poset(g))


def certify_lld_cover(cd: ColoredDigraph) -> CoverVerdict:
    """Dual certification: the reversed digraph must be a ULD cover graph."""
    verdict = certify_uld_cover(cd.reversed())
    renames = {ULD: LLD, "no unique source": "no unique sink"}
    status = renames.get(verdict.status, verdict.status)
    closure = (lambda: verdict.poset.dual()) if verdict.ok else None
    return CoverVerdict(status, verdict.ok, verdict.witness, closure)


@dataclass(frozen=True)
class DistributiveVerdict:
    uld: CoverVerdict
    lld: CoverVerdict

    @property
    def distributive(self) -> bool:
        return self.uld.ok and self.lld.ok


def certify_distributive_cover(cd: ColoredDigraph) -> DistributiveVerdict:
    return DistributiveVerdict(certify_uld_cover(cd), certify_lld_cover(cd))


def _closure_poset(g: Multigraph) -> "FinitePoset":
    order = list(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    above = [1 << i for i in range(n)]
    # Kahn order, then propagate reachability bottom-up from the sinks.
    indeg = {v: g.in_degree(v) for v in order}
    queue = deque(v for v in order if indeg[v] == 0)
    topo = []
    while queue:
        v = queue.popleft()
        topo.append(v)
        for arc in g.out_arcs(v):
            indeg[arc.head] -= 1
            if indeg[arc.head] == 0:
                queue.append(arc.head)
    if len(topo) != n:
        raise PosetError("digraph has a directed cycle; no order closure exists")
    for v in reversed(topo):
        i = index[v]
        for arc in g.out_arcs(v):
            above[i] |= above[index[arc.head]]
    return FinitePoset(tuple(order), tuple(above))


class FinitePoset:
    """Explicit finite poset over labeled elements, stored as bitmasks.

    `above[i]` has bit j set when element i <= element j.
    """

    def __init__(self, labels: Sequence, above: Sequence[int]):
        self.labels = tuple(labels)
        self.above = tuple(above)
        n = len(self.labels)
        if len(self.above) != n:
            raise PosetError("labels and relation size differ")
        full = (1 << n) - 1
        for i, mask in enumerate(self.above):
            if mask & ~full:
                raise PosetError("relation mask references elements out of range")
            if not (mask >> i) & 1:
                raise PosetError(f"order must be reflexive; element {i} is not below itself")
        for i in range(n):
            m = self.above[i]
            j_bits = m
            while j_bits:
                j = (j_bits & -j_bits).bit_length() - 1
                j_bits &= j_bits - 1
                if i != j and (self.above[j] >> i) & 1:
                    raise PosetError(f"antisymmetry fails between elements {i} and {j}")
                if self.above[j] & ~m:
                    raise PosetError(f"transitivity fails through elements {i} and {j}")
        self.below = tuple(
            sum(1 << j for j in range(n) if (self.above[j] >> i) & 1) for i in range(n)
        )

    @classmethod
    def from_covers(cls, labels: Sequence, cover_pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Reflexive-transitive closure of cover arcs given as index pairs."""
        n = len(labels)
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for lo, hi in cover_pairs:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"cover ({lo}, {hi}) references elements out of range")
            succ[lo].append(hi)
            indeg[hi] += 1
        queue = deque(i for i in range(n) if indeg[i] == 0)
        topo = []
        while queue:
            i = queue.popleft()
            topo.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            raise PosetError("cover relation contains a directed cycle")
        above = [1 << i for i in range(n)]
        for i in reversed(topo):
            for j in succ[i]:
                above[i] |= above[j]
        return cls(labels, above)

    @property
    def n(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.labels, self.below)

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction as sorted (lower, upper) index pairs."""
        result = []
        for i in range(self.n):
            strict = self.above[i] & ~(1 << i)
            j_bits = strict
            while j_bits:
                j = (j_bits & -j_bits).bit_length() - 1
                j_bits &= j_bits - 1
                between = strict & self.below[j] & ~(1 << j)
                if between == 0:
                    result.append((i, j))
        return sorted(result)

    def upper_covers(self, i: int) -> list[int]:
        strict = self.above[i] & ~(1 << i)
        found = []
        j_bits = strict
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            if strict & self.below[j] & ~(1 << j) == 0:
                found.append(j)
        return found

    def _maximal_of(self, mask: int) -> list[int]:
        found = []
        j_bits = mask
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            if self.above[j] & mask == 1 << j:
                found.append(j)
        return found

    def _minimal_of(self, mask: int) -> list[int]:
        found = []
        j_bits = mask
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            if self.below[j] & mask == 1 << j:
                found.append(j)
        return found

    def meet(self, i: int, j: int) -> int | None:
        """Greatest lower bound index, or None when it does not exist."""
        common = self.below[i] & self.below[j]
        tops = self._maximal_of(common)
        return tops[0] if len(tops) == 1 else None

    def join(self, i: int, j: int) -> int | None:
        common = self.above[i] & self.above[j]
        bottoms = self._minimal_of(common)
        return bottoms[0] if len(bottoms) == 1 else None

    def meet_of_set(self, indices: Iterable[int]) -> int | None:
        mask = (1 << self.n) - 1
        for i in indices:
            mask &= self.below[i]
        if mask == 0:
            return None
        tops = self._maximal_of(mask)
        return tops[0] if len(tops) == 1 else None

    def maximal_lower_bounds(self, indices: Iterable[int]) -> list[int]:
        mask = (1 << self.n) - 1
        for i in indices:
            mask &= self.below[i]
        return self._maximal_of(mask)

    def meet_irreducible_indices(self) -> list[int]:
        return [i for i in range(self.n) if len(self.upper_covers(i)) == 1]


@dataclass(frozen=True)
class BruteReport:
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
    for i in range(p.n):
        for j in range(i + 1, p.n):
            if p.meet(i, j) is None:
                return BruteReport(False, (i, j, "meet"), (), False, None, None, None)
            if p.join(i, j) is None:
                return BruteReport(False, (i, j, "join"), (), False, None, None, None)
    irreducibles = tuple(p.meet_irreducible_indices())
    certificate = None
    for x in range(p.n):
        reps = _minimal_representations(p, x, irreducibles)
        if len(reps) > 1:
            certificate = (x, tuple(sorted(reps[0])), tuple(sorted(reps[1])))
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


def _minimal_representations(p: FinitePoset, x: int, irreducibles: tuple) -> list[frozenset]:
    candidates = [m for m in irreducibles if p.leq(x, m)]
    if len(candidates) > _BRUTE_SUBSET_LIMIT:
        raise PosetError(
            f"element {x} sits below {len(candidates)} meet-irreducibles; "
            f"brute representation search is limited to {_BRUTE_SUBSET_LIMIT}"
        )
    minimal: list[frozenset] = []
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            combo = frozenset(subset)
            if any(known <= combo for known in minimal):
                continue
            if p.meet_of_set(combo) == x:
                minimal.append(combo)
    return minimal


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


@dataclass(frozen=True)
class ColorTrace:
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
