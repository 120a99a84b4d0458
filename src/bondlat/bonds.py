"""Bond systems: integer arc labelings confined to per-arc capacity windows
whose flow-difference around every cycle matches a reference labeling.

A labeling x qualifies as a bond when c_lower(a) <= x(a) <= c_upper(a) on
every arc and, on every cycle, the sum over forward arcs minus the sum over
backward arcs equals the same signed sum of the reference labeling.
Checking a fundamental-cycle basis suffices; the basis comes from the
deterministic spanning tree.

Anything with matching cycle sums differs from the reference by a potential:
x(a) = reference(a) + p(tail) - p(head).  Feasibility therefore reduces to
difference constraints solved by Bellman-Ford over a constraint graph with
two edges per arc, and a negative cycle maps back to a cycle of the
multigraph whose capacity window cannot accommodate the required sum.

The bond set is ordered by pushes: adding one unit on the arcs leaving a
vertex set and removing one on the arcs entering it.  With a designated
forbidden vertex excluded from pushing, single-vertex pushes generate the
order whenever no arc is rigid (equal value in every bond); rigid arcs are
removed by `reduce`, which contracts them and remembers their forced values.

A push raises p on the pushed set, so with p(forbidden) = 0 the order is
the componentwise order on p, and meet and join are the pointwise min and
max.  Within a rigid class p moves by one constant, so these hold reduced
or not.  An arc is rigid exactly when its ends lie on one zero-weight cycle
of the constraint graph.  The minimum bond is x(a) = reference(a) -
d(tail, f) + d(head, f), with d the shortest constraint-graph distance and
f the forbidden vertex.

Costs, for n vertices and m arcs.  Building a system reads each window table
in one bulk pass, O(m).  A bond's p comes from one walk over the search plan
from f, O(m), so `leq`, `meet`, `join` and a passing `check_bond` are O(m)
on any feasible system, with no distance pass and no cycle basis; only a
failing labeling builds the basis, for its report.  Distances come from a
FIFO-queue Bellman-Ford pass, linear on trees and O(n m) at worst; a cycle
of its parent links proves a negative cycle, and the certificate's
arc-order pass costs O(m) a round until its state repeats, O(n m) at
worst.  `initial_bond` (`find-bond`) costs one distance pass; `reduce`
adds a strong-component pass, O(n + m), and the contracted graph,
O(m log m), and `minimum_bond` one more distance pass.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import chain
from operator import attrgetter, le, sub

from .graph import (
    Arc,
    CycleVector,
    GraphError,
    Multigraph,
    Record,
    fundamental_cycles,
    id_key,
    spanning_tree,
)

_INF = float("inf")
_id = attrgetter("id")


class InfeasibleError(ValueError):
    """No labeling satisfies the stated constraints."""


class InfeasibleSystemError(InfeasibleError):
    """Empty bond set, certified by a cycle whose capacity window excludes
    the required flow-difference."""

    def __init__(self, cycle: CycleVector, required: int, window_min: int, window_max: int):
        super().__init__(
            f"no bond exists: a cycle requires flow-difference {required} "
            f"but its capacity window only allows [{window_min}, {window_max}]"
        )
        self.cycle = cycle
        self.required = required
        self.window_min = window_min
        self.window_max = window_max


class Bond(Record):
    """Integer labeling of every arc of a system's graph."""

    values: Mapping
    __hash__ = None  # the values dict is unhashable

    def value(self, arc_id) -> int:
        return self.values[arc_id]

    def as_tuple(self, arc_order: Iterable) -> tuple:
        return tuple(self.values[a] for a in arc_order)


class ValidityReport(Record):
    """Outcome of checking a labeling against a system's two conditions."""

    ok: bool
    capacity_violations: tuple  # (arc id, value, lower, upper)
    cycle_violations: tuple     # (cycle, required, actual)

    def __bool__(self):
        return self.ok


class ContractionMap(Record):
    """Bookkeeping from `reduce`: forced values of removed arcs and the
    merge of vertices into surviving class representatives."""

    forced: Mapping        # removed arc id -> value in every bond
    vertex_map: Mapping    # original vertex -> surviving representative

    def expand(self, reduced_bond: Bond) -> Bond:
        return Bond({**reduced_bond.values, **self.forced})


def flow_difference(values: Mapping | Bond, cycle: CycleVector) -> int:
    """Signed sum of a labeling around a cycle: forward minus backward."""
    table = values.values if isinstance(values, Bond) else values
    return sum(s * table[a] for a, s in cycle.signs.items())


class BondSystem:
    """A connected multigraph with capacity windows, a reference labeling
    prescribing all cycle flow-differences, and a forbidden vertex."""

    def __init__(self, graph: Multigraph, lower: Mapping, upper: Mapping, reference: Mapping, forbidden):
        if not graph.vertices:
            raise GraphError("bond system needs at least one vertex")
        if not graph.is_connected():
            a, b = (min(c, key=id_key) for c in graph.connected_components()[:2])
            raise GraphError(f"bond system requires a connected graph: {a!r} and {b!r} are separated")
        if not graph.has_vertex(forbidden):
            raise GraphError(f"forbidden vertex {forbidden!r} is not in the graph")
        self.graph = graph
        self._arc_order = ids = tuple(map(_id, graph.arcs))
        tables = [list(map(table.get, ids)) for table in (lower, upper, reference)]  # None where missing
        if not (set(map(type, chain.from_iterable(tables))) <= {int} and all(map(le, tables[0], tables[1]))):
            tables = _window_tables(graph, lower, upper, reference)
        self.lower, self.upper, self.reference = (dict(zip(ids, values)) for values in tables)
        self.forbidden = forbidden
        self._dist_cache: dict = {}
        self._classes: tuple | None = None
        self._minimum: Bond | None = None

    @cached_property
    def cycles(self) -> tuple[CycleVector, ...]:
        """The fundamental cycles of the deterministic spanning tree."""
        return tuple(fundamental_cycles(self.graph, spanning_tree(self.graph)))

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """The reference labeling's flow-difference around each cycle."""
        return tuple(flow_difference(self.reference, c) for c in self.cycles)

    # ------------------------------------------------------------------
    # validation and feasibility

    def in_windows(self, x: Bond) -> bool:
        """Whether every arc's value lies in its window, by one bulk pass."""
        values = list(map(x.values.get, self._arc_order))
        if None in values:
            raise GraphError(f"labeling misses arc {self._arc_order[values.index(None)]!r}")
        return all(map(le, self.lower.values(), values)) and all(map(le, values, self.upper.values()))

    def check_bond(self, x: Bond) -> ValidityReport:
        """Test both bond conditions, reporting every violation.  A bond
        passes on `in_windows` and one potential walk; only a failing
        labeling builds the cycle basis, for the full report."""
        if self.in_windows(x) and self._potential(x.values)[1] is None:
            return ValidityReport(True, (), ())
        rows = zip(self._arc_order, map(x.values.get, self._arc_order), self.lower.values(), self.upper.values())
        capacity = tuple((a, v, lo, hi) for a, v, lo, hi in rows if not lo <= v <= hi)
        rows = zip(self.cycles, self.targets, (flow_difference(x, cycle) for cycle in self.cycles))
        cycles = tuple((cycle, want, got) for cycle, want, got in rows if want != got)
        return ValidityReport(not capacity and not cycles, capacity, cycles)

    def _potential(self, values: Mapping) -> tuple[dict, object]:
        """(p, None) with values(a) = reference(a) + p(tail) - p(head) on
        every arc and p(forbidden) = 0, from one pass over the search plan
        from the forbidden vertex, O(m); or (p so far, the first arc whose
        sign-0 step p does not fit), when no potential does."""
        reference, p = self.reference, {self.forbidden: 0}
        for arc_id, u, v, sign in self.graph.search_plan(self.forbidden):
            if sign:
                p[v] = p[u] - sign * (values[arc_id] - reference[arc_id])
            elif p[u] - p[v] != values[arc_id] - reference[arc_id]:
                return p, arc_id
        return p, None

    def _bond_potential(self, x: Bond) -> dict:
        """x's potential, or a GraphError naming the first arc it does not fit."""
        p, arc_id = self._potential(x.values)
        if arc_id is not None:
            message = f"labeling is not a bond of this system: arc {arc_id!r} disagrees with its push-count difference"
            raise GraphError(message)
        return p

    def _tension(self, p: Mapping) -> Bond:
        """The labeling reference(a) + p(tail) - p(head)."""
        return Bond({a.id: self.reference[a.id] + p[a.tail] - p[a.head] for a in self.graph.arcs})

    @cached_property
    def _edges(self) -> tuple:
        """Difference constraints on p with x = reference + p(tail) - p(head),
        two per arc in arc order: edge (u, v, w, arc, sign) on the positions of
        `graph.index` encodes p(v) <= p(u) + w and walks the arc forward (sign
        1) or backward (-1)."""
        index = self.graph.index
        edges = []
        for a in self.graph.arcs:
            t, h = index[a.tail], index[a.head]
            edges.append((h, t, self.upper[a.id] - self.reference[a.id], a.id, -1))
            edges.append((t, h, self.reference[a.id] - self.lower[a.id], a.id, 1))
        return tuple(edges)

    def _distances(self, source, reverse: bool = False) -> dict:
        """Shortest constraint-graph distances from `source`, or to it when
        `reverse`, raising an InfeasibleSystemError on a negative cycle.

        A FIFO-queue Bellman-Ford pass.  A cycle of the parent links (the
        vertex that last lowered each) is negative, so past as many
        relaxations as edges a parent walk runs every n more, O(n) each
        (Cherkassky and Goldberg).  A distance resting on n edges is the
        backstop that bounds the pass.  The certificate is the forward one of
        `_certificate`, so it does not depend on the queue order: the graph is
        connected and each arc gives an edge each way, so a negative cycle
        found either way is also reachable forward from `source`.
        """
        key = (source, reverse)
        if key in self._dist_cache:
            return self._dist_cache[key]
        n = len(self.graph.vertices)
        adj: list = [[] for _ in range(n)]
        for u, v, w, _, _ in self._edges:
            if reverse:
                u, v = v, u
            adj[u].append((v, w))
        dist, length, parent, queued = [_INF] * n, [0] * n, [-1] * n, [False] * n
        start = self.graph.index[source]
        dist[start], queued[start] = 0, True
        queue = deque([start])
        relaxed, walk_after = 0, len(self._edges)
        while queue:
            u = queue.popleft()
            queued[u] = False
            du, step = dist[u], length[u] + 1
            for v, w in adj[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    length[v] = step
                    parent[v] = u
                    relaxed += 1
                    if step == n or relaxed > walk_after and not relaxed % n and _parent_cycle(parent):
                        raise self._certificate(source)
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        result = self._dist_cache[key] = dict(zip(self.graph.vertices, dist))
        return result

    def _certificate(self, source) -> InfeasibleSystemError:
        """The infeasibility certificate of the arc-order Bellman-Ford pass:
        n - 1 rounds over the constraint edges in arc order, then the first
        edge that still relaxes leads back to a negative cycle of `pred`
        links.  A round only compares and adds, so once the state after
        some round repeats one lam rounds earlier, `pred` equal and every
        distance moved by one c, it repeats every lam rounds, moved by c
        each time (Brent: the state saved at rounds 1, 3, 7, ... is compared
        with each later one).  The q lam + k rounds left then end, after k
        rounds, in the state of all n - 1 rounds moved by -q c, which only
        comparisons read, so the certificate is the same.  O(m) a round
        until a repeat, O(n m) at worst, as on a directed ring listed along
        its direction, whose negative cycle runs against the arc order: one
        `pred` edge moves each round.  Run only on a known negative cycle."""
        edges = self._edges
        n = len(self.graph.vertices)
        dist = [_INF] * n
        dist[self.graph.index[source]] = 0
        pred: list = [None] * n  # the edge that last lowered each vertex
        rounds, lam, power, saved = n - 1, 0, 1, None
        while rounds:
            rounds, lam = rounds - 1, lam + 1
            for edge in edges:
                u, v, w, _, _ = edge
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    pred[v] = edge
            shift = saved and pred == saved[1] and set(map(sub, dist, saved[0]))
            if shift and len(shift) == 1:  # inf - inf is nan, equal to nothing
                rounds, saved, power = rounds % lam, None, 0
            elif lam == power:
                saved, power, lam = (dist[:], pred[:]), 2 * power, 0
        edge = next(e for e in edges if dist[e[0]] + e[2] < dist[e[1]])
        v, pred[edge[1]] = edge[1], edge
        for _ in range(n):  # step back onto the cycle
            v = pred[v][0]
        signs, u = {}, v
        while True:  # the pred edge enters u, so the walk runs prev -> u
            u, _, _, arc_id, sign = pred[u]
            signs[arc_id] = sign
            if u == v:
                break
        cycle = CycleVector(signs)
        fwd, back = cycle.forward_arcs(), cycle.backward_arcs()
        low = sum(map(self.lower.get, fwd)) - sum(map(self.upper.get, back))
        high = sum(map(self.upper.get, fwd)) - sum(map(self.lower.get, back))
        return InfeasibleSystemError(cycle, flow_difference(self.reference, cycle), low, high)

    def initial_bond(self) -> Bond:
        """Some bond of the system, or raise with an infeasibility certificate."""
        return self._tension(self._distances(self.forbidden))

    def value_range(self, arc_id) -> tuple[int, int]:
        """Tight min and max of x(arc) over all bonds (system must be feasible)."""
        a = self.graph.arc(arc_id)
        down, up = self._distances(a.tail), self._distances(a.head)
        return self.reference[a.id] - down[a.head], self.reference[a.id] + up[a.tail]

    def _rigid_classes(self) -> tuple[dict, dict, Bond]:
        """(vertex -> least member of its class, rigid arc -> forced value, x).

        A class holds the vertices whose potential offsets are equal in every
        bond: those that reach each other along the `_edges` that are tight,
        p(u) + w = p(v), under the distances p that give x = initial_bond():
        those whose arc x holds at its upper or lower bound.  Rigid arcs join
        two class members.  The classes are the strong components of that tight
        digraph, each represented by its first vertex in graph order; found
        on the first call and returned again after.
        """
        if self._classes is None:
            x = self.initial_bond()
            p = list(self._distances(self.forbidden).values())
            succ: list = [[] for _ in p]
            pred: list = [[] for _ in p]
            for u, v, w, _, _ in self._edges:
                if p[u] + w == p[v]:
                    succ[u].append(v)
                    pred[v].append(u)
            first: dict = {}
            rep = {
                v: first.setdefault(c, v)
                for v, c in zip(self.graph.vertices, _strong_components(succ, pred))
            }
            forced = {a.id: x.values[a.id] for a in self.graph.arcs if rep[a.tail] == rep[a.head]}
            self._classes = rep, forced, x
        return self._classes

    def reduce(self) -> tuple["BondSystem", ContractionMap]:
        """Contract every rigid arc (value forced equal in all bonds).

        Returns the rigid-free system plus the map reconstructing full
        bonds from reduced ones.  The reduced reference is an actual bond
        restricted to the surviving arcs, which keeps every cycle target
        consistent with the forced values that left the graph.  Contracting
        the classes leaves each vertex in a class of its own, so the reduced
        system is marked as such and its `minimum_bond` costs one pass.
        """
        rep, forced, anchor = self._rigid_classes()
        if not forced:
            return self, ContractionMap({}, rep)
        survivors = [
            Arc(a.id, rep[a.tail], rep[a.head]) for a in self.graph.arcs if a.id not in forced
        ]
        keep_ids = {a.id for a in survivors}
        system = BondSystem(
            Multigraph(set(rep.values()), survivors),
            {i: self.lower[i] for i in keep_ids},
            {i: self.upper[i] for i in keep_ids},
            {i: anchor.values[i] for i in keep_ids},
            rep[self.forbidden],
        )
        system._classes = {v: v for v in system.graph.vertices}, {}, Bond(system.reference)
        return system, ContractionMap(forced, rep)

    # ------------------------------------------------------------------
    # pushes and the lattice order

    def pushable_vertices(self) -> tuple:
        return tuple(v for v in self.graph.vertices if v != self.forbidden)

    def minimum_bond(self) -> Bond:
        """Unique minimum of the push order, the least potential p(v) =
        -d(v, f): x(a) = reference(a) - d(tail, f) + d(head, f), with the
        distances d to the forbidden vertex f from one Bellman-Ford pass over
        the reversed constraint edges.  Requires a reduced, feasible system."""
        if self._minimum is None:
            forced = self._rigid_classes()[1]
            if forced:
                arc_id, value = next(iter(forced.items()))
                raise GraphError(
                    f"minimum_bond requires a reduced system, but arc {arc_id!r} is rigid "
                    f"(forced to {value}); call reduce() first"
                )
            to_f = self._distances(self.forbidden, reverse=True)
            self._minimum = self._tension({v: -d for v, d in to_f.items()})
        return self._minimum

    def push_counts(self, x: Bond) -> Counter:
        """Push counts of x relative to the minimum bond, a `Counter` over
        every pushable vertex: x's potential less the minimum's, O(|A|)."""
        low = self._potential(self.minimum_bond().values)[0]
        counts = {v: q - low[v] for v, q in self._bond_potential(x).items()}
        del counts[self.forbidden]
        negatives = [v for v, c in counts.items() if c < 0]
        if negatives:
            raise GraphError(
                f"labeling lies below the minimum bond "
                f"(vertex {min(negatives, key=id_key)!r} has negative push count)"
            )
        return Counter(counts)

    def bond_from_counts(self, counts: Mapping) -> Bond:
        """The bond whose pushable vertices are pushed `counts` times above
        the minimum."""
        p = {v: q + counts.get(v, 0) for v, q in self._potential(self.minimum_bond().values)[0].items()}
        p[self.forbidden] = 0
        return self._tension(p)

    def leq(self, x: Bond, y: Bond) -> bool:
        """Whether x's potential is at most y's at every vertex, O(|A|)."""
        return all(map(le, self._bond_potential(x).values(), self._bond_potential(y).values()))

    def meet(self, x: Bond, y: Bond) -> Bond:
        """The greatest lower bound: the pointwise min of the potentials."""
        return self._combine(min, x, y)

    def join(self, x: Bond, y: Bond) -> Bond:
        """The least upper bound: the pointwise max of the potentials."""
        return self._combine(max, x, y)

    def _combine(self, pick, x: Bond, y: Bond) -> Bond:
        px, py = self._bond_potential(x), self._bond_potential(y)  # both keyed in plan order
        return self._tension(dict(zip(px, map(pick, px.values(), py.values()))))


def _window_tables(graph: Multigraph, lower: Mapping, upper: Mapping, reference: Mapping) -> list:
    """The tables' values in arc order, checked arc by arc to name the first fault."""
    tables: list = []
    for table, what in ((lower, "lower"), (upper, "upper"), (reference, "reference")):
        tables.append([])
        for a in graph.arcs:
            if a.id not in table:
                raise GraphError(f"{what} capacity table misses arc {a.id!r}")
            tables[-1].append(_integer(table[a.id], f"{what} value for arc {a.id!r}"))
    for a, lo, hi in zip(graph.arcs, tables[0], tables[1]):
        if lo > hi:
            raise GraphError(f"arc {a.id!r} has empty capacity window [{lo}, {hi}]")
    return tables


def _integer(value, name: str) -> int:
    """`value` when it is an int other than a bool, else a GraphError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"{name} must be an integer, got {value!r}")
    return value


def _parent_cycle(parent: list) -> bool:
    """Whether the links v -> parent[v] (-1 at a root) close a cycle: each
    walk stops at a root or at a vertex an earlier walk passed, O(n)."""
    seen = [-1] * len(parent)  # the first walk through each vertex
    for start in range(len(parent)):
        v = start
        while v >= 0 and seen[v] < 0:
            seen[v], v = start, parent[v]
        if v >= 0 and seen[v] == start:
            return True
    return False


def _strong_components(succ: list, pred: list) -> list:
    """A component label for each vertex of a digraph given as successor
    and predecessor index lists: Kosaraju's two searches with explicit
    stacks, O(n + m)."""
    n = len(succ)
    seen = [False] * n
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, successors = stack[-1]
            for w in successors:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    label = [-1] * n
    for root in reversed(finished):
        if label[root] < 0:
            label[root] = root
            stack = [root]
            while stack:
                for w in pred[stack.pop()]:
                    if label[w] < 0:
                        label[w] = root
                        stack.append(w)
    return label


def find_initial_bond(system: BondSystem) -> Bond:
    """One bond of the system, or InfeasibleSystemError carrying a
    certificate cycle whose window excludes the required flow-difference."""
    return system.initial_bond()


def arc_value_range(system: BondSystem, arc_id) -> tuple[int, int]:
    """Smallest and largest value the arc takes over all bonds."""
    return system.value_range(arc_id)
