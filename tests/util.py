"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own machinery: bond
enumeration goes through potential consistency instead of fundamental
cycles, the order oracle walks arbitrary legal set pushes, each a signed
cut vector added to a value tuple and checked against the windows,
instead of the library's push counts (`cut_vector` builds those vectors,
and the orthogonality and push tests read it), the meet-representation
oracle tries every subset of meet-irreducibles instead of the library's
hitting-set test,
the distance oracle relaxes every constraint edge in arc order once per
round instead of from a queue, the rigid-class oracle intersects two
reachability searches per vertex instead of one strong-component pass, and
the chip-firing oracle copies a dict arrangement per move instead of
stepping count tuples by a per-vertex move rule, its firing sequences
(`oracle_firing_sequences`) walk the oracle's moves instead of the
library's move index, and the cover-verdict
oracle reads the arcs from the public graph and colors, copies the
reversed arcs for the lower side and runs every structure check in order
instead of one Kahn pass read from either end,
the partial-order oracle tests each law on element sets instead of
trusting the masks a closure is built with, the spanning-tree and component
oracles grow Prim's heap and search breadth-first instead of reading the
library's one union-find forest, and the DOT oracle writes one line at a
time with f-strings instead of block templates.  The Aztec-diamond and box
documents and MacMahon's count are written from their definitions alone.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import random
from collections import Counter, deque
from fractions import Fraction

from bondlat import (
    Arc,
    ArcEnd,
    Bond,
    BondSystem,
    ColoredDigraph,
    FinitePoset,
    GraphError,
    Multigraph,
    PlanarEmbedding,
    PosetError,
)
from bondlat.graph import HEAD, TAIL, id_key


def tri_graph() -> Multigraph:
    return Multigraph([1, 2, 3], [Arc("a1", 1, 2), Arc("a2", 2, 3), Arc("a3", 3, 1)])


def tri_system(delta: int = 1, forbidden=1) -> BondSystem:
    g = tri_graph()
    zeros = {a.id: 0 for a in g.arcs}
    ones = {a.id: 1 for a in g.arcs}
    reference = {"a1": delta, "a2": 0, "a3": 0}
    return BondSystem(g, zeros, ones, reference, forbidden)


def star_system() -> BondSystem:
    g = Multigraph([0, 1, 2], [Arc("a", 1, 0), Arc("b", 2, 0)])
    return BondSystem(
        g, {"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 0, "b": 0}, 0
    )


def tri_embedding() -> PlanarEmbedding:
    g = tri_graph()
    rotation = {
        1: (ArcEnd("a1", TAIL), ArcEnd("a3", HEAD)),
        2: (ArcEnd("a2", TAIL), ArcEnd("a1", HEAD)),
        3: (ArcEnd("a3", TAIL), ArcEnd("a2", HEAD)),
    }
    return PlanarEmbedding(g, rotation)


def cyclic_u_digraph(n: int = 6) -> ColoredDigraph:
    """Strongly cyclic digraph satisfying both fork axioms: a directed
    n-cycle with distance-2 chords, steps colored "s" and "d"."""
    arcs = []
    colors = {}
    for i in range(n):
        arcs.append(Arc(("s", i), i, (i + 1) % n))
        colors[("s", i)] = "s"
        arcs.append(Arc(("d", i), i, (i + 2) % n))
        colors[("d", i)] = "d"
    return ColoredDigraph(Multigraph(range(n), arcs), colors)


def two_source_u_digraph() -> ColoredDigraph:
    """U-colored cover digraph of the two-source bowtie-with-top poset."""
    arcs = [
        Arc("su", "s", "u"),
        Arc("sv", "s", "v"),
        Arc("tu", "t", "u"),
        Arc("tv", "t", "v"),
        Arc("uT", "u", "T"),
        Arc("vT", "v", "T"),
    ]
    colors = {"su": 1, "sv": 2, "tu": 1, "tv": 2, "uT": 2, "vT": 1}
    return ColoredDigraph(Multigraph(["s", "t", "u", "v", "T"], arcs), colors)


def two_source_poset() -> FinitePoset:
    labels = ("s", "t", "u", "v", "T")
    covers = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    return FinitePoset.from_covers(labels, covers)


def chain_poset(k: int) -> FinitePoset:
    return FinitePoset.from_covers(tuple(range(k)), [(i, i + 1) for i in range(k - 1)])


def diamond_poset() -> FinitePoset:
    return FinitePoset.from_covers(("bot", "a", "b", "top"), [(0, 1), (0, 2), (1, 3), (2, 3)])


def m3_poset() -> FinitePoset:
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return FinitePoset.from_covers(("bot", "a", "b", "c", "top"), covers)


def n5_poset() -> FinitePoset:
    covers = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    return FinitePoset.from_covers(("bot", "a", "b", "c", "top"), covers)


def path_document(n: int, reverse: bool) -> dict:
    """A system document on the path 0 -> 1 -> ... -> n-1, its arcs listed
    against the path when `reverse`.  Windows are [-1, 1] except on every
    seventh arc, which is pinned at 0 and so rigid; bonds "x" and "y" are
    given for the order commands."""
    ids = [f"a{i}" for i in range(n - 1)]
    arcs = [{"id": a, "tail": i, "head": i + 1} for i, a in enumerate(ids)]
    width = {a: 0 if i % 7 == 0 else 1 for i, a in enumerate(ids)}
    return {
        "vertices": list(range(n)),
        "arcs": arcs[::-1] if reverse else arcs,
        "lower": {a: -w for a, w in width.items()},
        "upper": width,
        "reference": {a: 0 for a in ids},
        "x": {a: 0 for a in ids},
        "y": {a: w * (1 if i % 2 else -1) for i, (a, w) in enumerate(width.items())},
    }


def grid_order_document(k: int) -> dict:
    """Anchored potentials on the k x k grid, arcs going right and down with
    windows [-1, 1], forbidding vertex 0; "x" is all zeros and "y" the
    tension c(tail) - c(head) of the checkerboard c(i, j) = (i + j) % 2, so
    x lies below y."""
    arcs = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                arcs.append({"id": f"h{i}_{j}", "tail": i * k + j, "head": i * k + j + 1})
            if i + 1 < k:
                arcs.append({"id": f"v{i}_{j}", "tail": i * k + j, "head": (i + 1) * k + j})
    ids = [a["id"] for a in arcs]
    return {
        "vertices": list(range(k * k)),
        "arcs": arcs,
        "lower": dict.fromkeys(ids, -1),
        "upper": dict.fromkeys(ids, 1),
        "reference": dict.fromkeys(ids, 0),
        "forbidden": 0,
        "x": dict.fromkeys(ids, 0),
        # tail and head differ by one step, so their colours differ
        "y": {a["id"]: 1 if sum(divmod(a["tail"], k)) % 2 else -1 for a in arcs},
    }


def ladder_document(vertices: int, seed: int, infeasible: bool = False) -> dict:
    """Potentials on the ladder of two paths joined by rungs, forbidding a
    random vertex: windows [-w, w] with w in 1..3 and about one arc in ten
    pinned at [0, 0], reference all zeros.  `infeasible` moves one rung's
    reference past the sum of every window's width, so no bond exists."""
    rng = random.Random(seed)
    k = vertices // 2
    arcs = [(f"t{i}", i, i + 1) for i in range(k - 1)]
    arcs += [(f"b{i}", k + i, k + i + 1) for i in range(k - 1)]
    arcs += [(f"r{i}", i, k + i) for i in range(k)]
    lower, upper = {}, {}
    for a, _, _ in arcs:
        w = rng.randint(1, 3)
        lower[a], upper[a] = (0, 0) if rng.random() < 0.1 else (-w, w)
    reference = dict.fromkeys(lower, 0)
    if infeasible:
        reference[rng.choice([a for a, _, _ in arcs if a[0] == "r"])] = 1 + sum(upper[a] - lower[a] for a in lower)
    return {
        "vertices": list(range(2 * k)),
        "arcs": [{"id": a, "tail": t, "head": h} for a, t, h in arcs],
        "lower": lower,
        "upper": upper,
        "reference": reference,
        "forbidden": rng.randrange(2 * k),
    }


# ---------------------------------------------------------------------------
# oracles


def tension_bonds(system: BondSystem, box_limit: int = 500_000) -> list[Bond]:
    """Enumerate the capacity box, keeping labelings that differ from the
    reference by a consistent vertex potential (the defining property,
    checked without any cycle machinery)."""
    g = system.graph
    order = [a.id for a in g.arcs]
    ranges = [range(system.lower[a], system.upper[a] + 1) for a in order]
    size = 1
    for r in ranges:
        size *= len(r)
    if size > box_limit:
        raise AssertionError(f"oracle box has {size} points, over the {box_limit} limit")
    found = []
    for combo in itertools.product(*ranges):
        values = dict(zip(order, combo))
        diff = {a: values[a] - system.reference[a] for a in order}
        if tension_potential(g, diff, g.vertices[0]) is not None:
            found.append(Bond(values))
    return found


def tension_potential(g: Multigraph, diff: dict, root) -> dict | None:
    """The vertex labeling p with p(root) = 0 and diff(a) = p(tail) - p(head)
    on every arc, found by BFS, or None when no such labeling exists."""
    potential = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for arc in g.incident_arcs(v):
            if arc.tail in potential and arc.head in potential:
                if potential[arc.tail] - potential[arc.head] != diff[arc.id]:
                    return None
            elif arc.tail in potential:
                potential[arc.head] = potential[arc.tail] - diff[arc.id]
                queue.append(arc.head)
            else:
                potential[arc.tail] = potential[arc.head] + diff[arc.id]
                queue.append(arc.tail)
    return potential if len(potential) == len(g.vertices) else None


def push_reachability(system: BondSystem, elements: list[Bond]) -> dict:
    """Order oracle: leq[(i, j)] iff element j is reachable from element i
    by legal pushes of arbitrary vertex sets avoiding the forbidden vertex.

    Values are tuples in arc order.  Each vertex subset's push is one signed
    cut vector, +1 on arcs leaving the subset and -1 on arcs entering it,
    built once from the arcs' ends; a push is legal when every raised arc
    stays at most its upper bound and every lowered arc at least its lower
    bound, and it is made by adding the vector.  Each element's one-push
    successors are found once, and reachability is a search over them."""
    arcs = system.graph.arcs
    lower = [system.lower[a.id] for a in arcs]
    upper = [system.upper[a.id] for a in arcs]
    others = [v for v in system.graph.vertices if v != system.forbidden]
    pushes = []
    for size in range(1, len(others) + 1):
        for inside in itertools.combinations(others, size):
            step = cut_vector(arcs, set(inside))
            raised = [k for k, sign in enumerate(step) if sign > 0]
            lowered = [k for k, sign in enumerate(step) if sign < 0]
            pushes.append((step, raised, lowered))
    values = [tuple(x.values[a.id] for a in arcs) for x in elements]
    index_of = {value: i for i, value in enumerate(values)}
    successors = [
        {
            index_of[tuple(map(operator.add, value, step))]
            for step, raised, lowered in pushes
            if all(value[k] < upper[k] for k in raised) and all(value[k] > lower[k] for k in lowered)
        }
        for value in values
    ]
    reach = {}
    for i in range(len(values)):
        seen = {i}
        queue = deque([i])
        while queue:
            for j in successors[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        for j in seen:
            reach[(i, j)] = True
    return reach


def cut_vector(arcs, inside: set) -> tuple:
    """The signed cut vector of a vertex set over `arcs`, in their order: +1
    on an arc leaving the set, -1 on one entering it, 0 on loops and on arcs
    inside or outside it."""
    return tuple((a.tail in inside) - (a.head in inside) for a in arcs)


def oracle_spanning_tree(g: Multigraph) -> frozenset:
    """Prim's algorithm from the smallest vertex with a heap of arc ranks in
    id order: the least-rank arc with exactly one end reached joins the tree,
    and an arc popped with both ends reached is dropped.  Raises GraphError
    with the library's text on an empty or disconnected graph."""
    if not g.vertices:
        raise GraphError("empty graph has no spanning tree")
    ordered = sorted(g.arcs, key=lambda arc: id_key(arc.id))
    touching: dict = {v: [] for v in g.vertices}
    for rank, arc in enumerate(ordered):
        touching[arc.tail].append(rank)
        touching[arc.head].append(rank)
    root = g.vertices[0]
    reached, tree, heap = {root}, set(), list(touching[root])
    heapq.heapify(heap)
    while len(reached) < len(g.vertices):
        if not heap:
            stranded = next(v for v in g.vertices if v not in reached)
            raise GraphError(f"graph is disconnected: no path between {root!r} and {stranded!r}")
        arc = ordered[heapq.heappop(heap)]
        if (arc.tail in reached) != (arc.head in reached):
            new = arc.head if arc.tail in reached else arc.tail
            tree.add(arc.id)
            reached.add(new)
            for rank in touching[new]:
                heapq.heappush(heap, rank)
    return frozenset(tree)


def oracle_components(g: Multigraph) -> list[frozenset]:
    """The underlying undirected components, by a breadth-first search from
    each vertex not yet reached, in vertex order."""
    neighbours: dict = {v: [] for v in g.vertices}
    for arc in g.arcs:
        neighbours[arc.tail].append(arc.head)
        neighbours[arc.head].append(arc.tail)
    components: list = []
    for start in g.vertices:
        if any(start in c for c in components):
            continue
        seen, queue = {start}, deque([start])
        while queue:
            for w in neighbours[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(frozenset(seen))
    return components


_BRUTE_SUBSET_LIMIT = 18


def minimal_representations(p: FinitePoset, x: int, irreducibles, represents) -> list[frozenset]:
    """Inclusion-minimal sets of meet-irreducibles above x that pass `represents`.

    Subsets are tried by size, so the list is ordered by size and then
    lexicographically by `irreducibles` order.
    """
    candidates = [m for m in irreducibles if p.leq(x, m)]
    if len(candidates) > _BRUTE_SUBSET_LIMIT:
        raise PosetError(
            f"element {x} sits below {len(candidates)} meet-irreducibles; "
            f"brute representation search is limited to {_BRUTE_SUBSET_LIMIT}"
        )
    minimal: list[frozenset] = []
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            combo = frozenset(subset)
            if any(known <= combo for known in minimal):
                continue
            if represents(combo):
                minimal.append(combo)
    return minimal


def uld_certificate(p: FinitePoset):
    """`brute_uld`'s certificate on a lattice: the first element with two
    minimal meet-representations and the first two of them, or None."""
    irreducibles = p.meet_irreducible_indices()
    for x in range(p.n):
        reps = minimal_representations(p, x, irreducibles, lambda s: p.meet_of_set(s) == x)
        if len(reps) > 1:
            return (x, tuple(sorted(reps[0])), tuple(sorted(reps[1])))
    return None


def representation_report(p: FinitePoset) -> tuple:
    """(ok, witness, representations) as `unique_minimal_representation_report`
    gives them, with x represented by a set that has x as a maximal lower
    bound."""
    irreducibles = p.meet_irreducible_indices()
    representations = {}
    for s in range(p.n):
        minimal = minimal_representations(
            p, s, irreducibles, lambda chosen: s in p.maximal_lower_bounds(chosen)
        )
        if not minimal:
            return False, (p.labels[s], None), representations
        if len(minimal) > 1:
            return False, (p.labels[s], tuple(sorted(minimal[0])), tuple(sorted(minimal[1]))), representations
        bounds = p.maximal_lower_bounds(minimal[0])
        if bounds != [s]:
            other = next(t for t in bounds if t != s)
            return False, (p.labels[s], p.labels[other]), representations
        representations[s] = tuple(sorted(minimal[0]))
    return True, None, representations


def arc_order_distances(system: BondSystem, source, reverse: bool = False):
    """(distances, None) or (None, certificate) for the difference
    constraints p(tail) - p(head) = x - reference in [lower - reference,
    upper - reference], shortest distances from `source` (to it when
    `reverse`).  Bellman-Ford relaxes every edge in arc order, once per
    round for n - 1 rounds; an edge that still relaxes after them closes a
    negative cycle through the predecessor links, and the certificate is
    (signs, required, window_min, window_max) of that cycle."""
    g = system.graph
    edges = []
    for a in g.arcs:
        edges.append((a.head, a.tail, system.upper[a.id] - system.reference[a.id], a.id, -1))
        edges.append((a.tail, a.head, system.reference[a.id] - system.lower[a.id], a.id, 1))
    if reverse:
        edges = [(v, u, w, arc_id, -sign) for u, v, w, arc_id, sign in edges]
    dist = {v: float("inf") for v in g.vertices}
    dist[source] = 0
    pred = {}
    for _ in range(len(g.vertices) - 1):
        for u, v, w, arc_id, sign in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = (u, arc_id, sign)
    bad = next(((u, v, arc_id, sign) for u, v, w, arc_id, sign in edges if dist[u] + w < dist[v]), None)
    if bad is None:
        return dist, None
    u, v, arc_id, sign = bad
    pred[v] = (u, arc_id, sign)
    for _ in range(len(g.vertices)):  # step back onto the cycle
        v = pred[v][0]
    signs = {}
    u = v
    while True:
        u, arc_id, sign = pred[u]
        signs[arc_id] = sign
        if u == v:
            break
    required = sum(s * system.reference[a] for a, s in signs.items())
    low = {1: system.lower, -1: system.upper}
    high = {1: system.upper, -1: system.lower}
    return None, (
        signs,
        required,
        sum(s * low[s][a] for a, s in signs.items()),
        sum(s * high[s][a] for a, s in signs.items()),
    )


def rigid_classes_by_reachability(system: BondSystem, x: Bond) -> tuple[dict, dict]:
    """(vertex -> least vertex of its class, rigid arc -> value) from the
    tight edges of the bond x: each class is what a vertex reaches along
    tight edges intersected with what reaches it, named by its first
    vertex in graph order."""
    succ = {v: [] for v in system.graph.vertices}
    pred = {v: [] for v in system.graph.vertices}
    for a in system.graph.arcs:
        if x.values[a.id] == system.upper[a.id]:
            succ[a.head].append(a.tail)
            pred[a.tail].append(a.head)
        if x.values[a.id] == system.lower[a.id]:
            succ[a.tail].append(a.head)
            pred[a.head].append(a.tail)
    rep = {}
    for v in system.graph.vertices:
        if v not in rep:
            for u in _reach(succ, v) & _reach(pred, v):
                rep[u] = v
    forced = {a.id: x.values[a.id] for a in system.graph.arcs if rep[a.tail] == rep[a.head]}
    return {v: rep[v] for v in system.graph.vertices}, forced


def _reach(adj: dict, start) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def reachability_masks(succ: list) -> tuple[list[int], bool]:
    """Each vertex's reflexive reach along successor lists over 0..n-1, as a
    bitmask, and whether some arc closes a directed cycle: its head reaches
    its tail."""
    reach = [_reach(succ, i) for i in range(len(succ))]
    cyclic = any(i in reach[j] for i, heads in enumerate(succ) for j in heads)
    return [sum(1 << j for j in seen) for seen in reach], cyclic


def transitive_reduction(above: list) -> list[tuple[int, int]]:
    """The covers of the order whose masks are `above` (bit j of above[i]
    set when i <= j): the pairs i < j with nothing strictly between, in
    ascending order."""
    n = len(above)
    ups = [{j for j in range(n) if j != i and above[i] >> j & 1} for i in range(n)]
    return [(i, j) for i in range(n) for j in sorted(ups[i]) if not any(j in ups[k] for k in ups[i])]


def lattice_witness(above: list) -> tuple | None:
    """The first pair i < j, in lexicographic order, that has no meet or
    (asked second) no join in the order whose masks are `above`, as
    (i, j, "meet" or "join"); None for a lattice.  A meet is a common lower
    bound whose down-set is all the common lower bounds, read off sets."""
    n = len(above)
    ups = [{j for j in range(n) if above[i] >> j & 1} for i in range(n)]
    downs = [{j for j in range(n) if i in ups[j]} for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        for kind, bounds in (("meet", downs), ("join", ups)):
            common = bounds[i] & bounds[j]
            if not any(bounds[k] == common for k in common):
                return (i, j, kind)
    return None


def partial_order_violation(above: list) -> tuple | None:
    """The first (kind, i, j) at which the masks `above`, with bit j of
    above[i] set when i <= j, fail to order 0..n-1: "range" when above[i]
    names an element past n - 1, "reflexive" when i is not above itself,
    "antisymmetric" when i <= j <= i for j != i, and "transitive" when i <= j
    but some element above j is not above i.  None for a partial order."""
    n = len(above)
    ups = [{j for j in range(n) if above[i] >> j & 1} for i in range(n)]
    for i in range(n):
        if above[i] >> n:
            return ("range", i, i)
        if i not in ups[i]:
            return ("reflexive", i, i)
        for j in sorted(ups[i]):
            if j != i and i in ups[j]:
                return ("antisymmetric", i, j)
            if not ups[j] <= ups[i]:
                return ("transitive", i, j)
    return None


# Chip-firing oracle: arrangements are dicts, every move copies one, and
# the explorers key states by their count tuples in vertex order.


def oracle_can_fire(g: Multigraph, chips: dict, v) -> bool:
    out = g.out_degree(v)
    return out >= 1 and chips.get(v, 0) >= out


def oracle_fire(g: Multigraph, chips: dict, v) -> dict:
    chips = dict(chips)
    chips[v] = chips.get(v, 0) - g.out_degree(v)
    for arc in g.out_arcs(v):
        chips[arc.head] = chips.get(arc.head, 0) + 1
    return chips


def oracle_can_unfire(g: Multigraph, chips: dict, v) -> bool:
    # every out-neighbor returns one chip per parallel arc, v itself for a loop
    out = g.out_degree(v)
    if out == 0:
        return False
    needed = Counter(arc.head for arc in g.out_arcs(v))
    return all(chips.get(w, 0) >= k for w, k in needed.items())


def oracle_unfire(g: Multigraph, chips: dict, v) -> dict:
    chips = dict(chips)
    chips[v] = chips.get(v, 0) + g.out_degree(v)
    for arc in g.out_arcs(v):
        chips[arc.head] = chips.get(arc.head, 0) - 1
    return chips


def oracle_game(g: Multigraph, start: dict, cap: int) -> tuple[list, tuple, str]:
    """(states as count tuples, sorted moves, verdict) of the firing game,
    with `build_game`'s cap rule: a new state past `cap` is dropped."""
    order = g.vertices
    key = tuple(start.get(v, 0) for v in order)
    states = [start]
    index = {key: 0}
    moves = []
    queue = deque([0])
    capped = False
    while queue:
        i = queue.popleft()
        current = states[i]
        for v in order:
            if not oracle_can_fire(g, current, v):
                continue
            nxt = oracle_fire(g, current, v)
            k = tuple(nxt.get(w, 0) for w in order)
            if k not in index:
                if len(states) >= cap:
                    capped = True
                    continue
                index[k] = len(states)
                states.append(nxt)
                queue.append(index[k])
            moves.append((i, index[k], v))
    moves = tuple(sorted(moves, key=lambda m: (m[0], m[1], id_key(m[2]))))
    if capped:
        verdict = "cap exceeded"
    else:
        verdict = "finite" if _acyclic(len(states), moves) else "cyclic"
    return list(index), moves, verdict


def oracle_firing_sequences(moves, start: int = 0, limit: int = 20_000) -> list[tuple]:
    """Every maximal firing sequence from state `start`, as vertex tuples, by
    a depth-first walk over `oracle_game`'s moves in their sorted order."""
    after: dict = {}
    for i, j, v in moves:
        after.setdefault(i, []).append((j, v))
    found = []
    stack = [(start, ())]
    while stack:
        i, fired = stack.pop()
        if i not in after:
            found.append(fired)
            if len(found) > limit:
                raise AssertionError(f"more than {limit} maximal firing sequences")
        for j, v in reversed(after.get(i, ())):
            stack.append((j, fired + (v,)))
    return found


def oracle_complete_game(g: Multigraph, start: dict, cap: int) -> tuple[list, tuple, bool, bool]:
    """(states as count tuples, sorted moves, complete, acyclic) of the
    closure under fire and unfire, with `build_complete_game`'s cap rule:
    no expansion at distance `cap`, and a stop past `cap` states."""
    order = g.vertices
    states = [start]
    index = {tuple(start.get(v, 0) for v in order): 0}
    distance = [0]
    moves: set = set()
    queue = deque([0])
    complete = True

    def register(state) -> int:
        k = tuple(state.get(v, 0) for v in order)
        j = index.get(k)
        if j is None:
            j = len(states)
            index[k] = j
            states.append(state)
            distance.append(distance[i] + 1)
            queue.append(j)
        return j

    while queue:
        i = queue.popleft()
        if len(states) > cap:
            complete = False
            break
        if distance[i] >= cap:
            complete = False
            continue
        current = states[i]
        for v in order:
            if oracle_can_fire(g, current, v):
                moves.add((i, register(oracle_fire(g, current, v)), v))
            if oracle_can_unfire(g, current, v):
                moves.add((register(oracle_unfire(g, current, v)), i, v))
    moves = tuple(sorted(moves, key=lambda m: (m[0], m[1], id_key(m[2]))))
    return list(index), moves, complete, _acyclic(len(states), moves)


def _acyclic(n: int, moves) -> bool:
    """Kahn's algorithm: every state drains when no move closes a cycle."""
    indegree = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in moves:
        succ[i].append(j)
        indegree[j] += 1
    ready = [i for i in range(n) if not indegree[i]]
    drained = 0
    while ready:
        drained += 1
        for j in succ[ready.pop()]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return drained == n


def closure_poset(cd: ColoredDigraph) -> FinitePoset:
    """The transitive closure of `cd`, over its labels, as a `FinitePoset`."""
    index = {v: i for i, v in enumerate(cd.labels)}
    return FinitePoset.from_covers(cd.labels, [(index[a.tail], index[a.head]) for a in cd.graph.arcs])


# Cover-verdict oracle: the lower side is the upper side of a reversed copy
# of the arcs, and connectivity, cycles and sources are each searched for
# in turn before the fork checks.


def oracle_cover_verdict(cd: ColoredDigraph, side: str) -> tuple:
    """(status, ok, witness) of certifying `cd` as a ULD ("uld") or LLD
    ("lld") cover graph; the first failing check names the witness."""
    labels, out, into = _oracle_lists(cd, side)
    if not labels:
        return "empty", False, None
    seen = {0}
    stack = [0]
    while stack:  # undirected reachability from vertex 0
        i = stack.pop()
        for j in [arc[1] for arc in out[i]] + [arc[0] for arc in into[i]]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) < len(labels):
        missing = min(set(range(len(labels))) - seen)
        return "disconnected", False, (labels[0], labels[missing])
    cycle = _oracle_cycle(out)
    if cycle:
        return "cyclic", False, tuple(labels[i] for i in cycle)
    sources = tuple(v for v, ins in zip(labels, into) if not ins)
    if len(sources) != 1:
        return ("no unique source" if side == "uld" else "no unique sink"), False, sources
    coloring, completion = oracle_fork_witnesses(cd, side)
    if coloring:
        return "fork coloring violated", False, coloring
    if completion:
        return "fork completion violated", False, completion
    return side, True, None


def oracle_fork_witnesses(cd: ColoredDigraph, side: str) -> tuple[tuple, tuple]:
    """The witnesses of the two fork checks on `cd` ("uld") or on its
    reversal ("lld"): (vertex, arc, arc, color) for an arc whose color
    first appeared on an arc to another end, and (v, u, w) for a fork that
    no pair of swapped-color arcs closes."""
    labels, out, _ = _oracle_lists(cd, side)
    coloring = []
    completion: dict = {}
    for v, arcs in enumerate(out):
        for k, arc in enumerate(arcs):
            first = next(a for a in arcs if a[3] == arc[3])
            if first[1] != arc[1]:
                coloring.append((labels[v], first[2], arc[2], arc[3]))
            for other in arcs[k + 1:]:
                u, w = arc[1], other[1]
                closed = any(
                    a[1] == b[1]
                    for a in out[u] if a[3] == other[3]
                    for b in out[w] if b[3] == arc[3]
                )
                if u != w and not closed:
                    completion[(labels[v], labels[u], labels[w])] = None
    return tuple(coloring), tuple(completion)


def _oracle_lists(cd: ColoredDigraph, side: str) -> tuple:
    """Labels and per-vertex out/in lists of (tail index, head index, arc
    id, color) arcs in ascending id order, read from the public `labels`,
    `graph` and `colors`, of a reversed copy when `side` is "lld"."""
    index = {v: i for i, v in enumerate(cd.labels)}
    arcs = [(index[a.tail], index[a.head], a.id, cd.colors[a.id]) for a in cd.graph.arcs_by_id]
    if side == "lld":
        arcs = [(h, t, k, c) for t, h, k, c in arcs]
    out: list[list] = [[] for _ in cd.labels]
    into: list[list] = [[] for _ in cd.labels]
    for arc in arcs:
        out[arc[0]].append(arc)
        into[arc[1]].append(arc)
    return cd.labels, out, into


def _oracle_cycle(out: list) -> list | None:
    """The first directed cycle a depth-first search from each vertex in
    index order closes, as its vertices with the first repeated at the end."""
    state = [0] * len(out)  # 0 new, 1 on the path, 2 done

    def visit(path: list) -> list | None:
        for arc in out[path[-1]]:
            w = arc[1]
            if state[w] == 1:
                return path[path.index(w):] + [w]
            if state[w] == 0:
                state[w] = 1
                found = visit(path + [w])
                if found:
                    return found
        state[path[-1]] = 2
        return None

    for root in range(len(out)):
        if not state[root]:
            state[root] = 1
            found = visit([root])
            if found:
                return found
    return None


_DOT_PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02", "#a6761d", "#666666")


def oracle_dot(count: int, node_labels, edges, comments) -> str:
    """DOT text of `count` labelled nodes and (tail, head, key) edges, one
    line at a time: keys take palette colours in their sorted order (ints
    first, then strings), and quoted text escapes backslashes and quotes."""

    def quoted(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def key_order(key):
        return (0, key) if isinstance(key, int) and not isinstance(key, bool) else (1, str(key))

    colors = {}
    for key in sorted({key for _, _, key in edges}, key=key_order):
        colors[key] = _DOT_PALETTE[len(colors) % len(_DOT_PALETTE)]
    lines = ["digraph {", "  rankdir=BT;", "  node [shape=box];"]
    for comment in comments:
        lines.append(f"  // {comment}")
    for i in range(count):
        lines.append(f"  n{i} [label={quoted(node_labels[i])}];")
    for i, j, key in edges:
        lines.append(f"  n{i} -> n{j} [label={quoted(str(key))}, color={quoted(colors[key])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def first_difference(got: str, expected: str):
    """None when the texts are equal, else (line number, got line, expected
    line) at the first line that differs; a cheap report on texts whose
    full diff would take minutes."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for k in range(max(len(got_lines), len(expected_lines))):
        pair = [lines[k] if k < len(lines) else None for lines in (got_lines, expected_lines)]
        if pair[0] != pair[1]:
            return (k, *pair)
    return None


def oracle_labels(rows) -> list[str]:
    """Each row's values, comma-joined."""
    return [",".join(str(x) for x in row) for row in rows]


def aztec_document(n: int) -> dict:
    """The Aztec diamond of order n as an `alpha` input.  Its unit squares,
    lower-left corners (i, j) with |2i + 1| + |2j + 1| <= 2n, are numbered in
    sorted order; each two adjacent squares are joined by an arc from the
    white square (i + j odd) to the black one; each square's rotation lists
    its neighbours north, east, south, west, which is clockwise; a white
    square gets out-degree 1 and a black one its degree less 1.  So the
    alpha-orientations are the perfect matchings of the squares, the domino
    tilings (Felsner 2004), of which there are 2^(n(n+1)/2) (Elkies,
    Kuperberg, Larsen and Propp 1992)."""
    squares = sorted((i, j) for i in range(-n, n) for j in range(-n, n) if abs(2 * i + 1) + abs(2 * j + 1) <= 2 * n)
    number = {s: k for k, s in enumerate(squares)}
    ends: dict = {s: {} for s in squares}  # square -> {step to the neighbour: arc end}
    arcs = []
    for i, j in squares:
        for neighbour in ((i + 1, j), (i, j + 1)):
            if neighbour in number:
                tail, head = ((i, j), neighbour) if (i + j) % 2 else (neighbour, (i, j))
                arc_id = f"e{len(arcs)}"
                arcs.append({"id": arc_id, "tail": number[tail], "head": number[head]})
                ends[tail][head[0] - tail[0], head[1] - tail[1]] = {"arc": arc_id, "end": "tail"}
                ends[head][tail[0] - head[0], tail[1] - head[1]] = {"arc": arc_id, "end": "head"}
    clockwise = ((0, 1), (1, 0), (0, -1), (-1, 0))
    return {
        "vertices": list(range(len(squares))),
        "arcs": arcs,
        "rotation": {str(number[s]): [ends[s][d] for d in clockwise if d in ends[s]] for s in squares},
        "out_degrees": {str(number[s]): 1 if sum(s) % 2 else len(ends[s]) - 1 for s in squares},
    }


def box_document(a: int, b: int, c: int) -> dict:
    """Plane partitions in an a x b x c box as a `potentials` input.  Cell
    (i, j) of an a x b grid is vertex i * b + j, with an arc to its right and
    to its lower neighbour of window [-c, 0], so heights fall weakly along
    rows and columns; the anchor a * b has arcs of window [0, c] to the
    first and the last cell, so every height lies in [0, c]."""
    anchor, arcs = a * b, []
    for i in range(a):
        for j in range(b):
            for name, di, dj in (("r", 0, 1), ("d", 1, 0)):
                if i + di < a and j + dj < b:
                    arcs.append({"id": f"{name}{i}_{j}", "tail": i * b + j, "head": (i + di) * b + j + dj})
    grid = [arc["id"] for arc in arcs]
    arcs += [{"id": "first", "tail": anchor, "head": 0}, {"id": "last", "tail": anchor, "head": anchor - 1}]
    return {
        "vertices": list(range(anchor + 1)),
        "arcs": arcs,
        "lower": {**dict.fromkeys(grid, -c), "first": 0, "last": 0},
        "upper": {**dict.fromkeys(grid, 0), "first": c, "last": c},
        "anchor": anchor,
    }


def macmahon(a: int, b: int, c: int) -> int:
    """MacMahon's count of the plane partitions in an a x b x c box,
    the product of (i + j + k - 1) / (i + j + k - 2) over its cells."""
    count = Fraction(1)
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        count *= Fraction(i + j + k - 1, i + j + k - 2)
    assert count.denominator == 1
    return count.numerator
