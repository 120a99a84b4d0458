"""Randomized invariant checks driven by hypothesis.

Graphs are assembled from drawn edge lists on a spanning path, so every
example is connected by construction; systems place the reference inside
every window, so every example is feasible by construction.  The
properties here are the structural facts the deterministic tests pin on
hand-sized examples: cut/cycle orthogonality, push invariants, lattice
laws including distributivity, chip conservation, and JSON round trips.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from bondlat import (
    Arc,
    Bond,
    BondSystem,
    CapExceededError,
    ChipArrangement,
    CoverDigraph,
    FinitePoset,
    GraphError,
    InfeasibleSystemError,
    Multigraph,
    PosetError,
    brute_uld,
    build_complete_game,
    build_game,
    ChipError,
    can_fire,
    can_unfire,
    certify_game,
    certify_lld_cover,
    certify_uld_cover,
    enumerate_lattice,
    fire,
    flow_difference,
    fundamental_cycles,
    spanning_tree,
    unfire,
    unique_minimal_representation_report,
)
from bondlat.checker import (
    ColoredDigraph,
    _find_directed_cycle,
    check_distinct_fork_colors,
    check_fork_completion,
)
from bondlat.cli import main
from bondlat.jsonio import (
    BLOCK_ROWS,
    InputFormatError,
    RowTable,
    complete_game_json,
    cover_digraph_json,
    dumps,
    game_certificate_json,
    game_json,
    graph_json,
    parse_chip_input,
    parse_colored_digraph,
    parse_graph,
    parse_system,
    parse_systems,
    system_json,
)

from util import (
    arc_order_distances,
    closure_poset,
    cut_vector,
    lattice_witness,
    oracle_can_fire,
    oracle_can_unfire,
    oracle_complete_game,
    oracle_components,
    oracle_fire,
    oracle_firing_sequences,
    oracle_cover_verdict,
    oracle_fork_witnesses,
    oracle_game,
    oracle_spanning_tree,
    oracle_unfire,
    partial_order_violation,
    push_reachability,
    reachability_masks,
    representation_report,
    rigid_classes_by_reachability,
    tension_bonds,
    tension_potential,
    transitive_reduction,
    uld_certificate,
)


@st.composite
def connected_graphs(draw, max_extra=4):
    n = draw(st.integers(2, 5))
    vertices = list(range(1, n + 1))
    arcs = []
    for i in range(1, n):
        if draw(st.booleans()):
            arcs.append(Arc(f"p{i}", i + 1, i))
        else:
            arcs.append(Arc(f"p{i}", i, i + 1))
    for j in range(draw(st.integers(0, max_extra))):
        tail = draw(st.integers(1, n))
        head = draw(st.integers(1, n))  # tail == head makes a loop, allowed
        arcs.append(Arc(f"x{j}", tail, head))
    return Multigraph(vertices, arcs)


@st.composite
def feasible_systems(draw, max_slack=2, max_extra=4):
    g = draw(connected_graphs(max_extra=max_extra))
    reference, lower, upper = {}, {}, {}
    for a in g.arcs:
        r = draw(st.integers(-2, 2))
        reference[a.id] = r
        lower[a.id] = r - draw(st.integers(0, max_slack))
        upper[a.id] = r + draw(st.integers(0, max_slack))
    return BondSystem(g, lower, upper, reference, 1)


@st.composite
def dag_graphs(draw):
    n = draw(st.integers(2, 4))
    arcs = []
    for j in range(draw(st.integers(1, 5))):
        tail = draw(st.integers(1, n - 1))
        arcs.append(Arc(f"e{j}", tail, draw(st.integers(tail + 1, n))))
    return Multigraph(list(range(1, n + 1)), arcs)


@given(data=st.data())
def test_cut_cycle_orthogonality(data):
    g = data.draw(connected_graphs())
    inside = {v for v in g.vertices if data.draw(st.booleans())}
    assume(inside and inside != set(g.vertices))
    sigma = dict(zip((a.id for a in g.arcs), cut_vector(g.arcs, inside)))
    for cycle in fundamental_cycles(g, spanning_tree(g)):
        assert sum(sign * sigma[a] for a, sign in cycle.items()) == 0


@st.composite
def split_multigraphs(draw):
    """One to four components, each a path with up to four more arcs,
    loops and parallel arcs among them; vertex and arc ids are all ints,
    all strings or mixed, and the arcs are listed in a random order."""
    n = draw(st.integers(1, 8))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    order = draw(st.permutations(range(n)))
    groups = [order[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
    kind = draw(st.sampled_from(("int", "str", "mixed")))

    def name(i, prefix):
        return i if kind == "int" or (kind == "mixed" and i % 2) else f"{prefix}{i}"

    ends = []
    for group in groups:
        for u, w in zip(group, group[1:]):
            ends.append((u, w) if draw(st.booleans()) else (w, u))
        for _ in range(draw(st.integers(0, 4))):
            ends.append((draw(st.sampled_from(group)), draw(st.sampled_from(group))))
    ids = draw(st.permutations(range(len(ends))))
    arcs = [Arc(name(k, "a"), name(t, "v"), name(h, "v")) for k, (t, h) in zip(ids, ends)]
    return Multigraph([name(i, "v") for i in range(n)], draw(st.permutations(arcs)))


@settings(max_examples=200, deadline=None)
@given(split_multigraphs())
def test_forest_matches_prim_and_breadth_first_oracles(g):
    """The union-find forest gives Prim's tree by arc rank, or its exact
    error text, and the breadth-first components in order."""
    try:
        tree = oracle_spanning_tree(g)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            spanning_tree(g)
        assert str(got.value) == str(exc)
    else:
        assert spanning_tree(g) == tree
    components = oracle_components(g)
    event(f"{len(components)} components")
    assert g.connected_components() == components
    assert g.is_connected() == (len(components) <= 1)


@given(data=st.data())
def test_legal_push_preserves_bond_and_targets(data):
    s = data.draw(feasible_systems())
    x = Bond(dict(s.reference))
    inside = {
        v for v in s.graph.vertices if v != s.forbidden and data.draw(st.booleans())
    }
    step = cut_vector(s.graph.arcs, inside)
    y = Bond({a.id: x.values[a.id] + d for a, d in zip(s.graph.arcs, step)})
    # legal: every crossing arc had slack, so the pushed labeling stays in its window
    assume(all(s.lower[a] <= v <= s.upper[a] for a, v in y.values.items()))
    assert s.check_bond(y).ok
    for cycle, target in zip(s.cycles, s.targets):
        assert flow_difference(y, cycle) == target


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lattice_laws_and_distributivity(data):
    s = data.draw(feasible_systems())
    reduced, _ = s.reduce()
    try:
        cd = enumerate_lattice(reduced, cap=200)
    except CapExceededError:
        assume(False)
    x = data.draw(st.sampled_from(cd.elements))
    y = data.draw(st.sampled_from(cd.elements))
    z = data.draw(st.sampled_from(cd.elements))
    meet, join, leq = reduced.meet, reduced.join, reduced.leq
    assert meet(x, y) == meet(y, x)
    assert join(x, y) == join(y, x)
    assert meet(x, meet(y, z)) == meet(meet(x, y), z)
    assert join(x, join(y, z)) == join(join(x, y), z)
    assert join(x, meet(x, y)) == x
    assert meet(x, join(x, y)) == x
    assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
    assert leq(x, y) == (meet(x, y) == x)
    if leq(x, y) and leq(y, x):
        assert x == y


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feasible_systems(max_slack=1, max_extra=3))
def test_enumeration_matches_box_oracle(s):
    expected = {frozenset(b.values.items()) for b in tension_bonds(s)}
    reduced, cmap = s.reduce()
    cd = enumerate_lattice(reduced, cap=10_000)
    got = {frozenset(cmap.expand(x).values.items()) for x in cd.elements}
    assert got == expected


def ranked_oracle(s: BondSystem) -> tuple[list, list]:
    """The bonds of a reduced system as arc-value tuples sorted by (rank,
    tuple), and their covers, from the tension oracle alone.  An element's
    rank is the sum of its potential (zero at the forbidden vertex) less
    the minimum's, and a cover raises the potential of one vertex by one."""
    order = [a.id for a in s.graph.arcs]
    potentials = {
        x.as_tuple(order): tension_potential(s.graph, {a: x.values[a] - s.reference[a] for a in order}, s.forbidden)
        for x in tension_bonds(s)
    }
    least = min(sum(p.values()) for p in potentials.values())
    ranked = sorted(potentials, key=lambda t: (sum(potentials[t].values()) - least, t))
    index = {tuple(sorted(potentials[t].items())): i for i, t in enumerate(ranked)}
    covers = []
    for i, t in enumerate(ranked):
        for v in s.pushable_vertices():
            up = tuple(sorted({**potentials[t], v: potentials[t][v] + 1}.items()))
            if up in index:
                covers.append((i, index[up], v))
    return ranked, sorted(covers)


@st.composite
def spanned_systems(draw):
    """Feasible systems whose windows all span 1 or 2, so no bridge is rigid."""
    g = draw(connected_graphs(max_extra=3))
    reference = {a.id: draw(st.integers(-2, 2)) for a in g.arcs}
    spans = {a.id: draw(st.integers(1, 2)) for a in g.arcs}
    lower = {a: r - draw(st.integers(0, spans[a])) for a, r in reference.items()}
    return BondSystem(g, lower, {a: lower[a] + spans[a] for a in lower}, reference, 1)


def _ranks(ranked: list, covers: list) -> list[int]:
    ranks = [0] * len(ranked)
    for lo, hi, _ in covers:  # sorted, so every lower end is ranked first
        ranks[hi] = ranks[lo] + 1
    return ranks


def explored_at_cap(per_rank: Counter, cap: int) -> int:
    """The `explored` count of an enumeration stopped by `cap`: the
    cumulative element count through the first rank past 0 that exceeds
    it, where the empty rank above the top counts too.  The minimum alone
    is never checked against the cap."""
    total = per_rank[0]
    for r in range(1, max(per_rank) + 2):
        total += per_rank[r]
        if total > cap:
            return total
    raise AssertionError(f"cap {cap} is not below the element count {total}")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spanned_systems())
def test_cap_exceeded_counts_through_the_crossing_rank(s):
    reduced, _ = s.reduce()
    per_rank = Counter(_ranks(*ranked_oracle(reduced)))
    count = sum(per_rank.values())
    assert enumerate_lattice(reduced, cap=count).n == count
    for cap in range(count):
        try:
            enumerate_lattice(reduced, cap=cap)
        except CapExceededError as exc:
            assert (exc.explored, exc.cap) == (explored_at_cap(per_rank, cap), cap)
        else:
            raise AssertionError(f"cap {cap} did not stop a walk over {count} elements")


@st.composite
def reduced_systems_with_oracle(draw):
    """A reduced system, its ranked oracle, an arc of it and a cap at which
    the walk packs values into fields of 8 to 64 bits."""
    s = draw(spanned_systems())
    if draw(st.integers(0, 9)) == 0:
        g = Multigraph([5], [Arc("loop", 5, 5)] * draw(st.integers(0, 1)))
        s = BondSystem(g, {a.id: -1 for a in g.arcs}, {a.id: 1 for a in g.arcs}, {a.id: 0 for a in g.arcs}, 5)
    reduced, _ = s.reduce()
    arcs = reduced.graph.arcs
    arc = draw(st.sampled_from(arcs)) if arcs else None
    cap = draw(st.sampled_from([10_000, 2**40, 2**62, 2**70]))
    return reduced, ranked_oracle(reduced), arc, cap


def _with_windows(s: BondSystem, arc_id, lower, upper, reference) -> BondSystem:
    return BondSystem(
        s.graph,
        {**s.lower, arc_id: lower},
        {**s.upper, arc_id: upper},
        {**s.reference, arc_id: reference},
        s.forbidden,
    )


_WIDE = [2**8, 2**16, 2**64, 2**70]
_SHIFTS = st.one_of(st.sampled_from([-(2**70), -(2**64) - 1, 2**64]), st.integers(-(2**70), 2**70))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reduced_systems_with_oracle(), st.sampled_from(_WIDE), st.integers(0, 7), _SHIFTS)
def test_enumeration_is_the_ranked_oracle_for_wide_and_shifted_windows(case, wide, at, shift):
    s, (ranked, covers), arc, cap = case
    cd = enumerate_lattice(s, cap=cap)
    assert (list(cd.vectors), list(cd.covers)) == (ranked, covers)
    event(f"{len(ranked)} elements")
    if arc is None:
        assert ranked == [()]
        return
    k = [a.id for a in s.graph.arcs].index(arc.id)

    # shifting one arc's window and reference shifts its value in every bond
    shifted = _with_windows(s, arc.id, s.lower[arc.id] + shift, s.upper[arc.id] + shift, s.reference[arc.id] + shift)
    cd = enumerate_lattice(shifted, cap=cap)
    assert list(cd.vectors) == [t[:k] + (t[k] + shift,) + t[k + 1 :] for t in ranked]
    assert list(cd.covers) == covers

    # a parallel copy of the arc, offset by `shift` and with a window `wide`
    # beyond its values, is held by the two-arc cycle: the potentials stay
    values = [t[k] for t in ranked]
    copy = Arc("copy", arc.tail, arc.head)
    arcs = list(s.graph.arcs)
    arcs.insert(at % (len(arcs) + 1), copy)
    doubled = BondSystem(
        Multigraph(s.graph.vertices, arcs),
        {**s.lower, "copy": min(values) + shift - wide},
        {**s.upper, "copy": max(values) + shift + wide},
        {**s.reference, "copy": s.reference[arc.id] + shift},
        s.forbidden,
    )
    at = arcs.index(copy)
    extended = [t[:at] + (t[k] + shift,) + t[at:] for t in ranked]
    cd = enumerate_lattice(doubled, cap=cap)
    assert list(cd.vectors) == [t for _, t in sorted(zip(_ranks(ranked, covers), extended))]
    back = {t: i for i, t in enumerate(extended)}
    assert sorted((back[cd.vectors[lo]], back[cd.vectors[hi]], v) for lo, hi, v in cd.covers) == covers

    # widening the arc's own window changes nothing once widening it by one
    # does not: the cycles already hold it inside
    low, high = s.lower[arc.id], s.upper[arc.id]
    if ranked_oracle(_with_windows(s, arc.id, low - 1, high + 1, s.reference[arc.id]))[0] == ranked:
        widened = _with_windows(s, arc.id, low - wide, high + wide, s.reference[arc.id])
        cd = enumerate_lattice(widened, cap=cap)
        assert (list(cd.vectors), list(cd.covers)) == (ranked, covers)
        event("arc held by its cycles")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feasible_systems(max_slack=1, max_extra=3))
def test_rigid_arcs_and_minimum_match_the_tension_oracle(s):
    bonds = tension_bonds(s)
    taken = {a.id: {x.values[a.id] for x in bonds} for a in s.graph.arcs}
    reduced, cmap = s.reduce()
    event("rigid arcs" if cmap.forced else "no rigid arc")
    assert dict(cmap.forced) == {a: min(values) for a, values in taken.items() if len(values) == 1}
    assert all(lo < hi for lo, hi in map(reduced.value_range, (a.id for a in reduced.graph.arcs)))
    potentials = [
        tension_potential(s.graph, {a: x.values[a] - s.reference[a] for a in x.values}, s.forbidden)
        for x in bonds
    ]
    least = [x for x, p in zip(bonds, potentials) if all(p[v] <= q[v] for q in potentials for v in p)]
    assert least == [cmap.expand(reduced.minimum_bond())]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feasible_systems(max_slack=1, max_extra=3), st.data())
def test_order_operations_on_unreduced_systems_match_push_reachability(s, data):
    # meet, join and leq compare potentials, so they need no reduce: rigid
    # arcs keep their forced values, and the order is the set-push order
    bonds = tension_bonds(s)
    event("rigid arcs" if s.reduce()[1].forced else "no rigid arc")
    event("several bonds" if len(bonds) > 1 else "one bond")
    reach = push_reachability(s, bonds)
    n = len(bonds)
    assert [[s.leq(x, y) for y in bonds] for x in bonds] == [[(i, j) in reach for j in range(n)] for i in range(n)]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    below = [k for k in range(n) if (k, i) in reach and (k, j) in reach]
    above = [k for k in range(n) if (i, k) in reach and (j, k) in reach]
    (glb,) = [k for k in below if all((m, k) in reach for m in below)]
    (lub,) = [k for k in above if all((k, m) in reach for m in above)]
    assert s.meet(bonds[i], bonds[j]) == bonds[glb]
    assert s.join(bonds[i], bonds[j]) == bonds[lub]


@settings(max_examples=200, deadline=None)
@given(feasible_systems(max_extra=5), st.data())
def test_check_bond_matches_the_tension_and_window_oracles(s, data):
    # a labeling near the reference's tensions, often off one: the report is
    # ok exactly when the windows hold and some potential fits, and it lists
    # every window fault in arc order
    p = {v: data.draw(st.integers(-1, 1)) for v in s.graph.vertices}
    values = {a.id: s.reference[a.id] + p[a.tail] - p[a.head] for a in s.graph.arcs}
    for a in data.draw(st.lists(st.sampled_from([a.id for a in s.graph.arcs]), max_size=2)):
        values[a] += data.draw(st.sampled_from((-1, 1)))
    fits = tension_potential(s.graph, {a: values[a] - s.reference[a] for a in values}, s.forbidden) is not None
    windows = [(a.id, values[a.id], s.lower[a.id], s.upper[a.id]) for a in s.graph.arcs]
    faults = tuple(row for row in windows if not row[2] <= row[1] <= row[3])
    event("bond" if fits and not faults else "not a bond")
    report = s.check_bond(Bond(values))
    assert (report.ok, report.capacity_violations, not report.cycle_violations) == (fits and not faults, faults, fits)


@st.composite
def windowed_systems(draw):
    """Systems whose reference may leave its windows, so some have no bond."""
    g = draw(connected_graphs(max_extra=5))
    reference, lower, upper = {}, {}, {}
    for a in g.arcs:
        lower[a.id] = draw(st.integers(-2, 2))
        upper[a.id] = lower[a.id] + draw(st.integers(0, 2))
        reference[a.id] = draw(st.integers(-3, 3))
    return BondSystem(g, lower, upper, reference, draw(st.sampled_from(g.vertices)))


@settings(max_examples=300, deadline=None)
@given(windowed_systems())
def test_queue_distances_and_one_pass_classes_match_the_arc_order_oracles(s):
    for source in s.graph.vertices:
        for reverse in (False, True):
            dist, certificate = arc_order_distances(s, source, reverse)
            if certificate is None:
                assert s._distances(source, reverse) == dist
                continue
            try:
                s._distances(source, reverse)
            except InfeasibleSystemError as exc:
                got = (dict(exc.cycle.signs), exc.required, exc.window_min, exc.window_max)
                assert got == certificate
            else:
                raise AssertionError("a negative cycle went unreported")
    dist, certificate = arc_order_distances(s, s.forbidden)
    event("infeasible" if certificate else "feasible")
    if certificate is None:
        x = Bond({a.id: s.reference[a.id] + dist[a.tail] - dist[a.head] for a in s.graph.arcs})
        rep, forced = rigid_classes_by_reachability(s, x)
        event("rigid arcs" if forced else "no rigid arc")
        _, cmap = s.reduce()
        assert (dict(cmap.vertex_map), dict(cmap.forced)) == (rep, forced)
        assert list(cmap.vertex_map) == list(rep) and list(cmap.forced) == list(forced)


@settings(max_examples=300, deadline=None)
@given(windowed_systems())
def test_a_reduced_system_is_reduced_when_built_afresh(s):
    try:
        reduced, _ = s.reduce()
    except InfeasibleSystemError:
        event("infeasible")
        return
    fresh = BondSystem(reduced.graph, reduced.lower, reduced.upper, reduced.reference, reduced.forbidden)
    assert not fresh.reduce()[1].forced
    assert fresh.minimum_bond() == reduced.minimum_bond()


@settings(max_examples=300, deadline=None)
@given(windowed_systems())
def test_the_checking_constructor_accepts_the_walk_unchanged(s):
    # the walk builds its digraph unchecked; the public constructor checks
    # range, self-loops and order, so it must take the walk's covers as they are
    try:
        reduced, _ = s.reduce()
    except InfeasibleSystemError:
        event("infeasible")
        return
    cd = enumerate_lattice(reduced)
    checked = CoverDigraph(cd.vectors, cd.covers, cd.arc_order)
    assert checked.covers == cd.covers and checked.vectors == cd.vectors


@st.composite
def system_docs(draw):
    """System documents on 1-5 vertices, each with "x" and "y" labelings.

    Most examples hang every vertex off an earlier one; both ends of the
    extra arcs are drawn freely, so loops, parallel arcs and disconnected
    graphs occur.  Some windows are empty and some references lie outside
    their windows, so many systems are infeasible.  "x" and "y" are the
    reference or a drawn labeling.
    """
    n = draw(st.integers(1, 12))
    rooted = draw(st.integers(0, 3)) != 2
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if rooted else []
    for _ in range(draw(st.integers(0, 5))):
        pairs.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    arcs, lower, upper, reference = [], {}, {}, {}
    for k, (tail, head) in enumerate(pairs):
        a = f"a{k}"
        if draw(st.booleans()):
            tail, head = head, tail
        arcs.append({"id": a, "tail": tail, "head": head})
        lower[a] = draw(st.integers(-2, 2))
        upper[a] = lower[a] + (-1 if draw(st.integers(0, 9)) == 5 else draw(st.integers(0, 2)))
        reference[a] = lower[a] + draw(st.integers(-1, 2))
    labelings = [reference] + [{a: draw(st.integers(-2, 2)) for a in reference} for _ in range(2)]
    return {
        "vertices": list(range(n)),
        "arcs": arcs,
        "lower": lower,
        "upper": upper,
        "reference": reference,
        "forbidden": draw(st.integers(0, n - 1)),
        "x": draw(st.sampled_from(labelings)),
        "y": draw(st.sampled_from(labelings)),
    }


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system_docs())
def test_system_commands_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.json", Path(tmp) / "out.json"
        source.write_text(dumps(doc), encoding="utf-8")
        for command, *extra in (["reduce"], ["find-bond"], ["lattice", "--cap", "200"], ["leq"]):
            sink.unlink(missing_ok=True)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--input", str(source), "--output", str(sink), *extra])
            event(f"{command} exit {code}")
            assert code in (0, 1, 2)
            assert "Traceback" not in stderr.getvalue()
            if code != 2:
                json.loads(sink.read_text(encoding="utf-8"))


@st.composite
def connected_system_docs(draw):
    """(document, forbidden override) on a connected graph: windows, either
    reference form, both or neither, a forbidden vertex that may be unknown,
    and at times one table with a missing arc or a stray key."""
    g = draw(connected_graphs())
    doc = graph_json(g)
    arc_ids = [a.id for a in g.arcs]
    doc["lower"] = {a: draw(st.integers(-2, 0)) for a in arc_ids}
    doc["upper"] = {a: draw(st.integers(0, 2)) for a in arc_ids}
    form = draw(st.sampled_from(["reference", "delta"] * 3 + ["both", "neither"]))
    if form in ("reference", "both"):
        doc["reference"] = {a: draw(st.integers(-1, 1)) for a in arc_ids}
    if form in ("delta", "both"):
        tree = spanning_tree(g)
        doc["delta_on_fundamental_cycles"] = {a: draw(st.integers(-1, 1)) for a in arc_ids if a not in tree}
    if draw(st.booleans()):
        doc["forbidden"] = draw(st.integers(1, 5))
    if draw(st.integers(0, 2)) == 0:
        table = doc.get(draw(st.sampled_from(["lower", "upper", "reference", "delta_on_fundamental_cycles"])))
        if table and draw(st.booleans()):
            del table[draw(st.sampled_from(sorted(table)))]
        elif table is not None:
            table[draw(st.sampled_from(["zz", *arc_ids]))] = 0
    return doc, draw(st.sampled_from([None, None, 2, 5]))


def _read_or_error(read, doc, override):
    try:
        return read(doc, override)
    except InputFormatError as exc:
        return exc.path, str(exc)


@settings(max_examples=200, deadline=None)
@given(connected_system_docs())
def test_parse_systems_of_a_connected_document_is_parse_system(case):
    def parts(s):
        return s.graph, s.lower, s.upper, s.reference, s.forbidden

    one, many = (_read_or_error(read, *case) for read in (parse_system, parse_systems))
    event("error" if isinstance(one, tuple) else "system")
    if isinstance(one, tuple):
        assert many == one
    else:
        assert [parts(s) for s in many] == [parts(one)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feasible_systems(max_slack=1, max_extra=3))
def test_pushcount_labels_are_push_counts(s):
    reduced, _ = s.reduce()
    order = reduced.pushable_vertices()
    expected = [
        ",".join(str(reduced.push_counts(x)[v]) for v in order)
        for x in enumerate_lattice(reduced).elements
    ]
    with tempfile.TemporaryDirectory() as tmp:
        source, sink, dot = Path(tmp) / "in.json", Path(tmp) / "out.json", Path(tmp) / "out.dot"
        source.write_text(dumps(system_json(s)), encoding="utf-8")
        argv = ["--input", str(source), "--output", str(sink), "--dot", str(dot), "--coords", "pushcount"]
        assert main(["enumerate", *argv]) == 0
        text = dot.read_text(encoding="utf-8")
    assert re.findall(r'^  n\d+ \[label="(.*)"\];$', text, re.M) == expected


@given(data=st.data())
def test_firing_conserves_chips(data):
    g = data.draw(connected_graphs())
    current = ChipArrangement({v: data.draw(st.integers(0, 3)) for v in g.vertices})
    total = current.total()
    for _ in range(20):
        options = [v for v in g.vertices if can_fire(g, current, v)]
        if not options:
            break
        current = fire(g, current, data.draw(st.sampled_from(options)))
        assert current.total() == total


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_dag_games_terminate_and_certify(data):
    g = data.draw(dag_graphs())
    start = ChipArrangement({v: data.draw(st.integers(0, 3)) for v in g.vertices})
    game = build_game(g, start, cap=5000)
    assert game.verdict == "finite"
    assert certify_game(game).ok


@given(connected_graphs())
def test_graph_json_round_trip(g):
    assert parse_graph(json.loads(dumps(graph_json(g)))) == g


@given(feasible_systems())
def test_system_json_round_trip(s):
    parsed = parse_system(json.loads(dumps(system_json(s))))
    assert parsed.graph == s.graph
    assert parsed.lower == s.lower
    assert parsed.upper == s.upper
    assert parsed.reference == s.reference
    assert parsed.forbidden == s.forbidden


@st.composite
def colored_digraph_docs(draw):
    """check-uld documents on at most 6 vertices.

    Self-loops, parallel arcs, cycles and disconnected parts all occur.
    Most examples hang every vertex off an earlier one and point the
    extra arcs to later vertices, so connected acyclic digraphs with a
    unique source, and with them ULD verdicts, are common.  Some
    documents leave their first arc uncolored, which makes them malformed.
    """
    n = draw(st.integers(0, 6))
    rooted = draw(st.integers(0, 2)) > 0
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if rooted else []
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        tail = draw(st.integers(0, n - 2 if rooted else n - 1))
        head = draw(st.integers(tail + 1 if rooted else 0, n - 1))
        pairs.append((tail, head))
    arcs, colors = [], {}
    for k, (tail, head) in enumerate(pairs):
        arcs.append({"id": f"a{k}", "tail": tail, "head": head})
        colors[f"a{k}"] = draw(st.integers(0, 2))
    if arcs and draw(st.integers(0, 9)) == 5:
        del colors["a0"]
    return {"vertices": list(range(n)), "arcs": arcs, "colors": colors}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(colored_digraph_docs())
def test_check_uld_exits_cleanly_and_agrees_with_brute_force(doc):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        source, sink = Path(tmp) / "in.json", Path(tmp) / "out.json"
        source.write_text(dumps(doc), encoding="utf-8")
        with contextlib.redirect_stderr(stderr):
            code = main(["check-uld", "--input", str(source), "--output", str(sink)])
        payload = json.loads(sink.read_text(encoding="utf-8")) if code != 2 else None
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    try:
        verdict = certify_uld_cover(parse_colored_digraph(doc))
    except InputFormatError:
        assert code == 2
        return
    event(verdict.status)
    assert payload["verdict"] == verdict.status
    assert code == (0 if verdict.ok else 1)
    if verdict.status == "uld":
        report = brute_uld(closure_poset(parse_colored_digraph(doc)))
        assert report.is_lattice and report.is_uld


@st.composite
def closure_lattices(draw):
    """Lattices of the subsets of a 1-5 element ground set that are
    intersections of drawn sets, with the ground set on top, in a drawn
    element order.  Non-ULD lattices such as M3 occur.  The poset is closed
    from every comparable pair, so the closure also runs on relations that
    are not reduced."""
    full = (1 << draw(st.integers(1, 5))) - 1
    sets = {full, *draw(st.lists(st.integers(0, full), max_size=6))}
    while more := {a & b for a in sets for b in sets} - sets:
        sets |= more
    order = draw(st.permutations(sorted(sets)))
    pairs = [(i, j) for i, s in enumerate(order) for j, t in enumerate(order) if i != j and s & t == s]
    return FinitePoset.from_covers(tuple(range(len(order))), pairs)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closure_lattices())
def test_brute_uld_agrees_with_the_subset_search(p):
    report = brute_uld(p)
    expected = uld_certificate(p)
    event("uld" if expected is None else "not uld")
    assert report.is_lattice
    assert report.is_uld == (expected is None)
    assert report.uld_certificate == expected


@st.composite
def acyclic_posets(draw):
    """Posets on 1-8 labelled elements: the closure of drawn pairs oriented
    along a drawn element order, so lattices and non-lattices both occur."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    covers = [(order[min(i, j)], order[max(i, j)]) for i, j in pairs if i != j]
    return FinitePoset.from_covers(tuple(f"e{i}" for i in range(n)), covers)


@settings(max_examples=100, deadline=None)
@given(acyclic_posets())
def test_lattice_witness_is_the_first_pair_without_a_meet_or_join(p):
    expected = lattice_witness(p.above)
    event("lattice" if expected is None else expected[2])
    report = brute_uld(p)
    assert (report.is_lattice, report.lattice_witness if expected else None) == (expected is None, expected)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(acyclic_posets(), closure_lattices()))
def test_representation_report_agrees_with_the_subset_search(p):
    report = unique_minimal_representation_report(p)
    ok, witness, representations = representation_report(p)
    if not ok:
        kinds = {2: "two maximal lower bounds", 3: "two representations"}
        event("no representation" if witness[1] is None else kinds[len(witness)])
    assert report.ok == ok
    assert report.witness == witness
    assert report.representations == representations


@st.composite
def successor_lists(draw):
    """Digraphs on at most 6 vertices as successor lists.

    Half of them point every arc forward, so acyclic digraphs are common;
    the rest draw both ends freely, with loops, parallel arcs and cycles.
    """
    n = draw(st.integers(0, 6))
    forward = draw(st.booleans())
    succ: list[list[int]] = [[] for _ in range(n)]
    for _ in range(draw(st.integers(0, 10)) if n > 1 else 0):
        tail = draw(st.integers(0, n - 2 if forward else n - 1))
        succ[tail].append(draw(st.integers(tail + 1 if forward else 0, n - 1)))
    return succ


@settings(max_examples=300)
@given(successor_lists())
def test_topological_order_is_none_exactly_on_a_cycle(succ):
    pairs = [(i, j) for i, heads in enumerate(succ) for j in heads]
    cd = ColoredDigraph.from_triples(len(succ), [(i, j, 0) for i, j in pairs])
    order = cd.order(1)
    cycle = _find_directed_cycle(cd.out)
    event("cyclic" if cycle else "acyclic")
    assert (order is None) == (cycle is not None)
    if order is not None:
        assert sorted(order) == list(range(len(succ)))
        position = {v: k for k, v in enumerate(order)}
        assert all(position[i] < position[j] for i, j in pairs)


@settings(max_examples=300)
@given(successor_lists())
def test_closure_is_the_reachability_oracle(succ):
    above, cyclic = reachability_masks(succ)
    event("cyclic" if cyclic else "acyclic")
    pairs = [(i, j) for i, heads in enumerate(succ) for j in heads]
    if cyclic:
        with pytest.raises(PosetError, match="directed cycle"):
            FinitePoset.from_covers(range(len(succ)), pairs)
    else:
        pred: list[list[int]] = [[] for _ in succ]
        for i, j in pairs:
            pred[j].append(i)
        below, _ = reachability_masks(pred)
        p = FinitePoset.from_covers(range(len(succ)), pairs)
        assert p.above == tuple(above) and p.below == tuple(below)
        assert (p.dual().above, p.dual().below) == (p.below, p.above)
        assert partial_order_violation(p.above) is None
        assert partial_order_violation(p.below) is None
        # the covers are read off the generating arcs, shortcuts and parallel copies among them
        assert p.covers() == transitive_reduction(above)
        assert p.dual().covers() == transitive_reduction(below)


def test_partial_order_oracle_names_each_failure():
    assert partial_order_violation([0b10, 0b10]) == ("reflexive", 0, 0)
    assert partial_order_violation([0b11, 0b11]) == ("antisymmetric", 0, 1)
    assert partial_order_violation([0b011, 0b110, 0b100]) == ("transitive", 0, 1)
    assert partial_order_violation([0b101, 0b10]) == ("range", 0, 0)
    assert partial_order_violation([0b111, 0b110, 0b100]) is None


_IDS = st.one_of(
    st.integers(0, 30),
    st.sampled_from(["a", "b", "x", "y10"]),
    st.tuples(st.integers(0, 2), st.sampled_from([0, "q"])),
)


@st.composite
def colored_digraphs(draw):
    """Colored digraphs on at most 6 vertices with int, str and tuple ids.

    Returns (vertices, arcs, colors) and leaves the build to the caller.
    A quarter are grids colored by direction, which are distributive, and
    half hang every vertex off an earlier one; both point their extra arcs
    forward.  The rest draw both ends freely, with loops, parallel arcs,
    cycles and disconnected parts.
    """
    shape = draw(st.sampled_from(["grid", "rooted", "rooted", "free"]))
    if shape == "grid":
        rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        n = rows * cols
        triples = [(v, v + 1, 0) for v in range(n) if v % cols < cols - 1]
        triples += [(v, v + cols, 1) for v in range(n - cols)]
    else:
        n = draw(st.integers(0, 6))
        triples = [(draw(st.integers(0, v - 1)), v, draw(st.integers(0, 2))) for v in range(1, n)]
        if shape == "free":
            triples = []
    for _ in range(draw(st.integers(0, 4 if shape == "grid" else 7)) if n > 1 else 0):
        tail = draw(st.integers(0, n - 1 if shape == "free" else n - 2))
        head = draw(st.integers(0 if shape == "free" else tail + 1, n - 1))
        triples.append((tail, head, draw(st.integers(0, 2))))
    vertices = draw(st.lists(_IDS, unique=True, min_size=n, max_size=n))
    ids = draw(st.lists(_IDS, unique=True, min_size=len(triples), max_size=len(triples)))
    arcs = [Arc(k, vertices[t], vertices[h]) for k, (t, h, _) in zip(ids, triples)]
    colors = {k: c for k, (_, _, c) in zip(ids, triples)}
    return vertices, arcs, colors


@settings(max_examples=300, deadline=None)
@given(colored_digraphs(), st.booleans())
def test_lld_is_uld_of_the_reversed_digraph(digraph, from_triples):
    vertices, arcs, colors = digraph
    if from_triples:
        index = {v: i for i, v in enumerate(vertices)}
        triples = [(index[a.tail], index[a.head], colors[a.id]) for a in arcs]
        vertices = range(len(vertices))
        arcs = [Arc(k, t, h) for k, (t, h, _) in enumerate(triples)]
        colors = {k: c for k, (_, _, c) in enumerate(triples)}
        cd = ColoredDigraph.from_triples(len(vertices), triples)
    else:
        cd = ColoredDigraph(Multigraph(vertices, arcs), colors)
    flipped = ColoredDigraph(Multigraph(vertices, [Arc(a.id, a.head, a.tail) for a in arcs]), colors)
    lld = certify_lld_cover(cd)
    uld = certify_uld_cover(flipped)
    event(lld.status)
    renamed = {"uld": "lld", "no unique source": "no unique sink"}
    assert lld.status == renamed.get(uld.status, uld.status)
    assert lld.ok == uld.ok
    assert lld.witness == uld.witness


_VERTEX_IDS = [0, 1, 7, 30, "a", "b", "y10", (0, "q"), (2, 0)]
_ARC_IDS = [*range(12), *(f"e{k}" for k in range(8)), ("t", 0), ("t", 1)]


@st.composite
def cover_multidigraphs(draw):
    """Colored multidigraphs on 0-7 vertices in one to three parts.

    Each part hangs every vertex off an earlier one by an arc pointing
    forward or, one time in four, back, so a part may have several sources
    or sinks.  Extra arcs are loops, parallel copies, forward arcs and
    free arcs that close cycles.  Colors come from three, so they repeat.
    Half are built from triples on 0..n-1, half from a `Multigraph` with
    mixed vertex and arc ids.
    """
    n = draw(st.integers(0, 7))
    if n == 0:
        return ColoredDigraph.from_triples(0, [])
    k = min(n, draw(st.sampled_from([1, 1, 1, 2, 3])))
    cuts = sorted(draw(st.permutations(range(1, n)))[: k - 1])
    color = st.integers(0, 2)
    triples = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        for v in range(lo + 1, hi):
            u = draw(st.integers(lo, v - 1))
            triples.append((v, u, draw(color)) if draw(st.integers(0, 3)) == 0 else (u, v, draw(color)))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["forward", "forward", "forward", "loop", "parallel", "free"]))
            t, h = draw(st.integers(lo, hi - 1)), draw(st.integers(lo, hi - 1))
            if kind == "forward":
                t, h = min(t, h), max(t, h)
            elif kind == "loop":
                h = t
            elif kind == "parallel" and triples:
                t, h, _ = draw(st.sampled_from(triples))
            triples.append((t, h, draw(color)))
    if draw(st.booleans()):
        return ColoredDigraph.from_triples(n, triples)
    vertices = draw(st.permutations(_VERTEX_IDS))[:n]
    ids = draw(st.permutations(_ARC_IDS))[: len(triples)]
    arcs = [Arc(a, vertices[t], vertices[h]) for a, (t, h, _) in zip(ids, triples)]
    return ColoredDigraph(Multigraph(vertices, arcs), {a: c for a, (_, _, c) in zip(ids, triples)})


@settings(max_examples=400, deadline=None)
@given(cover_multidigraphs())
def test_cover_verdicts_match_the_ordered_chain_oracle(cd):
    # one Kahn pass read from either end must name the same first failure
    # and witness as connectivity, cycle and source searches run in turn
    for side, certify, far in (("uld", certify_uld_cover, 1), ("lld", certify_lld_cover, 0)):
        verdict = certify(cd)
        event(f"{side}: {verdict.status}")
        assert (verdict.status, verdict.ok, verdict.witness) == oracle_cover_verdict(cd, side)
        coloring, completion = oracle_fork_witnesses(cd, side)
        for report, witnesses in ((check_distinct_fork_colors(cd, far), coloring), (check_fork_completion(cd, far), completion)):
            assert (report.ok, report.witnesses) == (not witnesses, witnesses)


@st.composite
def chip_docs(draw):
    """chipfire documents: 2-4 vertices, at most 6 arcs and 0-6 chips.

    Both ends of every arc are drawn freely, so loops, parallel arcs and
    2-cycles all occur.
    """
    n = draw(st.integers(2, 4))
    arcs = [
        {"id": f"a{k}", "tail": draw(st.integers(0, n - 1)), "head": draw(st.integers(0, n - 1))}
        for k in range(draw(st.integers(0, 6)))
    ]
    chips: dict = {}
    for _ in range(draw(st.integers(0, 6))):
        v = str(draw(st.integers(0, n - 1)))
        chips[v] = chips.get(v, 0) + 1
    return {"vertices": list(range(n)), "arcs": arcs, "chips": chips}


def _reachable(n: int, moves, start: int) -> set:
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in moves:
        succ[i].append(j)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in succ[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return seen


def _has_cycle(n: int, moves) -> bool:
    reach = {j: _reachable(n, moves, j) for _, j, _ in moves}
    return any(i in reach[j] for i, j, _ in moves)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chip_docs())
def test_chipfire_exits_cleanly_and_orders_by_reachability(doc):
    for extra in ([], ["--ccfg"]):
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            source, sink = Path(tmp) / "in.json", Path(tmp) / "out.json"
            source.write_text(dumps(doc), encoding="utf-8")
            with contextlib.redirect_stderr(stderr):
                code = main(["chipfire", "--input", str(source), "--output", str(sink), "--cap", "200", *extra])
            payload = json.loads(sink.read_text(encoding="utf-8")) if code != 2 else None
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 2:
            # the documents are well formed; only the brute search limit may refuse one
            assert extra and "brute representation search is limited" in stderr.getvalue()
            continue
        cyclic = _has_cycle(len(payload["states"]), payload["moves"])
        if not extra:
            event(f"game {payload['verdict']}")
            if payload["verdict"] != "cap exceeded":
                assert (payload["verdict"] == "cyclic") == cyclic
            if payload["verdict"] == "finite":
                assert payload["certificate"]["ok"] is True
                assert code == 0
            continue
        event(f"closure complete={payload['complete']} acyclic={payload['acyclic']}")
        assert payload["acyclic"] == (not cyclic)
        if payload["complete"] and payload["acyclic"]:
            g, start = parse_chip_input(doc)
            game = build_complete_game(g, start, cap=200)
            assert [list(m) for m in game.moves] == payload["moves"]
            poset = game.to_colored_digraph().closure
            n = len(game.states)
            for i in range(n):
                above = _reachable(n, game.moves, i)
                assert all(poset.leq(i, j) == (j in above) for j in range(n))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chip_docs())
def test_firing_counts_are_the_multiset_of_every_maximal_sequence(doc):
    g, start = parse_chip_input(doc)
    game = build_game(g, start, cap=200)
    event(f"game {game.verdict}")
    assume(game.verdict == "finite")
    counts = certify_game(game).firing_counts
    assert len(counts) == len(game.states)
    states, moves, _ = oracle_game(g, dict(start), 200)
    assert [tuple(s[v] for v in g.vertices) for s in game.states] == states
    for i in range(len(game.states)):
        for seq in oracle_firing_sequences(moves, start=i):
            assert counts[i] == Counter(seq)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chip_docs(), st.integers(0, 8))
def test_capped_games_match_the_dict_oracle_move_for_move(doc, cap):
    g, start = parse_chip_input(doc)
    rows = lambda game: [tuple(s[v] for v in g.vertices) for s in game.states]
    game = build_game(g, start, cap=cap)
    states, moves, verdict = oracle_game(g, dict(start), cap)
    event(f"game {verdict}")
    assert (rows(game), game.moves, game.verdict) == (states, moves, verdict)
    assert game.complete == (verdict != "cap exceeded")
    closure = build_complete_game(g, start, cap=cap)
    states, moves, complete, acyclic = oracle_complete_game(g, dict(start), cap)
    event(f"closure complete={complete} acyclic={acyclic}")
    assert (rows(closure), closure.moves) == (states, moves)
    assert (closure.complete, closure.acyclic) == (complete, acyclic)


def _assert_single_moves_match_the_dict_oracles(g: Multigraph, chips: ChipArrangement):
    for v in g.vertices:
        for move, legal, oracle_legal, oracle_move in (
            (fire, can_fire, oracle_can_fire, oracle_fire),
            (unfire, can_unfire, oracle_can_unfire, oracle_unfire),
        ):
            expected = oracle_legal(g, dict(chips), v)
            assert legal(g, chips, v) == expected
            if not expected:
                with pytest.raises(ChipError):
                    move(g, chips, v)
                continue
            after = move(g, chips, v)
            assert after == Counter(oracle_move(g, dict(chips), v))
            assert set(after) <= set(g.vertices)


@given(chip_docs(), st.data())
def test_fire_and_unfire_match_the_dict_oracle(doc, data):
    g, _ = parse_chip_input(doc)
    _assert_single_moves_match_the_dict_oracles(g, ChipArrangement({v: data.draw(st.integers(0, 3)) for v in g.vertices}))


# Piles at the packed fields' edges: 2**7 and 2**15 chips fill an 8- and a
# 16-bit field up to its guard bit, one chip more needs the next width,
# 2**63 fills a 64-bit field, and 2**70 needs fields decoded by byte slices.
_PILES = (2**7 - 1, 2**7, 2**15, 2**16, 2**63, 2**70)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chip_docs(), st.sampled_from(_PILES), st.data(), st.integers(0, 8))
def test_packed_games_match_the_dict_oracles_at_field_boundaries(doc, pile, data, cap):
    g, start = parse_chip_input(doc)
    start[data.draw(st.sampled_from(g.vertices))] += pile
    rows = lambda game: [tuple(s[v] for v in g.vertices) for s in game.states]
    game = build_game(g, start, cap=cap)
    assert (rows(game), game.moves, game.verdict) == oracle_game(g, dict(start), cap)
    closure = build_complete_game(g, start, cap=cap)
    states, moves, complete, acyclic = oracle_complete_game(g, dict(start), cap)
    assert (rows(closure), closure.moves, closure.complete, closure.acyclic) == (states, moves, complete, acyclic)
    for chips in game.states:
        _assert_single_moves_match_the_dict_oracles(g, chips)


# Ids for the writer properties: ints, and short strings mixing ASCII,
# non-ASCII, JSON escapes ('"', '\\', control characters) and '%', which
# the row templates must escape.
_WRITER_TEXT = st.text(alphabet='a%d"\\\n\t\x00\x1f\u00e9\u03bb\u20ac\U0001f600 ', max_size=4)
_WRITER_IDS = st.one_of(st.integers(-30, 30), _WRITER_TEXT)


def _plain(value):
    """The payload with every row sequence turned into a plain list."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Sequence) and not isinstance(value, str):
        return [_plain(v) for v in value]
    return value


def _assert_written_as_json_dumps(payload):
    expected = json.dumps(_plain(payload), indent=2, ensure_ascii=True) + "\n"
    assert dumps(payload) == expected


@st.composite
def enumerate_payloads(draw):
    """An `enumerate`-shaped payload over a random cover digraph.

    Lattice arcs and forced arcs draw from one pool of distinct ids, so
    forced values sort between lattice arcs; with no lattice arcs every
    element is `{}`, and the cover list may be empty.
    """
    ids = draw(st.lists(_WRITER_IDS, max_size=6, unique_by=str))
    split = draw(st.integers(0, len(ids)))
    arc_order, forced_ids = ids[:split], ids[split:]
    forced = {a: draw(st.integers(-3, 3)) for a in forced_ids}
    n = draw(st.integers(1, 12))
    vectors = [tuple(draw(st.integers(-20, 20)) for _ in arc_order) for _ in range(n)]
    covers = []
    if n > 1:
        for _ in range(draw(st.integers(0, 16))):
            lo, hi = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            covers.append((lo, hi, draw(_WRITER_IDS)))
    cd = CoverDigraph(vectors, covers, tuple(arc_order))
    return {
        "count": cd.n,
        **cover_digraph_json(cd, forced),
        "contraction": {"forced": {str(a): v for a, v in forced.items()}, "vertex_map": {}},
    }


@given(enumerate_payloads())
def test_writer_matches_json_dumps_on_cover_digraphs(payload):
    _assert_written_as_json_dumps(payload)


@given(st.lists(enumerate_payloads(), min_size=2, max_size=3), st.lists(_WRITER_IDS, max_size=3))
def test_writer_matches_json_dumps_on_nested_components(parts, vertices):
    # the shape a disconnected input gives: tables two levels deep
    components = [{"vertices": vertices, "forbidden": None, **part} for part in parts]
    _assert_written_as_json_dumps({"product_size": len(parts), "components": components})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chip_docs(), st.lists(_WRITER_IDS, min_size=4, max_size=4, unique_by=str))
def test_writer_matches_json_dumps_on_games(doc, names):
    # relabel the vertices so that state keys and move colors are any ids
    rename = dict(zip(range(4), names))
    doc = {
        "vertices": [rename[v] for v in doc["vertices"]],
        "arcs": [{**a, "tail": rename[a["tail"]], "head": rename[a["head"]]} for a in doc["arcs"]],
        "chips": {str(rename[int(v)]): k for v, k in doc["chips"].items()},
    }
    g, start = parse_chip_input(doc)
    game = build_game(g, start, cap=50)
    payload = game_json(game)
    if game.verdict == "finite":
        payload["certificate"] = game_certificate_json(certify_game(game), game)
    _assert_written_as_json_dumps(payload)
    _assert_written_as_json_dumps(complete_game_json(build_complete_game(g, start, cap=6)))


# 0-9 rows, or, for three draws in a hundred, one row either side of a `BLOCK_ROWS` edge or on it
_TABLE_SIZES = st.integers(0, 99).map(lambda k: k % 10 if k < 97 else BLOCK_ROWS + k - 98)


@st.composite
def row_tables(draw):
    """A `RowTable` of either kind: triples with int or string colours, or
    rows keyed by drawn keys."""
    n, step = draw(_TABLE_SIZES), draw(st.integers(1, 9))
    if draw(st.booleans()):
        colors = draw(st.lists(_WRITER_IDS, min_size=1, max_size=4))
        return RowTable(tuple((k, k + step, colors[k % len(colors)]) for k in range(n)))
    keys = draw(st.lists(_WRITER_TEXT, max_size=4, unique=True))
    return RowTable(tuple(tuple((k * step + j) % 13 - 6 for j in range(len(keys))) for k in range(n)), keys)


_PAST_THE_DIGIT_LIMIT = st.integers(4300, 4400).flatmap(lambda d: st.sampled_from([10**d + 7, -(10**d) - 3]))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _PAST_THE_DIGIT_LIMIT, _WRITER_TEXT, row_tables()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_WRITER_TEXT, inner, max_size=4),
    ),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_JSON_VALUES)
def test_writer_matches_json_dumps_on_any_json_value(value):
    # scalars, empty containers, tuples and integers past the digit limit, with tables at any depth
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(0)
    try:
        _assert_written_as_json_dumps(value)
    finally:
        if set_limit:
            set_limit(limit)
