"""Bond systems: validity, feasibility, reduction, pushes, and the order."""

import time
from collections import Counter

import pytest

from bondlat import (
    Arc,
    Bond,
    BondSystem,
    CycleVector,
    GraphError,
    InfeasibleSystemError,
    Multigraph,
    arc_value_range,
    find_initial_bond,
    flow_difference,
)

from bondlat import bonds
from bondlat.jsonio import parse_system

from util import (
    arc_order_distances,
    cut_vector,
    grid_order_document,
    ladder_document,
    path_document,
    star_system,
    tension_bonds,
    tri_graph,
    tri_system,
)

ARCS = ("a1", "a2", "a3")


def path_system(lo=0, hi=2):
    g = Multigraph([1, 2, 3], [Arc("a", 1, 2), Arc("b", 2, 3)])
    return BondSystem(
        g, {"a": lo, "b": lo}, {"a": hi, "b": hi}, {"a": 0, "b": 0}, 1
    )


def bond(*triple):
    return Bond(dict(zip(ARCS, triple)))


def pushed(s, x, inside):
    """x with the cut vector of `inside` added: the push of that vertex set."""
    step = cut_vector(s.graph.arcs, inside)
    return Bond({a.id: x.values[a.id] + d for a, d in zip(s.graph.arcs, step)})


def test_system_rejects_disconnected_and_missing_tables():
    g = Multigraph([1, 2], [])
    with pytest.raises(GraphError):
        BondSystem(g, {}, {}, {}, 1)
    with pytest.raises(GraphError):
        BondSystem(tri_graph(), {"a1": 0}, {"a1": 1}, {"a1": 0}, 1)
    with pytest.raises(GraphError):
        tri_system(forbidden=9)


def test_system_rejects_empty_window():
    g = Multigraph([1, 2], [Arc("a", 1, 2)])
    with pytest.raises(GraphError):
        BondSystem(g, {"a": 3}, {"a": 2}, {"a": 0}, 1)


def test_flow_difference_accepts_bond_or_mapping():
    cycle = CycleVector({"a1": 1, "a2": 1, "a3": 1})
    assert flow_difference(bond(1, 0, 0), cycle) == 1
    assert flow_difference({"a1": 2, "a2": 0, "a3": -1}, cycle) == 1
    assert flow_difference(bond(1, 0, 0), cycle.reversed()) == -1


class TestCheckBond:
    def test_valid(self):
        report = tri_system().check_bond(bond(1, 0, 0))
        assert report.ok and bool(report)
        assert report.capacity_violations == () and report.cycle_violations == ()

    def test_cycle_violation(self):
        report = tri_system().check_bond(bond(1, 1, 1))
        assert not report
        assert report.capacity_violations == ()
        ((cycle, required, actual),) = report.cycle_violations
        assert required == 1 and actual == 3
        assert cycle.signs == {"a1": 1, "a2": 1, "a3": 1}

    def test_capacity_violations_all_reported(self):
        report = tri_system().check_bond(bond(2, 0, -1))
        assert set(report.capacity_violations) == {
            ("a1", 2, 0, 1),
            ("a3", -1, 0, 1),
        }

    def test_missing_arc(self):
        with pytest.raises(GraphError):
            tri_system().check_bond(Bond({"a1": 0}))


class TestFeasibility:
    def test_initial_bond_is_a_bond(self):
        s = tri_system()
        assert s.check_bond(find_initial_bond(s)).ok

    def test_infeasible_reference_certified(self):
        g = tri_graph()
        s = BondSystem(
            g,
            {a: 0 for a in ARCS},
            {a: 1 for a in ARCS},
            {"a1": 4, "a2": 0, "a3": 0},
            1,
        )
        with pytest.raises(InfeasibleSystemError) as exc:
            find_initial_bond(s)
        cert = exc.value
        # certificate must be checkable without trusting the solver
        assert flow_difference(s.reference, cert.cycle) == cert.required
        lo = sum(s.lower[a] for a in cert.cycle.forward_arcs()) - sum(
            s.upper[a] for a in cert.cycle.backward_arcs()
        )
        hi = sum(s.upper[a] for a in cert.cycle.forward_arcs()) - sum(
            s.lower[a] for a in cert.cycle.backward_arcs()
        )
        assert (cert.window_min, cert.window_max) == (lo, hi)
        assert not lo <= cert.required <= hi

    def test_parallel_arc_infeasibility(self):
        g = Multigraph([1, 2], [Arc("a", 1, 2), Arc("b", 1, 2)])
        s = BondSystem(g, {"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 0, "b": 5}, 1)
        with pytest.raises(InfeasibleSystemError):
            find_initial_bond(s)


def ring_document(n: int) -> dict:
    """The directed n-ring with windows [0, 1] and reference sum n + 1."""
    ids = [f"a{i}" for i in range(n)]
    return {
        "vertices": list(range(n)),
        "arcs": [{"id": a, "tail": i, "head": (i + 1) % n} for i, a in enumerate(ids)],
        "lower": dict.fromkeys(ids, 0),
        "upper": dict.fromkeys(ids, 1),
        "reference": {a: 2 if i == 0 else 1 for i, a in enumerate(ids)},
    }


def moved_grid_document(k: int) -> dict:
    """`grid_order_document(k)` with one reference moved out of its window."""
    doc = grid_order_document(k)
    doc["reference"]["h0_0"] = 5
    return doc


def certificate(system, source, reverse):
    """The distance pass's certificate as the arc-order oracle gives one."""
    with pytest.raises(InfeasibleSystemError) as exc:
        system._distances(source, reverse)
    e = exc.value
    return dict(e.cycle.signs), e.required, e.window_min, e.window_max


INFEASIBLE_AT_SCALE = {
    "ladder-40": ladder_document(40, 6, infeasible=True),
    "ladder-60": ladder_document(60, 13, infeasible=True),
    "ladder-76": ladder_document(76, 2, infeasible=True),
    "ladder-150": ladder_document(150, 4, infeasible=True),
    "grid-5": moved_grid_document(5),
    "grid-8": moved_grid_document(8),
    "grid-12": moved_grid_document(12),
    "ring-50": ring_document(50),
}


@pytest.mark.parametrize("doc", INFEASIBLE_AT_SCALE.values(), ids=INFEASIBLE_AT_SCALE)
def test_certificate_pass_that_jumps_matches_the_arc_order_oracle(doc):
    """Systems large enough that the certificate pass's rounds repeat, so it
    jumps to its last round's state, give the full forward pass's
    certificate, from three sources, whichever way the distance pass runs.
    The ring's negative cycle runs against the arc order, one predecessor
    edge moving each round, so that pass never jumps."""
    s = parse_system(doc)
    for source in dict.fromkeys((s.graph.vertices[0], s.graph.vertices[-1], s.forbidden)):
        forward = arc_order_distances(s, source, False)[1]
        for reverse in (False, True):
            assert certificate(s, source, reverse) == forward


class CountingEdges(tuple):
    """Constraint edges that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_certificate_pass_stops_once_its_rounds_repeat():
    """From its forbidden vertex, the 150-vertex ladder's rounds repeat
    every 2 from round 21, and the state saved at round 31 shows it at round
    33, so the pass reads the edges far fewer times than n - 1 = 149."""
    s = parse_system(INFEASIBLE_AT_SCALE["ladder-150"])
    s._edges = CountingEdges(s._edges)
    assert certificate(s, s.forbidden, False) == arc_order_distances(s, s.forbidden)[1]
    assert s._edges.passes < 40


def test_parent_walks_run_only_past_as_many_relaxations_as_edges(monkeypatch):
    """Feasible passes on a 30x30 grid and an 80-vertex ladder stay under
    2|A| relaxations, so none walks; an infeasible ladder's pass does."""
    walks = []
    walk = bonds._parent_cycle
    monkeypatch.setattr(bonds, "_parent_cycle", lambda parent: walks.append(len(parent)) or walk(parent))
    for doc in (grid_order_document(30), ladder_document(80, 5)):
        reduced = parse_system(doc).reduce()[0]
        assert reduced.check_bond(reduced.minimum_bond()).ok
    assert walks == []
    s = parse_system(ladder_document(76, 2, infeasible=True))
    assert certificate(s, s.forbidden, False) == arc_order_distances(s, s.forbidden)[1]
    assert walks


class TestValueRange:
    def test_triangle(self):
        s = tri_system()
        assert all(arc_value_range(s, a) == (0, 1) for a in ARCS)

    def test_rigid_when_delta_zero(self):
        s = tri_system(delta=0)
        assert all(arc_value_range(s, a) == (0, 0) for a in ARCS)
        assert s.reduce()[1].forced

    def test_tree_arc_spans_whole_window(self):
        s = path_system(0, 2)
        assert arc_value_range(s, "a") == (0, 2)
        assert arc_value_range(s, "b") == (0, 2)

    def test_matches_brute_force(self):
        s = tri_system()
        for a in ARCS:
            values = [x.value(a) for x in tension_bonds(s)]
            assert arc_value_range(s, a) == (min(values), max(values))


class TestReduce:
    def test_already_reduced_is_identity(self):
        s = star_system()
        reduced, contraction = s.reduce()
        assert reduced.graph == s.graph
        assert contraction.forced == {}
        assert contraction.vertex_map == {0: 0, 1: 1, 2: 2}

    def test_fully_rigid_collapses_to_a_point(self):
        reduced, contraction = tri_system(delta=0).reduce()
        assert reduced.graph.vertices == (1,)
        assert reduced.graph.arcs == ()
        assert contraction.forced == {"a1": 0, "a2": 0, "a3": 0}
        assert contraction.vertex_map == {1: 1, 2: 1, 3: 1}
        assert contraction.expand(Bond({})) == bond(0, 0, 0)

    def test_pinned_window_with_different_reference(self):
        # the forced value comes from a bond, not from the raw reference
        g = Multigraph([1, 2], [Arc("a", 1, 2)])
        s = BondSystem(g, {"a": 5}, {"a": 5}, {"a": 0}, 1)
        reduced, contraction = s.reduce()
        assert contraction.forced == {"a": 5}
        assert reduced.graph.vertices == (1,)
        assert contraction.vertex_map == {1: 1, 2: 1}

    def test_partial_reduction(self):
        g = tri_graph()
        s = BondSystem(
            g,
            {"a1": 0, "a2": 0, "a3": 0},
            {"a1": 1, "a2": 0, "a3": 1},
            {"a1": 1, "a2": 0, "a3": 0},
            1,
        )
        reduced, contraction = s.reduce()
        assert contraction.forced == {"a2": 0}
        assert {a.id for a in reduced.graph.arcs} == {"a1", "a3"}
        assert not reduced.reduce()[1].forced
        # reconstruction is a bijection onto the original bond set
        original = {x.as_tuple(ARCS) for x in tension_bonds(s)}
        expanded = {
            contraction.expand(x).as_tuple(ARCS)
            for x in tension_bonds(reduced)
        }
        assert expanded == original == {(1, 0, 0), (0, 0, 1)}
        for x in tension_bonds(reduced):
            assert s.check_bond(contraction.expand(x)).ok
            kept = contraction.expand(x).values.items()
            assert {a: v for a, v in kept if a not in contraction.forced} == x.values

    def test_rigidity_shows_only_around_a_long_cycle(self):
        # every window is wider than one value, so no arc is rigid on its
        # own: only the 200-arc cycle sum forces each cycle arc to 1
        n = 200
        arcs = [Arc(i, i, (i + 1) % n) for i in range(n)] + [Arc("p", 0, n)]
        s = BondSystem(
            Multigraph(range(n + 1), arcs),
            {a.id: 0 for a in arcs},
            {**{i: 1 for i in range(n)}, "p": 2},
            {a.id: 1 for a in arcs},
            0,
        )
        reduced, contraction = s.reduce()
        assert contraction.forced == {i: 1 for i in range(n)}
        assert contraction.vertex_map == {**{v: 0 for v in range(n)}, n: n}
        assert reduced.graph.arcs == (Arc("p", 0, n),)
        assert reduced.value_range("p") == (0, 2)

    def test_reduced_system_has_strict_ranges(self):
        reduced, _ = tri_system(delta=0).reduce()
        assert not reduced.reduce()[1].forced
        for a in reduced.graph.arcs:
            lo, hi = reduced.value_range(a.id)
            assert lo < hi


    def test_reduced_minimum_costs_one_distance_pass(self, monkeypatch):
        reduced, contraction = parse_system(path_document(30, False)).reduce()
        assert contraction.forced
        calls = []
        distances = BondSystem._distances

        def counted(system, source, reverse=False):
            calls.append((source, reverse))
            return distances(system, source, reverse)

        monkeypatch.setattr(BondSystem, "_distances", counted)
        reduced.minimum_bond()
        assert calls == [(reduced.forbidden, True)]


class TestPush:
    """A push adds a vertex set's cut vector; the library realises it by
    raising that set's push counts by one."""

    def test_single_vertex(self):
        s = tri_system()
        assert pushed(s, bond(1, 0, 0), {2}) == bond(0, 1, 0)
        assert s.bond_from_counts(Counter({2: 1})) == bond(0, 1, 0)
        assert s.bond_from_counts(Counter({2: 1, 3: 1})) == pushed(s, bond(0, 1, 0), {3}) == bond(0, 0, 1)

    def test_empty_set_is_identity(self):
        s = tri_system()
        assert pushed(s, bond(1, 0, 0), set()) == bond(1, 0, 0)
        assert s.bond_from_counts(Counter()) == s.minimum_bond() == bond(1, 0, 0)

    def test_set_push_composes_from_vertex_pushes(self):
        s = tri_system()
        x = bond(1, 0, 0)
        assert pushed(s, x, {2, 3}) == pushed(s, pushed(s, x, {2}), {3})
        assert s.bond_from_counts(s.push_counts(x) + Counter({2: 1, 3: 1})) == pushed(s, x, {2, 3})

    def test_push_preserves_cycle_differences(self):
        s = tri_system()
        x = bond(1, 0, 0)
        for inside in ({2}, {3}, {2, 3}):
            y = pushed(s, x, inside)
            for cycle, target in zip(s.cycles, s.targets):
                assert flow_difference(y, cycle) == target

    def test_legality(self):
        s = tri_system()
        assert s.check_bond(pushed(s, bond(1, 0, 0), {2})).ok
        report = s.check_bond(pushed(s, bond(1, 0, 0), {3}))  # a2 already at its floor
        assert report.capacity_violations == (("a2", -1, 0, 1),) and not report.cycle_violations
        assert not s.check_bond(pushed(s, bond(0, 0, 1), {2, 3})).ok

    def test_legal_push_yields_bond(self):
        s = star_system()
        for x in tension_bonds(s):
            counts = s.push_counts(x)
            for inside in ({1}, {2}, {1, 2}):
                y = pushed(s, x, inside)
                if all(s.lower[a] <= v <= s.upper[a] for a, v in y.values.items()):
                    assert s.check_bond(y).ok
                    assert s.push_counts(y) == counts + Counter(dict.fromkeys(inside, 1))


class TestMinimumBond:
    def test_triangle(self):
        assert tri_system().minimum_bond() == bond(1, 0, 0)

    def test_star(self):
        assert star_system().minimum_bond() == Bond({"a": 0, "b": 0})

    def test_single_vertex(self):
        s = BondSystem(Multigraph([7], []), {}, {}, {}, 7)
        assert s.minimum_bond() == Bond({})

    def test_requires_reduced(self):
        with pytest.raises(GraphError) as exc:
            tri_system(delta=0).minimum_bond()
        assert "reduce" in str(exc.value)

    def test_no_bond_lies_below(self):
        s = tri_system()
        m = s.minimum_bond()
        for x in tension_bonds(s):
            assert s.leq(m, x)

    def test_forbidden_choice_moves_the_minimum(self):
        assert tri_system(forbidden=2).minimum_bond() == bond(0, 1, 0)

    def test_long_path_is_fast(self):
        # the unpush walk this replaced took seconds on a 120-vertex path
        n = 120
        g = Multigraph(range(n), [Arc(i, i, i + 1) for i in range(n - 1)])
        arcs = range(n - 1)
        s = BondSystem(g, {i: -3 for i in arcs}, {i: 3 for i in arcs}, {i: 0 for i in arcs}, 0)
        start = time.perf_counter()
        minimum = s.minimum_bond()
        assert time.perf_counter() - start < 1.0
        assert minimum == Bond({i: 3 for i in arcs})


class TestPushCounts:
    def test_minimum_is_all_zero(self):
        s = tri_system()
        assert dict(s.push_counts(s.minimum_bond())) == {2: 0, 3: 0}

    def test_chain_counts(self):
        s = tri_system()
        assert dict(s.push_counts(bond(0, 1, 0))) == {2: 1, 3: 0}
        assert dict(s.push_counts(bond(0, 0, 1))) == {2: 1, 3: 1}

    def test_difference_identity(self):
        s = tri_system()
        m = s.minimum_bond()
        for x in tension_bonds(s):
            c = s.push_counts(x)
            full = {v: c[v] for v in s.graph.vertices}
            for a in s.graph.arcs:
                assert x.value(a.id) - m.value(a.id) == full[a.tail] - full[a.head]

    def test_roundtrip_bijection(self):
        for s in (tri_system(), star_system()):
            for x in tension_bonds(s):
                assert s.bond_from_counts(s.push_counts(x)) == x

    def test_non_bond_rejected(self):
        with pytest.raises(GraphError) as exc:
            tri_system().push_counts(bond(1, 1, 0))
        assert "not a bond" in str(exc.value)

    def test_below_minimum_rejected(self):
        with pytest.raises(GraphError) as exc:
            tri_system().push_counts(bond(2, -1, 0))
        assert "below the minimum" in str(exc.value)


class TestOrder:
    def test_reflexive(self):
        s = tri_system()
        for x in tension_bonds(s):
            assert s.leq(x, x)

    def test_triangle_chain(self):
        s = tri_system()
        assert s.leq(bond(1, 0, 0), bond(0, 1, 0))
        assert s.leq(bond(0, 1, 0), bond(0, 0, 1))
        assert s.leq(bond(1, 0, 0), bond(0, 0, 1))
        assert not s.leq(bond(0, 1, 0), bond(1, 0, 0))

    def test_star_incomparable_pair(self):
        s = star_system()
        x = Bond({"a": 1, "b": 0})
        y = Bond({"a": 0, "b": 1})
        assert not s.leq(x, y) and not s.leq(y, x)

    def test_meet_join_star(self):
        s = star_system()
        x = Bond({"a": 1, "b": 0})
        y = Bond({"a": 0, "b": 1})
        assert s.meet(x, y) == Bond({"a": 0, "b": 0})
        assert s.join(x, y) == Bond({"a": 1, "b": 1})

    def test_lattice_laws_hold_elementwise(self):
        s = star_system()
        elements = tension_bonds(s)
        for x in elements:
            for y in elements:
                assert s.meet(x, y) == s.meet(y, x)
                assert s.join(x, y) == s.join(y, x)
                assert s.meet(x, s.join(x, y)) == x  # absorption
                assert s.leq(s.meet(x, y), x)
                assert s.leq(x, s.join(x, y))

    def test_chain_join_is_the_top(self):
        s = tri_system()
        assert s.join(bond(1, 0, 0), bond(0, 0, 1)) == bond(0, 0, 1)
        assert s.meet(bond(0, 1, 0), bond(0, 0, 1)) == bond(0, 1, 0)


def best_time(prepare, run, rounds=3) -> float:
    """Least time of `run(prepare())` over a few rounds, `prepare` untimed."""
    best = float("inf")
    for _ in range(rounds):
        arg = prepare()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("reverse", [False, True], ids=["with the path", "against the path"])
class TestLongPath:
    """A 2,000-vertex path.  An arc-order Bellman-Ford needs one round per
    vertex on one of the two listings, and per-class reachability searches
    and per-vertex spanning-tree rescans are quadratic on both."""

    def test_initial_and_minimum_bond(self, reverse):
        doc = path_document(2000, reverse)

        def prepare():
            return parse_system(doc), parse_system(doc).reduce()[0]

        def run(systems):
            system, reduced = systems
            system.initial_bond()
            assert reduced.check_bond(reduced.minimum_bond()).ok

        assert best_time(prepare, run) < 0.05

    def test_reduce(self, reverse):
        doc = path_document(2000, reverse)

        def run(system):
            reduced, cmap = system.reduce()
            assert len(cmap.forced) == 286 and len(reduced.graph.vertices) == 2000 - 286

        assert best_time(lambda: parse_system(doc), run) < 0.2

